"""Command-line interface.

Subcommands:
  sweep     run the full ratio x quantization sweep and write the CSV
  snr       report the selected codeword and SNR for one (ratio, bits) point
  metrics   score decoded text / graph / embedding files against references

A sweep sends a symbol-matrix file through the configured channel at every
point when its config sets `symbol_matrix_path` and `received_matrix_dir`.

`rislink --print-default-config` emits the default scene as editable JSON.
"""

import argparse
import json
import sys

import numpy as np

from . import coding, metrics as metrics_mod
from .harness import ExperimentConfig, build_scene, configure_point, run_sweep
from .link import snr
from .ris import _check_bits


def _load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_json(path) if path else ExperimentConfig()


def _parse_bits(text):
    try:
        bits = None if text in (None, "none") else int(text)
    except ValueError:
        bits = text  # not a number, which the rule rejects
    _check_bits(bits, "--bits", "'none'", text)
    return bits


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    if args.out:
        cfg.output_path = args.out
    records = run_sweep(cfg, jobs=args.jobs,
                        quantize_before_select=args.quantize_before_select)
    print(f"wrote {len(records)} records to {cfg.output_path}")
    return 0


def cmd_snr(args) -> int:
    cfg = _load_config(args.config)
    scene = build_scene(cfg)
    bits = _parse_bits(args.bits)
    idx, ris_cfg, _ = configure_point(scene, args.ratio, bits)
    _, db = snr(ris_cfg.gain(scene.coefficients), scene.budget)
    print(f"ratio={args.ratio} bits={'none' if bits is None else bits} "
          f"codeword={idx} snr_db={db:.4f}")
    return 0


def _read_lines(path) -> list:
    """The lines of a text file without their line ends; a line end at the
    end of the file starts no further line."""
    text = coding.read_text(path)
    return text.removesuffix("\n").split("\n") if text else []


def cmd_metrics(args) -> int:
    metrics_mod.check_max_bleu(args.max_bleu, "--max-bleu")
    for pair in (("ref", "hyp"), ("ref_graph", "hyp_graph"), ("ref_emb", "hyp_emb")):
        ref, hyp = (bool(getattr(args, name)) for name in pair)
        if ref != hyp:
            given, missing = (f"--{name.replace('_', '-')}" for name in pair[::1 if ref else -1])
            raise ValueError(f"{given} needs {missing}")
    report = {}
    if args.ref:
        # line k of --hyp is scored against line k of --ref; a blank
        # hypothesis is an empty candidate, a blank reference has no score
        refs, hyps = _read_lines(args.ref), _read_lines(args.hyp)
        if not refs:
            raise ValueError(f"{args.ref}: file has no lines")
        for n, ref in enumerate(refs, 1):
            if not ref.strip():
                raise ValueError(f"{args.ref}: line {n} is blank")
        if len(refs) != len(hyps):
            raise ValueError(f"reference has {len(refs)} lines, hypothesis {len(hyps)}")
        table = metrics_mod.BleuReferences(map(metrics_mod.tokenize, refs))
        scores = table.scores(range(len(refs)), list(map(metrics_mod.tokenize, hyps)))
        report["bleu"] = float(np.mean(scores))
        report["rel_bleu"] = report["bleu"] / args.max_bleu
        report["char_err"] = float(
            np.mean([metrics_mod.char_error_rate(r, h) for r, h in zip(refs, hyps)])
        )
    if args.ref_graph:
        src = metrics_mod.load_graph(args.ref_graph)
        dec = metrics_mod.load_graph(args.hyp_graph)
        precision, recall, f1 = metrics_mod.triplet_f1(src, dec)
        report.update(precision=precision, recall=recall, f1=f1)
    if args.ref_emb:
        a = metrics_mod.load_embeddings(args.ref_emb)
        b = metrics_mod.load_embeddings(args.hyp_emb)
        if a.shape != b.shape:
            raise ValueError(f"embedding shapes differ: {a.shape} vs {b.shape}")
        if not len(a):
            raise ValueError("embedding files hold no vectors")
        sims = [metrics_mod.cosine_similarity(x, y) for x, y in zip(a, b)]
        report["similarity"] = float(np.mean(sims))
    if not report:
        raise ValueError("metrics needs --ref/--hyp, --ref-graph/--hyp-graph, "
                         "or --ref-emb/--hyp-emb")
    print(json.dumps(report, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rislink")
    parser.add_argument("--print-default-config", action="store_true",
                        help="emit the default scene config as JSON and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("sweep", help="run the ratio x quantization sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override the config's output CSV path")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--quantize-before-select", action="store_true",
                   help="re-rank codewords on quantized SNR (non-default scheme)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("snr", help="selected codeword and SNR at one point")
    p.add_argument("--config")
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--bits", default="none", help="1, 2, ... or 'none'")
    p.set_defaults(func=cmd_snr)

    p = sub.add_parser("metrics", help="score decoded outputs against references")
    p.add_argument("--ref", help="reference text, one sentence per line")
    p.add_argument("--hyp", help="decoded text, one sentence per line")
    p.add_argument("--ref-graph")
    p.add_argument("--hyp-graph")
    p.add_argument("--ref-emb")
    p.add_argument("--hyp-emb")
    p.add_argument("--max-bleu", type=float, default=0.6)
    p.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_default_config:
        print(ExperimentConfig().to_json())
        return 0
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
