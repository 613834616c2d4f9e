"""Per-layer metrics from a traced run: which rislink functions make up each
metric, and the work counters read from their arguments and results.

Each layer is one rislink module. Times are self times (a function's time
minus the time of the traced functions it calls) unless noted; counts and
times are per sweep. The end-to-end metric each one moves is listed in
perfbench/README.md.
"""

import numpy as np


def _symbols_sent(args, result):
    """Size of the SymbolMatrix (or plain array) passed first."""
    return int(np.size(getattr(args[0], "values", args[0])))


def _bits_decoded(args, result):
    return len(args[0])


# traced function -> [(counter, fn(args, result) -> number)]
COUNTERS = {
    "channel.los_channel": [
        ("channel.entries_built", lambda args, result: int(np.size(result.entries))),
    ],
    "ris.select_codeword": [("ris.codewords_scored", lambda args, result: len(args[0]))],
    # `transmit` delegates to `transmit_with_rng`, so only the latter counts
    "link.transmit_with_rng": [("link.symbols_sent", _symbols_sent)],
    "coding.huffman_decode": [("coding.bits_decoded", _bits_decoded)],
    "coding.sixbit_decode": [("coding.bits_decoded", _bits_decoded)],
    "metrics.levenshtein": [
        ("metrics.levenshtein_cells", lambda args, result: len(args[0]) * len(args[1])),
        ("metrics.levenshtein_identical", lambda args, result: int(args[0] == args[1])),
    ],
}

MODULES = ("geometry", "channel", "ris", "link", "coding", "metrics", "harness")

TRANSMIT = ("link.transmit", "link.transmit_with_rng")
GAIN = ("link.end_to_end_channel", "link.effective_gain", "link.snr", "link.snr_linear")


def per_layer(tracer, sweeps: int, cpu_s: float, overhead_s: float, points: int) -> dict:
    """Per-sweep layer metrics from `sweeps` traced sweeps."""

    def self_s(*keys):
        return sum(tracer.self_s[k] for k in keys) / sweeps

    def calls(*keys):
        return sum(tracer.calls[k] for k in keys) / sweeps

    def count(name):
        return tracer.counts[name] / sweeps

    lev_calls = tracer.calls["metrics.levenshtein"]
    out = {f"{m}.self_s": tracer.module_self_s(m) / sweeps for m in MODULES}
    out.update({
        "geometry.calls": tracer.module_calls("geometry") / sweeps,
        "channel.los_channel_s": self_s("channel.los_channel"),
        "channel.entries_built": count("channel.entries_built"),
        "ris.select_s": self_s("ris.select_codeword"),
        "ris.codewords_scored": count("ris.codewords_scored"),
        "ris.quantize_s": self_s("ris.quantize_phases"),
        "ris.quantize_calls": calls("ris.quantize_phases"),
        "ris.build_codebook_s": self_s("ris.build_codebook"),
        "link.transmit_s": self_s(*TRANSMIT),
        "link.transmit_calls": calls("link.transmit_with_rng"),
        "link.symbols_sent": count("link.symbols_sent"),
        "link.gain_s": self_s(*GAIN),
        "link.gain_calls": calls(*GAIN),
        "link.equalize_s": self_s("link.equalize"),
        "coding.modulate_s": self_s("coding.qpsk_modulate", "coding.qam16_modulate"),
        "coding.demodulate_s": self_s("coding.qpsk_demodulate", "coding.qam16_demodulate"),
        "coding.decode_s": self_s("coding.huffman_decode", "coding.sixbit_decode"),
        "coding.bits_decoded": count("coding.bits_decoded"),
        "metrics.levenshtein_s": self_s("metrics.levenshtein"),
        "metrics.levenshtein_calls": calls("metrics.levenshtein"),
        "metrics.levenshtein_cells": count("metrics.levenshtein_cells"),
        "metrics.identical_share": (
            tracer.counts["metrics.levenshtein_identical"] / lev_calls if lev_calls else 0.0
        ),
        "metrics.bleu_s": self_s("metrics.bleu"),
        "metrics.bleu_calls": calls("metrics.bleu"),
        "metrics.ber_s": self_s("metrics.bit_error_rate"),
        # inclusive times: the whole scene build and the whole CSV write
        "harness.build_scene_s": tracer.total_s["harness.build_scene"] / sweeps,
        "harness.csv_write_s": tracer.total_s["harness.write_records"] / sweeps,
        "harness.cpu_s": cpu_s,
        "harness.points": points,
        "trace_overhead_s": overhead_s,
    })
    return out


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"
