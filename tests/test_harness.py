import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus
from rislink import harness
from rislink.cli import main as cli_main
from rislink.coding import SymbolMatrix, load_symbol_matrix, store_symbol_matrix
from rislink.harness import (
    ArraySpec,
    ExperimentConfig,
    build_scene,
    configure_point,
    derive_seed,
    read_records,
    run_sweep,
    write_records,
)
from rislink.link import effective_gain, end_to_end_channel, snr_linear
from rislink.ris import RisConfiguration, active_mask, cascaded_coefficients, quantize_phases


def small_config(tmp_path, **overrides):
    corpus_path = tmp_path / "corpus.txt"
    corpus_path.write_text("\n".join(make_corpus(10)) + "\n")
    defaults = dict(
        tx=ArraySpec([0.0, 10.0, 0.0], 2, 2),
        rx=ArraySpec([10.0, 15.0, 0.0], 1, 1),
        ris=ArraySpec([10.0, 0.0, 0.0], 8, 8),
        codebook_grid=(8, 4),
        ratios=[0.25, 0.5, 1.0],
        quantizations=[1, None],
        corpus_path=str(corpus_path),
        output_path=str(tmp_path / "sweep.csv"),
        master_seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_default_config_is_paper_scene():
    cfg = ExperimentConfig()
    assert cfg.tx.center == [0.0, 10.0, 0.0] and (cfg.tx.rows, cfg.tx.cols) == (10, 10)
    assert cfg.rx.center == [10.0, 15.0, 0.0] and (cfg.rx.rows, cfg.rx.cols) == (1, 1)
    assert cfg.ris.center == [10.0, 0.0, 0.0] and (cfg.ris.rows, cfg.ris.cols) == (40, 40)
    assert cfg.frequency_hz == 28e9
    assert cfg.p_tx_w == 0.1
    assert cfg.noise_dbm == -120.0
    assert cfg.path_loss_exponent == 4.0


# payloads of the right JSON syntax but the wrong type for their key
MISTYPED_CONFIGS = [
    ("tx", [1, 2]),
    ("ratios", "ab"),
    ("ratios", [0.5, "x"]),
    ("codebook_grid", 5),
    ("noise_dbm", "hi"),
]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(ratios=[0.5, 0.2])  # not ascending
    with pytest.raises(ValueError):
        ExperimentConfig(ratios=[0.0, 0.5])
    with pytest.raises(ValueError):
        ExperimentConfig(quantizations=[])
    with pytest.raises(ValueError):
        ExperimentConfig(quantizations=[0])
    with pytest.raises(ValueError):
        ExperimentConfig(baselines=["morse"])
    with pytest.raises(ValueError):
        ExperimentConfig(modulation="1024qam")
    with pytest.raises(ValueError):
        ExperimentConfig(quantizations=[True])  # a bool is not a bit count
    for ratios in ([], [0.5, 0.5]):  # nothing to sweep; duplicate records
        with pytest.raises(ValueError):
            ExperimentConfig(ratios=ratios)
    with pytest.raises(ValueError):
        ExperimentConfig(quantizations=[1, None, 1])
    for max_bleu in (0, -0.5, "0.6"):
        with pytest.raises(ValueError):
            ExperimentConfig(max_bleu=max_bleu)
    for key, value in MISTYPED_CONFIGS:
        with pytest.raises(ValueError):
            ExperimentConfig(**{key: value})


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from([f.name for f in fields(ExperimentConfig)]),
       value=JSON_VALUES)
def test_config_any_json_value_is_accepted_or_value_error(key, value):
    try:
        ExperimentConfig(**{key: value})
    except ValueError:
        pass


def test_config_json_round_trip(tmp_path):
    cfg = ExperimentConfig(ratios=[0.2, 1.0], master_seed=3)
    path = tmp_path / "cfg.json"
    cfg.to_json(path)
    assert ExperimentConfig.from_json(path) == cfg


def test_config_unknown_keys_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    for payload in ({"master_sed": 1}, {"reference_text_path": "ref.txt"},
                    {"reference_graph_path": "g.json"}, {"embeddings_path": "e.json"}, [1]):
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(path)


def test_scene_orientations_front_halfspace():
    scene = build_scene(ExperimentConfig())
    u_tx = scene.tx.center - scene.ris.center
    u_rx = scene.rx.center - scene.ris.center
    assert np.dot(scene.ris.normal, u_tx) > 0
    assert np.dot(scene.ris.normal, u_rx) > 0
    # tx faces the RIS
    assert np.dot(scene.tx.normal, scene.ris.center - scene.tx.center) > 0


def test_record_count_and_schema(tmp_path):
    cfg = small_config(tmp_path)
    records = run_sweep(cfg)
    assert len(records) == len(cfg.ratios) * len(cfg.quantizations) * 2
    keys = {(r.ratio, r.bits, r.method) for r in records}
    assert len(keys) == len(records)  # one record per triple
    for r in records:
        assert r.method in ("huffman", "sixbit")
        assert r.ber is not None and r.char_err is not None
        assert r.rel_bleu == pytest.approx(r.bleu / cfg.max_bleu)


def test_csv_round_trip(tmp_path):
    cfg = small_config(tmp_path)
    records = run_sweep(cfg)
    assert read_records(cfg.output_path) == records


def test_read_records_rejects_bad_header_and_short_row(tmp_path):
    path = tmp_path / "sweep.csv"
    header = ",".join(harness.CSV_COLUMNS)
    for text in ("", "ratio,bits\n", header.replace("seed", "f1,similarity,seed") + "\n",
                 header + "\n0.5,1,3,10.0,huffman,0.0,0.0,1.0\n"):
        path.write_text(text)
        with pytest.raises(ValueError):
            read_records(path)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


@pytest.mark.parametrize("before, selections", [(False, 3), (True, 9)])
def test_sweep_selects_once_per_ratio(tmp_path, monkeypatch, before, selections):
    # the default order scores the codebook once per ratio and quantizes the
    # winner per bits; quantize-before-select re-ranks once per (ratio, bits)
    cfg = small_config(tmp_path, quantizations=[1, 2, None])
    selected = count_calls(monkeypatch, "select_codeword")
    sent = count_calls(monkeypatch, "transmit_with_rng")
    records = run_sweep(cfg, quantize_before_select=before, write_csv=False)
    assert len(selected) == selections
    # one channel pass per (point, corpus method), carrying the whole corpus
    assert len(sent) == len(records) == 3 * 3 * 2
    assert all(args[0].shape[0] == 1 for args in sent)


def test_configure_point_scores_codebook_once(tmp_path, monkeypatch):
    scene = build_scene(small_config(tmp_path))
    selected = count_calls(monkeypatch, "select_codeword")
    for bits in (None, 1):
        for before in (False, True):
            configure_point(scene, 1.0, bits, before)
    assert len(selected) == 4


def test_sweep_deterministic_across_parallelism(tmp_path):
    cfg = small_config(tmp_path, output_path=str(tmp_path / "a.csv"))
    run_sweep(cfg, jobs=1)
    blob1 = (tmp_path / "a.csv").read_bytes()
    cfg2 = small_config(tmp_path, output_path=str(tmp_path / "b.csv"))
    run_sweep(cfg2, jobs=4)
    blob2 = (tmp_path / "b.csv").read_bytes()
    assert blob1 == blob2


def test_noiseless_override_gives_zero_char_error(tmp_path):
    cfg = small_config(
        tmp_path, noise_dbm=-300.0, ratios=[1.0], quantizations=[None],
        baselines=["huffman"],
    )
    records = run_sweep(cfg, write_csv=False)
    assert len(records) == 1
    assert records[0].char_err == 0.0
    assert records[0].ber == 0.0
    assert records[0].bleu == pytest.approx(1.0)


def nondecreasing_one_step_tolerance(values):
    """Codebook-only selection may dip by one grid step; require each point
    to be beaten within the next step."""
    for i in range(1, len(values)):
        ok_now = values[i] >= values[i - 1] * (1 - 1e-9)
        ok_next = i + 1 < len(values) and values[i + 1] >= values[i - 1] * (1 - 1e-9)
        if not (ok_now or ok_next):
            return False
    return True


def test_snr_nondecreasing_in_ratio_continuous(tmp_path):
    cfg = small_config(tmp_path, ratios=[0.1, 0.25, 0.5, 0.75, 1.0],
                       quantizations=[None], codebook_grid=(16, 8))
    scene = build_scene(cfg)
    snrs = [configure_point(scene, r, None)[2] for r in cfg.ratios]
    assert nondecreasing_one_step_tolerance(snrs)


def test_snr_nondecreasing_with_planted_oracle_direction(tmp_path):
    # with the conjugate oracle available the masked gain is exactly
    # monotone in the active set
    from rislink.link import snr_linear
    from rislink.ris import active_mask, cascaded_coefficients, conjugate_phases

    cfg = small_config(tmp_path)
    scene = build_scene(cfg)
    c = cascaded_coefficients(scene.h_ris_tx, scene.h_rx_ris,
                              scene.budget.w_tx, scene.budget.w_rx)
    snrs = []
    for ratio in [0.1, 0.25, 0.5, 0.75, 1.0]:
        mask = active_mask(scene.ris, ratio)
        oracle = conjugate_phases(scene.h_ris_tx, scene.h_rx_ris,
                                  scene.budget.w_tx, scene.budget.w_rx, mask)
        snrs.append(snr_linear(np.sum(oracle.reflection_coefficients() * c),
                               scene.budget))
    assert all(b >= a for a, b in zip(snrs, snrs[1:]))


def test_selection_order_continuous_then_quantize(tmp_path):
    cfg = small_config(tmp_path)
    scene = build_scene(cfg)
    idx_cont, _, _ = configure_point(scene, 1.0, None)
    idx_q, cfg_q, _ = configure_point(scene, 1.0, 1)
    assert idx_q == idx_cont  # index chosen on continuous SNR, then quantized
    assert cfg_q.quantization_bits == 1
    step = np.pi
    active = cfg_q.phases[cfg_q.active_mask]
    np.testing.assert_allclose(np.mod(active, step), 0.0, atol=1e-9)


def test_quantize_before_select_never_worse(tmp_path):
    cfg = small_config(tmp_path)
    scene = build_scene(cfg)
    for ratio in cfg.ratios:
        _, _, snr_default = configure_point(scene, ratio, 1)
        _, _, snr_strong = configure_point(scene, ratio, 1, quantize_before_select=True)
        assert snr_strong >= snr_default * (1 - 1e-12)


def test_configure_point_gain_matches_composed_channel():
    # the gain applied per point equals the full end-to-end composition, and
    # the index equals a per-codeword scan ranked on that gain's power
    scene = build_scene(ExperimentConfig())
    c = cascaded_coefficients(scene.h_ris_tx, scene.h_rx_ris,
                              scene.budget.w_tx, scene.budget.w_rx)

    def scan(mask, bits):
        powers = []
        for phases in scene.codebook.phases:
            candidate = RisConfiguration(phases, mask)
            if bits is not None:
                candidate = quantize_phases(candidate, bits)
            powers.append(abs(np.sum(candidate.reflection_coefficients() * c)) ** 2)
        return int(np.argmax(powers))

    for ratio in (0.05, 0.5, 1.0):
        mask = active_mask(scene.ris, ratio)
        scans = {None: scan(mask, None)}
        for bits in (None, 1, 2):
            for before in (False, True):
                idx, cfg, snr_lin = configure_point(scene, ratio, bits, before)
                g = effective_gain(
                    end_to_end_channel(scene.h_ris_tx, cfg, scene.h_rx_ris), scene.budget
                )
                assert cfg.gain(scene.coefficients) == pytest.approx(g, rel=1e-12)
                assert snr_lin == pytest.approx(snr_linear(g, scene.budget), rel=1e-12)
                scan_bits = bits if before else None
                if scan_bits not in scans:
                    scans[scan_bits] = scan(mask, scan_bits)
                assert idx == scans[scan_bits]


def test_semantic_matrix_route(tmp_path):
    rng = np.random.default_rng(0)
    matrix = SymbolMatrix(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))
    matrix_path = tmp_path / "symbols.json"
    store_symbol_matrix(matrix, matrix_path)
    out_dir = tmp_path / "received"
    out_dir.mkdir()
    cfg = small_config(
        tmp_path,
        corpus_path=None,
        baselines=[],
        symbol_matrix_path=str(matrix_path),
        received_matrix_dir=str(out_dir),
        ratios=[1.0],
        quantizations=[None],
    )
    records = run_sweep(cfg, write_csv=False)
    assert [r.method for r in records] == ["semantic"]
    assert records[0].ber is None
    received = load_symbol_matrix(out_dir / "semantic_r1.0_bnone.json")
    assert received.shape == (5, 3)


def test_sweep_without_inputs_fails(tmp_path):
    cfg = small_config(tmp_path, corpus_path=None, baselines=[])
    with pytest.raises(ValueError):
        run_sweep(cfg, write_csv=False)
    blank = tmp_path / "blank.txt"
    blank.write_text("\n  \n")
    with pytest.raises(ValueError, match="no sentences"):
        run_sweep(small_config(tmp_path, corpus_path=str(blank)), write_csv=False)


def test_derive_seed_stable():
    assert derive_seed(7, 1, 2, 3) == derive_seed(7, 1, 2, 3)
    assert derive_seed(7, 1, 2, 3) != derive_seed(7, 1, 2, 4)


def test_write_records_atomic(tmp_path):
    path = tmp_path / "out.csv"
    write_records([], path)
    assert path.exists()
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


# --- CLI ----------------------------------------------------------------------


def cli_config(tmp_path):
    cfg = small_config(tmp_path)
    path = tmp_path / "cfg.json"
    cfg.to_json(path)
    return path


def test_cli_print_default_config(capsys):
    assert cli_main(["--print-default-config"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["frequency_hz"] == 28e9


def test_cli_sweep_and_snr(tmp_path, capsys):
    cfg_path = cli_config(tmp_path)
    out = tmp_path / "out.csv"
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert out.exists()
    assert cli_main(["snr", "--config", str(cfg_path), "--ratio", "1.0",
                     "--bits", "1"]) == 0
    text = capsys.readouterr().out
    assert "snr_db=" in text


def test_cli_snr_noiseless_ranks_by_gain(tmp_path, capsys):
    # with noise_power = 0 every codeword has infinite SNR; ranking must use
    # the gain, which picks the same codeword as the default noise floor
    path = tmp_path / "noiseless.json"
    path.write_text(json.dumps({"noise_dbm": -math.inf}))
    for config in ([], ["--config", str(path)]):
        assert cli_main(["snr", *config, "--ratio", "1.0", "--bits", "none"]) == 0
        assert "codeword=324 " in capsys.readouterr().out


def test_cli_codebook(tmp_path):
    cfg_path = cli_config(tmp_path)
    out = tmp_path / "cb.json"
    assert cli_main(["codebook", "--config", str(cfg_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["entries"]) == 32


def test_cli_transmit_shape_preserved(tmp_path):
    cfg_path = cli_config(tmp_path)
    rng = np.random.default_rng(1)
    m = SymbolMatrix(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))
    infile = tmp_path / "in.json"
    store_symbol_matrix(m, infile)
    outfile = tmp_path / "out.json"
    assert cli_main(["transmit", "--config", str(cfg_path), "--in", str(infile),
                     "--out", str(outfile), "--ratio", "1.0", "--seed", "5"]) == 0
    assert load_symbol_matrix(outfile).shape == (5, 3)


def test_cli_metrics_identity(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    ref.write_text("the node reports a value.\n")
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps({"nodes": ["a", "b"], "edges": [[0, 1, "r"]]}))
    assert cli_main(["metrics", "--ref", str(ref), "--hyp", str(ref),
                     "--ref-graph", str(graph_path), "--hyp-graph", str(graph_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bleu"] == pytest.approx(1.0)
    assert report["f1"] == pytest.approx(1.0)
    assert report["char_err"] == 0.0


def test_cli_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli_main(["sweep", "--config", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", MISTYPED_CONFIGS)
def test_cli_mistyped_config_exits_1(tmp_path, capsys, key, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    assert cli_main(["snr", "--config", str(path), "--ratio", "1.0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
