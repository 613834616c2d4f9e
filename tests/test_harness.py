import argparse
import csv
import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import fields
from functools import cached_property, reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bit_error_rate, bit_error_rates, make_corpus
from rislink import coding, harness, metrics
from rislink.channel import PathLossModel, los_channel, wavelength
from rislink.cli import build_parser
from rislink.cli import main as cli_main
from rislink.coding import SymbolMatrix, load_symbol_matrix, store_symbol_matrix
from rislink.harness import (
    ArraySpec,
    ExperimentConfig,
    build_scene,
    configure_point,
    derive_seeds,
    run_sweep,
    write_records,
)
from rislink.link import (
    LinkBudget,
    effective_gain,
    end_to_end_channel,
    receive_bits,
    snr,
    snr_linear,
    transmit,
)
from rislink.ris import (
    MAX_BITS,
    RisConfiguration,
    active_mask,
    cascaded_coefficients,
    quantize_phases,
)


SAMPLE_CORPUS = Path(__file__).resolve().parents[1] / "data" / "sample_corpus.txt"
SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"
BENCHMARK_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


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
    for max_bleu in (0, -0.5, "0.6", math.inf, True, 10**400):
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
    path.write_text(cfg.to_json())
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


def read_csv(path) -> list:
    """The rows of a sweep CSV as dicts, after checking its header."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    assert reader.fieldnames == [f.name for f in fields(harness.SweepRecord)]
    return rows


def test_csv_round_trip(tmp_path):
    # every float cell reads back as the record's value, exactly; bits reads
    # "none" for continuous phases
    cfg = small_config(tmp_path)
    records = run_sweep(cfg)
    rows = read_csv(cfg.output_path)
    assert len(rows) == len(records)
    for r, row in zip(records, rows):
        assert row["bits"] == ("none" if r.bits is None else str(r.bits))
        assert (row["method"], int(row["codeword"]), int(row["seed"])) == (
            r.method, r.codeword, r.seed)
        for name in ("ratio", "snr_db", "ber", "char_err", "bleu", "rel_bleu"):
            assert float(row[name]) == getattr(r, name)


def count_calls(monkeypatch, name, module=harness):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("before, selections", [(False, 1), (True, 3)])
def test_sweep_selects_once_per_ratio(tmp_path, monkeypatch, before, selections):
    # every ratio is selected in one pass over the codebook per depth: the
    # default order scores it once on continuous phases and quantizes each
    # ratio's winner per bits; quantize-before-select re-ranks once per bits.
    # At -60 dBm every point is below 60 dB, so every row is drawn
    cfg = small_config(tmp_path, quantizations=[1, 2, None], noise_dbm=-60.0)
    selected = count_calls(monkeypatch, "_select_rows")
    sent = count_calls(monkeypatch, "receive_bits")
    records = run_sweep(cfg, quantize_before_select=before)
    assert len(selected) == selections
    assert all(len(args[2]) == len(cfg.ratios) for args in selected)
    assert all(r.snr_db < 60.0 for r in records)
    # one draw per (point, corpus method), of the whole corpus's row of bits
    assert len(sent) == len(records) == 3 * 3 * 2
    assert all(args[0].ndim == 1 for args in sent)
    # at the default -120 dBm floor every point is above 60 dB: no row is drawn
    sent.clear()
    records = run_sweep(small_config(tmp_path, quantizations=[1, 2, None]),
                        quantize_before_select=before)
    assert len(records) == 3 * 3 * 2 and all(r.snr_db >= 60.0 for r in records)
    assert len(sent) == 0


def traced_build_scene(cfg):
    """(scene, bytes retained, peak bytes) of build_scene under tracemalloc."""
    tracemalloc.start()
    try:
        scene = build_scene(cfg)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return scene, retained, peak


def test_build_scene_retains_no_codeword_arrays():
    # the default scene keeps the codebook's 1296 directions and c (1600
    # elements), but no channel matrix (the 1600 x 100 one is 2.4 MiB) and
    # no per-codeword arrays: 1296 phase rows of 1600 elements would add
    # 15.8 MiB
    scene, retained, _ = traced_build_scene(ExperimentConfig())
    assert len(scene.codebook) == 1296
    assert retained < 2**19


def test_build_scene_peak_memory():
    # c is built a block of RIS elements at a time; the whole 1600 x 100
    # channel built through (1600, 100, 3) float temporaries peaked at
    # 17.1 MiB
    _, _, peak = traced_build_scene(ExperimentConfig())
    assert peak < 4 * 2**20


def test_scene_channels_are_los_channels():
    cfg = ExperimentConfig()
    scene = build_scene(cfg)
    lam = wavelength(cfg.frequency_hz)
    pl = PathLossModel(cfg.path_loss_exponent)
    for built, (tx, rx) in ((scene.h_ris_tx, (scene.tx, scene.ris)),
                            (scene.h_rx_ris, (scene.ris, scene.rx))):
        expected = los_channel(tx, rx, lam, pl)
        assert np.array_equal(built.entries, expected.entries)
    # the scene's c is the one the two matrices give
    budget = scene.budget
    assert np.array_equal(scene.coefficients, cascaded_coefficients(
        scene.h_ris_tx, scene.h_rx_ris, budget.w_tx, budget.w_rx))


def test_scene_objects_hash_and_compare_by_identity(tmp_path):
    # as frozen dataclasses, the ones that hold arrays raised ValueError on
    # == between two instances and TypeError on hash(), and so did
    # HuffmanCode's hash(): none could be a set member or compared
    def parts(scene):
        _, ris_cfg, _ = configure_point(scene, 1.0, 1)
        return [scene.tx, scene.rx, scene.ris, scene.budget, scene.path_loss, scene.codebook,
                scene.h_ris_tx, scene.h_rx_ris, ris_cfg]

    cfg = small_config(tmp_path)
    first, second = parts(build_scene(cfg)), parts(build_scene(cfg))
    others = [SymbolMatrix(np.ones((2, 3))), coding.huffman_build({"a": 3, "b": 1})]
    members = set(first + second + others)
    assert len(members) == len(first + second + others)
    assert all(x in members for x in first + second + others)
    assert all(x == x and x != y for x, y in zip(first, second))


BLAS_THREADS_CHILD = """\
import sys
import numpy as np
from rislink.harness import ArraySpec, ExperimentConfig, build_scene
from rislink.ris import cascaded_coefficients, conjugate_phases, select_codeword
cfg = ExperimentConfig(rx=ArraySpec([10.0, 15.0, 0.0], 3, 5),
                       ris=ArraySpec([10.0, 0.0, 0.0], 33, 41))
scene = build_scene(cfg)
h_in, h_out, budget = scene.h_ris_tx, scene.h_rx_ris, scene.budget
mask = np.ones(scene.coefficients.size, dtype=bool)
idx, cfg, snr = select_codeword(scene.codebook, h_in, h_out, budget, mask)
oracle = conjugate_phases(h_in, h_out, budget.w_tx, budget.w_rx, mask)
np.savez(sys.argv[1], scene=scene.coefficients,
         c=cascaded_coefficients(h_in, h_out, budget.w_tx, budget.w_rx),
         selected=[idx, snr], phases=cfg.phases, oracle=oracle.phases)
"""


def test_coefficients_do_not_depend_on_blas_threads(tmp_path):
    # with 2 BLAS threads, whole-matrix products over this geometry rounded
    # coefficients 676 and 1352 differently than 1 thread and the blocks of
    # the scene's c did; every path now reduces in the same blocks
    out = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=str(SRC))
        path = tmp_path / f"threads{threads}.npz"
        subprocess.run([sys.executable, "-c", BLAS_THREADS_CHILD, str(path)],
                       env=env, check=True, timeout=300)
        out[threads] = dict(np.load(path))
    for got in out.values():
        np.testing.assert_array_equal(got["c"], got["scene"])
        for key in ("scene", "selected", "phases", "oracle"):
            np.testing.assert_array_equal(got[key], out["1"][key])


@pytest.mark.parametrize("before", [False, True])
def test_sweep_builds_no_channel_matrix(tmp_path, monkeypatch, before):
    built = count_calls(monkeypatch, "los_channel")
    run_sweep(small_config(tmp_path), quantize_before_select=before)
    assert built == []
    # the scene builds each matrix on first access, once
    scene = build_scene(small_config(tmp_path))
    h = scene.h_ris_tx
    assert scene.h_ris_tx is h and len(built) == 1


def test_configure_point_scores_codebook_once(tmp_path, monkeypatch):
    scene = build_scene(small_config(tmp_path))
    selected = count_calls(monkeypatch, "_select_rows")
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


def test_scoring_tables_are_built_only_when_a_row_errs(tmp_path, monkeypatch):
    # at -120 dBm every row of the small scene is at or above 60 dB, so no
    # sentence is decoded and no corpus builds its BLEU, edit-distance,
    # tokenizer or column tables; at a noisy floor, where every ratio has
    # errored rows, each corpus builds each table once, on the thread that
    # calls run_sweep, with jobs 1 or 4, and jobs does not change a byte
    expected = run_sweep(small_config(tmp_path, output_path=str(tmp_path / "a.csv")))
    assert min(r.snr_db for r in expected) >= 60.0
    built = {name: [] for name in ("BleuReferences", "EditReferences", "SymbolTokenizer",
                                   "columns")}

    def on_thread(name, build):
        def counted(*args):
            built[name].append(threading.current_thread())
            return build(*args)
        return counted

    for name in ("BleuReferences", "EditReferences", "SymbolTokenizer"):
        monkeypatch.setattr(metrics, name, on_thread(name, getattr(metrics, name)))
    columns = cached_property(on_thread("columns", harness._Corpus.columns.func))
    columns.__set_name__(harness._Corpus, "columns")
    monkeypatch.setattr(harness._Corpus, "columns", columns)

    assert run_sweep(small_config(tmp_path, output_path=str(tmp_path / "b.csv"))) == expected
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert built == {name: [] for name in built}
    blobs = []
    interval = sys.getswitchinterval()
    for jobs in (1, 4):
        cfg = small_config(tmp_path, noise_dbm=16.0, output_path=str(tmp_path / f"{jobs}.csv"))
        for calls in built.values():
            calls.clear()
        sys.setswitchinterval(1e-6)  # threads that raced to build a table would switch often
        try:
            records = run_sweep(cfg, jobs=jobs)
        finally:
            sys.setswitchinterval(interval)
        blobs.append(Path(cfg.output_path).read_bytes())
        assert {r.ratio for r in records if r.ber > 0} == set(cfg.ratios)
        # once per corpus (huffman, sixbit), on this thread
        assert built == {name: [threading.current_thread()] * 2 for name in built}
    assert blobs[0] == blobs[1]


def test_clean_sweep_neither_encodes_nor_modulates_a_sentence(tmp_path, monkeypatch):
    # the benchmark's sweep-clean: every point is at 124-149 dB, so no row is
    # drawn and no corpus is folded, encoded or modulated, yet every record
    # is as before
    cfg = ExperimentConfig(corpus_path=str(SAMPLE_CORPUS), master_seed=11,
                           output_path=str(tmp_path / "a.csv"))
    expected = run_sweep(cfg)

    def boom(*args):
        raise AssertionError("a corpus was encoded or modulated")

    for name in ("huffman_encode", "sixbit_encode_folded", "sixbit_fold", "qpsk_modulate"):
        monkeypatch.setattr(coding, name, boom)
    monkeypatch.setitem(coding.MODULATIONS, "qpsk", (boom, coding.qpsk_demodulate))
    cfg.output_path = str(tmp_path / "b.csv")
    assert run_sweep(cfg) == expected
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_layout_is_built_once_on_the_calling_thread(tmp_path, monkeypatch):
    # at -81 dBm the small scene's points lie at 55-64 dB, on both sides of
    # ERROR_FREE_SNR: each corpus builds its layout once, on the thread that
    # calls run_sweep, before any worker sends a row; at -120 dBm never
    built = []

    def on_thread(corpus):
        built.append((corpus.name, threading.current_thread()))
        return build(corpus)

    build = harness._Corpus.layout.func
    layout = cached_property(on_thread)
    layout.__set_name__(harness._Corpus, "layout")
    monkeypatch.setattr(harness._Corpus, "layout", layout)
    run_sweep(small_config(tmp_path))
    assert built == []
    blobs = []
    interval = sys.getswitchinterval()
    for jobs in (1, 4):
        cfg = small_config(tmp_path, noise_dbm=-81.0, output_path=str(tmp_path / f"{jobs}.csv"))
        built.clear()
        sys.setswitchinterval(1e-6)  # threads that raced to build a layout would switch often
        try:
            records = run_sweep(cfg, jobs=jobs)
        finally:
            sys.setswitchinterval(interval)
        blobs.append(Path(cfg.output_path).read_bytes())
        snrs = [r.snr_db for r in records]
        assert min(snrs) < 60.0 < max(snrs)
        assert built == [(name, threading.current_thread()) for name in ("huffman", "sixbit")]
    assert blobs[0] == blobs[1]


def test_cli_one_character_corpus_exits_1(tmp_path, capsys):
    # no Huffman code has one symbol: the corpus fails when it is read, as
    # before its layout was built lazily, not when a row is drawn
    corpus_path = tmp_path / "one.txt"
    corpus_path.write_text("aaaa\naa\n")
    path = tmp_path / "cfg.json"
    path.write_text(small_config(tmp_path, corpus_path=str(corpus_path)).to_json())
    assert cli_main(["sweep", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: huffman_build needs at least 2 symbols") and err.count("\n") == 1
    assert not (tmp_path / "sweep.csv").exists()


def test_cli_bad_output_paths_exit_1_before_the_sweep(tmp_path, capsys, monkeypatch):
    # each failed only after the whole sweep, or inside the pool, naming a
    # temp file, or (a received_matrix_dir with no symbol matrix to store
    # there) was ignored; now each is one line naming the field, before any work
    scenes = count_calls(monkeypatch, "build_scene")
    matrix_path = tmp_path / "m.json"
    store_symbol_matrix(SymbolMatrix(np.ones((2, 3), dtype=complex)), matrix_path)
    missing = str(tmp_path / "nonexistent" / "dir")
    cases = [
        ({"output_path": os.path.join(missing, "o.csv")}, [], "output_path must be "),
        ({}, ["--out", str(tmp_path)], "output_path must be "),
        ({"symbol_matrix_path": str(matrix_path), "received_matrix_dir": missing}, [],
         "received_matrix_dir must be an existing directory"),
        ({"received_matrix_dir": missing}, [],
         "received_matrix_dir must be null unless symbol_matrix_path is set"),
    ]
    for overrides, args, message in cases:
        config = dict(json.loads(small_config(tmp_path).to_json()), **overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli_main(["sweep", "--config", str(path), "--jobs", "4", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {message}")
    assert scenes == []
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "corpus.txt", "m.json"]


def test_sweep_deterministic_across_parallelism_with_errors(tmp_path):
    # at this noise floor every row has errored sentences, so the rows of a
    # ratio are decoded and scored together; and the semantic route rides along
    cfg = small_config(tmp_path, noise_dbm=16.0, quantizations=[1, 2, None])
    store_symbol_matrix(SymbolMatrix(np.exp(1j * np.arange(12.0)).reshape(3, 4)),
                        tmp_path / "m.json")
    cfg.symbol_matrix_path = str(tmp_path / "m.json")
    blobs = []
    for jobs in (1, 4):
        cfg.output_path = str(tmp_path / f"jobs{jobs}.csv")
        records = run_sweep(cfg, jobs=jobs)
        blobs.append(Path(cfg.output_path).read_bytes())
    assert blobs[0] == blobs[1]
    corpus_records = [r for r in records if r.method != "semantic"]
    assert len(records) == 3 * 3 * 3 and len(corpus_records) == 18
    assert all(0 < r.ber and 0 < r.char_err and r.bleu < 1 for r in corpus_records)


@pytest.mark.parametrize("jobs", [0, -3, True, 1.5, "2"])
def test_sweep_rejects_invalid_jobs(tmp_path, capsys, jobs):
    # 0 and negative counts used to run serially without a word
    with pytest.raises(ValueError, match="jobs"):
        run_sweep(small_config(tmp_path), jobs=jobs)
    if isinstance(jobs, int) and not isinstance(jobs, bool):
        cfg_path = cli_config(tmp_path)
        assert cli_main(["sweep", "--config", str(cfg_path), "--jobs", str(jobs)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: jobs") and err.count("\n") == 1


def test_sweep_checks_ratios_assigned_after_construction(tmp_path):
    # the constructor rejects these ratios, yet assigned later they swept
    # without a word
    cfg = small_config(tmp_path)
    cfg.ratios = [0.5, 0.1]
    with pytest.raises(ValueError, match="^ratios must be strictly ascending$"):
        run_sweep(cfg)
    assert not Path(cfg.output_path).exists()


def test_sweep_checks_a_received_matrix_dir_assigned_after_construction(tmp_path):
    # on a corpus-only config this raised AttributeError from inside the pool
    cfg = small_config(tmp_path)
    cfg.received_matrix_dir = str(tmp_path)
    with pytest.raises(ValueError, match="^received_matrix_dir must be null unless "
                                         "symbol_matrix_path is set, got "):
        run_sweep(cfg)
    assert not Path(cfg.output_path).exists()


@pytest.mark.parametrize("name, value, message", [
    ("center", [math.nan, 0.0, 0.0], "center must be 3 finite numbers, got [nan, 0.0, 0.0]"),
    ("rows", 0, "rows and cols must be positive integers, got (0, 8)"),
    ("spacing", -1.0, "spacing must be a positive finite number, got -1.0"),
])
def test_sweep_checks_an_array_field_assigned_after_construction(tmp_path, name, value,
                                                                 message):
    # the sweep's copy of the config kept the same ArraySpec objects, so a
    # NaN center failed later as "frequency_hz must be large enough ..."
    cfg = small_config(tmp_path)
    setattr(cfg.ris, name, value)
    with pytest.raises(ValueError, match=f"^{re.escape('ris: ' + message)}$"):
        run_sweep(cfg)
    assert not Path(cfg.output_path).exists()


def test_noiseless_override_gives_zero_char_error(tmp_path):
    cfg = small_config(
        tmp_path, noise_dbm=-300.0, ratios=[1.0], quantizations=[None],
        baselines=["huffman"],
    )
    records = run_sweep(cfg)
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


def short_sentence_corpora(tmp_path, modulation):
    """Both methods' corpora of sentences 1..12 characters long, so that
    some sentences' bit counts are not whole symbols (sixbit: an odd length
    under 16qam; Huffman: any) and each sentence's own pad follows its bits
    in the demodulated row."""
    corpus_path = tmp_path / "short.txt"  # small_config writes its own corpus.txt
    corpus_path.write_text("\n".join(make_corpus(12)[k][: k + 1] for k in range(12)) + "\n")
    cfg = small_config(tmp_path, modulation=modulation, corpus_path=str(corpus_path))
    return harness._prepare_methods(cfg)[0]


def receive(corpus, equalized, demodulate):
    """The corpus's padded bits demodulated from its equalized row, and each
    sentence's bit error rate."""
    received = demodulate(equalized)
    return received, bit_error_rates(corpus.layout.sent, received, corpus.layout.starts,
                                     corpus.layout.sizes)


def decode_texts(corpus, rows) -> list:
    """The text of each bit stream of `rows` as the corpus decodes them: one
    corpus.decode call, its symbol indices read through corpus.alphabet."""
    indices, counts = corpus.decode(np.concatenate(rows), np.array([r.size for r in rows]))
    cuts = np.cumsum(counts).tolist()
    return ["".join(corpus.alphabet[i] for i in indices[b - n : b].tolist())
            for b, n in zip(cuts, counts.tolist())]


@pytest.mark.parametrize("modulation, bits_per_symbol", [("qpsk", 2), ("16qam", 4)])
def test_row_demodulation_matches_each_sentence(tmp_path, modulation, bits_per_symbol):
    modulate, demodulate = coding.MODULATIONS[modulation]
    assert coding.BITS_PER_SYMBOL[modulation] == bits_per_symbol
    rng = np.random.default_rng(11)
    pads = set()
    for corpus in short_sentence_corpora(tmp_path, modulation):
        row, _ = modulate(corpus.layout.sent)
        equalized = row + 0.6 * (rng.standard_normal(row.size) + 1j * rng.standard_normal(row.size))
        recovered, bers = receive(corpus, equalized, demodulate)
        assert recovered.size == corpus.layout.sent.size == bits_per_symbol * row.size
        at = 0
        for k, (start, size) in enumerate(zip(corpus.layout.starts, corpus.layout.sizes)):
            bits = corpus.layout.sent[start : start + size]
            assert decode_texts(corpus, [bits]) == [corpus.sentences[k]]
            symbols, pad = modulate(bits)
            # the row is each sentence's own symbols in turn, and the sent
            # layout each sentence's bits, then its pad of zeros
            assert start == bits_per_symbol * at
            assert np.array_equal(row[at : at + symbols.size], symbols)
            assert not corpus.layout.sent[start + size : start + size + pad].any()
            own = demodulate(equalized[at : at + symbols.size], n_bits=bits.size)
            at += symbols.size
            pads.add(pad)
            assert np.array_equal(recovered[start : start + size], own)
            assert bers[k] == bit_error_rate(bits, own)
        assert at == row.size
        assert 0 < np.mean(bers) < 0.5
    assert pads - {0}  # some sentence's bit count is not a multiple of bits_per_symbol
    assert max(pads) < bits_per_symbol


def send_chosen_rows(monkeypatch, corpus, rows):
    """harness._send_rows on received rows of chosen bits: row k is drawn
    at seed k, and one more row is not drawn. Asserts that each drawn row's
    rates are bit_error_rates' on it and the undrawn row's all 0, and that
    the errored sentences are each drawn row's, row after row, decoded from
    their own received bits; returns the rates of the drawn rows."""
    layout = corpus.layout
    monkeypatch.setattr(harness, "receive_bits",
                        lambda sent, modulation, g, budget, seed: rows[seed])
    drawn = [True] * len(rows) + [False]
    bers, errored = harness._send_rows(None, [1.0] * len(drawn), drawn, corpus, range(len(drawn)))
    expected = [bit_error_rates(layout.sent, row, layout.starts, layout.sizes) for row in rows]
    assert bers.tolist() == [rates.tolist() for rates in expected] + [[0.0] * corpus.count]
    positions = np.flatnonzero(bers)
    if errored is None:
        assert not positions.size
        return bers[:-1]
    at, codes, counts = errored
    assert at.tolist() == positions.tolist()
    bits = [rows[k][layout.starts[i] : layout.starts[i] + layout.sizes[i]]
            for k, i in zip(*np.divmod(positions, corpus.count))]
    want_codes, want_counts = corpus.decode(np.concatenate(bits),
                                            layout.sizes[positions % corpus.count])
    assert codes.tolist() == want_codes.tolist() and counts.tolist() == want_counts.tolist()
    return bers[:-1]


@pytest.mark.parametrize("modulation", ["qpsk", "16qam"])
def test_row_bit_error_rates_count_no_pad_bit(tmp_path, monkeypatch, modulation):
    # one block of received rows of chosen bits: none wrong, all wrong, only
    # pad bits wrong, one pad bit wrong, and random errors; each sentence's
    # rate is bit_error_rate on its own bits
    rng = np.random.default_rng(17)
    pads = set()
    for corpus in short_sentence_corpora(tmp_path, modulation):
        sent = corpus.layout.sent
        stops = corpus.layout.starts + corpus.layout.sizes
        in_pad = np.ones(sent.size, dtype=bool)
        for start, stop in zip(corpus.layout.starts, stops):
            in_pad[start:stop] = False
        pads.update((np.append(corpus.layout.starts[1:], sent.size) - stops).tolist())
        one_pad_bit = np.zeros(sent.size, dtype=bool)
        one_pad_bit[np.flatnonzero(in_pad)[-1:]] = True  # none if no sentence is padded
        flips = {"none": np.zeros(sent.size, dtype=bool), "all": np.ones(sent.size, dtype=bool),
                 "pads": in_pad, "one pad bit": one_pad_bit,
                 "random": rng.random(sent.size) < 0.2}
        rows = [sent ^ flip for flip in flips.values()]
        for name, row, bers in zip(flips, rows, send_chosen_rows(monkeypatch, corpus, rows)):
            expected = [bit_error_rate(sent[a:b], row[a:b])
                        for a, b in zip(corpus.layout.starts, stops)]
            assert bers.tolist() == expected, name
            if name in ("none", "pads", "one pad bit"):
                assert not bers.any()
            elif name == "all":
                assert (bers == 1.0).all()
    assert pads == set(range(coding.BITS_PER_SYMBOL[modulation]))


@pytest.mark.parametrize("modulation", ["qpsk", "16qam"])
def test_one_bit_sentences_count_their_own_errors(tmp_path, monkeypatch, modulation):
    # _send_rows sums each sentence's errors from its start to the next
    # one's, which needs every sentence to be at least one bit long: a
    # one-character sentence whose character has a one-bit Huffman code is,
    # and is followed by a pad of 1 or 3 bits
    corpus_path = tmp_path / "one.txt"
    corpus_path.write_text("e\nt\ne\nee\na\ne\nx\ne\n")
    cfg = small_config(tmp_path, modulation=modulation, corpus_path=str(corpus_path))
    huffman, sixbit = harness._prepare_methods(cfg)[0]
    assert min(huffman.layout.sizes) == 1 and min(sixbit.layout.sizes) == 6
    budget = LinkBudget(1.0, 1.0, np.ones(1), np.ones(1))  # 0 dB at g = 1
    for corpus in (huffman, sixbit):
        rows = [receive_bits(corpus.layout.sent, modulation, 1.0, budget, seed)
                for seed in range(4)]
        bers = send_chosen_rows(monkeypatch, corpus, rows)
        assert 0.0 < bers.mean() < 1.0


def drawn_rows(scene, gains) -> list:
    """Whether each gain's row is drawn, as run_sweep decides it."""
    return [snr_linear(g, scene.budget) < harness.ERROR_FREE_SNR for g in gains]


def corpus_rows(scene, gains, corpus, seeds, max_bleu) -> list:
    """One ratio's rows of a corpus method, sent and scored as a sweep does
    them: one harness._send_rows call, then harness._score_rows on it alone."""
    sent = harness._send_rows(scene.budget, gains, drawn_rows(scene, gains), corpus, seeds)
    [rows] = harness._score_rows(corpus, [sent], max_bleu)
    return rows


def score_each_sentence(scene, g, corpus, modulation, seed, max_bleu, decode):
    """corpus_rows as a per-sentence scorer, every sentence decoded on
    its own by `decode` and scored by char_error_rate and bleu; and each
    sentence's bit error rate."""
    recovered = receive_bits(corpus.layout.sent, modulation, g, scene.budget, seed)
    bers = bit_error_rates(corpus.layout.sent, recovered, corpus.layout.starts,
                           corpus.layout.sizes)
    char_errs, bleus = [], []
    for sentence, start, size in zip(corpus.sentences, corpus.layout.starts, corpus.layout.sizes):
        decoded = decode(recovered[start : start + size])
        char_errs.append(metrics.char_error_rate(sentence, decoded))
        bleus.append(metrics.bleu(metrics.tokenize(decoded), metrics.tokenize(sentence)))
    mean_bleu = float(np.mean(bleus))
    scores = float(np.mean(bers)), float(np.mean(char_errs)), mean_bleu, mean_bleu / max_bleu
    return scores, bers


def ratio_gain(scene, ratio):
    return configure_point(scene, ratio, None)[1].gain(scene.coefficients)


def check_row_scorer(corpus_path, noise_dbm, modulation, gains_of=None) -> list:
    """Assert that corpus_rows scores every row of each corpus method
    as score_each_sentence does, on the default scene at the gains
    gains_of(scene) (by default those of five ratios), and return the share
    of each row's sentences that arrived with bit errors."""
    cfg = ExperimentConfig(noise_dbm=noise_dbm, modulation=modulation,
                           corpus_path=str(corpus_path), quantizations=[None])
    scene = build_scene(cfg)
    corpora, _ = harness._prepare_methods(cfg)
    code = coding.huffman_build(coding.huffman_frequencies(corpora[0].sentences))
    decoders = {"huffman": lambda bits: coding.huffman_decode(bits, code),
                "sixbit": coding.sixbit_decode}
    gains = (gains_of(scene) if gains_of is not None
             else [ratio_gain(scene, ratio) for ratio in [0.05, 0.15, 0.3, 0.6, 1.0]])
    errored = []
    for k, corpus in enumerate(corpora):
        # every row of a corpus is scored in one call, each from its own seed
        seeds = derive_seeds(5, (len(gains), len(corpora)))[:, k].tolist()
        rows = corpus_rows(scene, gains, corpus, seeds, 0.6)
        assert len(rows) == len(gains)
        for row, g, seed in zip(rows, gains, seeds):
            oracle, bers = score_each_sentence(scene, g, corpus, modulation, seed, 0.6,
                                               decoders[corpus.name])
            assert row == oracle
            errored.append(np.count_nonzero(bers) / len(bers))
    return errored


@pytest.mark.parametrize("modulation, noise_dbm", [
    ("qpsk", 10.0), ("qpsk", 16.0), ("qpsk", 25.0),
    ("16qam", 10.0), ("16qam", 14.0), ("16qam", 25.0),
])
def test_row_scorer_equals_per_sentence_scorer(modulation, noise_dbm):
    # on the default scene the middle floors give rows where some sentences
    # arrive error-free (scored undecoded) and others do not: at 10 dBm the
    # ratio-0.3 QPSK rows expect 22 and 32 bit errors over 100 sentences.
    # From receive_bits' exact per-component chances, two or more of the 10
    # rows are mixed with probability above 0.999 for any seed at each of
    # these floors: it fails with chance 3.0e-10 (QPSK, 10 dBm), 1.8e-14
    # (QPSK, 16 dBm), below 1e-15 (16-QAM, 10 and 14 dBm), but 0.034 for
    # 16-QAM at 16 dBm and 0.33 for QPSK at 8 dBm. At 25 dBm, the
    # sweep-lowsnr benchmark's floor, every sentence arrives with errors
    errored = check_row_scorer(SAMPLE_CORPUS, noise_dbm, modulation)
    if noise_dbm == 25.0:
        assert min(errored) == 1.0
    else:
        assert sum(0 < share < 1 for share in errored) >= 2


@pytest.mark.parametrize("modulation", ["qpsk", "16qam"])
def test_row_scorer_skips_error_free_rows_beside_errored_ones(monkeypatch, modulation):
    # one call scores a row above the error-free threshold, which is not
    # drawn, beside two rows whose errored sentences are gathered and
    # decoded; the skipped row scores as drawing it would
    sent = count_calls(monkeypatch, "receive_bits")

    def gains_of(scene):
        g = ratio_gain(scene, 1.0)  # scaled to twice the threshold's SNR
        above = g * math.sqrt(2 * harness.ERROR_FREE_SNR / snr_linear(g, scene.budget))
        return [above, ratio_gain(scene, 0.05), ratio_gain(scene, 0.15)]

    errored = check_row_scorer(SAMPLE_CORPUS, 16.0, modulation, gains_of)
    assert errored[0] == errored[3] == 0.0  # the skipped row of each corpus
    assert min(errored[1:3] + errored[4:]) > 0
    assert len(sent) == 2 * 2


def threshold_scene(tmp_path, **overrides):
    """The small scene's corpora, scene and the gain of its full-ratio point."""
    cfg = small_config(tmp_path, **overrides)
    scene = build_scene(cfg)
    return harness._prepare_methods(cfg)[0], scene, ratio_gain(scene, 1.0)


def test_rows_just_below_and_above_the_threshold_score_alike(tmp_path, monkeypatch):
    # the budget's noise power is scaled so that the row's SNR is
    # ERROR_FREE_SNR * (1 -+ 1e-9): the row below is drawn, the one above not
    corpora, scene, g = threshold_scene(tmp_path, modulation="16qam")
    sent = count_calls(monkeypatch, "receive_bits")
    scores = []
    for scale in (1 - 1e-9, 1 + 1e-9):
        gamma = harness.ERROR_FREE_SNR * scale
        b = scene.budget
        scene.budget = LinkBudget(b.p_tx, abs(g) ** 2 * b.p_tx / gamma, b.w_tx, b.w_rx)
        assert (snr_linear(g, scene.budget) >= harness.ERROR_FREE_SNR) == (scale > 1)
        drawn = len(sent)
        scores.append([corpus_rows(scene, [g], corpus, [3], 0.6)
                       for corpus in corpora])
        assert len(sent) - drawn == (len(corpora) if scale < 1 else 0)
    assert scores[0] == scores[1] == [[(0.0, 0.0, 1.0, 1.0 / 0.6)]] * len(corpora)


@pytest.mark.parametrize("noise_dbm", [-120.0, -math.inf])
def test_zero_gain_row_is_a_link_outage(tmp_path, noise_dbm):
    corpora, scene, g = threshold_scene(tmp_path, noise_dbm=noise_dbm)
    for corpus in corpora:
        with pytest.raises(ValueError, match="link outage"):
            corpus_rows(scene, [g, 0j], corpus, [0, 1], 0.6)


def test_noiseless_row_is_not_drawn(tmp_path, monkeypatch):
    corpora, scene, g = threshold_scene(tmp_path, noise_dbm=-math.inf)
    sent = count_calls(monkeypatch, "receive_bits")
    for corpus in corpora:
        assert corpus_rows(scene, [g], corpus, [3], 0.6) == [
            (0.0, 0.0, 1.0, 1.0 / 0.6)]
    assert len(sent) == 0


def test_sweep_straddling_the_threshold_is_deterministic_across_parallelism(tmp_path,
                                                                             monkeypatch):
    # at -80 dBm the small scene's points span 51 to 63 dB: the rows above
    # 60 dB are not drawn, the rest are, and jobs does not change a byte
    sent = count_calls(monkeypatch, "receive_bits")
    blobs = []
    for jobs in (1, 4):
        cfg = small_config(tmp_path, noise_dbm=-80.0, quantizations=[1, 2, None],
                           output_path=str(tmp_path / f"jobs{jobs}.csv"))
        sent.clear()
        records = run_sweep(cfg, jobs=jobs)
        blobs.append(Path(cfg.output_path).read_bytes())
        below = sum(r.snr_db < 60.0 for r in records)
        assert 0 < below < len(records) and len(sent) == below
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("noise_dbm, jobs", [(-120.0, 1), (-80.0, 1), (-80.0, 4)])
def test_sweep_decides_each_point_s_draw_once(tmp_path, monkeypatch, noise_dbm, jobs):
    # the default floor, where no row is drawn, and the sweep straddling the
    # threshold: one snr call per point decides every row of that point, and
    # no _send_rows call takes an SNR of its own
    snrs = count_calls(monkeypatch, "snr")
    linears = count_calls(monkeypatch, "snr_linear")
    cfg = small_config(tmp_path, noise_dbm=noise_dbm, quantizations=[1, 2, None])
    records = run_sweep(cfg, jobs=jobs)
    assert len(snrs) == len(cfg.ratios) * len(cfg.quantizations) == len(records) // 2
    assert linears == []
    assert (min(r.snr_db for r in records) < 60.0) == (noise_dbm > -120.0)


# characters that tokenize, the edit-distance lanes and sixbit folding each
# treat apart: digits and underscores (word characters), non-ASCII letters
# and digits, tabs, punctuation runs, a sentence longer than the 64
# characters an edit-distance lane holds, and one-letter sentences, whose
# Huffman bits can decode to no symbol once they err
VARIED_CORPUS = [
    "Sensor_3 reports 42 frames at 06:15, then 7 more.",
    "naïve café\tserves crème brûlée; straße 9 is closed!",
    "x_1\ty_2\tz_3 -- (a/b) = c?",
    "Die Straße führt 12 km nach Süden, über 3 Brücken.",
    "رقم ٣ و ٤٥ in the log_file at 10:00...",
    "a very long sentence that keeps going past the lane width of sixty four characters here",
    "ok",
    "¿qué?  ¡sí! _under_score_ and  double  spaces",
    "e",
    "t",
]


@pytest.mark.parametrize("noise_dbm", [16.0, 25.0])
@pytest.mark.parametrize("modulation", ["qpsk", "16qam"])
def test_row_scorer_equals_per_sentence_scorer_on_varied_text(tmp_path, noise_dbm, modulation):
    corpus_path = tmp_path / "varied.txt"
    corpus_path.write_text("\n".join(VARIED_CORPUS * 3) + "\n")
    errored = check_row_scorer(corpus_path, noise_dbm, modulation)
    assert max(errored) == 1.0 if noise_dbm == 25.0 else max(errored) > 0


def count_scoring_calls(monkeypatch) -> dict:
    """The number of sentences of each EditReferences.distances and
    BleuReferences.flat_scores call, by (method name, table)."""
    calls = {}
    for owner, name in ((metrics.EditReferences, "distances"),
                        (metrics.BleuReferences, "flat_scores")):
        def counted(table, indices, *args, original=getattr(owner, name), name=name):
            calls.setdefault((name, id(table)), []).append(len(indices))
            return original(table, indices, *args)
        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("lanes", ["one", "split", "all"])
@pytest.mark.parametrize("modulation", ["qpsk", "16qam"])
def test_chunking_changes_no_score(tmp_path, monkeypatch, modulation, lanes):
    # three ratios of two rows each, scored together in chunks of one
    # sentence, of one sentence fewer than the first ratio's errored ones (so
    # its rows end in the next chunk, beside the second ratio's), or of every
    # errored sentence: each row equals the per-sentence oracle
    corpus_path = tmp_path / "varied.txt"
    corpus_path.write_text("\n".join(VARIED_CORPUS * 3) + "\n")
    cfg = ExperimentConfig(noise_dbm=25.0, modulation=modulation, corpus_path=str(corpus_path),
                           quantizations=[None])
    scene = build_scene(cfg)
    corpora, _ = harness._prepare_methods(cfg)
    code = coding.huffman_build(coding.huffman_frequencies(corpora[0].sentences))
    decoders = {"huffman": lambda bits: coding.huffman_decode(bits, code),
                "sixbit": coding.sixbit_decode}
    gains = [[ratio_gain(scene, r) for r in pair] for pair in ([0.05, 0.15], [0.3, 0.6], [1.0, 1.0])]
    calls = count_scoring_calls(monkeypatch)
    for k, corpus in enumerate(corpora):
        seeds = derive_seeds(5, (len(gains), 2, len(corpora)))[..., k].tolist()
        sent = [harness._send_rows(scene.budget, g, drawn_rows(scene, g), corpus, s)
                for g, s in zip(gains, seeds)]
        errored = [rows[0].size for _, rows in sent]
        chunk = {"one": 1, "split": errored[0] - 1, "all": sum(errored)}[lanes]
        monkeypatch.setattr(harness, "SCORE_LANES", chunk)
        calls.clear()
        scored = harness._score_rows(corpus, sent, 0.6)
        whole, rest = divmod(sum(errored), chunk)
        assert calls == {("distances", id(corpus.edits)): [sum(errored)],
                         ("flat_scores", id(corpus.references)):
                             [chunk] * whole + [rest] * (rest > 0)}
        for rows, ratio_gains, ratio_seeds in zip(scored, gains, seeds):
            assert rows == [score_each_sentence(scene, g, corpus, modulation, seed, 0.6,
                                                decoders[corpus.name])[0]
                            for g, seed in zip(ratio_gains, ratio_seeds)]
        # the oracle ran on a reference over 64 characters and, in Huffman, on
        # empty decoded texts
        n = len(corpus.sentences)
        assert max(corpus.edits.lengths[rows[0] % n].max() for _, rows in sent) > 64
        assert corpus.name == "sixbit" or min(rows[2].min() for _, rows in sent) == 0
        assert errored[0] > 1


@pytest.mark.parametrize("noise_dbm", [-120.0, 25.0])
def test_sweep_scores_each_method_once_per_chunk(tmp_path, monkeypatch, noise_dbm):
    # the benchmark's sweep-clean and sweep-lowsnr sweeps (default scene,
    # sample corpus): at 25 dBm every sentence of a method's 20 x 3 rows
    # errs, and its 6000 get their edit distances in one call and their BLEU
    # scores in chunks of SCORE_LANES, not once per ratio; at -120 dBm none
    # errs, so nothing is scored and no table built
    calls = count_scoring_calls(monkeypatch)
    built = {name: count_calls(monkeypatch, name, metrics)
             for name in ("BleuReferences", "EditReferences", "SymbolTokenizer")}
    run_sweep(ExperimentConfig(noise_dbm=noise_dbm, corpus_path=str(SAMPLE_CORPUS),
                               master_seed=11, output_path=str(tmp_path / "sweep.csv")))
    if noise_dbm < 0:
        assert calls == {} and built == {name: [] for name in built}
        return
    assert all(len(tables) == 2 for tables in built.values())  # huffman, sixbit
    assert sorted(name for name, _ in calls) == ["distances"] * 2 + ["flat_scores"] * 2
    for (name, _), lanes in calls.items():
        if name == "distances":
            assert lanes == [20 * 3 * 100]
            continue
        assert sum(lanes) == 20 * 3 * 100 and max(lanes) == harness.SCORE_LANES
        assert len(lanes) == math.ceil(sum(lanes) / harness.SCORE_LANES)


@pytest.mark.parametrize("sentences", [
    [line for line in SAMPLE_CORPUS.read_text().splitlines() if line.strip()],
    make_corpus(),
], ids=["sample_corpus", "make_corpus"])
def test_every_sentence_decodes_from_its_own_bits(tmp_path, sentences):
    # the row scorer gives an error-free sentence char_err 0 and BLEU 1
    # without decoding it; that rests on this round trip
    corpus_path = tmp_path / "sentences.txt"
    corpus_path.write_text("\n".join(sentences) + "\n")
    corpora, _ = harness._prepare_methods(small_config(tmp_path, corpus_path=str(corpus_path)))
    code = coding.huffman_build(coding.huffman_frequencies(sentences))
    for corpus in corpora:
        rows = [corpus.layout.sent[a : a + n] for a, n in zip(corpus.layout.starts, corpus.layout.sizes)]
        assert decode_texts(corpus, rows) == corpus.sentences
        if corpus.name == "huffman":
            assert corpus.sentences == sentences
            assert [coding.huffman_decode(bits, code) for bits in rows] == sentences
        else:
            assert corpus.sentences == [coding.sixbit_fold(s) for s in sentences]
            assert [coding.sixbit_decode(bits) for bits in rows] == corpus.sentences


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


def default_sweep_points(cfg) -> list:
    """(codeword, snr_db) of each (ratio, bits) point of a config, selected
    as a sweep selects it."""
    scene = build_scene(cfg)
    configured = harness._configure_ratios(scene, cfg.ratios, cfg.quantizations, False)
    return [(idx, snr(g, scene.budget)[1]) for points in configured for idx, g in points]


def rotated_about_z(degrees):
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    return lambda p: [c * p[0] - s * p[1], s * p[0] + c * p[1], p[2]]


def rotated_about_x(degrees):
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    return lambda p: [p[0], c * p[1] - s * p[2], s * p[1] + c * p[2]]


def moved(move) -> ExperimentConfig:
    """The default config with `move` applied to all three array centers."""
    base = ExperimentConfig()
    return ExperimentConfig(**{name: ArraySpec(move(spec.center), spec.rows, spec.cols)
                               for name, spec in (("tx", base.tx), ("rx", base.rx),
                                                  ("ris", base.ris))})


@pytest.mark.parametrize("move", [
    lambda p: [p[0] + 100.0, p[1] - 50.0, p[2] + 30.0], rotated_about_z(90.0),
    rotated_about_z(37.0),
], ids=["translated", "rotated-z-90", "rotated-z-37"])
def test_default_scene_points_are_invariant_under_a_rigid_motion(move):
    # the physics depends only on distances and on each array's own frame,
    # which follows its facing direction with global z as up: moving all
    # three centers by one translation, or one rotation about z, selects
    # the same 60 codewords at the same SNR
    expected, got = default_sweep_points(ExperimentConfig()), default_sweep_points(moved(move))
    assert len(got) == len(expected) == 60
    assert [idx for idx, _ in got] == [idx for idx, _ in expected]
    for (_, a), (_, b) in zip(got, expected):
        assert a == pytest.approx(b, rel=1e-12, abs=0.0)


def test_default_scene_rotated_about_x_maps_codeword_324_to_306():
    # a quarter turn of the centers about x turns each array a quarter turn
    # within its own plane, since its frame keeps global z as up: a quarter
    # turn of the 72-step azimuth grid, so codeword 324 becomes 306 at all
    # 60 points. The SNR stays where the mask's side is even. An odd side
    # sits half an element toward index 0 (active_mask), so the rotated
    # scene's block is not the turned block, and only codewords compare.
    base = ExperimentConfig()
    expected, got = default_sweep_points(base), default_sweep_points(moved(rotated_about_x(90.0)))
    assert {(a, b) for (a, _), (b, _) in zip(expected, got)} == {(324, 306)}
    ris = build_scene(base).ris
    sides = [math.isqrt(np.count_nonzero(active_mask(ris, r))) for r in base.ratios]
    even = [k for k in range(len(got)) if sides[k // len(base.quantizations)] % 2 == 0]
    assert len(even) == 30
    for k in even:
        assert got[k][1] == pytest.approx(expected[k][1], rel=1e-12, abs=0.0)


def test_sweep_snr_db_finite_when_the_gain_squared_underflows(tmp_path):
    # 1000 m links at path-loss exponent 60 give |c| near 3e-179, so every
    # point's |g|^2 underflows to 0 while g does not; every row is drawn at
    # sigma ~ 1e172 (RuntimeWarnings are errors here), each bit a fair coin
    cfg = small_config(tmp_path, tx=ArraySpec([-600.0, 800.0, 0.0], 4, 4),
                       rx=ArraySpec([600.0, 800.0, 0.0]), ris=ArraySpec([0.0, 0.0, 0.0], 16, 16),
                       path_loss_exponent=60.0, ratios=[0.25, 0.5, 0.75, 1.0])
    scene = build_scene(cfg)
    records = run_sweep(cfg)
    assert len(records) == 2 * len(cfg.ratios) * len(cfg.quantizations)
    budget = scene.budget
    for r in records:
        _, applied, linear = configure_point(scene, r.ratio, r.bits)
        g = applied.gain(scene.coefficients)
        assert linear == 0.0 and abs(g) > 0.0
        expected = 20 * math.log10(abs(g)) + 10 * math.log10(budget.p_tx / budget.noise_power)
        assert math.isfinite(r.snr_db)
        assert r.snr_db == pytest.approx(expected, rel=1e-12)
        assert 0.4 < r.ber < 0.6


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
        for k in range(len(scene.codebook)):
            candidate = RisConfiguration(scene.codebook.phases(k), mask)
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


@pytest.mark.parametrize("before", [False, True])
def test_sweep_gains_equal_the_configurations_gains(before):
    # the gain a sweep reads at each point is, bitwise, the gain of the
    # configuration configure_point builds there
    cfg = ExperimentConfig()
    scene = build_scene(cfg)
    configured = harness._configure_ratios(scene, cfg.ratios, cfg.quantizations, before)
    for ratio, points in zip(cfg.ratios, configured):
        for bits, (idx, g) in zip(cfg.quantizations, points):
            k, ris_cfg, _ = configure_point(scene, ratio, bits, before)
            assert k == idx
            assert ris_cfg.gain(scene.coefficients) == g


@pytest.mark.parametrize("before", [False, True])
def test_sweep_builds_no_configuration(tmp_path, monkeypatch, before):
    built = count_calls(monkeypatch, "__init__", RisConfiguration)
    records = run_sweep(small_config(tmp_path, quantizations=[1, 2, None]),
                        quantize_before_select=before)
    assert records and not built
    configure_point(build_scene(small_config(tmp_path)), 1.0, 1, before)
    assert len(built) == 1


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
    records = run_sweep(cfg)
    assert [r.method for r in records] == ["semantic"]
    assert records[0].ber is None
    received = load_symbol_matrix(out_dir / "semantic_r1.0_bnone.json")
    assert received.shape == (5, 3)


def semantic_config(tmp_path, **overrides):
    rng = np.random.default_rng(0)
    matrix_path = tmp_path / "symbols.json"
    store_symbol_matrix(SymbolMatrix(rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))),
                        matrix_path)
    return small_config(tmp_path, corpus_path=None, baselines=[], noise_dbm=-80.0,
                        symbol_matrix_path=str(matrix_path), quantizations=[1, 2, None],
                        **overrides)


@pytest.mark.parametrize("before", [False, True])
def test_semantic_route_transmits_only_to_store(tmp_path, monkeypatch, before):
    # no record field reads the received matrix: without a directory the
    # sweep draws nothing, and its records are those of the sweep that
    # writes the files
    sent = count_calls(monkeypatch, "transmit")
    records = run_sweep(semantic_config(tmp_path), quantize_before_select=before)
    assert sent == []
    out_dir = tmp_path / "received"
    out_dir.mkdir()
    cfg = semantic_config(tmp_path, received_matrix_dir=str(out_dir))
    assert run_sweep(cfg, quantize_before_select=before) == records
    assert len(sent) == len(records) == 9
    # each file holds the draw of its record's seed at its point's gain
    scene = build_scene(cfg)
    semantic = coding.normalize_rows(load_symbol_matrix(cfg.symbol_matrix_path))
    for r in records:
        _, ris_cfg, _ = configure_point(scene, r.ratio, r.bits, before)
        expected = transmit(semantic, ris_cfg.gain(scene.coefficients), scene.budget, r.seed)
        tag = "none" if r.bits is None else r.bits
        stored = load_symbol_matrix(out_dir / f"semantic_r{r.ratio}_b{tag}.json")
        np.testing.assert_array_equal(stored.values, expected.values)


@pytest.mark.parametrize("workload", ["sweep-clean", "select-quantized"])
def test_benchmark_points_match_the_reference(tmp_path, workload):
    # every point's codeword (exactly) and SNR (to 1e-12 relative) on two
    # benchmark workloads, so that a selection drift fails here too
    points = json.loads(BENCHMARK_REFERENCE.read_text())["points"][workload]
    if workload == "sweep-clean":
        cfg = ExperimentConfig(noise_dbm=-120.0, corpus_path=str(SAMPLE_CORPUS),
                               master_seed=11, output_path=str(tmp_path / "sweep.csv"))
        before = False
    else:
        rng = np.random.default_rng(11)
        path = tmp_path / "symbols.json"
        store_symbol_matrix(SymbolMatrix(rng.standard_normal((16, 256))
                                         + 1j * rng.standard_normal((16, 256))), path)
        cfg = ExperimentConfig(symbol_matrix_path=str(path), master_seed=11,
                               output_path=str(tmp_path / "sweep.csv"))
        before = True
    records = run_sweep(cfg, quantize_before_select=before)
    got = {(r.ratio, r.bits): (r.codeword, r.snr_db) for r in records}
    assert len(got) == len(points) == 60
    for ratio, bits, codeword, snr_db in points:
        assert got[ratio, bits][0] == codeword
        assert got[ratio, bits][1] == pytest.approx(snr_db, rel=1e-12, abs=0.0)


def test_sweep_without_inputs_fails(tmp_path):
    cfg = small_config(tmp_path, corpus_path=None, baselines=[])
    with pytest.raises(ValueError):
        run_sweep(cfg)
    blank = tmp_path / "blank.txt"
    blank.write_text("\n  \n")
    with pytest.raises(ValueError, match="no sentences"):
        run_sweep(small_config(tmp_path, corpus_path=str(blank)))


def seed_sequence_seeds(master_seed, shape) -> np.ndarray:
    """The oracle of derive_seeds: one SeedSequence per index."""
    return np.array([np.random.SeedSequence([master_seed, *index]).generate_state(1)[0]
                     for index in np.ndindex(*shape)], dtype=np.uint32).reshape(shape)


# one to five 32-bit entropy words for the master seed
@pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 10**40])
@pytest.mark.parametrize("shape", [(7,), (4, 3), (20, 3, 2), (2, 3, 2, 2)])
def test_derive_seeds_match_seed_sequence(master_seed, shape):
    seeds = derive_seeds(master_seed, shape)
    assert seeds.dtype == np.uint32
    assert np.array_equal(seeds, seed_sequence_seeds(master_seed, shape))
    assert np.unique(seeds).size == seeds.size


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**200),
       st.lists(st.integers(0, 4), min_size=1, max_size=4).filter(lambda s: math.prod(s) <= 40))
def test_derive_seeds_match_seed_sequence_property(master_seed, shape):
    assert np.array_equal(derive_seeds(master_seed, shape),
                          seed_sequence_seeds(master_seed, tuple(shape)))


def test_derive_seeds_rejects_a_negative_master_seed():
    with pytest.raises(ValueError, match="^master_seed must be a non-negative integer, got -1$"):
        derive_seeds(-1, (2,))


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
    path.write_text(cfg.to_json())
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


@pytest.mark.parametrize("text, shown", [(" 02", "2"), ("2", "2"), ("none", "none"),
                                         (None, "none")])
def test_cli_snr_prints_the_parsed_bit_count(tmp_path, capsys, text, shown):
    # the raw text was echoed: `--bits " 02"` printed "bits= 02"
    argv = ["snr", "--config", str(cli_config(tmp_path)), "--ratio", "0.5"]
    assert cli_main(argv + ([] if text is None else ["--bits", text])) == 0
    assert f" bits={shown} codeword=" in capsys.readouterr().out


def test_cli_snr_equals_the_sweep_when_the_gain_squared_underflows(tmp_path, capsys):
    # |g|^2 underflows to 0 on this scene, so the linear SNR reads 0 while
    # the sweep records a finite dB value from log10|g|
    cfg = small_config(tmp_path, tx=ArraySpec([0.0, 1000.0, 0.0], 4, 4),
                       rx=ArraySpec([1000.0, 1500.0, 0.0]),
                       ris=ArraySpec([1000.0, 0.0, 0.0], 16, 16),
                       path_loss_exponent=60.0, ratios=[0.5, 1.0])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    records = run_sweep(cfg)
    for r in records[::2]:
        bits = "none" if r.bits is None else str(r.bits)
        assert cli_main(["snr", "--config", str(cfg_path), "--ratio", str(r.ratio),
                         "--bits", bits]) == 0
        out = capsys.readouterr().out
        assert math.isfinite(r.snr_db) and r.snr_db < -3000
        assert f"codeword={r.codeword} snr_db={r.snr_db:.4f}\n" in out


def test_cli_snr_noiseless_ranks_by_gain(tmp_path, capsys):
    # with noise_power = 0 every codeword has infinite SNR; ranking must use
    # the gain, which picks the same codeword as the default noise floor
    path = tmp_path / "noiseless.json"
    path.write_text(json.dumps({"noise_dbm": -math.inf}))
    for config in ([], ["--config", str(path)]):
        assert cli_main(["snr", *config, "--ratio", "1.0", "--bits", "none"]) == 0
        assert "codeword=324 " in capsys.readouterr().out


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


def test_cli_metrics_bleu_is_mean_of_sentence_bleu(tmp_path, capsys):
    # one table scores every line; the report is the mean of per-line bleu
    refs = ["the node reports a value.", "the cat sat on the mat", "b"]
    hyps = ["the node reported a value.", "the cat sat on mat", "b b"]
    (tmp_path / "ref.txt").write_text("\n".join(refs) + "\n")
    (tmp_path / "hyp.txt").write_text("\n".join(hyps) + "\n")
    assert cli_main(["metrics", "--ref", str(tmp_path / "ref.txt"),
                     "--hyp", str(tmp_path / "hyp.txt")]) == 0
    report = json.loads(capsys.readouterr().out)
    scores = [metrics.bleu(metrics.tokenize(h), metrics.tokenize(r)) for r, h in zip(refs, hyps)]
    assert 0 < report["bleu"] == float(np.mean(scores)) < 1
    assert report["rel_bleu"] == report["bleu"] / 0.6


def test_cli_metrics_pairs_lines_by_number(tmp_path, capsys):
    # a blank hypothesis line is an empty candidate, scored bleu 0 and
    # char_err 1 as a sweep scores one; it made the line counts differ
    refs = ["the node reports a value.", "the cat sat on the mat", "b"]
    (tmp_path / "ref.txt").write_text("\n".join(refs) + "\n")
    (tmp_path / "hyp.txt").write_text("the node reports a value.\n\nb\n")
    assert cli_main(["metrics", "--ref", str(tmp_path / "ref.txt"),
                     "--hyp", str(tmp_path / "hyp.txt")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bleu"] == float(np.mean([1.0, 0.0, 1.0]))
    assert report["char_err"] == float(np.mean([0.0, 1.0, 0.0]))


def test_cli_metrics_blank_reference_line_exits_1(tmp_path, capsys):
    # dropping blank lines before pairing scored line 3 of --hyp against
    # line 2 of --ref, and every pair below, and reported bleu 1.0
    (tmp_path / "ref.txt").write_text("a b\n\nc d\ne f\n")
    (tmp_path / "hyp.txt").write_text("a b\nc d\n\ne f\n")
    assert cli_main(["metrics", "--ref", str(tmp_path / "ref.txt"),
                     "--hyp", str(tmp_path / "hyp.txt")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / 'ref.txt'}: line 2 is blank\n"


def test_readme_cli_block_parses():
    # every command line of the README's CLI block parses, options in
    # brackets included, and the block names exactly the parser's
    # subcommands, so a deleted command cannot linger in the docs
    block = README.read_text().split("## CLI\n", 1)[1].split("```\n", 2)[1]
    lines = []
    for line in block.splitlines():
        line = line.split("#", 1)[0].rstrip()
        if line.startswith(" "):
            lines[-1] += line  # a continuation line
        elif line:
            lines.append(line)
    parser = build_parser()
    named = set()
    for line in lines:
        argv = shlex.split(line.replace("[", " ").replace("]", " "))
        assert argv[0] == "rislink"
        named.add(parser.parse_args(argv[1:]).command)
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert named - {None} == set(subparsers.choices)


def test_readme_error_free_threshold_is_the_code_constant():
    # the README's statement of the threshold above which a corpus row is
    # not drawn names the constant, its value and its dB
    [(name, value, db)] = re.findall(r"`harness\.(\w+)` =\s+([\d.e+]+)\s+\((\d+) dB\)",
                                     README.read_text())
    assert name == "ERROR_FREE_SNR"
    assert float(value) == harness.ERROR_FREE_SNR
    assert float(db) == 10.0 * math.log10(harness.ERROR_FREE_SNR)


def test_readme_scoring_chunk_is_the_code_constant():
    # the README's statement of how many errored sentences one scoring call
    # takes names the constant and its value
    [(name, value)] = re.findall(r"`harness\.(\w+)` =\s+(\d+)\s+sentences", README.read_text())
    assert name == "SCORE_LANES"
    assert int(value) == harness.SCORE_LANES


def test_readme_bit_bound_is_the_code_constant():
    # the Physical model, CLI and Configuration sections each state the
    # range of a bit count through the constant and its value
    bounds = re.findall(r"from 1 to\s+`ris\.MAX_BITS`\s+=\s+(\d+)", README.read_text())
    assert len(bounds) == 3
    assert all(int(bound) == MAX_BITS for bound in bounds)


def test_readme_modules_table_names_resolve():
    # every backticked name in a row of the README's Modules table (up to a
    # call's parenthesis) is an attribute of that row's module, so a name
    # that is renamed or deleted cannot linger in the docs
    table = README.read_text().split("## Modules\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines() if line.startswith("| `rislink.")]
    assert len(rows) == 7
    missing = []
    for module, contents in rows:
        module = importlib.import_module(module.strip().strip("`"))
        for name in re.findall(r"`([A-Za-z_][\w.]*)", contents):
            if reduce(lambda obj, part: getattr(obj, part, None), name.split("."), module) is None:
                missing.append(f"{module.__name__}: {name}")
    assert missing == []


def test_readme_configuration_names_every_key():
    # every config key, array-spec keys included, is backticked in the
    # README's Configuration section, so a key that is added or renamed
    # cannot go undocumented
    section = README.read_text().split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`(\w+)`", section))
    keys = {f.name for cls in (ExperimentConfig, ArraySpec) for f in fields(cls)}
    assert keys - documented == set()


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


@pytest.mark.parametrize("config, quantity", [
    ({"noise_dbm": 4000}, "dBm"),
    ({"path_loss_exponent": 1e308}, "path loss"),
    ({"path_loss_exponent": 400,
      "ris": {"center": [1000.0, 0.0, 0.0], "rows": 40, "cols": 40}}, "path loss"),
])
def test_cli_overflowing_config_exits_1(tmp_path, capsys, config, quantity):
    # each overflowed a float power and ended in an OverflowError traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli_main(["snr", "--config", str(path), "--ratio", "1.0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and quantity in err


@pytest.mark.parametrize("key, value", [
    ("noise_dbm", math.inf), ("p_tx_w", math.inf), ("frequency_hz", math.inf),
])
def test_cli_non_finite_link_input_exits_1(tmp_path, capsys, key, value):
    # snr reported snr_db=-inf or inf and exited 0; sweep ended in "symbols
    # must be finite", and an infinite frequency in "spacing must be positive"
    payload = json.loads(cli_config(tmp_path).read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**payload, key: value}))
    for command in (["snr", "--ratio", "1.0"], ["sweep"]):
        assert cli_main([command[0], "--config", str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key} must be ") and "inf" in captured.err
        assert captured.err.count("\n") == 1
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("noise_dbm", [-3300.0, -1e300])
def test_cli_underflowing_noise_floor_exits_1(tmp_path, capsys, noise_dbm):
    # each gave 0 W and took the noiseless path: snr printed snr_db=inf and
    # exited 0 (test_cli_noiseless_noise_floor_is_accepted keeps -Infinity)
    payload = json.loads(cli_config(tmp_path).read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**payload, "noise_dbm": noise_dbm}))
    for command in (["snr", "--ratio", "1.0"], ["sweep"]):
        assert cli_main([command[0], "--config", str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: noise_dbm = {noise_dbm!r} underflows")
        assert captured.err.count("\n") == 1
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("overrides", [
    {"p_tx_w": 1e308}, {"p_tx_w": 1e308, "noise_dbm": -math.inf}, {"noise_dbm": -3200.0},
])
def test_cli_overflowing_snr_exits_1(tmp_path, capsys, overrides):
    # on the default scene each made the SNR overflow: snr printed a
    # RuntimeWarning and snr_db=inf, and exited 0
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(make_corpus(10)) + "\n")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"corpus_path": str(corpus),
                                "output_path": str(tmp_path / "sweep.csv"), **overrides}))
    for command in (["snr", "--ratio", "1.0"], ["sweep"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main([command[0], "--config", str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the SNR overflows with p_tx_w = ")
        assert captured.err.count("\n") == 1
    assert not (tmp_path / "sweep.csv").exists()


LOADED_CHILD = """\
import contextlib, io, json, sys
import rislink, rislink.cli

def loaded():
    return ["numpy.random" in sys.modules, "concurrent.futures" in sys.modules]

steps = {"import": loaded()}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert rislink.cli.main(argv) == 0, name
    steps[name] = loaded()
print(json.dumps(steps))
"""


def test_only_a_drawn_row_loads_numpy_random(tmp_path):
    # numpy.random (about 5 MB of bit generators) loads at the first noise
    # draw, and concurrent.futures (which loads logging) only for jobs > 1:
    # neither loads on import, for a command that draws nothing, or for a
    # sweep whose every point is at or above ERROR_FREE_SNR. An unquoted
    # np.random.Generator annotation in rislink would load it on import.
    ref = tmp_path / "ref.txt"
    ref.write_text("the node reports a value.\n")
    configs = {}
    for name, noise_dbm in (("clean", -120.0), ("noisy", 25.0)):
        configs[name] = tmp_path / f"{name}.json"
        configs[name].write_text(small_config(
            tmp_path, noise_dbm=noise_dbm, output_path=str(tmp_path / f"{name}.csv")).to_json())
    steps = [
        ("print-default-config", ["--print-default-config"]),
        ("snr", ["snr", "--config", str(configs["clean"]), "--ratio", "1.0"]),
        ("metrics", ["metrics", "--ref", str(ref), "--hyp", str(ref)]),
        ("clean sweep", ["sweep", "--config", str(configs["clean"])]),
        ("noisy sweep", ["sweep", "--config", str(configs["noisy"])]),
    ]
    out = subprocess.run([sys.executable, "-c", LOADED_CHILD, json.dumps(steps)],
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(out.stdout) == {
        "import": [False, False], "print-default-config": [False, False],
        "snr": [False, False], "metrics": [False, False],
        "clean sweep": [False, False], "noisy sweep": [True, False],
    }
    gamma = 10.0 * math.log10(harness.ERROR_FREE_SNR)
    assert all(float(r["snr_db"]) >= gamma for r in read_csv(tmp_path / "clean.csv"))
    assert any(float(r["snr_db"]) < gamma for r in read_csv(tmp_path / "noisy.csv"))


FIRST_DRAW_CHILD = """\
import sys, threading
from rislink.harness import ExperimentConfig, run_sweep


class Watch:  # notes the thread that imports numpy.random, and finds nothing
    thread = None

    def find_spec(self, name, path=None, target=None):
        if name == "numpy.random":
            Watch.thread = threading.current_thread().name


assert "numpy.random" not in sys.modules
sys.meta_path.insert(0, Watch())
run_sweep(ExperimentConfig.from_json(sys.argv[1]), jobs=4)
print(Watch.thread)
"""


def test_a_first_draw_in_a_pool_thread_gives_the_same_records(tmp_path):
    # with jobs > 1 the first draw, and so the import of numpy.random, runs
    # in a pool thread; the CSV is byte-identical to a jobs=1 run's and to a
    # run's in which numpy.random was loaded before the sweep
    cfg = ExperimentConfig(noise_dbm=25.0, master_seed=11, corpus_path=str(SAMPLE_CORPUS),
                           output_path=str(tmp_path / "fresh.csv"))
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    out = subprocess.run([sys.executable, "-c", FIRST_DRAW_CHILD, str(path)],
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip().startswith("ThreadPoolExecutor")
    np.random.default_rng  # loads numpy.random in this process, if nothing has yet
    assert "numpy.random" in sys.modules
    for jobs in (1, 4):
        cfg.output_path = str(tmp_path / f"jobs{jobs}.csv")
        run_sweep(cfg, jobs=jobs)
    fresh = (tmp_path / "fresh.csv").read_bytes()
    assert fresh == (tmp_path / "jobs1.csv").read_bytes() == (tmp_path / "jobs4.csv").read_bytes()
    assert any(float(r["ber"]) > 0 for r in read_csv(tmp_path / "fresh.csv"))


def test_cli_noiseless_noise_floor_is_accepted(tmp_path, capsys):
    # noise_dbm -Infinity is the noiseless case: zero noise power, and every
    # sentence arrives intact
    payload = json.loads(cli_config(tmp_path).read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**payload, "noise_dbm": -math.inf}))
    assert build_scene(ExperimentConfig.from_json(path)).budget.noise_power == 0.0
    assert cli_main(["snr", "--config", str(path), "--ratio", "1.0"]) == 0
    assert "snr_db=inf" in capsys.readouterr().out
    assert cli_main(["sweep", "--config", str(path)]) == 0
    rows = read_csv(tmp_path / "sweep.csv")
    assert rows and all((r["ber"], r["char_err"], r["bleu"]) == ("0.0", "0.0", "1.0")
                        for r in rows)


def symbol_config(tmp_path, matrix_path):
    """The path of a config whose one method sends the symbol matrix at
    `matrix_path`."""
    path = tmp_path / "semantic.json"
    path.write_text(small_config(tmp_path, corpus_path=None, baselines=[],
                                 symbol_matrix_path=str(matrix_path)).to_json())
    return path


@pytest.mark.parametrize("payload", [
    {"n_rows": 1, "n_cols": 0, "data": []},
    {"n_rows": 1, "n_cols": 2, "data": [[1.0, 2.0], [3.0]]},
    {"n_rows": 1, "n_cols": 2, "data": [1.0, 2.0, "abcd", 4.0]},
    {"n_rows": 1, "n_cols": 2, "data": [[1.0, 2.0], [3.0, 4.0]]},
    {"n_rows": 1, "n_cols": 1, "data": [math.nan, 1.0]},
], ids=["empty", "ragged", "string", "nested", "nan"])
def test_cli_malformed_symbol_matrix_exits_1(tmp_path, capsys, payload):
    # a ragged or string data list ended in numpy's message, "setting an
    # array element with a sequence" or "could not convert string to float",
    # and a NaN in "symbols must be finite", none of which named the file;
    # a nested list was read row by row
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps(payload))
    assert cli_main(["sweep", "--config", str(symbol_config(tmp_path, infile))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {infile}: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("kind", ["blank-text", "no-vectors"])
def test_cli_metrics_empty_inputs_exit_1(tmp_path, capsys, kind):
    if kind == "blank-text":
        blank = tmp_path / "blank.txt"
        blank.write_text("\n  \n")
        argv = ["--ref", str(blank), "--hyp", str(blank)]
    else:
        emb = tmp_path / "emb.json"
        emb.write_text(json.dumps({"dim": 3, "vectors": []}))
        argv = ["--ref-emb", str(emb), "--hyp-emb", str(emb)]
    assert cli_main(["metrics", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("max_bleu", ["0", "-1", "nan", "inf"])
def test_cli_metrics_bad_max_bleu_exits_1(tmp_path, capsys, max_bleu):
    ref = tmp_path / "ref.txt"
    ref.write_text("the node reports a value.\n")
    assert cli_main(["metrics", "--ref", str(ref), "--hyp", str(ref),
                     "--max-bleu", max_bleu]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_max_bleu_with_an_infinite_reciprocal_is_rejected(tmp_path, capsys):
    # 1 / 1e-320 overflows, which would make every rel_bleu inf
    with pytest.raises(ValueError, match="^max_bleu must be .*reciprocal is finite, got 1e-320$"):
        ExperimentConfig(max_bleu=1e-320)
    assert ExperimentConfig(max_bleu=1e-300).max_bleu == 1e-300
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"max_bleu": 1e-320}))
    assert cli_main(["sweep", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: max_bleu must be") and err.count("\n") == 1


def test_cli_metrics_max_bleu_with_an_infinite_reciprocal_exits_1(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    ref.write_text("the node reports a value.\n")
    assert cli_main(["metrics", "--ref", str(ref), "--hyp", str(ref),
                     "--max-bleu", "1e-320"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --max-bleu must be") and captured.err.count("\n") == 1


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 74.5 TiB for an array with shape (100000, 100000, 1024) and "
     "data type complex128", "Unable to allocate 74.5 TiB"),
    ("", "out of memory"),
])
@pytest.mark.parametrize("command", [["sweep", "--config"], ["snr", "--ratio", "1", "--config"]])
def test_cli_out_of_memory_exits_1(tmp_path, capsys, monkeypatch, command, message, shown):
    # a scene too large for memory ends in one line, as numpy's
    # _ArrayMemoryError (a MemoryError) would; no huge array is allocated
    def build_scene(cfg):
        raise MemoryError(message)

    monkeypatch.setattr(harness, "build_scene", build_scene)
    monkeypatch.setattr("rislink.cli.build_scene", build_scene)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"codebook_grid": [100000, 100000]}))
    assert cli_main([*command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message or shown}\n" and shown in captured.err


@pytest.mark.parametrize("kind, payload", [
    ("graph", [1, 2]),
    ("emb", {"dim": 2, "vectors": 5}),
    ("emb", {"dim": 2, "vectors": [5]}),
])
def test_cli_metrics_misshapen_files_exit_1(tmp_path, capsys, kind, payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    assert cli_main(["metrics", f"--ref-{kind}", str(path), f"--hyp-{kind}", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("option", ["--ref-emb", "--hyp-emb"])
def test_cli_metrics_non_finite_embeddings_exit_1(tmp_path, capsys, option, value):
    # an Infinity printed a RuntimeWarning and "similarity": NaN, with exit 0
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"dim": 2, "vectors": [[1.0, 1.0]]}))
    bad.write_text('{"dim": 2, "vectors": [[%s, 1.0]]}' % value)
    files = {"--ref-emb": good, "--hyp-emb": good, option: bad}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["metrics", *(str(x) for pair in files.items() for x in pair)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: vectors must hold finite numbers\n"


@pytest.mark.parametrize("magnitude", [1e-200, 1e200])
def test_cli_metrics_embeddings_at_extreme_magnitudes(tmp_path, capsys, magnitude):
    # 1e200 warned and reported a similarity of 0.0 with exit 0, and 1e-200
    # exited 1 with "undefined for a zero vector"
    ref, hyp = tmp_path / "ref.json", tmp_path / "hyp.json"
    ref.write_text(json.dumps({"dim": 2, "vectors": [[magnitude, magnitude]]}))
    hyp.write_text(json.dumps({"dim": 2, "vectors": [[1.0, 1.0]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["metrics", "--ref-emb", str(ref), "--hyp-emb", str(hyp)]) == 0
    assert json.loads(capsys.readouterr().out)["similarity"] == pytest.approx(1.0)


@pytest.mark.parametrize("lone, missing", [
    ("--ref", "--hyp"), ("--hyp", "--ref"), ("--ref-graph", "--hyp-graph"),
    ("--hyp-graph", "--ref-graph"), ("--ref-emb", "--hyp-emb"), ("--hyp-emb", "--ref-emb"),
])
def test_cli_metrics_lone_option_exits_1(tmp_path, capsys, lone, missing):
    # a lone option beside a whole pair was ignored: the pair's scores were
    # printed and the exit code was 0. The lone option's file is never read.
    ref = tmp_path / "ref.txt"
    ref.write_text("the node reports a value.\n")
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps([["a", "r", "b"]]))
    whole = (["--ref", str(ref), "--hyp", str(ref)] if "graph" in lone
             else ["--ref-graph", str(graph), "--hyp-graph", str(graph)])
    assert cli_main(["metrics", lone, str(tmp_path / "absent"), *whole]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {lone} needs {missing}\n"


@pytest.mark.parametrize("bits", ["1.5", "true", "", str(MAX_BITS + 1)])
@pytest.mark.parametrize("command", ["snr"])
def test_cli_malformed_bits_names_the_option(capsys, command, bits):
    # the message was int()'s, "invalid literal for int() with base 10", and
    # a count above MAX_BITS ran
    assert cli_main([command, "--ratio", "0.5", "--bits", bits]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --bits must be an integer from 1 to {MAX_BITS} or 'none', "
                            f"got {bits!r}\n")


@pytest.mark.parametrize("flags", [[], ["--quantize-before-select"]])
def test_cli_sweep_bits_beyond_max_bits_exits_1(tmp_path, capsys, flags):
    # with --quantize-before-select, 40 bits asked numpy for an 8 TiB table
    # and 64 ended in a numpy message naming no field
    payload = json.loads(cli_config(tmp_path).read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**payload, "quantizations": [1, MAX_BITS + 1]}))
    assert cli_main(["sweep", "--config", str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: quantizations must be a non-empty list of distinct bit "
                            f"counts from 1 to {MAX_BITS} or null, got [1, {MAX_BITS + 1}]\n")
    assert not (tmp_path / "sweep.csv").exists()


NON_UTF8 = "caf\xe9 au lait\n".encode("latin-1")


@pytest.mark.parametrize("kind", ["corpus", "config", "ref", "hyp", "symbols", "graph", "emb"])
def test_cli_non_utf8_input_exits_1(tmp_path, capsys, kind):
    # the message was the codec's, "'utf-8' codec can't decode byte 0xe9",
    # with no file named
    bad = tmp_path / "bad"
    bad.write_bytes(NON_UTF8)
    ref = tmp_path / "ref.txt"
    ref.write_text("the node reports a value.\n")
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps([["a", "r", "b"]]))
    emb = tmp_path / "emb.json"
    emb.write_text(json.dumps({"dim": 2, "vectors": [[1.0, 2.0]]}))
    argv = {
        "corpus": ["sweep", "--config", str(cli_config(tmp_path))],
        "config": ["snr", "--config", str(bad), "--ratio", "1.0"],
        "ref": ["metrics", "--ref", str(bad), "--hyp", str(ref)],
        "hyp": ["metrics", "--ref", str(ref), "--hyp", str(bad)],
        "symbols": ["sweep", "--config", str(symbol_config(tmp_path, bad))],
        "graph": ["metrics", "--ref-graph", str(graph), "--hyp-graph", str(bad)],
        "emb": ["metrics", "--ref-emb", str(bad), "--hyp-emb", str(emb)],
    }[kind]
    if kind == "corpus":
        (tmp_path / "corpus.txt").write_bytes(NON_UTF8)
        bad = tmp_path / "corpus.txt"
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: not UTF-8 text: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("config, message", [
    ({"tx": {"center": [10.0, 0.0, 0.0], "rows": 2, "cols": 2}},
     "tx.center must be apart from ris.center, got [10.0, 0.0, 0.0]"),
    ({"rx": {"center": [10, 0, 0]}}, "rx.center must be apart from ris.center, got [10, 0, 0]"),
    ({"tx": {"center": [10, 20, 0]}, "rx": {"center": [10, -20, 0]}},
     "ris.center must be apart from the midpoint of tx and rx when ris.normal is null, "
     "got [10.0, 0.0, 0.0]"),
    ({"tx": {"center": [math.inf, 0, 0]}}, "tx: center must be 3 finite numbers, got [inf, 0, 0]"),
    ({"ris": {"center": [10, 0, 0], "rows": 4, "cols": 4, "spacing": math.inf}},
     "ris: spacing must be a positive finite number, got inf"),
    ({"ris": {"center": [10, 0, 0], "rows": 4, "cols": 4, "normal": [1e308, 1e308, 0]}},
     "ris: normal: cannot normalize a vector of norm inf"),
    ({"ris": {"center": [10, 0, 0], "rows": 4, "cols": 4, "normal": [0, 0, 0]}},
     "ris: normal: cannot normalize a vector of norm 0.0"),
    ({"tx": {"center": [1e308, 0, 0], "rows": 2, "cols": 2},
      "ris": {"center": [-1e308, 0, 0], "rows": 4, "cols": 4}},
     "tx: every element must lie within 3.87e+153 m of the origin on each axis, "
     f"got center [1e+308, 0, 0] with spacing {wavelength(28e9) / 2!r}"),
    ({"ris": {"center": [10, 0, 0], "rows": 4, "cols": 4, "spacing": 1e300}},
     "ris: every element must lie within 3.87e+153 m of the origin on each axis, "
     "got center [10, 0, 0] with spacing 1e+300"),
    ({"rx": {"center": [10**400, 0, 0]}},
     f"rx: center must be 3 finite numbers, got {[10**400, 0, 0]!r}"),
    ({"frequency_hz": 1e-300},
     "frequency_hz must be large enough that the wavelength c/f is finite, got 1e-300"),
    ({"frequency_hz": 1e-290},
     "frequency_hz must be large enough that tx's elements lie within 3.87e+153 m of the "
     "origin at half-wavelength spacing, got 1e-290"),
    ({"frequency_hz": 1e-290, "tx": {"center": [0, 10, 0]},
      "ris": {"center": [10, 0, 0], "rows": 4, "cols": 4, "spacing": 1e300}},
     "ris: every element must lie within 3.87e+153 m of the origin on each axis, "
     "got center [10, 0, 0] with spacing 1e+300"),
], ids=["tx-at-ris", "rx-at-ris", "ris-at-midpoint", "infinite-center", "infinite-spacing",
        "overflowing-normal", "zero-normal", "huge-centers", "huge-spacing", "int-center",
        "tiny-frequency", "long-wavelength", "long-wavelength-explicit-spacing"])
def test_cli_malformed_array_spec_exits_1(tmp_path, capsys, config, message):
    # these ended in "cannot normalize the zero vector", "vector components
    # must be finite", or RuntimeWarnings and "cascaded coefficients must be
    # finite", none of which named the array; an int center beyond the
    # float range ended in an OverflowError traceback, and a frequency whose
    # wavelength overflows, or puts default-spaced elements out of range, in
    # a message that named an array, not it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**config, "output_path": str(tmp_path / "sweep.csv")}))
    for command in (["snr", "--ratio", "1.0"], ["sweep"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main([command[0], "--config", str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "sweep.csv").exists()
