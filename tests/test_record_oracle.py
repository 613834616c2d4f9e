"""The committed record oracle: sweeps whose records every change is held to.

Each sweep runs on the default scene, the corpus sweeps on the sample corpus
and `select-quantized` on a seeded 16x256 symbol matrix with
quantize-before-select, as perfbench's workloads do. `record_oracle.json`
holds, per sweep, the sha256 of its CSV with the `snr_db` cells blanked, and,
per noise floor and selection scheme, each point's `snr_db` as a full repr
(the SNR depends on neither the modulation nor the seed). A sweep must match
its hash exactly and every `snr_db` within 1e-12 relative. numpy's Generator
streams are not promised stable across numpy versions, so the test skips
under another numpy than the oracle's.

A change that alters records on purpose regenerates the file with
`PYTHONPATH=src python tests/test_record_oracle.py`, which prints which sweep
hashes changed and whether any `snr_db` value did, and says why. With
`--check` the script prints the same lines and leaves the file as it is.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rislink.coding import SymbolMatrix, store_symbol_matrix
from rislink.harness import ExperimentConfig, run_sweep

ORACLE = Path(__file__).with_name("record_oracle.json")
CORPUS = Path(__file__).resolve().parents[1] / "data" / "sample_corpus.txt"
SNR_COLUMN = 3  # of the CSV: ratio, bits, codeword, snr_db, ...
SNR_RTOL = 1e-12


def corpus_sweep(modulation, noise_dbm, seed):
    return (f"{modulation}-noise{noise_dbm:g}-seed{seed}",
            dict(modulation=modulation, noise_dbm=noise_dbm, master_seed=seed), False)


def quantized_sweep(seed):
    return f"select-quantized-seed{seed}", dict(master_seed=seed), True


# (name, config fields, quantize_before_select) of every oracle sweep, run at jobs=1
SWEEPS = ([corpus_sweep(m, n, s) for m in ("qpsk", "16qam")
           for n in (-120.0, 0.0, 8.0, 25.0) for s in (11, 29)]
          + [quantized_sweep(s) for s in (11, 29)])
# sweeps run again at jobs=4, against the same oracle entry
POOLED = [corpus_sweep("16qam", 8.0, 29), corpus_sweep("qpsk", 25.0, 11)]


def run(sweep, jobs, tmp_path):
    """(the sha256 of the sweep's CSV with snr_db blanked, its snr key, and
    each point's snr_db in CSV order)."""
    _, fields, before = sweep
    cfg = ExperimentConfig(**fields, output_path=str(tmp_path / "sweep.csv"))
    if before:
        rng = np.random.default_rng(cfg.master_seed)
        shape = (16, 256)
        store_symbol_matrix(SymbolMatrix(rng.standard_normal(shape)
                                         + 1j * rng.standard_normal(shape)),
                            tmp_path / "symbols.json")
        cfg.symbol_matrix_path = str(tmp_path / "symbols.json")
    else:
        cfg.corpus_path = str(CORPUS)
    run_sweep(cfg, jobs=jobs, quantize_before_select=before)
    header, *lines, end = (tmp_path / "sweep.csv").read_bytes().decode().split("\r\n")
    rows = [line.split(",") for line in lines]
    snrs = {}  # each (ratio, bits) point's, which all its methods share
    for cells in rows:
        snrs.setdefault(tuple(cells[:2]), cells[SNR_COLUMN])
        cells[SNR_COLUMN] = ""
    blanked = "\r\n".join([header, *map(",".join, rows), end])
    digest = hashlib.sha256(blanked.encode()).hexdigest()
    key = f"noise{cfg.noise_dbm:g}" + ("-quantize-before-select" if before else "")
    return digest, key, list(snrs.values())


@pytest.fixture(scope="module")
def oracle():
    oracle = json.loads(ORACLE.read_text())
    if oracle["numpy"] != np.__version__:
        pytest.skip(f"the record oracle was taken with numpy {oracle['numpy']}, "
                    f"this is numpy {np.__version__}")
    return oracle


@pytest.mark.parametrize("sweep,jobs", [(s, 1) for s in SWEEPS] + [(s, 4) for s in POOLED],
                         ids=lambda x: x[0] if isinstance(x, tuple) else f"jobs{x}")
def test_records_match_the_oracle(oracle, sweep, jobs, tmp_path):
    digest, key, snrs = run(sweep, jobs, tmp_path)
    assert digest == oracle["sweeps"][sweep[0]], "a record other than snr_db changed"
    expected = oracle["snr_db"][key]
    assert len(snrs) == len(expected)
    for got, want in zip(snrs, expected):
        assert math.isclose(float(got), float(want), rel_tol=SNR_RTOL, abs_tol=0.0), (got, want)


def test_changes_names_each_changed_sweep_and_snr_db():
    old = {"numpy": "2.4.6", "sweeps": {"a": "1", "b": "2", "c": "3"},
           "snr_db": {"noise0": ["1.0", "140.0"], "noise8": ["2.5"]}}
    new = {"numpy": "2.4.6", "sweeps": {"a": "1", "b": "4", "c": "5"},
           "snr_db": {"noise0": ["1.0", "140.00000000000003"], "noise8": ["2.5"]}}
    assert changes(old, new) == [
        "changed: b", "changed: c", "2 of 3 sweep hashes changed",
        "snr_db: 1 of 3 values changed, 0 beyond 1e-12 relative, largest relative move 2e-16"]
    new["snr_db"]["noise8"] = ["2.6", "3.0"]
    assert changes(old, new)[-1] == ("snr_db: 2 of 3 values changed, 1 beyond 1e-12 relative, "
                                     "largest relative move 0.04; the point sets differ")
    assert relative_move(0.0, 1e-300) == relative_move(-math.inf, 0.0) == math.inf
    assert changes(old, old) == [
        "0 of 3 sweep hashes changed",
        "snr_db: 0 of 3 values changed, 0 beyond 1e-12 relative, largest relative move 0"]


def changes(old, new) -> list:
    """Lines naming each sweep whose hash differs between two oracles, and
    whether any snr_db value changed, exactly or beyond SNR_RTOL."""
    lines = [f"numpy {old['numpy']} -> {new['numpy']}"] if old["numpy"] != new["numpy"] else []
    changed = [name for name, digest in new["sweeps"].items() if old["sweeps"].get(name) != digest]
    lines += [f"changed: {name}" for name in changed]
    lines.append(f"{len(changed)} of {len(new['sweeps'])} sweep hashes changed")
    pairs = [(a, b) for key, values in new["snr_db"].items()
             for a, b in zip(old["snr_db"].get(key, []), values)]
    moved = [(a, b) for a, b in pairs if a != b]
    beyond = [(a, b) for a, b in moved
              if not math.isclose(float(a), float(b), rel_tol=SNR_RTOL, abs_tol=0.0)]
    largest = max((relative_move(float(a), float(b)) for a, b in moved), default=0.0)
    same_shape = all(len(old["snr_db"].get(key, [])) == len(values)
                     for key, values in new["snr_db"].items())
    lines.append(f"snr_db: {len(moved)} of {len(pairs)} values changed, {len(beyond)} beyond "
                 f"{SNR_RTOL:g} relative, largest relative move {largest:.2g}"
                 + ("" if same_shape else "; the point sets differ"))
    return lines


def relative_move(a: float, b: float) -> float:
    """|b - a| / |a|, or inf when a is 0 or not finite and b differs."""
    return abs(b - a) / abs(a) if math.isfinite(a) and a != 0.0 else math.inf


def main(tmp_path, check):
    """Take the oracle sweeps as they run now and print what changed against
    record_oracle.json; rewrite the file from them unless `check`."""
    oracle = {"numpy": np.__version__, "sweeps": {}, "snr_db": {}}
    for sweep in SWEEPS:
        digest, key, snrs = run(sweep, 1, tmp_path)
        oracle["sweeps"][sweep[0]] = digest
        oracle["snr_db"].setdefault(key, snrs)
    if ORACLE.exists():
        print("\n".join(changes(json.loads(ORACLE.read_text()), oracle)))
    elif check:
        raise SystemExit(f"{ORACLE} does not exist")
    if not check:
        ORACLE.write_text(json.dumps(oracle, indent=1) + "\n")


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="Rewrite record_oracle.json from the sweeps "
                                     "as they run now, printing what changed.")
    parser.add_argument("--check", action="store_true",
                        help="print what changed without rewriting the file")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        main(Path(tmp), args.check)
