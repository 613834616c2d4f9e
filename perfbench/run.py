"""rislink sweep benchmark.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a source checkout; the program is imported from src/.
One process pinned to one CPU, jobs=1, BLAS capped at one thread. With
--trace 0 it times full `run_sweep` calls (CSV write included) and
`build_scene` set-up in fresh processes, and reports the end-to-end metrics.
Times are corrected for the host's speed by a probe on the same CPU
(probe.py). With --trace 1 it times
untraced and traced sweeps and reports per-layer metrics. Every record is
checked; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. Exit code 0 when every record passes, 1 when
any fails, 2 when the sources are missing. `--workload all` runs every
workload untraced and traced in turn. See perfbench/README.md.
"""

import os

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy loads, here and in children

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import check_sweep, load_reference  # noqa: E402
from layers import COUNTERS, per_layer, unit  # noqa: E402
from probe import HostProbe, pin_to_one_cpu  # noqa: E402
from tracer import Tracer  # noqa: E402

NPROC = len(os.sched_getaffinity(0))  # before run() pins the process
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CORPUS = ROOT / "data" / "sample_corpus.txt"

# All workloads use the default scene, QPSK and the 20 ratios x [1, 2, None]
# grid; README.md says why each exists.
WORKLOADS = {
    "sweep-clean": {
        "config": {"noise_dbm": -120.0},
        "methods": ["huffman", "sixbit"],
        "quantize_before_select": False,
        "rule": "error_free",
    },
    "sweep-lowsnr": {
        "config": {"noise_dbm": 25.0},
        "methods": ["huffman", "sixbit"],
        "quantize_before_select": False,
        "rule": "ber_band",
    },
    "select-quantized": {
        "config": {},
        "methods": ["semantic"],
        "symbols": (16, 256),
        "quantize_before_select": True,
        "rule": None,
    },
}
SETUP_RUNS = 30  # fresh processes per run for setup_s, after one uncounted warm-up

SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
import rislink
from rislink.harness import ExperimentConfig, build_scene
build_scene(ExperimentConfig(**json.loads(sys.argv[1])))
print(repr(t0), repr(time.perf_counter()))
"""


def write_symbols(path: Path, seed: int, shape) -> None:
    """Seeded complex Gaussian symbol matrix in rislink's symbol-matrix JSON."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    data = [x for z in values.ravel() for x in (float(z.real), float(z.imag))]
    path.write_text(json.dumps({"n_rows": shape[0], "n_cols": shape[1], "data": data}))


def workload_config(spec: dict, seed: int, work: Path) -> dict:
    config = dict(spec["config"], master_seed=seed, output_path=str(work / "sweep.csv"))
    if "symbols" in spec:
        path = work / "symbols.json"
        write_symbols(path, seed, spec["symbols"])
        config["symbol_matrix_path"] = str(path)
    else:
        config["corpus_path"] = str(CORPUS)
    return config


def measure_setup(config: dict) -> list:
    """(start, end) from `import rislink` through `build_scene`, each in a
    fresh process; the first run compiles bytecode and is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    intervals = []
    for _ in range(SETUP_RUNS + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, json.dumps(config)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=120, check=True,
        )
        t0, t1 = out.stdout.strip().splitlines()[-1].split()
        intervals.append((float(t0), float(t1)))
    return intervals[1:]


class Outcome:
    """Records attempted and failed over every sweep of one run."""

    def __init__(self, workload: str, reference: dict):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.reference = reference
        self.attempted = 0
        self.failures = []
        self.points = 0

    def add(self, records) -> None:
        attempted, failures = check_sweep(
            records, self.workload, self.spec["methods"], self.spec["rule"], self.reference
        )
        self.attempted += attempted
        self.failures += failures
        self.points = len({(r.ratio, r.bits) for r in records})


def sweeps(sweep, budget: float, outcome: Outcome):
    """Run `sweep` once, then again while the next one would end within
    `budget` seconds of the first start. Returns the (start, end) and the
    CPU seconds of each sweep, and the peak RSS in KiB through the first
    sweep, which unlike the peak through all of them does not grow with
    their number."""
    intervals, cpus = [], []
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            records = sweep()
        except Exception:
            traceback.print_exc()
            records = None
        t1 = time.perf_counter()
        intervals.append((t0, t1))
        cpus.append(time.process_time() - c0)
        if len(intervals) == 1:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        outcome.add(records or [])
        if records is None or t1 - intervals[0][0] + (t1 - t0) > budget:
            return intervals, cpus, rss_kb


def describe(name: str, intervals: list, corrected: list) -> str:
    raw = [t1 - t0 for t0, t1 in intervals]
    return (f"{name} samples={len(raw)} raw median={statistics.median(raw):.4f} "
            f"min={min(raw):.4f} max={max(raw):.4f} host slowdown "
            f"{min(r / c for r, c in zip(raw, corrected)):.3f}-"
            f"{max(r / c for r, c in zip(raw, corrected)):.3f}")


def git_commit():
    """HEAD of the checkout, or None outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    spec = WORKLOADS[workload]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        config = workload_config(spec, seed, Path(tmp))
        from rislink import harness

        cfg = harness.ExperimentConfig(**config)
        kwargs = {"quantize_before_select": spec["quantize_before_select"]}
        if "jobs" in inspect.signature(harness.run_sweep).parameters:
            kwargs["jobs"] = 1

        def sweep():
            return harness.run_sweep(cfg, **kwargs)

        outcome = Outcome(workload, load_reference())
        tracer = Tracer(COUNTERS)
        with HostProbe(Path(tmp) / "probe.txt") as probe:
            setup = None if trace else measure_setup(config)
            untraced, cpus, rss_kb = sweeps(sweep, seconds / 2 if trace else seconds, outcome)
            if trace:
                with tracer:
                    traced, _, _ = sweeps(sweep, seconds / 2, outcome)
        walls = probe.correct(untraced)
        lines = [describe("sweep_s", untraced, walls)]
        if trace:
            traced_walls = probe.correct(traced)
            values = per_layer(
                tracer, len(traced),
                cpu_s=statistics.median(cpus),
                overhead_s=statistics.median(traced_walls) - statistics.median(walls),
                points=outcome.points,
            )
            lines.append(describe("traced", traced, traced_walls))
            lines.append(f"counter_errors={tracer.counter_errors}")
            metrics = {k: {"value": v, "unit": unit(k)} for k, v in values.items()}
        else:
            setup_s = probe.correct(setup)
            lines.append(describe("setup_s", setup, setup_s))
            metrics = {
                "sweep_s": {"value": statistics.median(walls), "unit": "s"},
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
                # 1 - failed_share: a metric with a bound must not be 0
                "passed_share": {
                    "value": 1.0 - len(outcome.failures) / outcome.attempted,
                    "unit": "ratio",
                },
            }

    for failure in outcome.failures[:20]:
        print("FAILED", failure, file=sys.stderr)
    print("env", json.dumps(environment(workload, seed)))
    failed_share = len(outcome.failures) / outcome.attempted
    print(f"records attempted={outcome.attempted} failed={len(outcome.failures)} "
          f"failed_share={failed_share:.6g}")
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name:28} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }))
    return 1 if outcome.failures else 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            print(f"== {workload} trace={trace}", flush=True)
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", trace],
                timeout=900,
            )
            status = status or done.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in (SRC / "rislink" / "__init__.py", CORPUS) if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))}: "
              "run from the root of a rislink checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
