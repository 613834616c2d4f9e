"""Host-speed probe: corrects timings for the speed the host lent this process.

On a shared host the CPU the benchmark runs on is slowed, in bursts of a
fraction of a second to minutes, by work it does not control (on the 2-core
VM the benchmark was tuned on, by up to 2x). The same sweep then takes 12 s
in one minute and 22 s in the next. A probe process pinned to the benchmark's
CPU wakes every PERIOD_S, times a fixed pure-Python loop and writes
"<start> <duration>" lines to a file. Its mean duration over an interval,
divided by REF_S, is the slowdown the host imposed during that interval, and
a wall time divided by it is the time the same work takes on the unloaded
host. Over a 15 s sweep the probe takes some 1500 samples, and about 1 % of
the CPU, the same on every commit.

Run as a script it is the probe itself: `python3 probe.py <out-file>`.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.01
LOOP = 1000
# Duration of `spin()` on the unloaded reference host (2-core Xeon VM,
# Python 3.11): about the fastest 1 % of probes there. It only fixes the
# scale of corrected times; ratios between commits do not depend on it.
REF_S = 7.8e-5


def spin() -> float:
    """Seconds for a fixed loop. Its variables are module globals: dict
    lookups slow under contention the way the interpreter-bound sweeps do,
    which a loop over fast locals does not."""
    global _i, _x
    t0 = time.perf_counter()
    _x = 0
    for _i in range(LOOP):
        _x += _i * _i
    return time.perf_counter() - t0


def pin_to_one_cpu() -> None:
    """Pin this process, and the children it starts later, to one CPU, so
    that the probe sees the contention the measured code sees."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostProbe:
    """Context manager running the probe on this process's CPUs; call after
    `pin_to_one_cpu()`. Timestamps are `time.perf_counter()`, which is the
    system-wide monotonic clock on Linux, so they compare across processes."""

    def __init__(self, path: Path):
        self.path = path
        self.samples = []

    def __enter__(self):
        self.process = subprocess.Popen([sys.executable, __file__, str(self.path)])
        while not self.path.exists() or not self.path.stat().st_size:
            if self.process.poll() is not None:
                raise RuntimeError(f"host probe exited with code {self.process.returncode}")
            time.sleep(PERIOD_S)  # until the first sample is written
        return self

    def __exit__(self, *exc):
        self.process.terminate()
        self.process.wait()
        # every line but the last ends in a newline; the last may be cut short
        for line in self.path.read_text().split("\n")[:-1]:
            start, duration = line.split()
            self.samples.append((float(start), float(duration)))
        return False

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean probe duration in [t0, t1) over REF_S; the nearest probe
        stands in when none started inside the interval."""
        inside = [d for t, d in self.samples if t0 <= t < t1]
        if not inside:
            inside = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        return sum(inside) / len(inside) / REF_S

    def correct(self, intervals) -> list:
        """Corrected seconds for each (t0, t1) interval."""
        return [(t1 - t0) / self.slowdown(t0, t1) for t0, t1 in intervals]


def main() -> None:
    parent = os.getppid()
    with open(sys.argv[1], "w", buffering=1) as out:
        while os.getppid() == parent:  # end when the benchmark is killed
            t0 = time.perf_counter()
            out.write(f"{t0!r} {spin()!r}\n")
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main()
