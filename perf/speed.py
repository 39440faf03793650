"""CPU speed, measured with a fixed reference loop.

The benchmark's host is a small virtual machine on a shared machine.  Each
of its CPUs runs faster or slower as the machine's other tenants come and
go, independently of the other CPU, and changes within a second: the same
loop, pinned to one CPU, takes 1.5 ms in one second and 3 ms a few seconds
later.  A wall time measured there mixes the program's cost with the
neighbours' load, and its run-to-run spread (20-35%) hides any change
smaller than that.

So the benchmark reports every time at the *reference speed*: the raw time
multiplied by the relative speed of the workload's CPUs while it ran
(:func:`scale`).  A CPU runs at relative speed 1 when :func:`loop_ms`
takes :data:`REFERENCE_LOOP_MS`, about what an uncontended CPU of the host
that recorded the baselines needs, so on a calm host the reported time is
close to the wall time.  The speed is read in one of two ways:

- :func:`cpu_speed` runs the loop between two operations, while the
  program is idle.  Serve workloads read the server CPU between
  one-second segments of traffic.
- :class:`Sampler` runs the loop in a helper process per CPU, once every
  :data:`SAMPLE_INTERVAL_S`, while the program runs.  A fit lasts seconds,
  and the speed changes inside it without either end seeing it; the
  samples inside the fit do see it.  The helpers take about 4% of each
  CPU, the same share in every run.  Work shared over several CPUs
  finishes at the sum of their speeds, so a fit's factor is the mean
  speed of its CPUs.

The loop does what the program does most: it hashes tuples, fills and
reads a dict, builds a set and sorts.  It followed the program's speed
more closely than a loop of arithmetic did.  It runs with the garbage
collector off and keeps nothing, so the program's heap cannot change its
time.

Run as a script, this file is one sampler helper::

    python perf/speed.py CPU FILE
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Sequence, Tuple

#: Time of :func:`loop_ms` on an uncontended CPU of the reference host.
REFERENCE_LOOP_MS = 1.5
#: Keys the reference loop inserts.
LOOP_KEYS = 4_000
#: Loops per read by :func:`cpu_speed`; the median rejects preempted loops.
LOOPS = 15
#: A :class:`Sampler` helper runs the loop once per this many seconds.
SAMPLE_INTERVAL_S = 0.05


def loop_ms() -> float:
    """Milliseconds one pass of the reference loop takes on this CPU."""
    gc.disable()
    try:
        start = time.perf_counter_ns()
        table: Dict[Tuple[str, int, int], int] = {}
        for i in range(LOOP_KEYS):
            key = ("R", i & 511, i >> 9)
            table[key] = table.get(key, 0) + 1
        {(key[2], count) for key, count in table.items()}
        sorted(table, key=lambda key: (key[2], -key[1]))
        elapsed = time.perf_counter_ns() - start
    finally:
        gc.enable()
    return elapsed / 1e6


def cpu_speed(cpu: int) -> float:
    """Relative speed of one CPU now: 1 at the reference speed.

    Runs the loop pinned to ``cpu`` and restores the caller's affinity.
    """
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return REFERENCE_LOOP_MS / statistics.median(
            loop_ms() for _ in range(LOOPS)
        )
    finally:
        os.sched_setaffinity(0, previous)


def scale(raw: float, before: float, after: float) -> float:
    """``raw`` (a time) at the reference speed, from speeds around it."""
    return raw * (before + after) / 2


class Sampler:
    """Samples the speed of ``cpus`` in the background; a context manager.

    Each CPU gets a helper process pinned to it, which appends one
    ``start_ns loop_ms`` line to ``FOLDER/speed-CPU.txt`` per sample.
    """

    def __init__(self, cpus: Sequence[int], folder: str) -> None:
        self.paths = {cpu: os.path.join(folder, f"speed-{cpu}.txt") for cpu in cpus}
        self.samples: Dict[int, List[Tuple[int, float]]] = {}
        self._helpers: List[subprocess.Popen] = []

    def __enter__(self) -> "Sampler":
        for cpu, path in self.paths.items():
            self._helpers.append(
                subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(cpu), path],
                    stdin=subprocess.DEVNULL,
                )
            )
        return self

    def __exit__(self, *exc: Any) -> None:
        for helper in self._helpers:
            helper.terminate()
        for helper in self._helpers:
            helper.wait()
        for cpu, path in self.paths.items():
            with open(path) as handle:
                # A helper killed mid-write leaves a partial last line.
                rows = [line.split() for line in handle]
            self.samples[cpu] = [
                (int(row[0]), float(row[1])) for row in rows if len(row) == 2
            ]

    def speed(self, start_ns: int, end_ns: int) -> float:
        """Mean relative speed of the CPUs between two ``perf_counter_ns``.

        Uses the samples that began in that interval, or the nearest one
        when none did.  Only valid after the ``with`` block.
        """
        speeds = []
        for samples in self.samples.values():
            inside = [ms for start, ms in samples if start_ns <= start <= end_ns]
            if not inside:
                middle = (start_ns + end_ns) // 2
                inside = [min(samples, key=lambda s: abs(s[0] - middle))[1]]
            speeds.append(REFERENCE_LOOP_MS / statistics.median(inside))
        return statistics.fmean(speeds)


def workload_cpus(count: int) -> List[int]:
    """The first ``count`` CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0))[:count]


def _sample(cpu: int, path: str) -> None:
    """Helper process body: sample one CPU until terminated."""
    os.sched_setaffinity(0, {cpu})
    with open(path, "w", buffering=1) as out:
        while True:
            time.sleep(SAMPLE_INTERVAL_S)
            start = time.perf_counter_ns()
            out.write(f"{start} {loop_ms()}\n")


if __name__ == "__main__":
    _sample(int(sys.argv[1]), sys.argv[2])
