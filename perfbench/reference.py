"""Reference jobs that measure the host's speed, in their own process.

The host this benchmark was written on (a 2-core VM) runs the same work
1.5-2x slower in spells of seconds to tens of seconds (a 400 ms replay
took 380-790 ms), with CPU time tracking wall time, so the slowdown
comes from outside the process.  A fixed job that belongs to the
benchmark slows with it, and the benchmark scales its timings by
``QUIET_S[kind] / median(job times)``.

Not all work slows alike.  In a slow spell the interpreter-bound
``python`` job (heap and dict operations) took 1.75x its quiet time and
the ``numpy`` job (many operations on 512-element arrays) 1.45x; the
validated churn replay slowed like the first and the transitions replay,
whose flow fills run in numpy, like the second.  Each workload names the
job that tracks it.

The job runs in a long-lived helper process with the garbage collector
off, never in the interpreter under test: there, the program's leftover
garbage, threads or lazy work would slow the job and so make the
program's own times read smaller.  :class:`ReferenceClock` starts the
helper; the helper runs the job once per line it reads on stdin and
writes the job's time back.  While it runs, the benchmark only waits.

Each line names the CPU the benchmark last ran on, and the helper moves
itself there before the job.  On that host the two CPUs slow down
separately: a helper left to run on whichever CPU was idle read 8.7 ms
or 15 ms from one sample to the next while the program's speed did not
change.

    python3 perfbench/reference.py python   # the helper (reads stdin)
"""

from __future__ import annotations

import gc
import heapq
import os
import random
import statistics
import subprocess
import sys
import time

#: Each job's time on a quiet host (2-core VM, Python 3.11, numpy 2.4):
#: scaled timings read as seconds on that host.
QUIET_S = {"python": 0.0075, "numpy": 0.0070}


def python_job() -> None:
    rng = random.Random(1)
    heap: list = []
    sums: dict = {}
    for i in range(12000):
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 64:
            value, j = heapq.heappop(heap)
            sums[j % 251] = sums.get(j % 251, 0.0) + value


def numpy_job() -> None:
    import numpy

    array = numpy.arange(512, dtype=float)
    for _ in range(600):
        array = numpy.minimum(array * 1.0001, 1e6).cumsum() % 97.0


JOBS = {"python": python_job, "numpy": numpy_job}


def current_cpu() -> str:
    """The CPU the calling thread last ran on ('' where unknown)."""
    try:
        with open("/proc/thread-self/stat") as stat:
            # field 39, counted after the parenthesised command name
            return stat.read().rsplit(")", 1)[1].split()[36]
    except (OSError, IndexError):
        return ""


class ReferenceClock:
    """The helper process of one job kind, started on entry and stopped
    on exit."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.proc: subprocess.Popen | None = None
        self.samples: list[float] = []

    def __enter__(self) -> "ReferenceClock":
        self.proc = subprocess.Popen(
            [sys.executable, __file__, self.kind], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.sample()  # the helper's imports, untimed
        self.samples.clear()
        return self

    def sample(self, cpu: str | None = None) -> float:
        """Run the job once in the helper, on ``cpu`` or else the CPU
        this thread last ran on, and return its time."""
        self.proc.stdin.write(f"{current_cpu() if cpu is None else cpu}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference helper exited")
        seconds = float(line)
        self.samples.append(seconds)
        return seconds

    def scale(self, samples: list[float]) -> float:
        """Factor that takes a time measured beside ``samples`` to the
        quiet host's speed."""
        return QUIET_S[self.kind] / statistics.median(samples)

    def sample_all(self, repeat: int) -> dict[str, list[float]]:
        """``repeat`` job times on each CPU this process may use."""
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else [""]
        return {str(cpu): [self.sample(str(cpu)) for _ in range(repeat)]
                for cpu in cpus}

    def scale_all(self, *runs: dict[str, list[float]]) -> float:
        """Scale for work spread over every CPU, from ``sample_all``
        results: the inverse of the CPUs' mean slowdown."""
        slowdowns = [
            statistics.median(t for run in runs for t in run[cpu])
            / QUIET_S[self.kind]
            for cpu in runs[0]
        ]
        return len(slowdowns) / sum(slowdowns)

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def main(kind: str) -> None:
    job = JOBS[kind]
    job()  # imports
    gc.disable()
    for line in sys.stdin:
        if line.strip() and hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {int(line)})
        start = time.perf_counter()
        job()
        print(repr(time.perf_counter() - start), flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
