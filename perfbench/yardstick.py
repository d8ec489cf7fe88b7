"""A fixed numpy workload that measures how fast the machine is right now.

On a shared host the speed of a pass drifts by tens of percent over seconds,
as other tenants come and go.  measure.py runs this script in a second
process and alternates its timed rounds with the passes of a workload, one
process busy at a time.  A round does the same kind of work as the workload
(FFTs of the same size, elementwise maths on arrays of the same size, a plain
Python loop) but calls nothing in gnls, so a change to gnls does not move it.
The pass time over the time of the rounds either side of it cancels most of
the drift; see README.md.

    python3 perfbench/yardstick.py <workload>

reads one line per round from standard input, runs the round and answers
with its wall time in seconds; it exits at the end of its input.  Running it
in its own process keeps its arrays out of the workload's peak RSS.
"""

from __future__ import annotations

import sys
import time

import numpy as np

#: the parts of one round, per workload: ("split", grid shape, steps),
#: ("vector", length, passes) and ("python", loop iterations)
ROUNDS = {
    "evolve-d3-n128": [("split", (128, 128, 128), 1)],
    "radius-d1-n4096": [("split", (4096,), 400), ("python", 25_000)],
    "simulate-d3-n64": [("split", (128, 128, 128), 1), ("split", (64, 64, 64), 2),
                        ("vector", 500_000, 1)],
    "audit-bench": [("split", (64,), 1000), ("vector", 3_000_000, 1),
                    ("python", 200_000)],
}


def split_steps(v: np.ndarray, phase: np.ndarray, steps: int) -> None:
    """Norm-preserving split steps: a Fourier phase, then a cubic phase."""
    for _ in range(steps):
        v = np.fft.ifftn(np.fft.fftn(v) * phase)
        v = v * np.exp(-0.01j * (v.real ** 2 + v.imag ** 2))


def vector_passes(x: np.ndarray, passes: int) -> None:
    """The triangle-inequality gap of frequency triples and its median."""
    for _ in range(passes):
        gap = np.abs(x[0]) + np.abs(x[1]) + np.abs(x[2]) - np.abs(x[0] - x[1] - x[2])
        np.median(-np.expm1(-1e-3 * gap))


def python_loop(n: int) -> None:
    s = 0.0
    for i in range(n):
        s += i * 0.5 if i % 3 else -1.0


def make_round(workload: str):
    """The workload's round as a function of no arguments."""
    rng = np.random.default_rng(0)
    parts = []
    for kind, *args in ROUNDS[workload]:
        if kind == "split":
            shape, steps = args
            v, phase = np.exp(2j * np.pi * rng.random((2, *shape)))
            parts.append(lambda v=v, p=phase, n=steps: split_steps(v, p, n))
        elif kind == "vector":
            n, passes = args
            x = rng.uniform(-1e3, 1e3, (3, n))
            parts.append(lambda x=x, n=passes: vector_passes(x, n))
        else:
            parts.append(lambda n=args[0]: python_loop(n))

    def run() -> None:
        for part in parts:
            part()
    return run


def main() -> int:
    run = make_round(sys.argv[1])
    run()  # warm-up: first-touch pages and FFT plans
    print("ready", flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        run()
        print(repr(time.perf_counter() - t0), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
