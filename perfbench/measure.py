"""One benchmark run of one workload, in this process.

run.py starts this script in a child process with the thread environment
fixed; see README.md.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def environment() -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "numba": has_numba,
            "nproc": len(os.sched_getaffinity(0)),
            "env": {k: os.environ.get(k) for k in threads}}


def startup_s() -> float:
    """Wall time of a fresh interpreter that imports gnls and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gnls.cli"], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": str(SRC)})
    return time.perf_counter() - t0


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


class Yardstick:
    """yardstick.py in a child process: one call is one timed round."""

    def __init__(self, workload: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "yardstick.py"),
             workload], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the yardstick process did not start")

    def __call__(self) -> float:
        self.proc.stdin.write("round\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_plain(wl, seed: int, seconds: float, workdir: Path, checks) -> dict:
    """End-to-end metrics: set-up time, relative pass time and peak RSS,
    with tracing off.

    A set-up is what a user waits for before the first timed call: a fresh
    interpreter importing gnls, timed in a child process, plus building the
    inputs in this one.  ``setup_repeats`` of them run at even intervals of
    the budget, each before a pass, so that the set-ups sample the same
    stretch of time as the passes.  Passes alternate with yardstick rounds,
    and each pass is divided by the mean of the rounds either side of it.
    ``seconds`` bounds the time spent in passes, rounds and checks.
    """
    setups, walls = [], []
    start = time.perf_counter()
    with Yardstick(wl.name) as yardstick:
        rounds = [yardstick()]
        while not walls or (time.perf_counter() - start + statistics.median(walls)
                            + statistics.median(rounds) <= seconds):
            elapsed = time.perf_counter() - start
            if (len(setups) < wl.setup_repeats
                    and elapsed >= len(setups) * seconds / wl.setup_repeats):
                state = out = None  # release the previous inputs before building new ones
                dt, state = timed(wl.setup, seed, workdir)
                setups.append(startup_s() + dt)
                start += setups[-1]  # set-ups do not count against the budget
            out = None  # free the last outputs before the next pass
            dt, out = timed(wl.run, state)
            walls.append(dt)
            if len(walls) == 1:
                # later passes reuse freed memory in an order that varies
                # from run to run, so the peak is taken over the first one
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            rounds.append(yardstick())
            wl.check(state, out, checks)
    wl.final_check(state, checks)
    rel = [w / ((a + b) / 2) for w, a, b in zip(walls, rounds, rounds[1:])]
    log(f"{len(setups)} set-ups, {len(walls)} passes of "
        f"{min(walls):.4g}/{statistics.median(walls):.4g}/{max(walls):.4g} s, "
        f"yardstick rounds of {min(rounds):.4g}/{statistics.median(rounds):.4g}/"
        f"{max(rounds):.4g} s, pass over rounds "
        f"{min(rel):.4g}/{statistics.median(rel):.4g}/{max(rel):.4g} (min/median/max)")
    return {"setup_s": statistics.median(setups), "wall_rel": statistics.median(rel),
            "peak_rss_mb": peak_rss_mb}


def run_traced(wl, seed: int, seconds: float, workdir: Path, checks) -> dict:
    """Per-layer metrics: traced passes alternating with untraced ones."""
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.span("bench.setup"):
            state = wl.setup(seed, workdir)
        setup_spans = tracer.take()

        resolved = []
        tracer.probe = lambda u: resolved.append(tracing.resolved(u.values))
        with tracer.counting(), tracer.span("bench.pass"):
            out = wl.run(state)
        tracer.probe = None
        count_spans = tracer.take()
    wl.check(state, out, checks)

    traced, plain, passes = [], [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start + statistics.median(plain)
                         + statistics.median(traced) <= seconds):
        # alternate which side goes first, so neither always follows the other
        for side in ("plain", "traced")[::1 if len(plain) % 2 == 0 else -1]:
            out = None  # free the last outputs outside the timed region
            if side == "plain":
                dt, out = timed(wl.run, state)
                plain.append(dt)
            else:
                with tracer.installed(), tracer.span("bench.pass"):
                    out = wl.run(state)
                m = tracing.pass_metrics(tracer.take())
                traced.append(m["trace.wall_ms"] / 1e3)
                checks.expect("traced self times add up to the traced wall time",
                              abs(m.pop("trace.self_sum_ms") - m["trace.wall_ms"])
                              <= 1e-6 * m["trace.wall_ms"])
                passes.append(m)
            wl.check(state, out, checks)
    wl.final_check(state, checks)
    log(f"{len(passes)} traced and {len(plain)} untraced passes, fastest "
        f"{min(traced):.4g} and {min(plain):.4g} s, in "
        f"{time.perf_counter() - start:.4g} s")

    metrics = tracing.median_metrics(passes)
    metrics["trace.overhead_frac"] = min(traced) / min(plain) - 1
    metrics["integrator.alloc_mb_per_step"] = tracing.alloc_mb_per_step(count_spans)
    metrics["norms.resolved_share"] = (sum(resolved) / len(resolved)) if resolved else 0.0
    metrics["data.initial_data_s"] = tracing.initial_data_s(setup_spans)
    metrics.update(wl.counts(out))
    metrics.update(wl.accuracy(state, out))
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="one run of one gnls benchmark workload")
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    sys.path.insert(0, str(SRC))
    try:
        import gnls
    except ImportError as e:
        log(f"cannot import gnls from {SRC}: {e}")
        return 2
    if Path(gnls.__file__).resolve().parent.parent != SRC:
        log(f"gnls was imported from {gnls.__file__}, not from {SRC}")
        return 2
    from workloads import WORKLOADS, Checks

    log("environment " + json.dumps(environment()))
    wl = WORKLOADS[args.workload]
    checks = Checks(log)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        run = run_traced if args.trace else run_plain
        values = run(wl, args.seed, args.seconds, Path(tmp), checks)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.run,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
