#!/usr/bin/env python3
"""Benchmark command for gnls.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload of BENCHMARK.json from the root of a source checkout,
against the package in ``src/``.  The workload runs in a child process
(measure.py) with the thread environment fixed, so that its peak RSS is its
own.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
exit code is the child's: nonzero when a correctness check failed or the run
could not start.  README.md describes the workloads and metrics.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: one thread everywhere: the plain single-threaded baseline on a 2-core box
FIXED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
             "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0"}
TIMEOUT_S = 170


def main() -> int:
    env = {**os.environ, **FIXED_ENV}
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "measure.py"), *sys.argv[1:]]
    # in a session of its own, so that a timeout stops the child and the
    # yardstick process it starts together
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: stopped after {TIMEOUT_S} s or an interrupt",
              file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
