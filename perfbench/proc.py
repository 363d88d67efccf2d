"""Paths, environment pinning and child processes, shared by run.py and worker.py."""

from __future__ import annotations

import os
import subprocess
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS/OpenMP thread in the benchmark and every process it starts.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}

CHILD_TIMEOUT_S = 150.0


def child_env():
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, stdout_path, stderr_path):
    """Run argv to completion; return (exit code, t_spawn, t_exit, peak RSS in MB).

    Times are `time.monotonic()` readings, which share one clock with the
    child.  The child is killed if it outlives CHILD_TIMEOUT_S.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t_spawn, t_exit, usage.ru_maxrss / 1024.0

