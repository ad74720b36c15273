"""Paths shared by the benchmark's scripts, and the process set-up they need
before numpy is imported."""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENES = BENCH / "scenes"
FIXTURES = BENCH / "fixtures"
RUNS = ROOT / ".bench_runs"

# One workload is one single-threaded process: BLAS and OpenMP pools would
# otherwise compete with the Python thread for the machine's two cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# Demonstrations are always the scripted expert's zone-free reach over 100
# steps, whatever the scene's task and episode horizon: the fixture models were
# trained on such demos, and gen-demos judges a path-follow demo against no
# path, so it would report every one as failed.
DEMO_SETTINGS = ("--set", "env.task=reach", "--set", "env.horizon=100")


class NoProgram(RuntimeError):
    """The checkout holds no program source to benchmark."""


def prepare() -> None:
    """Pin thread pools to one thread and import safectl from this checkout's
    src/, never from an installed copy. Call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "safectl" / "__init__.py").is_file():
        raise NoProgram(f"no program source at {SRC / 'safectl'}")
    sys.path.insert(0, str(SRC))
    import safectl

    if Path(safectl.__file__).resolve().parent != (SRC / "safectl").resolve():
        raise NoProgram(f"safectl imported from {safectl.__file__}, not from {SRC}")
