"""Run conditions shared by every benchmark process.

Import this module before numpy: it pins the BLAS and OpenMP thread pools
to one thread and puts the checkout's `src/` first on `sys.path`, so the
benchmark measures the capgraph sources next to it and never an installed
copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"


class MissingSources(RuntimeError):
    """The checkout has no capgraph sources to measure."""


def use_checkout_sources() -> None:
    """Make `import capgraph` resolve to `<checkout>/src/capgraph`."""
    if not (SRC / "capgraph" / "__init__.py").is_file():
        raise MissingSources(f"no capgraph package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def work_dir(workload: str, seed: int) -> Path:
    """Scratch directory of one workload and seed, inside the checkout."""
    path = WORK_ROOT / f"{workload}-{seed}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def thread_settings() -> dict:
    return {var: os.environ[var] for var in _THREAD_VARS}
