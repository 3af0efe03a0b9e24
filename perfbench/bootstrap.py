"""Point the interpreter at the checkout's library source and pin BLAS threads.

Every benchmark entry point calls `prepare()` before it imports numpy or
circleops.  The benchmark measures the source tree it sits in, never an
installed copy, so a tree without `src/circleops` is an error.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# One BLAS thread: runs are closed loops in one process, the jobs' matrix
# products are small, and a second BLAS thread on a 2-core box mostly adds noise.
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Exit with a message on stderr unless the checkout holds the library source."""
    if not (SRC / "circleops" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {SRC / 'circleops'}; run from a repository checkout")
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def thread_settings() -> dict:
    return {var: os.environ.get(var) for var in _THREAD_VARS}
