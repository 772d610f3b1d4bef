"""Where the benchmark finds the package, and the process settings it pins.

Importing this module imports neither numpy nor the package, so the BLAS
thread count can still be pinned before numpy loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "casorati"
OUT = Path(__file__).resolve().parent / "out"

# One closed-loop client on small matrices: a single BLAS thread keeps the
# timings free of thread start-up and contention, and stays within any nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingPackage(RuntimeError):
    """The checkout holds no package source to benchmark."""


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; must run before numpy is first imported."""
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)


def import_package():
    """Import the package from the checkout's source tree, and refuse any other copy."""
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingPackage(f"no package source at {PACKAGE.relative_to(ROOT)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import casorati

    if Path(casorati.__file__).resolve().parent != PACKAGE.resolve():
        raise MissingPackage(f"casorati was imported from {casorati.__file__}, not the checkout")
    return casorati
