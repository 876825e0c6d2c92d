"""Paths of the benchmark, and loading lglift from this checkout's src/."""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
#: one BLAS thread, so the SVD in condition_number runs on the single caller
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(RuntimeError):
    """The directory does not hold a usable lglift source tree."""


def load_lglift() -> float:
    """Pin BLAS to one thread and import lglift from this checkout's src/.

    Returns the import time in seconds (numpy and scipy included).
    """
    if "numpy" in sys.modules:
        raise CheckoutError("numpy was imported before BLAS threads were pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    package = SRC / "lglift"
    if not (package / "__init__.py").is_file():
        raise CheckoutError(f"no lglift package at {package}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import lglift

    elapsed = time.perf_counter() - start
    if Path(lglift.__file__).resolve().parent != package.resolve():
        raise CheckoutError(f"imported lglift from {lglift.__file__}, not {package}")
    return elapsed
