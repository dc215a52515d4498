"""Process set-up shared by the benchmark's entry points.

``bootstrap()`` must run before numpy is imported: it caps every BLAS and
OpenMP pool at one thread (``cli.run_config`` called in-process skips the
CLI's own ``OPCALC_THREADS`` handling) and puts this checkout's ``src/`` first
on ``sys.path``, refusing to run against any other copy of opcalc.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPCALC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
THREAD_CAP = "1"


def bootstrap() -> Path:
    """Pin threads, import opcalc from this checkout, and return the root."""
    for var in THREAD_VARS:
        os.environ[var] = THREAD_CAP
    package = SRC / "opcalc"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no opcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import opcalc
    if Path(opcalc.__file__).resolve().parent != package:
        sys.exit(f"bench: imported opcalc from {opcalc.__file__}, not {package}")
    return ROOT


def src_lines() -> int:
    """Line count of the library sources (ROADMAP aim 2 tracks it)."""
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "opcalc").glob("*.py")))


def environment() -> dict:
    """Interpreter, numpy, BLAS and thread facts recorded with every run."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_cap": int(THREAD_CAP),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
    }
