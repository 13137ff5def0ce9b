"""Process start-up shared by the benchmark and its child processes.

``boot`` must run before anything imports numpy: it pins every BLAS and
OpenMP pool to one thread, then makes ``sdtlearn`` importable from the
checkout's ``src`` directory and only from there.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BootError(Exception):
    """The checkout has no importable sdtlearn source tree."""


def boot() -> None:
    if "numpy" in sys.modules:
        raise BootError("numpy was imported before the BLAS thread count was pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "sdtlearn" / "__init__.py").is_file():
        raise BootError(f"no sdtlearn package under {src}")
    sys.path.insert(0, str(src))
    import sdtlearn

    if Path(sdtlearn.__file__).resolve().parent != src / "sdtlearn":
        raise BootError(f"sdtlearn was imported from {sdtlearn.__file__}, not from {src}")
