"""Process preparation shared by the benchmark entry points.

``init()`` must run before numpy is imported: it pins OpenBLAS to one
thread, and puts the checkout's ``src/`` first
on ``sys.path`` so the package under test is the one built from this
checkout.  It exits with code 2 when the checkout holds no ``src/snnk``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def init() -> None:
    if not (SRC / "snnk" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'snnk'}", file=sys.stderr)
        sys.exit(2)
    # every matrix here is small; on a 2-core machine a second OpenBLAS
    # thread made run_pointwise ~40% slower and its run-to-run spread wider
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
