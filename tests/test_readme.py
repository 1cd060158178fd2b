"""The README's library quick start runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(code, "README.md (Library quick start)", "exec"), ns)
    assert ns["ests"].shape == (1000,)
    # sin(w.x + b) at w.x = 0.16, b = 0.5, within 4 Monte Carlo standard errors
    assert abs(ns["ests"].mean() - math.sin(0.66)) <= 4 * ns["se"]
    assert ns["y"].shape == (4,) and ns["Y_bar"].shape == (32, 4)
