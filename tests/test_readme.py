"""The README's quick example runs as printed."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_example_runs(capsys):
    section = README.read_text().split("## Quick example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    regret = float(capsys.readouterr().out.split()[-1])
    assert math.isfinite(regret)
