"""The Python quick start in README.md runs as written and gives the
numbers it quotes."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Quick start (Python)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(code, str(README), "exec"), ns)
    assert ns["result"].distance == pytest.approx(0.40427, abs=1e-5)
    assert ns["mw2"](ns["estimate"], ns["mix1"]).distance < 0.05
