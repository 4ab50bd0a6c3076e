"""The README's library example runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})
    success_rate, median = capsys.readouterr().out.split()
    assert 0.0 <= float(success_rate) <= 1.0
