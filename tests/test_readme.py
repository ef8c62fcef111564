"""README's code runs as written, so a rename in the API fails here instead
of leaving the docs stale."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def python_block(heading: str) -> str:
    """The first ```python block after the line ``heading`` in README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n"):]
    return re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)


def test_library_sketch_runs(capsys):
    exec(compile(python_block("## Library sketch"), "README.md", "exec"), {})
    assert " +- " in capsys.readouterr().out
