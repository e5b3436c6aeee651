"""Every ```python block of README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (line number of the opening fence, code) of each python block
BLOCKS = [(TEXT.count("\n", 0, m.start()) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT,
                               re.MULTILINE | re.DOTALL)]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line,code", BLOCKS,
                         ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_python_block_runs(line, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README}:{line}", "exec"), {"__name__": "readme"})
