"""Guard for the package's sources: no line of a ``src/focusfdr`` module is
longer than 79 characters, PEP 8's limit, which the package's code keeps.
No linter runs on this code, so a long line would otherwise go
unnoticed."""

from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src"
                  / "focusfdr").glob("*.py"))
MAX_LINE = 79


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_line_is_longer_than_79_characters(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [f"{path.name}:{n}: {len(line)} characters"
            for n, line in enumerate(lines, start=1)
            if len(line) > MAX_LINE]
    assert not long, "lines longer than 79 characters: " + ", ".join(long)
