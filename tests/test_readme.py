"""Every ```python block of README.md runs as written, and every
``focusfdr`` line of its ```bash blocks parses with the CLI's parser."""

import re
import shlex
from pathlib import Path

import pytest

from focusfdr.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (line number of the opening fence, code) of each python block
BLOCKS = [(TEXT.count("\n", 0, m.start()) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT,
                               re.MULTILINE | re.DOTALL)]
# each bash block's lines that run the CLI, continuation lines joined
COMMANDS = [line for m in re.finditer(r"^```bash\n(.*?)^```$", TEXT,
                                      re.MULTILINE | re.DOTALL)
            for line in m.group(1).replace("\\\n", " ").splitlines()
            if line.startswith("focusfdr ")]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line,code", BLOCKS,
                         ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_python_block_runs(line, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README}:{line}", "exec"), {"__name__": "readme"})


def test_readme_has_cli_lines():
    assert len(COMMANDS) >= 4


def _subparser(parser, command):
    [choices] = [a.choices for a in parser._actions if hasattr(a, "choices")
                 and isinstance(a.choices, dict)]
    return choices[command]


@pytest.mark.parametrize("command", COMMANDS,
                         ids=[c.split()[1] for c in COMMANDS])
def test_readme_cli_line_parses(command):
    # argparse exits on an unknown flag or a bad value; a flag must also
    # be spelt out in full, not as a prefix argparse would accept
    parser = build_parser()
    argv = shlex.split(command, comments=True)[1:]
    parser.parse_args(argv)
    known = _subparser(parser, argv[0])._option_string_actions
    for token in argv:
        if token.startswith("--"):
            assert token.split("=", 1)[0] in known
