"""README's Quick start runs, and prints what its comments say; its
Command line block runs, and exits as its comments say."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from ssetkit import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text().split("## Quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _promised_lines(code: str) -> list[str]:
    """What each print call should print: its trailing `# ...` comment, or
    the comment line right below it."""
    promised, waiting = [], False
    for line in code.splitlines():
        statement, _, comment = line.partition("#")
        if waiting and not statement.strip():
            promised.append(comment.strip())
        waiting = False
        if statement.lstrip().startswith("print("):
            if comment:
                promised.append(comment.strip())
            else:
                waiting = True
    return promised


def test_quick_start_prints_its_comments():
    code = _quick_start()
    promised = _promised_lines(code)
    assert len(promised) == code.count("print(")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == promised


def _command_lines() -> list[str]:
    section = README.read_text().split("## Command line", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def test_command_line_block_exits_as_documented(tmp_path, monkeypatch):
    # each line exits 0 unless its comment says "exits N"
    monkeypatch.chdir(tmp_path)
    lines = _command_lines()
    assert lines
    for line in lines:
        program, *argv = shlex.split(line, comments=True)
        assert program == "ssetkit", line
        promised = re.search(r"# exits (\d)", line)
        assert cli.main(argv) == (int(promised[1]) if promised else 0), line
    assert (tmp_path / "circle.json").is_file() and (tmp_path / "map.json").is_file()
