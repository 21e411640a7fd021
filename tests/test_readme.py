import doctest
import re
import shlex
from pathlib import Path

import pytest

from sylow2 import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example():
    # the ```python block alone: run over the whole file, doctest would read
    # the closing fence as expected output
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert block is not None
    line = text.count("\n", 0, block.start(1))
    test = doctest.DocTestParser().get_doctest(
        block.group(1), {}, "README.md", str(README), line
    )
    result = doctest.DocTestRunner().run(test)
    assert result.attempted > 0
    assert result.failed == 0


def _commands():
    """{command: comment} for every ``$ sylow2 …`` line of the README's
    "Command line" block, in order; the comment is "" where there is none."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n\n```console\n(.*?)^```$", text, re.M | re.S)
    assert block is not None
    lines = re.findall(r"^\$ sylow2 ([^#\n]*)#?(.*)$", block.group(1), re.M)
    return {command.strip(): comment.strip() for command, comment in lines}


# the first output line of each command whose comment states its output
STATED_OUTPUT = {
    "order A 12": "2^9",
    "rank A 28": "8",
    "member typeT 0/00/1001": "yes",
    "member derived-B 1/00": "no",
    "calc mul 1/00 0/10": "1/10",
    "calc abelianize-G 0/00/1001": "001",
}


def test_readme_comments_state_the_checked_outputs():
    commands = _commands()
    for command, first_line in STATED_OUTPUT.items():
        assert first_line in commands[command]


@pytest.mark.parametrize("command", list(_commands()))
def test_readme_command_runs(command, tmp_path, monkeypatch, capsys):
    # in a temporary directory: one of the commands writes report.json
    monkeypatch.chdir(tmp_path)
    try:
        code = cli.main(shlex.split(command))
    except SystemExit as exc:  # --version exits through argparse
        code = exc.code
    assert code == 0
    if command in STATED_OUTPUT:
        assert capsys.readouterr().out.splitlines()[0] == STATED_OUTPUT[command]
