"""The README's Python examples run as written, and its usage block is the CLI's."""

import re
from pathlib import Path

import pytest

from icoswitch.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_command_line_block_is_the_usage(capsys):
    block = re.search(r"^## Command line\n\n```text\n(.*?)^```", README.read_text(), re.M | re.S)
    with pytest.raises(SystemExit):
        main(["--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert block[1].splitlines() == [line[len("usage: ") :] for line in usage.splitlines()]
