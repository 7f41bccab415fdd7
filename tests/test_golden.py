"""Every pinned output of the CLI, byte for byte: one table, one test, one writer.

GOLDEN maps each file under tests/golden/ to the argv that produces it: the file
holds what the command prints, or what it writes at ``{out}``; a ``.sha256`` file
holds the sha256 of those bytes.  Each *.cfg there is a sweep config, which CI
runs too, and gives the CSV of its name.  point.txt holds one ``point`` argv per
line and what it prints, as ``argv -> printed``.
``PYTHONPATH=src python tests/test_golden.py`` rewrites every file from its argv,
so ``git diff tests/golden`` shows what moved.
"""

import contextlib
import hashlib
import io
import itertools
import tempfile
from pathlib import Path

import pytest

from icoswitch import cli

GOLDEN_DIR = Path(__file__).parent / "golden"
ARROW = " -> "
GOLDEN = {
    "fig2-2001.csv.sha256": ["fig2", "--steps", "2001"],
    "fig2-2001.svg.sha256": ["fig2", "--steps", "2001", "--svg", "{out}"],
    "fig2-21.csv": ["fig2", "--steps", "21"],
    "fig2-21.svg": ["fig2", "--steps", "21", "--svg", "{out}"],
    **{f"{c.stem}.csv": ["sweep", "--config", str(c)] for c in sorted(GOLDEN_DIR.glob("*.cfg"))},
    "verify.json": ["verify", "--json", "{out}"],
    "point.txt": None,  # the argv of each of its lines
}


def run(argv: list[str], out: Path) -> bytes:
    """The file ``argv`` writes at ``{out}``, or else what it prints."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    with contextlib.redirect_stdout(stdout):
        status = cli.main([arg.replace("{out}", str(out)) for arg in argv])
    assert status == 0, argv
    return out.read_bytes() if "{out}" in argv else stdout.buffer.getvalue()


def produce(name: str, tmp: Path) -> bytes:
    """The bytes tests/golden/``name`` pins, from its argv."""
    if GOLDEN[name] is None:
        lines = (GOLDEN_DIR / name).read_text(encoding="utf-8").splitlines()
        argvs = [line.partition(ARROW)[0] for line in lines]
        return b"".join(f"{argv}{ARROW}".encode() + run(argv.split(), tmp) for argv in argvs)
    data = run(GOLDEN[name], tmp / name)
    return f"{hashlib.sha256(data).hexdigest()}\n".encode() if name.endswith(".sha256") else data


def moved(name: str, old: str, new: str) -> str:
    """The first line where ``new`` differs from ``old``; in a CSV, its column and cells."""
    pairs = itertools.zip_longest(old.splitlines(True), new.splitlines(True), fillvalue="")
    number, (was, now) = next((i, pair) for i, pair in enumerate(pairs, 1) if pair[0] != pair[1])
    if name.endswith(".csv"):
        header = new.partition("\n")[0].split(",")
        for column, a, b in zip(header, was.split(","), now.split(",")):
            if a != b:
                return f"{name} line {number}, column {column}: {a.strip()} -> {b.strip()}"
    return f"{name} line {number}: {was!r} -> {now!r}"


def check(name: str, tmp: Path) -> None:
    old, new = (GOLDEN_DIR / name).read_bytes(), produce(name, tmp)
    assert new == old, moved(name, old.decode(), new.decode())


@pytest.mark.parametrize("name", GOLDEN)
def test_output_is_golden(name, tmp_path):
    check(name, tmp_path)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in GOLDEN:
            (GOLDEN_DIR / name).write_bytes(produce(name, Path(tmp)))
