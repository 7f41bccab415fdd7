"""Command-line interface.

Subcommands:
    fig2    control-vs-cascade comparison sweep to CSV (and optional SVG)
    sweep   run a config-file driven parameter sweep to CSV
    point   evaluate one quantity at one parameter point
    verify  run the seeded oracle-equivalence and invariant suite
            (--json PATH also writes each check's name, outcome, detail
            line and printed numbers as a JSON list)

Every flag is read from one table, _COMMANDS, which also gives the usage
lines of ``--help``.  A flag is written ``--flag value`` or ``--flag=value``;
the token after a flag is always its value, so ``--xi -2.5`` works.  A
unique prefix of a flag stands for it.  A flag that has a config key is read
by that key's rule.  Every CSV, SVG and JSON output goes through one writer,
to its file or stdout.  A sweep config is read as at most MAX_CONFIG_BYTES
of UTF-8.  Exit code is 0 on success and 1 with a one-line diagnostic on
any error.
"""

from __future__ import annotations

import contextlib
import os
import sys
import tempfile

from .engine import NOISE_KINDS, QUANTITIES, _evaluate
from .selfcheck import run_all_checks
from .sweep import (
    _KEYS,
    SweepConfig,
    _probability,
    fig2_preset,
    format_number,
    parse_config,
    render_csv,
    render_svg,
    run_sweep,
)


def _quantity(raw: str) -> str:
    if raw not in QUANTITIES:
        choices = ", ".join(map(repr, QUANTITIES))
        raise ValueError(f"invalid choice: {raw!r} (choose from {choices})")
    return raw


_REQUIRED = object()  # the default of a flag that must be given
# The largest config file `sweep --config` reads (1 MiB); no valid config comes near it.
MAX_CONFIG_BYTES = 1 << 20

# Command -> (help line, {flag: (rule, default, metavar, help line)}).  A
# flag's value is stored under its name without the dashes.
_COMMANDS = {
    "fig2": (
        "control-vs-cascade sweep over the noise level",
        {
            "--steps": (int, 201, "N", "grid points on [0, 1] (default 201)"),
            "--xi": (_KEYS["xi"][1], SweepConfig.xi, "RAD", "phase in radians (default pi/5)"),
            "--out": (str, None, "PATH", "CSV output path (default: stdout)"),
            "--svg": (str, None, "PATH", "also write an SVG line plot here"),
        },
    ),
    "sweep": (
        "run a sweep described by a config file",
        {
            "--config": (str, _REQUIRED, "PATH", "path to the key = value config"),
            "--out": (str, None, "PATH", "CSV output path (default: stdout)"),
        },
    ),
    # point starts from the values an empty sweep config gives.
    "point": (
        "print one quantity at one parameter point",
        {
            "--noise": (
                _KEYS["noise"][1],
                SweepConfig.noise_kind,
                "KIND",
                f"{', '.join(NOISE_KINDS)} (default bitflip)",
            ),
            "--p": (_probability("p"), _REQUIRED, "VAL", "noise level in [0, 1]"),
            "--pc": (_KEYS["p_c"][1], SweepConfig.p_c, "VAL", "control weight (default 0.5)"),
            "--xi": (_KEYS["xi"][1], SweepConfig.xi, "RAD", "phase in radians (default pi/5)"),
            "--axis": (
                _KEYS["axis"][1], SweepConfig.axis, "X,Y,Z", "rotation axis (default 0,1,0)"
            ),
            "--probe": (
                _KEYS["probe"][1], SweepConfig.probe, "X,Y,Z", "probe Bloch vector (default 0,0,1)"
            ),
            "--quantity": (_quantity, _REQUIRED, "NAME", ", ".join(QUANTITIES)),
        },
    ),
    "verify": (
        "run the oracle-equivalence and invariant suite",
        {"--json": (str, None, "PATH", "also write the results here as JSON")},
    ),
}


def _usage(command: str) -> str:
    words = [
        f"{flag} {metavar}" if default is _REQUIRED else f"[{flag} {metavar}]"
        for flag, (_, default, metavar, _) in _COMMANDS[command][1].items()
    ]
    return " ".join(["icoswitch", command, *words])


def _help(command: str | None) -> None:
    """Print the usage of one command, or of every command for None, and exit 0."""
    if command is None:
        usage = "\n       ".join(map(_usage, _COMMANDS))
        rows = {name: about for name, (about, _) in _COMMANDS.items()}
    else:
        usage = f"{_usage(command)}\n\n{_COMMANDS[command][0]}"
        rows = {f"{flag} {spec[2]}": spec[3] for flag, spec in _COMMANDS[command][1].items()}
    width = max(map(len, rows))
    print(f"usage: {usage}\n", *(f"  {a:<{width}}  {b}" for a, b in rows.items()), sep="\n")
    raise SystemExit(0)


def _flag(name: str, flags: dict) -> str:
    """The flag ``name`` stands for: itself, or the one flag (or --help) it is a prefix of."""
    if name in flags or name == "-h":
        return name
    prefix = name[:2] == "--" and name != "--"  # a bare -- stands for no flag
    matches = [f for f in (*flags, "--help") if f.startswith(name)] if prefix else []
    if len(matches) > 1:
        raise ValueError(f"ambiguous option: {name} could match {', '.join(matches)}")
    if not matches:
        raise ValueError(f"unrecognized argument: {name}")
    return matches[0]


def _parse(argv: list[str]) -> tuple[str, dict]:
    """The command ``argv`` names and its flag values by name; one ValueError line if bad."""
    if not argv:
        raise ValueError("the following arguments are required: command")
    command, *tokens = argv
    if command in ("-h", "--help"):
        _help(None)
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise ValueError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    flags = _COMMANDS[command][1]
    values = {flag[2:]: spec[1] for flag, spec in flags.items()}
    tokens = iter(tokens)
    for token in tokens:  # a repeated flag keeps its last value
        name, eq, raw = token.partition("=")
        flag = _flag(name, flags)
        if flag in ("-h", "--help"):
            _help(command)
        if not eq:
            raw = next(tokens, None)
            if raw is None:
                raise ValueError(f"argument {flag}: expected one argument")
        rule = flags[flag][0]
        try:
            values[flag[2:]] = rule(raw)
        except ValueError as exc:
            why = f"invalid int value: {raw!r}" if rule is int else exc
            raise ValueError(f"argument {flag}: {why}") from None
    missing = [flag for flag in flags if values[flag[2:]] is _REQUIRED]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    return command, values


def _read_config(path: str) -> str:
    """The config file's text, read as at most MAX_CONFIG_BYTES + 1 bytes of UTF-8.

    The open does not block, so a FIFO with no writer reads as an empty config;
    the read then blocks as usual, so a pipe is read to its end.
    """
    with open(path, "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)) as fh:
        os.set_blocking(fh.fileno(), True)
        data = fh.read(MAX_CONFIG_BYTES + 1)
    if len(data) > MAX_CONFIG_BYTES:
        raise ValueError(f"argument --config: {path!r} holds more than {MAX_CONFIG_BYTES} bytes")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(
            f"argument --config: {path!r} line {line} is not UTF-8 ({exc.reason})"
        ) from None


def _write(*outputs: tuple[str, str | None]) -> None:
    """Write each (text, path) as UTF-8 to path, or to stdout for None.

    Each regular (or new) file is written under a temporary name beside it,
    with the mode a new file gets, and all are renamed into place only once
    every one is written, so a failed run leaves an earlier file as it was.
    Stdout and other paths, such as /dev/null, are opened first and written last.
    """
    umask = os.umask(0o022)
    os.umask(umask)
    staged, last = [], []  # (temporary name, target) and (bytes, sink)
    with contextlib.ExitStack() as stack:
        try:
            for text, path in outputs:
                data = text.encode("utf-8")
                if path is None:
                    last.append((data, sys.stdout.buffer))
                elif os.path.exists(path) and not os.path.isfile(path):
                    last.append((data, stack.enter_context(open(path, "wb"))))
                else:
                    target = os.path.realpath(path)  # write through a symlink, not over it
                    try:
                        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target))
                    except OSError as exc:
                        exc.filename = path  # the path given, not the temporary name
                        raise
                    staged.append((tmp, target))
                    with open(fd, "wb") as fh:
                        fh.write(data)
                    os.chmod(tmp, 0o666 & ~umask)
            for tmp, target in staged:
                os.replace(tmp, target)
        except BaseException:
            for tmp, _ in staged:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            raise
        for data, sink in last:
            sink.write(data)
            sink.flush()


def _json(results) -> str:
    import json  # only verify --json needs it; kept out of the import time of every call

    doc = [
        {"name": r.name, "passed": bool(r.passed), "detail": r.detail, "values": dict(r.values)}
        for r in results
    ]
    return json.dumps(doc, indent=1) + "\n"


def main(argv: list[str] | None = None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
        if command == "fig2":
            table = fig2_preset(args["steps"], args["xi"])
            svg = [] if args["svg"] is None else [(render_svg(table), args["svg"])]
            _write((render_csv(table), args["out"]), *svg)
        elif command == "sweep":
            cfg = parse_config(_read_config(args["config"]))
            _write((render_csv(run_sweep(cfg)), args["out"]))
        elif command == "point":
            q, noise, p = args["quantity"], args["noise"], [args["p"]]
            rest = args["pc"], args["xi"], args["axis"], args["probe"]
            print(format_number(_evaluate((q,), noise, p, *rest)[q][0]))
        elif command == "verify":
            results = run_all_checks()
            for res in results:
                print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
            failed = sum(not r.passed for r in results)
            print(f"{len(results) - failed}/{len(results)} checks passed")
            if args["json"] is not None:
                _write((_json(results), args["json"]))
            if failed:
                return 1
        return 0
    except BrokenPipeError:
        return 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
