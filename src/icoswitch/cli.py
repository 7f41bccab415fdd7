"""Command-line interface.

Subcommands:
    fig2    control-vs-cascade comparison sweep to CSV (and optional SVG)
    sweep   run a config-file driven parameter sweep to CSV
    point   evaluate one quantity at one parameter point
    verify  run the seeded oracle-equivalence and invariant suite
            (--json PATH also writes each check's name, outcome, detail
            line and printed numbers as a JSON list)

A flag that has a config key is read by that key's rule.  Every CSV, SVG and
JSON output goes through one writer, to its file or stdout.  Exit code is 0
on success and 1 with a one-line diagnostic on any error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import tempfile

from .engine import NOISE_KINDS, QUANTITIES, evaluate_grid
from .selfcheck import run_all_checks
from .sweep import (
    _KEYS,
    SweepConfig,
    fig2_preset,
    format_number,
    parse_config,
    render_csv,
    render_svg,
    run_sweep,
)


def _key(name: str):
    """An argparse type that reads a flag by the rule of config key ``name``."""

    def read(raw: str):
        try:
            return _KEYS[name][1](raw)
        except ValueError as exc:  # argparse puts "argument --flag: " before it
            raise argparse.ArgumentTypeError(str(exc)) from None

    return read


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as one ``error:`` line through ``main``, not usage and exit 2."""

    def error(self, message):
        raise ValueError(message)


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="icoswitch",
        description="Switched quantum channel with indefinite causal order: "
        "noisy qubit phase-estimation sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig2 = sub.add_parser("fig2", help="control-vs-cascade sweep over the noise level")
    fig2.add_argument("--steps", type=int, default=201, help="grid points on [0, 1] (default 201)")
    fig2.add_argument(
        "--xi", type=_key("xi"), default=SweepConfig.xi, help="phase in radians (default pi/5)"
    )
    fig2.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    fig2.add_argument("--svg", default=None, help="also write an SVG line plot here")

    sweep = sub.add_parser("sweep", help="run a sweep described by a config file")
    sweep.add_argument("--config", required=True, help="path to the key = value config")
    sweep.add_argument("--out", default=None, help="CSV output path (default: stdout)")

    # point starts from the values an empty sweep config gives.
    point = sub.add_parser("point", help="print one quantity at one parameter point")
    point.add_argument("--noise", choices=NOISE_KINDS, default=SweepConfig.noise_kind)
    point.add_argument("--p", type=float, required=True, help="noise level in [0, 1]")
    point.add_argument(
        "--pc",
        type=_key("p_c"),
        default=SweepConfig.p_c,
        help="control weight (default %(default)s)",
    )
    point.add_argument("--xi", type=_key("xi"), default=SweepConfig.xi, help="phase in radians")
    point.add_argument(
        "--axis", type=_key("axis"), default=SweepConfig.axis, help="rotation axis X,Y,Z"
    )
    point.add_argument(
        "--probe", type=_key("probe"), default=SweepConfig.probe, help="probe Bloch X,Y,Z"
    )
    point.add_argument("--quantity", choices=QUANTITIES, required=True)

    verify = sub.add_parser("verify", help="run the oracle-equivalence and invariant suite")
    verify.add_argument(
        "--json", default=None, metavar="PATH", help="also write the results here as JSON"
    )
    return parser


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
        args = _build_parser().parse_args(argv)
        if args.command == "fig2":
            table = fig2_preset(args.steps, args.xi)
            svg = [] if args.svg is None else [(render_svg(table), args.svg)]
            _write((render_csv(table), args.out), *svg)
        elif args.command == "sweep":
            with open(args.config, encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
            _write((render_csv(run_sweep(cfg)), args.out))
        elif args.command == "point":
            q = args.quantity
            value = evaluate_grid(
                (q,), args.noise, [args.p], args.pc, args.xi, args.axis, args.probe
            )[q][0]
            print(format_number(value))
        elif args.command == "verify":
            results = run_all_checks()
            for res in results:
                print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
            failed = sum(not r.passed for r in results)
            print(f"{len(results) - failed}/{len(results)} checks passed")
            if args.json is not None:
                _write((_json(results), args.json))
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
