"""Command-line interface.

Subcommands:
    fig2    control-vs-cascade comparison sweep to CSV (and optional SVG)
    sweep   run a config-file driven parameter sweep to CSV
    point   evaluate one quantity at one parameter point
    verify  run the seeded oracle-equivalence and invariant suite
            (--json PATH also writes each check's name, outcome, detail
            line and printed numbers as a JSON list)

Every CSV, SVG and JSON output goes through one writer, to its file or stdout.
Exit code is 0 on success and 1 with a one-line diagnostic on any error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys

from .engine import NOISE_KINDS, QUANTITIES, evaluate_grid
from .selfcheck import run_all_checks
from .sweep import (
    DEFAULT_XI,
    SweepConfig,
    _triple,
    fig2_preset,
    format_number,
    parse_config,
    render_csv,
    render_svg,
    run_sweep,
)


def _vector(raw: str) -> tuple[float, float, float]:
    """An X,Y,Z flag, read as a config line reads a vector."""
    try:
        return _triple(raw, "vector")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
        "--xi", type=float, default=DEFAULT_XI, help="phase in radians (default pi/5)"
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
        "--pc", type=float, default=SweepConfig.p_c, help="control weight (default %(default)s)"
    )
    point.add_argument("--xi", type=float, default=SweepConfig.xi, help="phase in radians")
    point.add_argument("--axis", type=_vector, default=SweepConfig.axis, help="rotation axis X,Y,Z")
    point.add_argument("--probe", type=_vector, default=SweepConfig.probe, help="probe Bloch X,Y,Z")
    point.add_argument("--quantity", choices=QUANTITIES, required=True)

    verify = sub.add_parser("verify", help="run the oracle-equivalence and invariant suite")
    verify.add_argument(
        "--json", default=None, metavar="PATH", help="also write the results here as JSON"
    )
    return parser


def _write(*outputs: tuple[str, str | None]) -> None:
    """Write each (text, path) as UTF-8 to path, or to stdout for None, opening every file first."""
    with contextlib.ExitStack() as stack:
        sinks = [
            sys.stdout.buffer if path is None else stack.enter_context(open(path, "wb"))
            for _, path in outputs
        ]
        for (text, _), sink in zip(outputs, sinks):
            sink.write(text.encode("utf-8"))
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
