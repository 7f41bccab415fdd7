"""The benchmark's workloads: inputs made from the seed, and checks of what the program wrote.

A workload is a fixed list of ``icoswitch`` command lines (one *pass*) and a
check that reads back the CSV files and standard output the pass produced
and holds them against ``reference`` and against properties the physics
guarantees.  The seed only shapes the inputs; the program never sees it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

OUT = Path(__file__).resolve().parent / "out"
QUANTITIES = ("qc", "fq_con", "fq_cas", "fc_con", "fq_joint")
FIG2_STEPS = 2001
FIG2_XI = math.pi / 5
FIG2_R = (1.0, 0.8, 0.6, 0.4, 0.2)
FIG2_COLUMNS = "p,fq_con,fq_cas_r1,fq_cas_r0_8,fq_cas_r0_6,fq_cas_r0_4,fq_cas_r0_2"
SWEEP_COLUMNS = "p,p_c,xi,axis_x,axis_y,axis_z,probe_x,probe_y,probe_z,noise_kind," + ",".join(
    QUANTITIES
)
POINT_DRAWS = 8  # parameter draws per noise kind in one pass; each runs all five quantities

# The closed forms agree with the reference to roundoff and the 12 printed
# digits; the program's finite-difference routes (every fq_cas, depolarizing
# fq_con and fc_con) agree to about 2e-10.  Both bounds are relative above 1.
CLOSED_TOL = 1e-11
NUMERIC_TOL = 1e-8


class CheckFailed(Exception):
    """An output of the program disagrees with the reference or a property."""


@dataclass
class Workload:
    name: str
    ops: list[list[str]]  # argv of each operation of one pass, in order
    check: Callable[[list[str]], None]  # gets the stdout of each operation
    files: list[Path] = field(default_factory=list)  # files one pass writes


def _close(got, want, tol: float, what: str, at=None) -> None:
    """Fail on the first entry of ``got`` that is not within ``tol`` of ``want``.

    ``tol`` is absolute up to 1 and relative above; ``at`` labels the entries.
    """
    got, want = np.broadcast_arrays(np.asarray(got, dtype=float), np.asarray(want, dtype=float))
    bad = ~(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))
    if np.any(bad):
        i = np.unravel_index(np.argmax(bad), bad.shape)
        where = "" if at is None else f" at {float(np.broadcast_to(at, bad.shape)[i])!r}"
        raise CheckFailed(f"{what}{where}: program {float(got[i])!r}, reference {float(want[i])!r}")


def _tol(name: str, kind: str) -> float:
    numeric = name == "fq_cas" or (kind == "depolarizing" and name != "qc")
    return NUMERIC_TOL if numeric else CLOSED_TOL


def _check_properties(values: dict, p_c: float, what: str, at=None) -> None:
    """Properties of the method, for the five quantities at matching parameters.

    Both marginals of the joint state lose information, so fq_joint is at
    least fq_con and fq_cas; at p_c = 1/2 the Hadamard measurement attains
    the control QFI, so fc_con equals fq_con.
    """
    floor = np.maximum(values["fq_con"], values["fq_cas"])
    joint = np.minimum(values["fq_joint"], floor)
    _close(joint, floor, NUMERIC_TOL, f"{what}: fq_joint >= fq_con, fq_cas", at)
    if p_c == 0.5:
        _close(values["fc_con"], values["fq_con"], NUMERIC_TOL, f"{what}: fc_con = fq_con at p_c = 1/2", at)


def _read_csv(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"{path.name}: header {lines[:1]!r}, expected {header!r}")
    return [line.split(",") for line in lines[1:]]


def _off_axis(rng) -> np.ndarray:
    """Unit vector with every component in [0.15, 0.85] in size: off every noise direction."""
    while True:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if np.all(np.abs(v) >= 0.15) and np.all(np.abs(v) <= 0.85):
            return v


def _phase(rng) -> float:
    """Phase at least 0.2 away from 0, pi and 2 pi."""
    xi = rng.uniform(0.2, math.pi - 0.2)
    return xi + math.pi if rng.uniform() < 0.5 else xi


def _triple(v) -> str:
    return ",".join(repr(float(x)) for x in v)


def fig2(seed: int) -> Workload:
    """The paper's figure at the resolution the ROADMAP names; the seed plays no part."""
    csv, svg = OUT / "fig2.csv", OUT / "fig2.svg"
    argv = ["fig2", "--steps", str(FIG2_STEPS), "--out", str(csv), "--svg", str(svg)]
    axis = (0.0, 1.0, 0.0)

    def check(stdout: list[str]) -> None:
        rows = np.array(_read_csv(csv, FIG2_COLUMNS), dtype=float)
        if rows.shape != (FIG2_STEPS, 7):
            raise CheckFailed(f"fig2.csv has shape {rows.shape}")
        p, control = rows[:, 0], rows[:, 1]
        _close(p, np.linspace(0.0, 1.0, FIG2_STEPS), 1e-12, "fig2 p grid")
        _close(control, ref.control_qfi("bitflip", p, 0.5, FIG2_XI, axis), CLOSED_TOL, "fig2 fq_con", p)
        _close(control, control[::-1], CLOSED_TOL, "fig2 fq_con p <-> 1-p symmetry", p)
        for j, r in enumerate(FIG2_R):
            cascade = rows[:, 2 + j]
            want = ref.cascade_qfi("bitflip", p, FIG2_XI, axis, (0.0, 0.0, r))
            _close(cascade, want, NUMERIC_TOL, f"fig2 fq_cas r = {r}", p)
            _close(cascade[0], 4.0 * r * r, NUMERIC_TOL, f"fig2 fq_cas r = {r} at p = 0")
            _close(cascade[-1], 0.0, 1e-9, f"fig2 fq_cas r = {r} at p = 1")
        text = svg.read_text(encoding="utf-8")
        lines = [line for line in text.splitlines() if line.startswith("<polyline")]
        points = [line.split('points="')[1].count(",") for line in lines]
        if not text.startswith("<svg") or not text.endswith("</svg>\n") or points != [FIG2_STEPS] * 6:
            raise CheckFailed(f"fig2.svg: {len(lines)} polylines with {points} points")

    return Workload("fig2", [argv], check, [csv, svg])


def _sweep_config(kind: str, rng) -> dict:
    return {
        "noise": kind,
        "axis": _off_axis(rng),
        "probe": _off_axis(rng) * rng.uniform(0.4, 0.95),
        "xi": _phase(rng),
        # Bit flip and depolarizing run at the optimal p_c = 1/2.
        "p_c": 0.5 if kind in ("bitflip", "depolarizing") else float(rng.uniform(0.1, 0.9)),
    }


def sweep(seed: int) -> Workload:
    """All five quantities on p = 0:1:0.01, one config per noise kind."""
    rng = np.random.default_rng(seed)
    configs = [_sweep_config(kind, rng) for kind in ref.NOISE_KINDS]
    ops, files = [], []
    for cfg in configs:
        path = OUT / f"sweep-{cfg['noise']}.cfg"
        path.write_text(
            f"noise = {cfg['noise']}\naxis = {_triple(cfg['axis'])}\n"
            f"probe = {_triple(cfg['probe'])}\nxi = {cfg['xi']!r}\np_c = {cfg['p_c']!r}\n"
            f"p = 0:1:0.01\nquantities = {','.join(QUANTITIES)}\n",
            encoding="utf-8",
        )
        csv = OUT / f"sweep-{cfg['noise']}.csv"
        ops.append(["sweep", "--config", str(path), "--out", str(csv)])
        files.append(csv)

    def check(stdout: list[str]) -> None:
        for cfg, csv in zip(configs, files):
            kind = cfg["noise"]
            rows = _read_csv(csv, SWEEP_COLUMNS)
            if len(rows) != 101 or any(row[9] != kind for row in rows):
                raise CheckFailed(f"{csv.name}: {len(rows)} rows, noise kinds {sorted({r[9] for r in rows})}")
            table = np.array([row[:9] + row[10:] for row in rows], dtype=float)
            p = table[:, 0]
            what = f"{kind} sweep"
            _close(p, np.arange(101) / 100, 1e-12, f"{what}: p grid")
            echo = [cfg["p_c"], cfg["xi"], *cfg["axis"], *cfg["probe"]]
            _close(table[:, 1:9], echo, CLOSED_TOL, f"{what}: parameter echo")
            values = dict(zip(QUANTITIES, table[:, 9:].T))
            for name in QUANTITIES[:4]:
                want = ref.quantity(name, kind, p, cfg["p_c"], cfg["xi"], cfg["axis"], cfg["probe"])
                _close(values[name], want, _tol(name, kind), f"{what}: {name}", p)
            _check_properties(values, cfg["p_c"], what, p)

    return Workload("sweep", ops, check, files)


def point(seed: int) -> Workload:
    """Single ``point`` calls: every noise kind x quantity pair equally, at seeded parameters."""
    rng = np.random.default_rng(seed)
    draws, ops = [], []
    for d in range(POINT_DRAWS):
        for kind in ref.NOISE_KINDS:
            draw = {
                "kind": kind,
                "p": float(rng.uniform(0.02, 0.98)),
                "p_c": 0.5 if d % 2 == 0 else float(rng.uniform(0.1, 0.9)),
                "xi": _phase(rng),
                "axis": _off_axis(rng),
                "probe": _off_axis(rng) * rng.uniform(0.3, 0.95),
            }
            draws.append(draw)
            for name in QUANTITIES:
                ops.append([
                    "point", "--noise", kind, "--p", repr(draw["p"]), "--pc", repr(draw["p_c"]),
                    "--xi", repr(draw["xi"]), f"--axis={_triple(draw['axis'])}",
                    f"--probe={_triple(draw['probe'])}", "--quantity", name,
                ])  # fmt: skip

    def check(stdout: list[str]) -> None:
        if any(len(out.splitlines()) != 1 for out in stdout):
            raise CheckFailed(f"point printed {[out for out in stdout if len(out.splitlines()) != 1]!r}")
        printed = np.array(stdout, dtype=float).reshape(len(draws), len(QUANTITIES))
        for draw, row in zip(draws, printed):
            values = dict(zip(QUANTITIES, row))
            args = (draw["kind"], draw["p"], draw["p_c"], draw["xi"], draw["axis"], draw["probe"])
            what = f"point {draw['kind']} at p = {draw['p']!r}, p_c = {draw['p_c']!r}, xi = {draw['xi']!r}"
            for name in QUANTITIES[:4]:
                _close(values[name], ref.quantity(name, *args), _tol(name, draw["kind"]), f"{what}: {name}")
            _check_properties(values, draw["p_c"], what)

    return Workload("point", ops, check)


def verify(seed: int) -> Workload:
    """The density-matrix oracle suite; the seed plays no part."""

    def check(stdout: list[str]) -> None:
        lines = stdout[0].splitlines()
        passed = [line for line in lines if line.startswith("PASS  ")]
        if len(lines) != 11 or len(passed) != 10 or lines[-1] != "10/10 checks passed":
            raise CheckFailed(f"verify printed {lines!r}")

    return Workload("verify", [["verify"]], check)


WORKLOADS = {"fig2": fig2, "sweep": sweep, "point": point, "verify": verify}


def build(name: str, seed: int) -> Workload:
    """The named workload's inputs for ``seed``; writes its config files under ``OUT``."""
    OUT.mkdir(exist_ok=True)
    return WORKLOADS[name](seed)
