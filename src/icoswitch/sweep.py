"""Parameter sweeps: config parsing, the sweep and fig2 presets, CSV and SVG output.

The sweep walks a grid of noise levels p and evaluates the requested
quantities at fixed (p_c, xi, axis, probe):

    qc        coupling scalar q_c = tr s01 of the control coherence
    fq_con    quantum FI of the control qubit
    fq_cas    quantum FI of the plain cascade
    fc_con    classical FI of the Hadamard measurement of the control
    fq_joint  quantum FI of the joint probe-control output

Every column of a sweep comes from one call of the grid engine
(engine.evaluate_grid) over the whole grid: exact closed forms for the
control columns, the Bloch-space cascade, and a batched SVD of the joint
state's Gram factor with its exact derivative; ``point`` is a one-point
grid.  Every quantity is 2 pi-periodic in xi, so the engine evaluates at
xi reduced to [-pi, pi]; the CSV xi column echoes the configured value.
Rows are plain dicts in grid order.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    KrausChannel,
    _check_phase,
    bloch_vector,
    depolarizing_channel,
    pauli_channel,
)
from .engine import NOISE_KINDS, PAULI_OF_KIND, QUANTITIES, evaluate_grid

DEFAULT_XI = math.pi / 5
DEFAULT_AXIS = (0.0, 1.0, 0.0)
DEFAULT_PROBE = (0.0, 0.0, 1.0)
FIG2_R_VALUES = (1.0, 0.8, 0.6, 0.4, 0.2)

# Config axes are human-typed; near-unit vectors within this are renormalized.
CONFIG_AXIS_TOL = 1e-6
# Largest noise grid accepted (config `p` ranges and `fig2 --steps`): checked
# before anything is allocated, so a tiny step fails at once instead of hanging.
MAX_GRID_POINTS = 1_000_000


class ConfigError(ValueError):
    """Malformed sweep configuration; message carries the offending line."""


@dataclass
class SweepConfig:
    """Declarative sweep: one noise grid, fixed everything else."""

    noise_kind: str = "bitflip"
    axis: tuple[float, float, float] = DEFAULT_AXIS
    probe: tuple[float, float, float] = DEFAULT_PROBE
    xi: float = DEFAULT_XI
    p_c: float = 0.5
    p_grid: tuple[float, float, float] = (0.0, 1.0, 0.1)  # start, stop, step
    quantities: tuple[str, ...] = ("qc", "fq_con", "fq_cas", "fc_con")

    def grid(self) -> list[float]:
        return grid_points(*self.p_grid)


def grid_points(start: float, stop: float, step: float) -> list[float]:
    """Arithmetic grid start, start+step, ..., inclusive of stop.

    Points are clipped to stop so roundoff cannot push a probability past
    its validated range.  The point count is checked against
    MAX_GRID_POINTS before the list is built.
    """
    if not step > 0.0:
        raise ValueError(f"grid step must be positive, got {step}")
    if start > stop:
        raise ValueError(f"grid start {start} exceeds stop {stop}")
    span = (stop - start) / step + 1e-9
    if span >= MAX_GRID_POINTS:
        raise ValueError(
            f"grid step {step} on [{start}, {stop}] gives more than {MAX_GRID_POINTS} points"
        )
    count = math.floor(span) + 1
    return [min(start + i * step, stop) for i in range(count)]


def _parse_float(raw: str, lineno: int, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} expects a number, got {raw!r}") from None


def _parse_triple(raw: str, lineno: int, key: str) -> tuple[float, float, float]:
    parts = [s.strip() for s in raw.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"line {lineno}: {key} expects three comma-separated numbers")
    return tuple(_parse_float(s, lineno, key) for s in parts)  # type: ignore[return-value]


def _parse_range(raw: str, lineno: int, key: str) -> tuple[float, float, float]:
    parts = [s.strip() for s in raw.split(":")]
    if len(parts) == 1:
        v = _parse_float(parts[0], lineno, key)
        return (v, v, 1.0)
    if len(parts) != 3:
        raise ConfigError(f"line {lineno}: {key} expects start:stop:step or a single number")
    return tuple(_parse_float(s, lineno, key) for s in parts)  # type: ignore[return-value]


def parse_config(text: str) -> SweepConfig:
    """Parse a `key = value` sweep configuration.

    One assignment per line; `#` starts a comment; blank lines are skipped.
    Keys: noise, axis, probe, xi, p_c, p, quantities.  Ranges are written
    start:stop:step (a bare number is a single-point grid), vectors as
    comma triples, quantities as a comma list.  An empty document yields
    the defaults (bit-flip noise, axis 0,1,0, probe 0,0,1, xi = pi/5,
    p_c = 0.5, p = 0:1:0.1).  Axes within 1e-6 of unit norm are
    renormalized; anything else is an error with its line number.
    """
    cfg = SweepConfig()
    seen: set[str] = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw_line.strip()!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if not raw:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")

        if key == "noise":
            if raw not in NOISE_KINDS:
                raise ConfigError(
                    f"line {lineno}: noise must be one of {', '.join(NOISE_KINDS)}, got {raw!r}"
                )
            cfg.noise_kind = raw
        elif key == "axis":
            vec = np.asarray(_parse_triple(raw, lineno, key))
            norm = float(np.linalg.norm(vec))
            if abs(norm - 1.0) > CONFIG_AXIS_TOL:
                raise ConfigError(f"line {lineno}: axis must be a unit vector, |n| = {norm}")
            cfg.axis = tuple(vec / norm)
        elif key == "probe":
            vec = _parse_triple(raw, lineno, key)
            try:
                bloch_vector(vec)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
            cfg.probe = vec
        elif key == "xi":
            v = _parse_float(raw, lineno, key)
            try:
                cfg.xi = _check_phase(v)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
        elif key == "p_c":
            v = _parse_float(raw, lineno, key)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"line {lineno}: p_c must lie in [0, 1], got {v}")
            cfg.p_c = v
        elif key == "p":
            start, stop, step = _parse_range(raw, lineno, key)
            if not (0.0 <= start <= 1.0 and 0.0 <= stop <= 1.0):
                raise ConfigError(f"line {lineno}: p grid must lie in [0, 1]")
            try:
                grid_points(start, stop, step)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: p {exc}") from None
            cfg.p_grid = (start, stop, step)
        elif key == "quantities":
            names = tuple(s.strip() for s in raw.split(","))
            bad = [n for n in names if n not in QUANTITIES]
            if bad:
                raise ConfigError(
                    f"line {lineno}: unknown quantity {bad[0]!r}; choose from {', '.join(QUANTITIES)}"
                )
            if len(set(names)) != len(names):
                raise ConfigError(f"line {lineno}: repeated quantity")
            cfg.quantities = names
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return cfg


def noise_channel(kind: str, p: float) -> KrausChannel:
    """Noise channel of the given kind at level p."""
    if kind == "depolarizing":
        return depolarizing_channel(p)
    if kind in PAULI_OF_KIND:
        return pauli_channel(PAULI_OF_KIND[kind], p)
    raise ValueError(f"unknown noise kind {kind!r}")


def compute_quantity(
    name: str,
    kind: str,
    p: float,
    p_c: float,
    xi: float,
    axis,
    probe,
) -> float:
    """One scalar of the sweep at one grid point: a one-point grid-engine call."""
    return float(evaluate_grid((name,), kind, [p], p_c, xi, axis, probe)[name][0])


def run_sweep(cfg: SweepConfig) -> tuple[list[str], list[dict]]:
    """Evaluate the sweep; returns (column names, rows in grid order).

    All requested columns come from one evaluate_grid call over the grid.
    """
    columns = [
        "p",
        "p_c",
        "xi",
        "axis_x",
        "axis_y",
        "axis_z",
        "probe_x",
        "probe_y",
        "probe_z",
        "noise_kind",
        *cfg.quantities,
    ]
    grid = cfg.grid()
    try:
        values = evaluate_grid(
            cfg.quantities, cfg.noise_kind, grid, cfg.p_c, cfg.xi, cfg.axis, cfg.probe
        )
    except ValueError as exc:
        raise RuntimeError(f"sweep failed on p = {grid[0]} to {grid[-1]}: {exc}") from exc
    fixed = {
        "p_c": cfg.p_c,
        "xi": cfg.xi,
        "axis_x": cfg.axis[0],
        "axis_y": cfg.axis[1],
        "axis_z": cfg.axis[2],
        "probe_x": cfg.probe[0],
        "probe_y": cfg.probe[1],
        "probe_z": cfg.probe[2],
        "noise_kind": cfg.noise_kind,
    }
    rows = [
        {"p": p, **fixed, **{name: float(values[name][i]) for name in cfg.quantities}}
        for i, p in enumerate(grid)
    ]
    return columns, rows


def _cas_column_name(r: float) -> str:
    return "fq_cas_r" + f"{r:g}".replace(".", "_").replace("-", "m")


def fig2_preset(
    steps: int = 201,
    xi: float = DEFAULT_XI,
    r_values: tuple[float, ...] = FIG2_R_VALUES,
) -> tuple[list[str], list[dict]]:
    """Control-vs-cascade comparison preset.

    Bit-flip noise, rotation axis e_y, probe r e_z, and a grid of ``steps``
    noise levels on [0, 1] (at most MAX_GRID_POINTS).  Columns: the
    control-qubit quantum FI at p_c = 1/2 and one cascade column per probe
    length r, each from one evaluate_grid call over the whole grid, so every
    cell equals ``point`` at the same p and probe, xi reduced mod 2 pi
    included.  The control column is probe independent; the cascade
    columns start at exactly 4 r^2 and vanish at p = 1.  They are
    non-increasing in p up to p = 1/2; past it the noise tends to the
    unitary sigma_x and they show a small rebound (at xi = pi/5 and r = 1,
    a rise of about 2e-3 from p = 0.61 to p = 0.69) before vanishing at
    p = 1.
    """
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    if steps > MAX_GRID_POINTS:
        raise ValueError(f"steps must not exceed {MAX_GRID_POINTS}, got {steps}")
    for r in r_values:
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"probe length must lie in [0, 1], got {r}")
    columns = ["p", "fq_con", *(_cas_column_name(r) for r in r_values)]
    grid = np.linspace(0.0, 1.0, steps)
    axis = (0.0, 1.0, 0.0)
    table = evaluate_grid(("fq_con",), "bitflip", grid, 0.5, xi, axis, (0.0, 0.0, 1.0))
    table["p"] = grid
    for r in r_values:
        cascade = evaluate_grid(("fq_cas",), "bitflip", grid, 0.5, xi, axis, (0.0, 0.0, r))
        table[_cas_column_name(r)] = cascade["fq_cas"]
    rows = [{name: float(table[name][i]) for name in columns} for i in range(steps)]
    return columns, rows


def format_number(value: float) -> str:
    """Render a float with 12 significant digits (trailing zeros kept)."""
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {v} in output")
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return format(v, "#.12g")


def render_csv(rows: list[dict], columns: list[str] | None = None) -> str:
    """CSV text: header of column names, one line per row, `\\n` terminators."""
    if not rows:
        raise ValueError("refusing to emit an empty table")
    if columns is None:
        columns = list(rows[0].keys())
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            if col not in row:
                raise ValueError(f"row is missing column {col!r}")
            v = row[col]
            cells.append(v if isinstance(v, str) else format_number(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def emit_csv(rows: list[dict], destination, columns: list[str] | None = None) -> None:
    """Write the CSV to a path or binary file-like destination."""
    data = render_csv(rows, columns).encode("utf-8")
    if hasattr(destination, "write"):
        destination.write(data)
    else:
        with open(destination, "wb") as fh:
            fh.write(data)


# Fixed palette (tab10 order) so SVG bytes are reproducible.
_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)
_SVG_W, _SVG_H = 800, 600
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 170, 40, 60


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


def render_svg(rows: list[dict], x_col: str, y_cols: list[str]) -> str:
    """Standalone 800x600 SVG line plot: first series solid, the rest dashed."""
    if len(rows) < 2:
        raise ValueError("need at least 2 rows to draw lines")
    for col in [x_col, *y_cols]:
        if col not in rows[0]:
            raise ValueError(f"unknown column {col!r}")
    xs = [float(r[x_col]) for r in rows]
    all_y = [float(r[c]) for r in rows for c in y_cols]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _SVG_H - _MARGIN_B - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">\n'
    )
    out.write(f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>\n')
    # Axes.
    x0, y0 = _MARGIN_L, _SVG_H - _MARGIN_B
    out.write(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black" stroke-width="1"/>\n'
    )
    out.write(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{_MARGIN_T}" stroke="black" stroke-width="1"/>\n'
    )
    for t in _ticks(x_lo, x_hi):
        tx = px(t)
        out.write(f'<line x1="{tx:.2f}" y1="{y0}" x2="{tx:.2f}" y2="{y0 + 5}" stroke="black"/>\n')
        out.write(
            f'<text x="{tx:.2f}" y="{y0 + 20}" font-family="sans-serif" font-size="12" '
            f'text-anchor="middle">{t:.3g}</text>\n'
        )
    for t in _ticks(y_lo, y_hi):
        ty = py(t)
        out.write(f'<line x1="{x0 - 5}" y1="{ty:.2f}" x2="{x0}" y2="{ty:.2f}" stroke="black"/>\n')
        out.write(
            f'<text x="{x0 - 8}" y="{ty + 4:.2f}" font-family="sans-serif" font-size="12" '
            f'text-anchor="end">{t:.3g}</text>\n'
        )
    out.write(
        f'<text x="{x0 + plot_w / 2:.2f}" y="{_SVG_H - 15}" font-family="sans-serif" '
        f'font-size="14" text-anchor="middle">{x_col}</text>\n'
    )
    # Series.
    for i, col in enumerate(y_cols):
        color = _PALETTE[i % len(_PALETTE)]
        dash = "" if i == 0 else ' stroke-dasharray="6,4"'
        pts = " ".join(f"{px(float(r[x_col])):.2f},{py(float(r[col])):.2f}" for r in rows)
        out.write(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} points="{pts}"/>\n'
        )
    # Legend.
    lx = _SVG_W - _MARGIN_R + 18
    for i, col in enumerate(y_cols):
        ly = _MARGIN_T + 14 + 20 * i
        color = _PALETTE[i % len(_PALETTE)]
        dash = "" if i == 0 else ' stroke-dasharray="6,4"'
        out.write(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 26}" y2="{ly}" stroke="{color}" '
            f'stroke-width="1.5"{dash}/>\n'
        )
        out.write(
            f'<text x="{lx + 32}" y="{ly + 4}" font-family="sans-serif" font-size="12">{col}</text>\n'
        )
    out.write("</svg>\n")
    return out.getvalue()


def emit_svg(rows: list[dict], x_col: str, y_cols: list[str], destination) -> None:
    """Write the SVG plot to a path or binary file-like destination."""
    data = render_svg(rows, x_col, y_cols).encode("utf-8")
    if hasattr(destination, "write"):
        destination.write(data)
    else:
        with open(destination, "wb") as fh:
            fh.write(data)
