"""Parameter sweeps: config parsing, the sweep and fig2 presets, CSV and SVG rendering.

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
xi reduced to [-pi, pi]; the CSV echoes xi as given, the probe as rescaled.
A table is one dict of columns in CSV order, each holding one cell per grid
point (a float64 array in the package's tables, or a list).  Output is
formatted a column at a time: CSV cells byte for byte as format_number
formats a cell, and polyline pixels by a fixed-point kernel whose rule is
"%.2f", which it calls itself for any cell it cannot prove it writes the
same (near a rounding tie, from 100000.00 up, or with the sign bit set).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    MAX_GRID_POINTS,
    NOISE_KINDS,
    QUANTITIES,
    _check_phase,
    _check_probability,
    _evaluate,
    _three_vectors,
    bloch_vector,
    evaluate_grid,
)

DEFAULT_XI = math.pi / 5
FIG2_R_VALUES = (1.0, 0.8, 0.6, 0.4, 0.2)

# Config and flag axes are human-typed; near-unit vectors within this are renormalized.
CONFIG_AXIS_TOL = 1e-6


class ConfigError(ValueError):
    """Malformed sweep configuration; message carries the offending line."""


@dataclass
class SweepConfig:
    """Declarative sweep: one noise grid, fixed everything else."""

    noise_kind: str = "bitflip"
    axis: tuple[float, float, float] = (0.0, 1.0, 0.0)
    probe: tuple[float, float, float] = (0.0, 0.0, 1.0)
    xi: float = DEFAULT_XI
    p_c: float = 0.5
    p_grid: tuple[float, float, float] = (0.0, 1.0, 0.1)  # start, stop, step
    quantities: tuple[str, ...] = ("qc", "fq_con", "fq_cas", "fc_con")


def grid_points(start: float, stop: float, step: float) -> np.ndarray:
    """Arithmetic grid start, start+step, ..., inclusive of stop, as a float64 array.

    Points are clipped to stop so roundoff cannot push a probability past
    its validated range.  The point count is checked against
    MAX_GRID_POINTS before the array is built, so a tiny step fails at once.
    """
    count = _grid_count(start, stop, step)
    return np.minimum(start + np.arange(count, dtype=np.float64) * step, stop)


def _grid_count(start: float, stop: float, step: float) -> int:
    """grid_points' checks and point count, without building the grid."""
    if not 0.0 < step < math.inf:
        raise ValueError(f"grid step must be positive and finite, got {step}")
    if start > stop:
        raise ValueError(f"grid start {start} exceeds stop {stop}")
    span = (stop - start) / step + 1e-9
    if span >= MAX_GRID_POINTS:
        raise ValueError(
            f"grid step {step} on [{start}, {stop}] gives more than {MAX_GRID_POINTS} points"
        )
    return math.floor(span) + 1


def _number(raw: str, key: str) -> float:
    raw = raw.strip()
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{key} expects a number, got {raw!r}") from None


def _triple(raw: str, key: str) -> tuple[float, float, float]:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ValueError(f"{key} expects three comma-separated numbers")
    return tuple(_number(s, key) for s in parts)  # type: ignore[return-value]


def _noise(raw: str) -> str:
    if raw not in NOISE_KINDS:
        raise ValueError(f"noise must be one of {', '.join(NOISE_KINDS)}, got {raw!r}")
    return raw


def _axis(raw: str) -> tuple[float, float, float]:
    vec, norm = _three_vectors(_triple(raw, "axis"), "axis")
    if not abs(norm - 1.0) <= CONFIG_AXIS_TOL:
        raise ValueError(f"axis must be a unit vector, |n| = {norm}")
    return tuple((vec / norm).tolist())


def _probe(raw: str) -> tuple[float, float, float]:
    vec = _triple(raw, "probe")
    try:
        return tuple(bloch_vector(vec).tolist())
    except ValueError as exc:
        raise ValueError(f"probe {exc}") from None


def _probability(key: str):
    return lambda raw: _check_probability(_number(raw, key), key)


def _p_grid(raw: str) -> tuple[float, float, float]:
    parts = raw.split(":")
    if len(parts) == 1:
        start = stop = _number(raw, "p")
        step = 1.0
    elif len(parts) == 3:
        start, stop, step = (_number(s, "p") for s in parts)
    else:
        raise ValueError("p expects start:stop:step or a single number")
    try:
        _check_probability(start, "grid start")
        _check_probability(stop, "grid stop")
        _grid_count(start, stop, step)
    except ValueError as exc:
        raise ValueError(f"p {exc}") from None
    return (start, stop, step)


def _quantities(raw: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in raw.split(","))
    bad = [n for n in names if n not in QUANTITIES]
    if bad:
        raise ValueError(f"unknown quantity {bad[0]!r}; choose from {', '.join(QUANTITIES)}")
    if len(set(names)) != len(names):
        raise ValueError("repeated quantity")
    return names


# Config key -> (SweepConfig field, rule that turns the raw text into its value).
# The CLI reads each flag that has a config key by the same rule.
_KEYS = {
    "noise": ("noise_kind", _noise),
    "axis": ("axis", _axis),
    "probe": ("probe", _probe),
    "xi": ("xi", lambda raw: _check_phase(_number(raw, "xi"))),
    "p_c": ("p_c", _probability("p_c")),
    "p": ("p_grid", _p_grid),
    "quantities": ("quantities", _quantities),
}


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
        key, _, raw = (s.strip() for s in line.partition("="))
        try:
            if "=" not in line:
                raise ValueError(f"expected key = value, got {raw_line.strip()!r}")
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
            if not raw:
                raise ValueError(f"empty value for {key!r}")
            if key not in _KEYS:
                raise ValueError(f"unknown key {key!r}")
            field, rule = _KEYS[key]
            setattr(cfg, field, rule(raw))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return cfg


def run_sweep(cfg: SweepConfig) -> dict:
    """Evaluate the sweep; returns the table, one cell per grid point in each column.

    All requested columns come from one evaluate_grid call over the grid;
    p_c, xi, axis and probe fill a float64 column each, the noise kind a list.
    """
    grid = grid_points(*cfg.p_grid)
    try:
        values = evaluate_grid(
            cfg.quantities, cfg.noise_kind, grid, cfg.p_c, cfg.xi, cfg.axis, cfg.probe
        )
    except ValueError as exc:
        raise RuntimeError(f"sweep failed on p = {grid[0]} to {grid[-1]}: {exc}") from exc
    names = ("p_c", "xi", "axis_x", "axis_y", "axis_z", "probe_x", "probe_y", "probe_z")
    cells = (cfg.p_c, cfg.xi, *cfg.axis, *cfg.probe)
    fixed = {name: np.full(len(grid), v, dtype=np.float64) for name, v in zip(names, cells)}
    return {"p": grid, **fixed, "noise_kind": [cfg.noise_kind] * len(grid), **values}


def fig2_preset(steps: int = 201, xi: float = DEFAULT_XI) -> dict:
    """Control-vs-cascade comparison preset, as a table.

    Bit-flip noise, rotation axis e_y, probe r e_z, and a grid of ``steps``
    noise levels on [0, 1] (at most MAX_GRID_POINTS).  Columns: p, the
    control-qubit quantum FI at p_c = 1/2 and one cascade column per probe
    length r of FIG2_R_VALUES, each from one engine call over the whole
    grid, so every cell equals ``point`` at the same p and probe, xi reduced
    mod 2 pi included.  The control column is probe independent; the
    cascade columns start at exactly 4 r^2 and vanish at p = 1.  They are
    non-increasing in p up to p = 1/2; past it the noise tends to the
    unitary sigma_x and they show a small rebound (at xi = pi/5 and r = 1,
    a rise of about 2e-3 from p = 0.61 to p = 0.69) before vanishing at
    p = 1.
    """
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")
    if steps > MAX_GRID_POINTS:
        raise ValueError(f"steps must not exceed {MAX_GRID_POINTS}, got {steps}")
    grid = np.linspace(0.0, 1.0, steps)
    axis = (0.0, 1.0, 0.0)  # axis, probes and p_c are constants: _evaluate checks grid and xi
    control = _evaluate(("fq_con",), "bitflip", grid, 0.5, xi, axis, (0.0, 0.0, 1.0))
    table = {"p": grid, **control}
    for r in FIG2_R_VALUES:
        cascade = _evaluate(("fq_cas",), "bitflip", grid, 0.5, xi, axis, (0.0, 0.0, r))
        table["fq_cas_r" + f"{r:g}".replace(".", "_")] = cascade["fq_cas"]
    return table


def format_number(value: float) -> str:
    """Render a float with 12 significant digits (trailing zeros kept)."""
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {v} in output")
    return format(v + 0.0, "#.12g")  # + 0.0 turns -0.0 into 0.0


def _row_count(table: dict) -> int:
    """The length every column of the table shares; an empty or ragged table is an error."""
    rows = len(next(iter(table.values()), ()))
    if not rows:
        raise ValueError("refusing to emit an empty table")
    for name, cells in table.items():
        if len(cells) != rows:
            raise ValueError(f"column {name!r} has {len(cells)} cells, not {rows}")
    return rows


def _csv_column(name: str, cells) -> tuple[str, list]:
    """One CSV column as (printf conversion, cells), from one check of the whole column."""
    if not isinstance(cells, np.ndarray):
        text = sum(isinstance(v, str) for v in cells)
        if text == len(cells):
            return "%s", cells
        if text:
            raise ValueError(f"column {name!r} mixes text and numbers")
    values = np.asarray(cells, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite value {values[~np.isfinite(values)][0]} in output")
    return "%#.12g", (values + 0.0).tolist()  # + 0.0 turns -0.0 into 0.0


def render_csv(table: dict) -> str:
    """CSV text: header of column names, one line per row, `\\n` terminators.

    A column is a float64 array, as in the package's own tables, or a list,
    the only kind scanned for text.  A text column is written as is; a
    numeric column is checked as a whole and written with the bytes of
    format_number, from one printf template ("%#.12g" per such column) per
    line.  The first faulty column, in column order, names the error.
    """
    _row_count(table)
    parsed = [_csv_column(name, cells) for name, cells in table.items()]
    template = ",".join([conversion for conversion, _ in parsed])
    lines = zip(*[cells for _, cells in parsed])
    return "\n".join([",".join(table), *(template % line for line in lines)]) + "\n"


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
_DASHED = ' stroke-dasharray="6,4"'  # every series but the first
_SVG_W, _SVG_H = 800, 600
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 170, 40, 60


# Polyline pixels go through a fixed-point kernel.  A kernel cell is the
# ASCII of "ddddd.ff" in one little-endian uint64, ORed from four lookups of
# two bytes each and then cleared of its leading zeros; a cell that "%.2f"
# writes itself holds the one byte _SCALAR until the text is joined.
def _table(layout: bytes, count: int) -> np.ndarray:
    return np.frombuffer(b"".join([layout % i for i in range(count)]), "<u8")


_HI = _table(b"%02d\0\0\0\0\0\0", 100)
_MID = _table(b"\0\0%02d\0\0\0\0", 100)
_UNITS = _table(b"\0\0\0\0%d.\0\0", 10)
_FRAC = _table(b"\0\0\0\0\0\0%02d", 100)
# _LEAD[j] clears the 4 - j leading zeros of a whole part with j + 1 digits.
_LEAD = np.array([(1 << 64) - (1 << 8 * k) for k in (4, 3, 2, 1, 0)], np.uint64)
_SCALAR = 1
_TIE_BAND = 1e-6


def _fixed2(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[bytes]]:
    """The bytes of ``"%.2f" % v`` for each cell of a float64 array.

    Returns an (n, 8) uint8 array, each row its cell right-aligned after NUL
    bytes, then the rows that "%.2f" writes itself and their bytes.  For
    0 <= v < 1e5, 100 v < 2**24, so fl(100 v) lies within 2**-30 of the
    exact 100 v; where its fraction is at least _TIE_BAND from 1/2, rint
    gives the correctly rounded cent count that "%.2f" prints.  Cells in
    that band, that round to 100000.00 or more, that are not finite, or
    that have the sign bit set ("%.2f" % -0.0 is "-0.00") go to "%.2f",
    one cell at a time.
    """
    scaled = np.clip(values, 0.0, 1e5) * 100.0  # clipped: no overflow; NaN stays NaN
    kernel = (
        (scaled < 9_999_999.5)
        & ~np.signbit(values)
        & (np.abs(scaled - np.floor(scaled) - 0.5) >= _TIE_BAND)
    )
    cents = np.rint(np.where(kernel, scaled, 0.0)).astype(np.int64)
    whole, frac = np.divmod(cents, 100)
    tens, units = np.divmod(whole, 10)
    hi, mid = np.divmod(tens, 100)
    cells = _HI[hi] | _MID[mid] | _UNITS[units] | _FRAC[frac]
    cells &= _LEAD[np.searchsorted((10, 100, 1000, 10_000), whole, side="right")]
    rows = np.flatnonzero(~kernel)
    cells[rows] = _SCALAR << 56
    scalar = [b"%.2f" % v for v in values[rows].tolist()]
    return cells.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8), rows, scalar


def _points(x: tuple, y: tuple) -> str:
    """Polyline points "x,y x,y ..." from the _fixed2 cells of two equal-length columns."""
    (x_cells, x_rows, x_scalar), (y_cells, y_rows, y_scalar) = x, y
    row = np.empty((len(x_cells), 18), np.uint8)
    row[:, :8] = x_cells
    row[:, 8] = ord(",")
    row[:, 9:17] = y_cells
    row[:, 17] = ord(" ")
    text = row.tobytes().translate(None, b"\0")[:-1]
    if x_scalar or y_scalar:
        # Scalar cells in text order: x before y within a row.
        order = np.argsort(np.concatenate([2 * x_rows, 2 * y_rows + 1]), kind="stable")
        texts = [*x_scalar, *y_scalar]
        pieces = text.split(bytes([_SCALAR]))
        joined = [b""] * (2 * len(pieces) - 1)
        joined[::2] = pieces
        joined[1::2] = [texts[i] for i in order.tolist()]
        text = b"".join(joined)
    return text.decode("ascii")


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


def _svg_column(name: str, cells) -> np.ndarray:
    try:
        values = np.asarray(cells, dtype=np.float64)
    except ValueError:
        raise ValueError(f"column {name!r} is not numeric, so the plot cannot draw it") from None
    if not np.isfinite(values).all():
        bad = values[~np.isfinite(values)][0]
        raise ValueError(f"non-finite value {bad} in column {name!r} of the plot")
    return values


def render_svg(table: dict) -> str:
    """Standalone 800x600 SVG line plot of the table: x is the first column.

    Every other column is a series, in order: the first solid, the rest
    dashed.  Each column must be finite; px/py map whole float64 columns, in
    the scalar order of operations, to pixels, and the fixed-point kernel
    (_fixed2, with "%.2f" as its rule and its per-cell fallback) writes them
    as "x,y" polyline points, the x cells once for every series.
    """
    if _row_count(table) < 2:
        raise ValueError("need at least 2 rows to draw lines")
    if len(table) < 2:
        raise ValueError("the plot needs a series: a column after the x column")
    x_col, *y_cols = table
    xs, *ys = (_svg_column(name, cells) for name, cells in table.items())
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(min(y.min() for y in ys)), float(max(y.max() for y in ys))
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def px(x):  # a float or a float64 array
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
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
    styles = [(_PALETTE[i % len(_PALETTE)], _DASHED if i else "") for i in range(len(ys))]
    x_cells = _fixed2(px(xs))
    for (color, dash), y in zip(styles, ys):
        pts = _points(x_cells, _fixed2(py(y)))
        out.write(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} points="{pts}"/>\n'
        )
    # Legend.
    lx = _SVG_W - _MARGIN_R + 18
    for i, (col, (color, dash)) in enumerate(zip(y_cols, styles)):
        ly = _MARGIN_T + 14 + 20 * i
        out.write(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 26}" y2="{ly}" stroke="{color}" '
            f'stroke-width="1.5"{dash}/>\n'
        )
        out.write(
            f'<text x="{lx + 32}" y="{ly + 4}" font-family="sans-serif" font-size="12">{col}</text>\n'
        )
    out.write("</svg>\n")
    return out.getvalue()

