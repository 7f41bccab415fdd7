"""Tests for config parsing, the sweep engine, CSV/SVG output, and the CLI."""

import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import icoswitch
from icoswitch import cli, engine, sweep
from icoswitch.channels import bloch_to_density, noisy_phase_channel
from icoswitch.cli import main
from icoswitch.engine import evaluate_grid
from icoswitch.selfcheck import CheckResult, _result
from icoswitch.sweep import (
    MAX_GRID_POINTS,
    ConfigError,
    SweepConfig,
    fig2_preset,
    format_number,
    grid_points,
    parse_config,
    render_csv,
    render_svg,
    run_sweep,
)
from icoswitch.switch import qc_numeric
from references import FQ_CON_ANCHOR, noise_channel, qfi_joint
from test_golden import GOLDEN_DIR, check


def reference_csv(table):
    """The per-cell rule: strings as they are, format_number for every other cell."""
    lines = [",".join(table)]
    for cells in zip(*table.values()):
        lines.append(",".join(v if isinstance(v, str) else format_number(v) for v in cells))
    return "\n".join(lines) + "\n"


def reference_points(table):
    """Each series' polyline points from the scalar pixel formulas, one float at a time."""
    x_col, *y_cols = table
    xs = [float(v) for v in table[x_col]]
    all_y = [float(v) for c in y_cols for v in table[c]]
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(all_y), max(all_y)
    x_hi = x_hi if x_hi > x_lo else x_lo + 1.0
    y_hi = y_hi if y_hi > y_lo else y_lo + 1.0
    plot_w = sweep._SVG_W - sweep._MARGIN_L - sweep._MARGIN_R
    plot_h = sweep._SVG_H - sweep._MARGIN_T - sweep._MARGIN_B

    def point(x, y):
        px = sweep._MARGIN_L + (float(x) - x_lo) / (x_hi - x_lo) * plot_w
        py = sweep._SVG_H - sweep._MARGIN_B - (float(y) - y_lo) / (y_hi - y_lo) * plot_h
        return f"{px:.2f},{py:.2f}"

    return [" ".join(point(x, y) for x, y in zip(table[x_col], table[col])) for col in y_cols]


def spec_tables():
    """Tables on which the renderers meet the per-cell rules; the sweep is a golden one."""
    cfg = parse_config((GOLDEN_DIR / "sweep-depolarizing.cfg").read_text(encoding="utf-8"))
    hand = {
        "x": [-0.0, 0.5, 0.25],
        "n": [3, -7, 2**60 + 1],
        "word": ["a", "b", "c"],
        "y": [1.5, -0.0, 1e-30],
        "tiny": [-1e-300, -0.0, 5e-324],
    }
    return [fig2_preset(steps=201), run_sweep(cfg), hand]


def svg_tables():
    """Tables on which render_svg meets the scalar pixel formulas: spec_tables, the
    fig2 figure, and a hand table whose pixels include exact ties (70.125, 290.125,
    539.875, 40.125) beside ordinary values in one polyline."""
    ties = {
        "x": [0.0, 0.125 / 560, 0.5, 0.5 + 0.125 / 560, 1.0],
        "y": [0.0, 0.49975, 0.3, 0.00025, 1.0],
        "z": [0.99975, 0.1, 0.2, 0.7, 0.5],
    }
    return [*spec_tables(), fig2_preset(steps=2001), ties]


def kernel_points(x, y=None):
    """Polyline points of the fixed-point kernel on x against y (x itself when y is None),
    and the rows of x that the kernel left to "%.2f"."""
    cells = sweep._fixed2(np.asarray(x, dtype=np.float64))
    other = cells if y is None else sweep._fixed2(np.asarray(y, dtype=np.float64))
    return sweep._points(cells, other).split(" "), cells[1].tolist()


def printf_points(x, y=None):
    cells = ["%.2f" % v for v in np.asarray(x, dtype=np.float64).tolist()]
    other = cells if y is None else ["%.2f" % v for v in np.asarray(y, dtype=np.float64).tolist()]
    return [",".join(xy) for xy in zip(cells, other)]


class TestGridPoints:
    def test_quarter_steps(self):
        assert grid_points(0.0, 1.0, 0.25).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_tenth_steps_count(self):
        pts = grid_points(0.0, 1.0, 0.1)
        assert len(pts) == 11
        assert pts[0] == 0.0 and pts[-1] == 1.0

    def test_single_point(self):
        assert grid_points(0.5, 0.5, 1.0).tolist() == [0.5]

    def test_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            grid_points(0.0, 1.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(1e-4, 2.0))
    @example(0.0, 1.0, 0.01)
    @example(0.05, 0.95, 0.013)
    @example(0.0, 1.0, 0.000101)
    def test_array_has_the_bits_of_the_list_formula(self, a, b, step):
        start, stop = min(a, b), max(a, b)
        count = math.floor((stop - start) / step + 1e-9) + 1
        want = [min(start + i * step, stop) for i in range(count)]
        got = grid_points(start, stop, step)
        assert got.dtype == np.float64
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]

    @pytest.mark.parametrize("start", [0.0, 1.0])
    def test_infinite_step_rejected(self, start):
        with pytest.raises(ValueError, match="^grid step must be positive and finite, got inf$"):
            grid_points(start, 1.0, math.inf)

    def test_bad_order(self):
        with pytest.raises(ValueError, match="exceeds"):
            grid_points(1.0, 0.0, 0.1)

    def test_size_capped_before_allocation(self, monkeypatch):
        for step in (1e-6, 1e-12, 5e-324):
            with pytest.raises(ValueError, match=f"more than {MAX_GRID_POINTS} points"):
                grid_points(0.0, 1.0, step)
        monkeypatch.setattr(sweep, "MAX_GRID_POINTS", 10)
        assert len(grid_points(0.0, 0.9, 0.1)) == 10
        with pytest.raises(ValueError, match="more than 10 points"):
            grid_points(0.0, 1.0, 0.1)


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.noise_kind == "bitflip"
        assert cfg.axis == (0.0, 1.0, 0.0)
        assert cfg.probe == (0.0, 0.0, 1.0)
        assert cfg.p_c == 0.5
        assert abs(cfg.xi - math.pi / 5) < 1e-15
        assert grid_points(*cfg.p_grid).tolist() == grid_points(0.0, 1.0, 0.1).tolist()

    def test_range_value(self):
        cfg = parse_config("p = 0:1:0.25")
        assert grid_points(*cfg.p_grid).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_scalar_p(self):
        cfg = parse_config("p = 0.5")
        assert grid_points(*cfg.p_grid).tolist() == [0.5]

    def test_range_checked_without_building_the_grid(self):
        # 500,001 points are 4 MB as float64; the rule is checked by their count alone.
        tracemalloc.start()
        try:
            cfg = parse_config("p = 0:1:0.000002")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cfg.p_grid == (0.0, 1.0, 0.000002)
        assert peak < 1_000_000

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\np_c = 0.25  # inline comment\n")
        assert cfg.p_c == 0.25

    def test_out_of_range_pc_names_line(self):
        with pytest.raises(ConfigError, match=r"line 2.*p_c"):
            parse_config("xi = 0.3\np_c = 1.5\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match=r"line 1.*unknown key"):
            parse_config("gamma = 0.2\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just words\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("p = 0.5\np = 0.7\n")

    def test_noise_kinds(self):
        assert parse_config("noise = depolarizing").noise_kind == "depolarizing"
        with pytest.raises(ConfigError, match="noise"):
            parse_config("noise = thermal")

    def test_axis_near_unit_renormalized(self):
        cfg = parse_config("axis = 0,1.0000001,0")
        assert abs(np.linalg.norm(cfg.axis) - 1.0) < 1e-15

    def test_axis_far_from_unit_rejected(self):
        with pytest.raises(ConfigError, match="unit"):
            parse_config("axis = 0,2,0")

    def test_nan_axis_names_line(self):
        with pytest.raises(ConfigError) as info:
            parse_config("axis = nan,0,0\n")
        assert str(info.value) == "line 1: axis must be a unit vector, |n| = nan"

    def test_infinite_p_step_names_line(self):
        with pytest.raises(ConfigError) as info:
            parse_config("p = 0:1:inf\n")
        assert str(info.value) == "line 1: p grid step must be positive and finite, got inf"

    def test_fields_are_python_floats_and_strings(self):
        cfg = parse_config(
            "noise = phaseflip\naxis = 0,1.0000001,0\nprobe = 0.3,0,0.6\nxi = 1\np_c = 0.25\n"
            "p = 0:1:0.5\nquantities = qc, fq_joint\n"
        )
        for value in vars(cfg).values():
            for cell in value if isinstance(value, tuple) else (value,):
                assert type(cell) in (float, str), (value, type(cell))

    def test_probe_validated(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("probe = 0,0,1.5")

    def test_quantities(self):
        cfg = parse_config("quantities = qc, fq_joint")
        assert cfg.quantities == ("qc", "fq_joint")
        with pytest.raises(ConfigError, match="unknown quantity"):
            parse_config("quantities = qc, entropy")
        with pytest.raises(ConfigError, match="repeated"):
            parse_config("quantities = qc, qc")

    def test_p_grid_outside_unit_interval(self):
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            parse_config("p = 0:1.5:0.5")

    @pytest.mark.parametrize(
        "raw, message",
        [
            ("-0.1:1:0.1", "p grid start must be a probability in [0, 1], got -0.1"),
            ("nan", "p grid start must be a probability in [0, 1], got nan"),
            ("0:1.5:0.1", "p grid stop must be a probability in [0, 1], got 1.5"),
            ("0:inf:0.1", "p grid stop must be a probability in [0, 1], got inf"),
        ],
    )
    def test_p_grid_error_names_end_and_value(self, raw, message):
        with pytest.raises(ConfigError) as info:
            parse_config(f"xi = 0.3\np = {raw}\n")
        assert str(info.value) == f"line 2: {message}"

    @pytest.mark.parametrize(
        "key, raw, message",
        [
            ("noise", "thermal", "noise must be one of bitflip, phaseflip, bitphaseflip, "
             "depolarizing, got 'thermal'"),
            ("axis", "0,2,0", "axis must be a unit vector, |n| = 2.0"),
            ("probe", "0,0,1.5", "probe Bloch vector norm 1.5 exceeds 1"),
            ("probe", "nan,0,0", "probe Bloch vector has non-finite components"),
            ("xi", "abc", "xi expects a number, got 'abc'"),
            ("p_c", "7", "p_c must be a probability in [0, 1], got 7.0"),
            ("p", "1:0:0.1", "p grid start 1.0 exceeds stop 0.0"),
            ("quantities", "qc, entropy", "unknown quantity 'entropy'; choose from qc, fq_con, "
             "fq_cas, fc_con, fq_joint"),
        ],
        ids=["noise", "axis", "probe-norm", "probe-nan", "xi", "p_c", "p", "quantities"],
    )
    def test_bad_value_names_line_and_key(self, key, raw, message):
        with pytest.raises(ConfigError) as info:
            parse_config(f"# the rest are defaults\n\n{key} = {raw}\n")
        assert str(info.value) == f"line 3: {message}"
        # Each message names its key; a bad quantity follows the word "quantity".
        assert (key if key != "quantities" else "quantity") in message

    def test_vector_arity(self):
        with pytest.raises(ConfigError, match="three"):
            parse_config("axis = 1,0")

    def test_huge_grid_rejected_at_once(self):
        with pytest.raises(ConfigError, match=r"line 1: p grid .* more than 1000000 points"):
            parse_config("p = 0:1:1e-12")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_xi_names_line(self, raw):
        with pytest.raises(ConfigError, match=r"line 2: xi must be a finite number"):
            parse_config(f"p = 0.5\nxi = {raw}\n")


class TestRunSweep:
    def test_single_point_anchor(self):
        cfg = parse_config("p = 0.5\nquantities = fq_con")
        table = run_sweep(cfg)
        assert len(table["p"]) == 1
        assert list(table)[-1] == "fq_con"
        assert abs(table["fq_con"][0] - FQ_CON_ANCHOR) < 1e-12
        assert table["noise_kind"] == ["bitflip"]

    def test_extreme_noise_rows(self):
        cfg = parse_config("p = 0:1:1\nquantities = fq_con")
        assert run_sweep(cfg)["fq_con"].tolist() == [0.0, 0.0]

    def test_row_count_matches_grid(self):
        cfg = parse_config("p = 0:1:0.2\nquantities = qc")
        table = run_sweep(cfg)
        assert ",".join(table) == "p,p_c,xi,axis_x,axis_y,axis_z,probe_x,probe_y,probe_z,noise_kind,qc"
        assert {len(cells) for cells in table.values()} == {len(grid_points(*cfg.p_grid))} == {6}

    def test_depolarizing_quantities(self):
        cfg = parse_config("noise = depolarizing\np = 0.4\nquantities = qc,fq_con,fc_con")
        row = {name: cells[0] for name, cells in run_sweep(cfg).items()}
        # Coupling scalar below 1, information positive, measurement optimal.
        assert 0.0 < row["qc"] < 1.0
        assert row["fq_con"] > 0.0
        assert abs(row["fc_con"] - row["fq_con"]) < 1e-6

    def test_consistency_between_sweep_and_point(self):
        cfg = parse_config("p = 0.3\nquantities = qc")
        direct = evaluate_grid(("qc",), "bitflip", [0.3], 0.5, math.pi / 5, (0, 1, 0), (0, 0, 1))
        assert run_sweep(cfg)["qc"][0] == direct["qc"][0]
        cfg = parse_config(
            "noise = depolarizing\np = 0:1:0.25\nprobe = 0.3,0,0.6\nquantities = fq_cas"
        )
        table = run_sweep(cfg)
        for p, value in zip(table["p"], table["fq_cas"]):
            direct = evaluate_grid(
                ("fq_cas",), "depolarizing", [p], 0.5, math.pi / 5, (0, 1, 0), (0.3, 0, 0.6)
            )
            assert value == direct["fq_cas"][0]
        # Every row of a 101-level all-quantity sweep is bit-identical to the
        # one-point evaluation, for every noise kind.
        probe = (0.3, -0.2, 0.6)
        for kind, p_c in zip(sweep.NOISE_KINDS, (0.5, 0.3, 0.8, 0.5)):
            cfg = parse_config(
                f"noise = {kind}\np = 0:1:0.01\np_c = {p_c}\nxi = 2.2\naxis = 0.48,0.6,0.64\n"
                "probe = 0.3,-0.2,0.6\nquantities = qc,fq_con,fq_cas,fc_con,fq_joint"
            )
            table = run_sweep(cfg)
            assert len(table["p"]) == 101
            for i, p in enumerate(table["p"]):
                for name in sweep.QUANTITIES:
                    direct = evaluate_grid((name,), kind, [p], p_c, 2.2, cfg.axis, probe)
                    assert table[name][i] == direct[name][0], (kind, p, name)

    @pytest.mark.parametrize("kind", [*sweep.NOISE_KINDS, "fig2"])
    def test_huge_xi_evaluated_at_reduced_phase(self, kind):
        # Without the reduction, xi +- step rounds to xi at 1e300 and the
        # numeric routes return 0 (fq_joint below fq_con and fq_cas).
        xi, reduced = 1e300, math.remainder(1e300, 2.0 * math.pi)
        if kind == "fig2":
            # Every fig2 cell is the point value at its p and probe, bit for bit.
            table = fig2_preset(steps=11, xi=xi)
            cells = [("fq_con", "fq_con", 1.0)]
            cells += [(name, "fq_cas", r) for name, r in zip(list(table)[2:], sweep.FIG2_R_VALUES)]
            for i, p in enumerate(table["p"]):
                for column, name, r in cells:
                    want = evaluate_grid((name,), "bitflip", [p], 0.5, xi, (0, 1, 0), (0, 0, r))
                    assert table[column][i] == want[name][0], (p, column)
            return
        point = (kind, [0.3], 0.5)
        axis, probe = (0.6, 0.8, 0.0), (0.0, 0.0, 1.0)
        values = {}
        for name in sweep.QUANTITIES:
            values[name] = evaluate_grid((name,), *point, xi, axis, probe)[name][0]
            assert values[name] == evaluate_grid((name,), *point, reduced, axis, probe)[name][0]
        assert values["fq_con"] > 0.0
        assert values["fq_joint"] >= max(values["fq_con"], values["fq_cas"]) - 1e-8

        cfg = parse_config(
            f"noise = {kind}\nxi = 1e300\naxis = 0.6,0.8,0\np = 0.3\n"
            "quantities = qc,fq_con,fq_cas,fc_con,fq_joint"
        )
        table = run_sweep(cfg)
        assert table["xi"] == [1e300]
        assert {name: table[name][0] for name in values} == values

    @pytest.mark.parametrize("kind", ["bitflip", "depolarizing"])
    def test_quantities_are_2pi_periodic(self, kind):
        # The premise of the reduction, checked on the unreduced routes.
        noise = noise_channel(kind, 0.3)
        rho = bloch_to_density((0.3, 0.0, 0.6))
        axis = (0.6, 0.8, 0.0)
        base_qc = qc_numeric(noisy_phase_channel(noise, axis, 1.0), rho)
        base_joint = qfi_joint(noise, axis, 1.0, rho, 0.5)
        for xi in (1.0 + 2.0 * math.pi, 1.0 - 4.0 * math.pi):
            assert abs(qc_numeric(noisy_phase_channel(noise, axis, xi), rho) - base_qc) < 1e-12
            assert abs(qfi_joint(noise, axis, xi, rho, 0.5) - base_joint) < 1e-8

    def test_columns_are_float64_arrays_but_noise_kind(self):
        # Integer fields of a hand-built config still give float64 columns.
        cfg = SweepConfig(axis=(0, 1, 0), probe=(0, 0, 1), xi=1, p_c=0, p_grid=(0, 1, 1))
        table = run_sweep(cfg)
        assert table.pop("noise_kind") == ["bitflip", "bitflip"]
        for name, cells in table.items():
            assert isinstance(cells, np.ndarray) and cells.dtype == np.float64, name
            assert cells.shape == (2,), name

    def test_error_names_grid_point(self):
        cfg = SweepConfig(probe=(0.0, 0.0, 2.0), quantities=("qc",), p_grid=(0.2, 0.2, 1.0))
        with pytest.raises(RuntimeError, match="p = 0.2"):
            run_sweep(cfg)


class TestFig2Preset:
    def test_columns_and_rows(self):
        table = fig2_preset(steps=11)
        columns = list(table)
        assert columns[0] == "p" and columns[1] == "fq_con"
        assert columns[2:] == [
            "fq_cas_r1",
            "fq_cas_r0_8",
            "fq_cas_r0_6",
            "fq_cas_r0_4",
            "fq_cas_r0_2",
        ]
        assert all(cells.shape == (11,) for cells in table.values())

    def test_noise_free_row(self):
        first = {name: cells[0] for name, cells in fig2_preset(steps=11).items()}
        assert first["p"] == 0.0
        assert first["fq_con"] == 0.0
        for r in (1.0, 0.8, 0.6, 0.4, 0.2):
            name = "fq_cas_r" + f"{r:g}".replace(".", "_")
            assert abs(first[name] - 4 * r * r) < 1e-6

    def test_half_noise_row_is_control_peak(self):
        table = fig2_preset(steps=11)
        assert table["p"][5] == 0.5
        assert abs(table["fq_con"][5] - FQ_CON_ANCHOR) < 1e-12
        assert table["fq_con"][5] == max(table["fq_con"])

    def test_full_noise_row_vanishes(self):
        table = fig2_preset(steps=11)
        assert all(abs(table[c][-1]) < 1e-9 for c in table if c != "p")

    def test_control_column_symmetric(self):
        con = fig2_preset(steps=11)["fq_con"]
        assert max(abs(con[i] - con[10 - i]) for i in range(11)) < 1e-12

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError, match="steps"):
            fig2_preset(steps=1)

    def test_rejects_huge_grid(self):
        with pytest.raises(ValueError, match="steps must not exceed 1000000"):
            fig2_preset(steps=10**12)


class TestCsv:
    def test_format_number(self):
        assert format_number(0.5) == "0.500000000000"
        assert format_number(FQ_CON_ANCHOR) == "0.474930145244"
        assert format_number(-0.0) == "0.00000000000"
        assert format_number(1.79489740179e-23) == "1.79489740179e-23"

    def test_format_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            format_number(float("nan"))

    def test_render_exact_bytes(self):
        table = {"p": [0.5], "fq_con": np.array([FQ_CON_ANCHOR])}
        assert render_csv(table) == "p,fq_con\n0.500000000000,0.474930145244\n"

    def test_empty_rows_rejected(self):
        for table in ({}, {"p": []}, {"p": np.array([]), "q": []}):
            with pytest.raises(ValueError, match="^refusing to emit an empty table$"):
                render_csv(table)

    def test_ragged_table_rejected(self):
        for q in ([1.0], [1.0, 2.0, 3.0], []):
            with pytest.raises(ValueError) as info:
                render_csv({"p": np.array([0.5, 0.6]), "q": q})
            assert str(info.value) == f"column 'q' has {len(q)} cells, not 2"

    def test_string_passthrough(self):
        out = render_csv({"kind": ["bitflip"], "p": [0.25]})
        assert out == "kind,p\nbitflip,0.250000000000\n"

    def test_deterministic(self):
        table = fig2_preset(steps=5)
        assert render_csv(table) == render_csv(table)

    def test_emit_to_path(self, tmp_path):
        target = tmp_path / "out.csv"
        cli._write((render_csv({"p": [1.0]}), str(target)))
        assert target.read_bytes() == b"p\n1.00000000000\n"

    @pytest.mark.parametrize("case", range(3))
    def test_matches_per_cell_rule(self, case):
        table = spec_tables()[case]
        assert render_csv(table) == reference_csv(table)

    def test_hand_rows_bytes(self):
        assert render_csv(spec_tables()[2]).splitlines()[1:3] == [
            "0.00000000000,3.00000000000,a,1.50000000000,-1.00000000000e-300",
            "0.500000000000,-7.00000000000,b,0.00000000000,0.00000000000",
        ]

    @pytest.mark.parametrize("cells", [["a", 2.5], [2.5, "a"], [np.float64(2.5), "a", 1]])
    def test_mixed_column_rejected(self, cells):
        with pytest.raises(ValueError) as info:
            render_csv({"p": [0.0] * len(cells), "mixed": cells})
        assert str(info.value) == "column 'mixed' mixes text and numbers"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("first", [0.5, "text"])
    def test_non_finite_rejected(self, bad, first):
        # Beside text, a non-finite number is caught as a mixed column.
        if first == "text":
            message = "column 'p' mixes text and numbers"
        else:
            message = f"non-finite value {bad} in output"
        with pytest.raises(ValueError) as info:
            render_csv({"p": [first, bad]})
        assert str(info.value) == message


class TestSvg:
    def test_fig2_plot_styles(self):
        table = fig2_preset(steps=11)
        svg = render_svg(table)
        assert svg.startswith("<svg ")
        assert svg.count("<polyline") == 6
        assert svg.count("stroke-dasharray") >= 5 + 5  # 5 dashed lines + legend samples
        # Exactly one series without dashes: the first polyline.
        solid = [ln for ln in svg.splitlines() if ln.startswith("<polyline") and "dash" not in ln]
        assert len(solid) == 1
        # x is the first column; every other column is labelled in the legend, in order.
        labels = re.findall(r">([^<]+)</text>", svg)
        assert labels[12:] == list(table)

    def test_single_column(self):
        svg = render_svg({"x": [0.0, 1.0], "y": [1.0, 2.0]})
        assert svg.count("<polyline") == 1
        assert "sans-serif" in svg

    def test_deterministic(self):
        table = fig2_preset(steps=5)
        assert render_svg(table) == render_svg(table)

    def test_ragged_table_rejected(self):
        for y in ([1.0], [1.0, 2.0, 3.0], []):
            with pytest.raises(ValueError) as info:
                render_svg({"x": [0.0, 1.0], "y": y})
            assert str(info.value) == f"column 'y' has {len(y)} cells, not 2"

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="2 rows"):
            render_svg({"x": [0.0], "y": [0.0]})

    def test_x_column_alone_rejected(self):
        with pytest.raises(ValueError) as info:
            render_svg({"x": [0.0, 1.0]})
        assert str(info.value) == "the plot needs a series: a column after the x column"

    def test_text_column_named(self):
        with pytest.raises(ValueError) as info:
            render_svg(run_sweep(parse_config("p = 0:1:0.5")))
        assert str(info.value) == "column 'noise_kind' is not numeric, so the plot cannot draw it"

    @pytest.mark.parametrize("case", range(5))
    def test_points_match_scalar_formulas(self, case):
        # Every column but text, which render_svg cannot draw.
        table = {n: cells for n, cells in svg_tables()[case].items() if not isinstance(cells[0], str)}
        svg = render_svg(table)
        assert re.findall(r'points="([^"]*)"', svg) == reference_points(table)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("col", ["x", "y"])
    def test_non_finite_rejected(self, bad, col):
        table = {"x": [0.0, 1.0], "y": [1.0, 2.0]}
        table[col][0] = bad
        with pytest.raises(ValueError) as info:
            render_svg(table)
        assert str(info.value) == f"non-finite value {bad} in column {col!r} of the plot"

    def test_emit_writes_rendered_bytes(self, tmp_path, capsysbinary):
        table = {"x": [0.0, 1.0], "y": [1.0, 2.0]}
        path = tmp_path / "plot.svg"
        cli._write((render_csv(table), None))
        assert capsysbinary.readouterr().out == render_csv(table).encode("utf-8")
        cli._write((render_svg(table), None), (render_svg(table), str(path)))
        assert capsysbinary.readouterr().out == path.read_bytes()
        assert path.read_bytes() == render_svg(table).encode("utf-8")

    def test_fig2_runs_no_engine_check(self, monkeypatch, tmp_path):
        def refuse(*args):
            raise AssertionError("fig2 ran an engine check")

        monkeypatch.setattr(engine, "_validated", refuse)
        with pytest.raises(AssertionError, match="fig2 ran an engine check"):  # the patch is seen
            evaluate_grid(("qc",), "bitflip", [0.3], 0.5, 0.1, (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        check("fig2-2001.csv.sha256", tmp_path)


class TestFixedPointKernel:
    """The polyline kernel against "%.2f", cell by cell; small sets also pair each
    value with another row's, so cells "%.2f" writes itself fall in x alone, y alone
    and both."""

    def test_cents_and_their_neighbours_take_the_kernel(self):
        cents = np.arange(100_000) / 100
        values = np.concatenate([cents, np.nextafter(cents, -1.0), np.nextafter(cents, 1e6)])
        points, scalar = kernel_points(values)
        assert points == printf_points(values)
        assert scalar == [100_000]  # the lower neighbour of 0.0 is -5e-324

    def test_binary_ties_take_printf(self):
        values = np.arange(1, 800_000, 2) / 8  # every k/8 below 1e5 whose cent count ends in .5
        points, scalar = kernel_points(values)
        assert points == printf_points(values)
        assert scalar == list(range(len(values)))

    def test_below_and_at_1e5(self):
        below = 1e5 - np.arange(1, 6) * np.spacing(1e5)
        values = np.array([99999.99, 99999.994, *below, 99999.995, 1e5, 100000.01, 2e5])
        points, scalar = kernel_points(values, values[::-1])
        assert points == printf_points(values, values[::-1])
        # Just below 1e5 the cell rounds to 100000.00, so printf writes it too.
        assert scalar == list(range(2, len(values)))

    def test_sign_bit_and_subnormal(self):
        values = np.array([-0.0, 0.0, -1e-300, -0.001, -0.004, -0.006, 5e-324, 0.004, 290.125])
        points, scalar = kernel_points(values, values[::-1])
        assert points == printf_points(values, values[::-1])
        assert points[0].startswith("-0.00,") and points[2].startswith("-0.00,")
        assert scalar == [0, 2, 3, 4, 5, 8]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 2e5), min_size=1, max_size=40))
    def test_floats_up_to_2e5(self, values):
        values = np.array(values)
        assert kernel_points(values, values[::-1])[0] == printf_points(values, values[::-1])


class TestCli:
    def test_point_prints_anchor(self, capsys):
        code = main(["point", "--noise", "bitflip", "--p", "0.5", "--quantity", "fq_con"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.474930145244"

    @pytest.mark.parametrize("quantity", sweep.QUANTITIES)
    @pytest.mark.parametrize("kind", sweep.NOISE_KINDS)
    def test_point_prints_the_engine_value(self, kind, quantity, capsys):
        argv = ["point", "--noise", kind, "--p", "0.37", "--pc", "0.3", "--xi", "-2.5"]
        argv += ["--axis=0.6,0,-0.8", "--probe=-0.3,0.2,0.1", "--quantity", quantity]
        assert main(argv) == 0
        value = evaluate_grid(
            (quantity,), kind, [0.37], 0.3, -2.5, (0.6, 0, -0.8), (-0.3, 0.2, 0.1)
        )[quantity][0]
        assert capsys.readouterr().out == format_number(value) + "\n"

    def test_vector_flag_reads_like_a_config_vector(self, capsys):
        for flag, raw, message in (
            ("--axis", "0,0.6", "axis expects three comma-separated numbers"),
            ("--probe", "0,a,1", "probe expects a number, got 'a'"),
        ):
            assert main(["point", "--p", "0.3", "--quantity", "qc", f"{flag}={raw}"]) == 1
            assert capsys.readouterr().err == f"error: argument {flag}: {message}\n"

    @pytest.mark.parametrize(
        "keys, printed",
        [
            (
                {
                    "noise": "phaseflip",
                    "axis": "-0.8226902875991798,-0.18198613373554226,-0.5385737997878915",
                    "probe": "-0.15398733711782248,0.7230309877294577,0.5624860752368",
                    "xi": "2.187078777020501",
                    "p_c": "0.32151296323629663",
                    "p": "0.6900000000000001",  # level 69 of the grid p = 0:1:0.01
                    "quantities": "fq_cas",
                },
                "0.000212138514348",
            ),
            (
                {"axis": "0.70710678,0,0.70710678", "p": "0.3", "quantities": "fq_con"},
                "0.193833774886",
            ),
        ],
        ids=["phaseflip-fq_cas", "near-unit-axis"],
    )
    def test_point_prints_the_sweep_cell(self, keys, printed, tmp_path, capsys):
        # Each flag is read by its config key's rule (a near-unit axis is
        # renormalized), so point prints the bytes of a one-level sweep.
        config = tmp_path / "point.cfg"
        config.write_text("".join(f"{key} = {raw}\n" for key, raw in keys.items()))
        assert main(["sweep", "--config", str(config)]) == 0
        cell = capsys.readouterr().out.splitlines()[1].rpartition(",")[2]
        flag = {"p_c": "--pc", "quantities": "--quantity"}
        argv = [f"{flag.get(key, '--' + key)}={raw}" for key, raw in keys.items()]
        assert main(["point", *argv]) == 0
        assert capsys.readouterr().out == cell + "\n" == printed + "\n"

    def test_point_all_quantities(self, capsys):
        for quantity in ("qc", "fq_con", "fq_cas", "fc_con", "fq_joint"):
            code = main(
                ["point", "--noise", "phaseflip", "--p", "0.3", "--quantity", quantity]
            )
            assert code == 0
            float(capsys.readouterr().out)  # parses as a number

    def test_consecutive_calls_share_no_parsed_state(self, capsys):
        # Every call reads the one flag table; a value one call parses must
        # not reach a later call, so each prints the same in either order.
        runs = (
            ["point", "--p", "0.3", "--pc", "0.2", "--quantity", "fq_con"],
            ["point", "--p", "0.3", "--quantity", "fq_con"],
            ["fig2", "--steps", "3"],
        )

        def outputs(order):
            printed = {}
            for i in order:
                assert main(runs[i]) == 0
                printed[i] = capsys.readouterr().out
            return [printed[i] for i in range(len(runs))]

        expected = outputs(reversed(range(len(runs))))
        assert expected[0] != expected[1]  # a leaked --pc would show
        assert outputs(range(len(runs))) == expected

    @pytest.mark.parametrize(
        "spelled",
        [
            ["--xi", "-2.5", "--axis", "-0.6,0,0.8", "--quantity", "fq_joint"],
            ["--x=-2.5", "--ax=-0.6,0,0.8", "--quant=fq_joint"],
            ["--x", "-2.5", "--a", "-0.6,0,0.8", "--q", "fq_joint"],
            ["--xi=1", "--axis=0,0,1", "--xi", "-2.5", "--axis=-0.6,0,0.8", "--quantity=fq_joint"],
        ],
        ids=["space", "prefix-equals", "prefix-space", "last-wins"],
    )
    def test_flag_spellings_print_the_same_bytes(self, spelled, capsysbinary):
        # The token after a flag is always its value, so a negative number or
        # vector may follow in its own token; a unique prefix names its flag.
        point = ["point", "--noise", "depolarizing", "--p", "0.37", "--probe=-0.3,0.2,0.1"]
        assert main([*point, "--xi=-2.5", "--axis=-0.6,0,0.8", "--quantity=fq_joint"]) == 0
        expected = capsysbinary.readouterr().out
        assert main([*point, *spelled]) == 0
        assert capsysbinary.readouterr().out == expected

    def test_fig2_writes_csv_and_svg(self, tmp_path, capsys):
        csv_path = tmp_path / "fig2.csv"
        svg_path = tmp_path / "fig2.svg"
        code = main(
            ["fig2", "--steps", "5", "--out", str(csv_path), "--svg", str(svg_path)]
        )
        assert code == 0
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("p,fq_con,fq_cas_r1")
        assert svg_path.read_text().count("<polyline") == 6

    def test_files_and_stdout_hold_the_rendered_bytes(self, tmp_path, capsysbinary):
        csv, svg = tmp_path / "fig2.csv", tmp_path / "fig2.svg"
        assert main(["fig2", "--steps", "5", "--out", str(csv), "--svg", str(svg)]) == 0
        assert main(["fig2", "--steps", "5"]) == 0
        table = fig2_preset(steps=5)
        assert csv.read_bytes() == capsysbinary.readouterr().out == render_csv(table).encode()
        assert svg.read_bytes() == render_svg(table).encode()
        config, out = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
        config.write_text("noise = depolarizing\np = 0:1:0.5\nquantities = qc,fq_joint\n")
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert main(["sweep", "--config", str(config)]) == 0
        table = run_sweep(parse_config(config.read_text()))
        assert out.read_bytes() == capsysbinary.readouterr().out == render_csv(table).encode()

    def test_fig2_unopenable_svg_writes_nothing(self, tmp_path, capsysbinary):
        # Both texts are rendered and written under temporary names before
        # any file is replaced or any byte reaches stdout.
        missing = str(tmp_path / "missing" / "fig2")
        for flag in ("--svg", "--out"):
            assert main(["fig2", "--steps", "5", flag, missing]) == 1
            captured = capsysbinary.readouterr()
            assert captured.out == b""
            assert captured.err.startswith(b"error: ") and len(captured.err.splitlines()) == 1
        csv = tmp_path / "fig2.csv"
        assert main(["fig2", "--steps", "3", "--out", str(csv)]) == 0
        earlier = csv.read_bytes()
        assert main(["fig2", "--steps", "5", "--out", str(csv), "--svg", missing]) == 1
        assert csv.read_bytes() == earlier
        assert list(tmp_path.iterdir()) == [csv]  # no temporary file is left behind

    def test_fig2_byte_identical_across_runs(self, tmp_path):
        paths = [tmp_path / f"run{i}.csv" for i in range(3)]
        for path in paths:
            assert main(["fig2", "--steps", "9", "--out", str(path)]) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_sweep_subcommand(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("p = 0:1:0.5\nquantities = qc,fq_con\n")
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(config), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header + 3 grid points
        assert lines[0].endswith("noise_kind,qc,fq_con")

    def test_sweep_stdout(self, capsys):
        code = main(["sweep", "--config", "/dev/null"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("p,p_c,xi")

    def test_bad_config_is_one_line_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("p_c = 7\n")
        code = main(["sweep", "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 1" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["point", "--p", "0.3", "--quantity", "qc", "--probe=1e200,0,0"], None),
            (["point", "--p", "0.3", "--quantity", "qc", "--axis=1e200,1e200,0"], None),
            (["sweep"], "axis = 1e200,1e200,0\n"),
            (["sweep"], "probe = 1e200,0,0\n"),
        ],
        ids=["point-probe", "point-axis", "config-axis", "config-probe"],
    )
    def test_huge_vector_is_one_line_error(self, argv, config, tmp_path):
        # A fresh interpreter with warnings shown, so stderr is what a user sees.
        if config is not None:
            path = tmp_path / "huge.cfg"
            path.write_text(config)
            argv = [*argv, "--config", str(path)]
        src = str(Path(icoswitch.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-W", "default", "-m", "icoswitch", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )  # fmt: skip
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1, done.stderr

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["point", "--p", "abc", "--quantity", "qc"], "--p"),
            (["point", "--p", "1.7", "--quantity", "qc"], "--p"),
            (["point", "--p", "0.3", "--quantity", "qc", "--axis=0,0.6"], "--axis"),
            (
                ["point", "--p", "0.3", "--quantity", "qc", "--probe=0,0,1.5"],
                "argument --probe: probe Bloch vector norm 1.5 exceeds 1",
            ),
            (["point", "--p", "0.3", "--quantity", "qc", "--axis=0,0,2"], "--axis"),
            (["point", "--p", "0.3", "--quantity", "qc", "--pc", "2"], "--pc"),
            (["point", "--p", "0.3", "--quantity", "qc", "--xi", "nan"], "--xi"),
            (["fig2", "--xi", "inf"], "--xi"),
            (["point", "--p", "0.3"], "--quantity"),
            (["point", "--noise", "x", "--p", "0.3", "--quantity", "qc"], "--noise"),
            (["fig2", "--steps", "x"], "--steps"),
            ([], "command"),
            (["point", "--p", "0.3", "--quantity", "qc", "--bogus", "1"], "--bogus"),
            (["point", "--p", "0.3", "--quantity", "qc", "stray"], "stray"),
            (["point", "--p", "0.3", "--quantity"], "--quantity"),
            (["plot", "--p", "0.3"], "command"),
            (["fig2", "--s", "3"], "--s"),
            (["verify", "--"], "--"),
        ],
        ids=[
            "float", "p-range", "triple", "probe-norm", "axis-norm", "probability", "point-xi",
            "fig2-xi", "missing", "choice", "int", "no-command", "unknown-flag", "stray-token",
            "no-value", "unknown-command", "ambiguous-prefix", "bare-double-dash",
        ],  # fmt: skip
    )
    def test_argument_error_is_one_line(self, argv, named, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err
        assert len(captured.err.splitlines()) == 1, captured.err
        if named == "--":  # a bare -- is a prefix of every flag, but stands for none
            assert captured.err == "error: unrecognized argument: --\n"

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["point", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: icoswitch point")

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_top_level_help_exits_zero(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([flag])
        assert exit_info.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0].splitlines()
        assert [line.split()[:2] for line in usage] == [
            ["usage:", "icoswitch"], *[["icoswitch", c] for c in ("sweep", "point", "verify")]
        ]

    def test_oversized_config_is_one_line_error(self, tmp_path, capsysbinary):
        config = tmp_path / "huge.cfg"
        with open(config, "wb") as fh:
            fh.truncate((1 << 20) + 1)  # sparse: 1 MiB + 1 NUL bytes that take no disk
        assert main(["sweep", "--config", str(config)]) == 1
        err = capsysbinary.readouterr().err.decode()
        assert err == f"error: argument --config: {str(config)!r} holds more than 1048576 bytes\n"

    def test_non_utf8_config_names_its_line(self, tmp_path, capsys):
        config = tmp_path / "latin.cfg"
        config.write_bytes(b"noise = bitflip\n\xff\n")
        assert main(["sweep", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: argument --config: {str(config)!r} line 2 is not UTF-8 (invalid start byte)\n"
        )

    def test_fifo_config_with_no_writer_reads_as_empty(self, tmp_path):
        # Opening a FIFO blocks until a writer opens it, unless the open does
        # not block; with no writer the config reads as empty, like /dev/null.
        fifo = tmp_path / "config"
        os.mkfifo(fifo)
        src = str(Path(icoswitch.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "icoswitch", "sweep", "--config", str(fifo)],
            capture_output=True, env=env, timeout=10,
        )  # fmt: skip
        assert done.returncode == 0 and done.stderr == b""
        assert done.stdout == render_csv(run_sweep(parse_config(""))).encode()

    def test_missing_config_file(self, capsys):
        code = main(["sweep", "--config", "/nonexistent/path.cfg"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_xi_rejected(self, raw, tmp_path, capsys):
        config = tmp_path / "xi.cfg"
        config.write_text(f"xi = {raw}\n")
        for argv in (
            ["fig2", "--steps", "5", f"--xi={raw}"],
            ["point", "--p", "0.3", "--quantity", "fq_cas", f"--xi={raw}"],
            ["sweep", "--config", str(config)],
        ):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:") and "xi" in captured.err
            assert len(captured.err.strip().splitlines()) == 1

    def test_verify_reports_failure(self, monkeypatch, capsys):
        results = [CheckResult("broken", False, "diff = 1"), CheckResult("fine", True, "ok")]
        monkeypatch.setattr("icoswitch.cli.run_all_checks", lambda: results)
        assert main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["FAIL  broken: diff = 1", "PASS  fine: ok", "1/2 checks passed"]

    def test_verify_json(self, tmp_path, capsys):
        # One full verify run: stdout is the text report alone, and the JSON
        # file holds the same checks with the numbers each detail line prints.
        path = tmp_path / "verify.json"
        assert main(["verify", "--json", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "10/10 checks passed"
        doc = json.loads(path.read_text())
        assert [f"PASS  {r['name']}: {r['detail']}" for r in doc] == lines[:-1]
        for r in doc:
            assert set(r) == {"name", "passed", "detail", "values"} and r["passed"] is True
            assert r["values"], r["name"]
            for label, value in r["values"].items():
                # Each number follows its label as the detail line prints it:
                # .3e after " = " or " within ", or str for an exact value.
                printed = r["detail"].split(label, 1)[1]
                assert printed.startswith(
                    (f" = {value:.3e}", f" within {value:.3e}", f" = {value}")
                ), (label, r["detail"])

    def test_result_prints_each_value_once(self):
        res = _result(
            "n", True, ("a", 0.5), "; b: True; ", ("c", 0.0, "{} = {}"), ", ",
            ("d", 2e-5, "{} within {:.3e}"),
        )
        assert res.detail == "a = 5.000e-01; b: True; c = 0.0, d within 2.000e-05"
        assert res.values == (("a", 0.5), ("c", 0.0), ("d", 2e-5))

    def test_check_result_is_hashable(self):
        res = CheckResult("a", True, "x = 1", (("x", 1.0),))
        assert hash(res) == hash(CheckResult("a", True, "x = 1", (("x", 1.0),)))
        assert len({res, CheckResult("a", True, "x")}) == 2

    def test_verify_json_written_on_failure(self, monkeypatch, tmp_path, capsys):
        results = [CheckResult("broken", False, "diff = 1", (("diff", 1.0),))]
        monkeypatch.setattr("icoswitch.cli.run_all_checks", lambda: results)
        path = tmp_path / "verify.json"
        assert main(["verify", "--json", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == ["FAIL  broken: diff = 1", "0/1 checks passed"]
        assert json.loads(path.read_text()) == [
            {"name": "broken", "passed": False, "detail": "diff = 1", "values": {"diff": 1.0}}
        ]

    def test_fig2_steps_capped(self, capsys):
        assert main(["fig2", "--steps", "1000001"]) == 1
        assert "steps" in capsys.readouterr().err

    def test_point_invalid_probability(self, capsys):
        code = main(["point", "--noise", "bitflip", "--p", "1.7", "--quantity", "qc"])
        assert code == 1
        assert "probability" in capsys.readouterr().err


def _modules_loaded_by(statement, prefix="icoswitch"):
    """The modules named ``prefix``... in sys.modules after ``statement`` in a fresh interpreter."""
    src = str(Path(icoswitch.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = f"import sys; print(*sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    done = subprocess.run(
        [sys.executable, "-c", f"{statement}\n{probe}"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )  # fmt: skip
    return done.stdout.split()


class TestPackageNamespace:
    def test_bare_import_loads_no_submodule(self):
        assert _modules_loaded_by("import icoswitch") == ["icoswitch"]

    def test_a_name_loads_only_its_submodule(self):
        loaded = _modules_loaded_by("from icoswitch import evaluate_grid")
        assert loaded == ["icoswitch", "icoswitch.engine"]

    def test_cli_loads_every_module(self):
        modules = "channels cli engine metrology qmat selfcheck sweep switch".split()
        assert _modules_loaded_by("import icoswitch.cli") == [
            "icoswitch",
            *(f"icoswitch.{m}" for m in modules),
        ]

    def test_cli_loads_no_argparse(self):
        # cli reads its flags from its own table; importing argparse cost about 3 ms.
        assert _modules_loaded_by("import icoswitch.cli", prefix="argparse") == []

    def test_each_public_name_is_its_submodules_attribute(self):
        assert icoswitch.__all__ == sorted(icoswitch.__all__) and len(icoswitch.__all__) == 39
        for name in icoswitch.__all__:
            value = getattr(icoswitch, name)
            module = sys.modules[value.__module__]
            assert module.__name__.startswith("icoswitch.") and getattr(module, name) is value, name
        assert set(icoswitch.__all__) <= set(dir(icoswitch))
        with pytest.raises(AttributeError, match="nope"):
            icoswitch.nope

    def test_commands_call_every_public_function_and_method(self, tmp_path, capsys):
        # The package holds what fig2, sweep, point and verify run; an entry,
        # method or mode that only tests call belongs in tests/references.py.
        runs = [["fig2", "--steps", "21", "--svg", str(tmp_path / "fig2.svg")], ["verify"]]
        runs += [["sweep", "--config", str(cfg)] for cfg in sorted(GOLDEN_DIR.glob("*.cfg"))]
        runs += [["point", "--p", "0.3", "--quantity", q] for q in engine.QUANTITIES]
        called = set()

        def profile(frame, event, arg):
            if event == "call":
                called.add(frame.f_code)

        sys.setprofile(profile)
        try:
            codes = [main(argv) for argv in runs]
        finally:
            sys.setprofile(None)
        capsys.readouterr()
        assert codes == [0] * len(runs)
        package = Path(icoswitch.__file__).resolve().parent
        defined = {}
        for name in icoswitch.__all__:
            value = getattr(icoswitch, name)
            members = vars(value).items() if inspect.isclass(value) else [(None, value)]
            for attr, member in members:
                fn = member.fget if isinstance(member, property) else member
                # Methods a dataclass or NamedTuple generates are compiled from "<string>".
                code = fn.__code__ if inspect.isfunction(fn) else None
                if code and Path(code.co_filename).resolve().parent == package:
                    defined[name if attr is None else f"{name}.{attr}"] = code
        assert "KrausChannel.__post_init__" in defined and "evaluate_grid" in defined
        assert sorted(name for name, code in defined.items() if code not in called) == []

    def test_lookup_sees_the_current_attribute(self, monkeypatch):
        # Nothing is cached in the package, so a patched submodule shows through.
        monkeypatch.setattr(sweep, "run_sweep", lambda cfg: "patched")
        assert icoswitch.run_sweep("cfg") == "patched"
