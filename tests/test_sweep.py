"""Tests for config parsing, the sweep engine, CSV/SVG output, and the CLI."""

import io
import json
import math
import re

import numpy as np
import pytest

from icoswitch import cli, sweep
from icoswitch.channels import bloch_to_density, noisy_phase_channel
from icoswitch.cli import main
from icoswitch.metrology import qfi_joint
from icoswitch.selfcheck import CheckResult, _result
from icoswitch.sweep import (
    MAX_GRID_POINTS,
    ConfigError,
    SweepConfig,
    compute_quantity,
    emit_csv,
    emit_svg,
    fig2_preset,
    format_number,
    grid_points,
    parse_config,
    render_csv,
    render_svg,
    run_sweep,
)
from icoswitch.switch import qc_numeric
from test_channels import noise_channel

FQ_CON_ANCHOR = (15 + 2 * np.sqrt(5.0)) / 41


def reference_csv(rows, columns):
    """The per-cell rule: strings as they are, format_number for every other cell."""
    lines = [",".join(columns)]
    for row in rows:
        cells = [row[col] for col in columns]
        lines.append(",".join(v if isinstance(v, str) else format_number(v) for v in cells))
    return "\n".join(lines) + "\n"


def reference_points(rows, x_col, y_cols):
    """Each series' polyline points from the scalar pixel formulas, one float at a time."""
    xs = [float(r[x_col]) for r in rows]
    all_y = [float(r[c]) for r in rows for c in y_cols]
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(all_y), max(all_y)
    x_hi = x_hi if x_hi > x_lo else x_lo + 1.0
    y_hi = y_hi if y_hi > y_lo else y_lo + 1.0
    plot_w = sweep._SVG_W - sweep._MARGIN_L - sweep._MARGIN_R
    plot_h = sweep._SVG_H - sweep._MARGIN_T - sweep._MARGIN_B

    def point(r, col):
        px = sweep._MARGIN_L + (float(r[x_col]) - x_lo) / (x_hi - x_lo) * plot_w
        py = sweep._SVG_H - sweep._MARGIN_B - (float(r[col]) - y_lo) / (y_hi - y_lo) * plot_h
        return f"{px:.2f},{py:.2f}"

    return [" ".join(point(r, col) for r in rows) for col in y_cols]


def spec_tables():
    """(rows, columns, x column, y columns) on which the renderers meet the per-cell rules."""
    fig2_columns, fig2_rows = fig2_preset(steps=201)
    cfg = parse_config(
        "noise = depolarizing\np = 0:1:0.01\naxis = 0.6, 0, -0.8\nprobe = -0.3, 0.2, 0.1\n"
        "xi = -2.5\nquantities = qc, fq_con, fq_cas, fc_con, fq_joint\n"
    )
    sweep_columns, sweep_rows = run_sweep(cfg)
    hand_rows = [
        {"x": -0.0, "n": 3, "mixed": "a", "y": 1.5, "tiny": -1e-300},
        {"x": 0.5, "n": -7, "mixed": 2.5, "y": -0.0, "tiny": -0.0},
        {"x": 0.25, "n": 2**60 + 1, "mixed": -0.0, "y": 1e-30, "tiny": 5e-324},
    ]
    return [
        (fig2_rows, fig2_columns, "p", fig2_columns[1:]),
        (sweep_rows, sweep_columns, "p", list(cfg.quantities)),
        (hand_rows, list(hand_rows[0]), "x", ["y", "n", "tiny"]),
    ]


class TestGridPoints:
    def test_quarter_steps(self):
        assert grid_points(0.0, 1.0, 0.25) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_tenth_steps_count(self):
        pts = grid_points(0.0, 1.0, 0.1)
        assert len(pts) == 11
        assert pts[0] == 0.0 and pts[-1] == 1.0

    def test_single_point(self):
        assert grid_points(0.5, 0.5, 1.0) == [0.5]

    def test_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            grid_points(0.0, 1.0, 0.0)

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
        assert cfg.grid() == grid_points(0.0, 1.0, 0.1)

    def test_range_value(self):
        cfg = parse_config("p = 0:1:0.25")
        assert cfg.grid() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_scalar_p(self):
        cfg = parse_config("p = 0.5")
        assert cfg.grid() == [0.5]

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
        columns, rows = run_sweep(cfg)
        assert len(rows) == 1
        assert columns[-1] == "fq_con"
        assert abs(rows[0]["fq_con"] - FQ_CON_ANCHOR) < 1e-12
        assert rows[0]["noise_kind"] == "bitflip"

    def test_extreme_noise_rows(self):
        cfg = parse_config("p = 0:1:1\nquantities = fq_con")
        _, rows = run_sweep(cfg)
        assert [row["fq_con"] for row in rows] == [0.0, 0.0]

    def test_row_count_matches_grid(self):
        cfg = parse_config("p = 0:1:0.2\nquantities = qc")
        _, rows = run_sweep(cfg)
        assert len(rows) == len(cfg.grid()) == 6

    def test_depolarizing_quantities(self):
        cfg = parse_config("noise = depolarizing\np = 0.4\nquantities = qc,fq_con,fc_con")
        _, rows = run_sweep(cfg)
        row = rows[0]
        # Coupling scalar below 1, information positive, measurement optimal.
        assert 0.0 < row["qc"] < 1.0
        assert row["fq_con"] > 0.0
        assert abs(row["fc_con"] - row["fq_con"]) < 1e-6

    def test_consistency_between_sweep_and_point(self):
        cfg = parse_config("p = 0.3\nquantities = qc")
        _, rows = run_sweep(cfg)
        direct = compute_quantity("qc", "bitflip", 0.3, 0.5, math.pi / 5, (0, 1, 0), (0, 0, 1))
        assert rows[0]["qc"] == direct
        cfg = parse_config(
            "noise = depolarizing\np = 0:1:0.25\nprobe = 0.3,0,0.6\nquantities = fq_cas"
        )
        _, rows = run_sweep(cfg)
        for row in rows:
            direct = compute_quantity(
                "fq_cas", "depolarizing", row["p"], 0.5, math.pi / 5, (0, 1, 0), (0.3, 0, 0.6)
            )
            assert row["fq_cas"] == direct
        # Every row of a 101-level all-quantity sweep is bit-identical to the
        # one-point evaluation, for every noise kind.
        probe = (0.3, -0.2, 0.6)
        for kind, p_c in zip(sweep.NOISE_KINDS, (0.5, 0.3, 0.8, 0.5)):
            cfg = parse_config(
                f"noise = {kind}\np = 0:1:0.01\np_c = {p_c}\nxi = 2.2\naxis = 0.48,0.6,0.64\n"
                "probe = 0.3,-0.2,0.6\nquantities = qc,fq_con,fq_cas,fc_con,fq_joint"
            )
            _, rows = run_sweep(cfg)
            assert len(rows) == 101
            for row in rows:
                for name in sweep.QUANTITIES:
                    direct = compute_quantity(name, kind, row["p"], p_c, 2.2, cfg.axis, probe)
                    assert row[name] == direct, (kind, row["p"], name)

    @pytest.mark.parametrize("kind", [*sweep.NOISE_KINDS, "fig2"])
    def test_huge_xi_evaluated_at_reduced_phase(self, kind):
        # Without the reduction, xi +- step rounds to xi at 1e300 and the
        # numeric routes return 0 (fq_joint below fq_con and fq_cas).
        xi, reduced = 1e300, math.remainder(1e300, 2.0 * math.pi)
        if kind == "fig2":
            # Every fig2 cell is the point value at its p and probe, bit for bit.
            columns, rows = fig2_preset(steps=11, xi=xi)
            cells = [("fq_con", "fq_con", 1.0)]
            cells += [(name, "fq_cas", r) for name, r in zip(columns[2:], sweep.FIG2_R_VALUES)]
            for row in rows:
                for column, name, r in cells:
                    want = compute_quantity(name, "bitflip", row["p"], 0.5, xi, (0, 1, 0), (0, 0, r))
                    assert row[column] == want, (row["p"], column)
            return
        point = (kind, 0.3, 0.5)
        axis, probe = (0.6, 0.8, 0.0), (0.0, 0.0, 1.0)
        values = {}
        for name in sweep.QUANTITIES:
            values[name] = compute_quantity(name, *point, xi, axis, probe)
            assert values[name] == compute_quantity(name, *point, reduced, axis, probe)
        assert values["fq_con"] > 0.0
        assert values["fq_joint"] >= max(values["fq_con"], values["fq_cas"]) - 1e-8

        cfg = parse_config(
            f"noise = {kind}\nxi = 1e300\naxis = 0.6,0.8,0\np = 0.3\n"
            "quantities = qc,fq_con,fq_cas,fc_con,fq_joint"
        )
        _, rows = run_sweep(cfg)
        assert rows[0]["xi"] == 1e300
        assert {name: rows[0][name] for name in values} == values

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

    def test_error_names_grid_point(self):
        cfg = SweepConfig(probe=(0.0, 0.0, 2.0), quantities=("qc",), p_grid=(0.2, 0.2, 1.0))
        with pytest.raises(RuntimeError, match="p = 0.2"):
            run_sweep(cfg)


class TestFig2Preset:
    def test_columns_and_rows(self):
        columns, rows = fig2_preset(steps=11)
        assert columns[0] == "p" and columns[1] == "fq_con"
        assert columns[2:] == [
            "fq_cas_r1",
            "fq_cas_r0_8",
            "fq_cas_r0_6",
            "fq_cas_r0_4",
            "fq_cas_r0_2",
        ]
        assert len(rows) == 11

    def test_noise_free_row(self):
        _, rows = fig2_preset(steps=11)
        first = rows[0]
        assert first["p"] == 0.0
        assert first["fq_con"] == 0.0
        for r in (1.0, 0.8, 0.6, 0.4, 0.2):
            name = "fq_cas_r" + f"{r:g}".replace(".", "_")
            assert abs(first[name] - 4 * r * r) < 1e-6

    def test_half_noise_row_is_control_peak(self):
        _, rows = fig2_preset(steps=11)
        middle = rows[5]
        assert middle["p"] == 0.5
        assert abs(middle["fq_con"] - FQ_CON_ANCHOR) < 1e-12
        assert middle["fq_con"] == max(row["fq_con"] for row in rows)

    def test_full_noise_row_vanishes(self):
        _, rows = fig2_preset(steps=11)
        last = rows[-1]
        assert all(abs(last[c]) < 1e-9 for c in last if c != "p")

    def test_control_column_symmetric(self):
        _, rows = fig2_preset(steps=11)
        con = [row["fq_con"] for row in rows]
        assert max(abs(con[i] - con[10 - i]) for i in range(11)) < 1e-12

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError, match="steps"):
            fig2_preset(steps=1)

    def test_rejects_huge_grid(self):
        with pytest.raises(ValueError, match="steps must not exceed 1000000"):
            fig2_preset(steps=10**12)

    def test_rejects_bad_probe_length(self):
        with pytest.raises(ValueError, match="probe"):
            fig2_preset(steps=3, r_values=(1.2,))


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
        rows = [{"p": 0.5, "fq_con": FQ_CON_ANCHOR}]
        assert render_csv(rows) == "p,fq_con\n0.500000000000,0.474930145244\n"

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            render_csv([])

    def test_missing_column_rejected(self):
        with pytest.raises(ValueError, match="missing column"):
            render_csv([{"p": 0.5}], columns=["p", "qc"])

    def test_string_passthrough(self):
        out = render_csv([{"kind": "bitflip", "p": 0.25}])
        assert out == "kind,p\nbitflip,0.250000000000\n"

    def test_deterministic(self):
        _, rows = fig2_preset(steps=5)
        assert render_csv(rows) == render_csv(rows)

    def test_emit_to_path(self, tmp_path):
        target = tmp_path / "out.csv"
        emit_csv([{"p": 1.0}], target)
        assert target.read_bytes() == b"p\n1.00000000000\n"

    @pytest.mark.parametrize("case", range(3))
    def test_matches_per_cell_rule(self, case):
        rows, columns, _, _ = spec_tables()[case]
        assert render_csv(rows, columns) == reference_csv(rows, columns)

    def test_hand_rows_bytes(self):
        rows, columns, _, _ = spec_tables()[2]
        assert render_csv(rows, columns).splitlines()[1:3] == [
            "0.00000000000,3.00000000000,a,1.50000000000,-1.00000000000e-300",
            "0.500000000000,-7.00000000000,2.50000000000,0.00000000000,0.00000000000",
        ]

    def test_no_columns(self):
        assert render_csv([{}, {}]) == "\n\n\n"

    def test_missing_column_in_a_later_row(self):
        with pytest.raises(ValueError, match="row is missing column 'q'"):
            render_csv([{"p": 0.5, "q": 1.0}, {"p": 0.6}])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("first", [0.5, "text"])
    def test_non_finite_rejected(self, bad, first):
        with pytest.raises(ValueError, match=f"^non-finite value {bad} in output$"):
            render_csv([{"p": first}, {"p": bad}])


class TestSvg:
    def test_fig2_plot_styles(self):
        columns, rows = fig2_preset(steps=11)
        svg = render_svg(rows, "p", columns[1:])
        assert svg.startswith("<svg ")
        assert svg.count("<polyline") == 6
        assert svg.count("stroke-dasharray") >= 5 + 5  # 5 dashed lines + legend samples
        # Exactly one series without dashes: the first polyline.
        solid = [ln for ln in svg.splitlines() if ln.startswith("<polyline") and "dash" not in ln]
        assert len(solid) == 1

    def test_single_column(self):
        svg = render_svg([{"x": 0.0, "y": 1.0}, {"x": 1.0, "y": 2.0}], "x", ["y"])
        assert svg.count("<polyline") == 1
        assert "sans-serif" in svg

    def test_deterministic(self):
        _, rows = fig2_preset(steps=5)
        cols = list(rows[0].keys())
        assert render_svg(rows, "p", cols[1:]) == render_svg(rows, "p", cols[1:])

    def test_missing_column(self):
        with pytest.raises(ValueError, match="unknown column"):
            render_svg([{"x": 0.0}, {"x": 1.0}], "x", ["y"])

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="2 rows"):
            render_svg([{"x": 0.0, "y": 0.0}], "x", ["y"])

    @pytest.mark.parametrize("case", range(3))
    def test_points_match_scalar_formulas(self, case):
        rows, _, x_col, y_cols = spec_tables()[case]
        svg = render_svg(rows, x_col, y_cols)
        assert re.findall(r'points="([^"]*)"', svg) == reference_points(rows, x_col, y_cols)

    def test_missing_column_in_a_later_row(self):
        with pytest.raises(ValueError, match="unknown column 'y'"):
            render_svg([{"x": 0.0, "y": 1.0}, {"x": 1.0}], "x", ["y"])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("col", ["x", "y"])
    def test_non_finite_rejected(self, bad, col):
        rows = [{"x": 0.0, "y": 1.0}, {"x": 1.0, "y": 2.0}]
        rows[0][col] = bad
        with pytest.raises(ValueError) as info:
            render_svg(rows, "x", ["y"])
        assert str(info.value) == f"non-finite value {bad} in column {col!r} of the plot"

    def test_emit_writes_rendered_bytes(self, tmp_path):
        rows = [{"x": 0.0, "y": 1.0}, {"x": 1.0, "y": 2.0}]
        csv, svg, path = io.BytesIO(), io.BytesIO(), tmp_path / "plot.svg"
        emit_csv(rows, csv)
        emit_svg(rows, "x", ["y"], svg)
        emit_svg(rows, "x", ["y"], path)
        assert csv.getvalue() == render_csv(rows).encode("utf-8")
        assert svg.getvalue() == path.read_bytes()
        assert svg.getvalue() == render_svg(rows, "x", ["y"]).encode("utf-8")


class TestCli:
    def test_point_prints_anchor(self, capsys):
        code = main(["point", "--noise", "bitflip", "--p", "0.5", "--quantity", "fq_con"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.474930145244"

    def test_point_all_quantities(self, capsys):
        for quantity in ("qc", "fq_con", "fq_cas", "fc_con", "fq_joint"):
            code = main(
                ["point", "--noise", "phaseflip", "--p", "0.3", "--quantity", quantity]
            )
            assert code == 0
            float(capsys.readouterr().out)  # parses as a number

    def test_consecutive_calls_share_no_parsed_state(self, capsys):
        # The parser is built once per process; each call must still print
        # what a freshly built parser would.
        runs = (
            ["point", "--p", "0.3", "--pc", "0.2", "--quantity", "fq_con"],
            ["point", "--p", "0.3", "--quantity", "fq_con"],
            ["fig2", "--steps", "3"],
        )

        def outputs(fresh):
            printed = []
            for argv in runs:
                if fresh:
                    cli._build_parser.cache_clear()
                assert main(argv) == 0
                printed.append(capsys.readouterr().out)
            return printed

        expected = outputs(fresh=True)
        assert expected[0] != expected[1]  # a leaked --pc would show
        assert outputs(fresh=False) == expected
        assert cli._build_parser() is cli._build_parser()

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

    def test_fig2_byte_identical_across_runs_and_threads(self, tmp_path):
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
