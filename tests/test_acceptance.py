"""Acceptance suite: one numbered criterion per test, each at its pinned tolerance.

Criteria 1-4 and 6-9, and the shape clause of criterion 5, assert the
seeded checks of ``icoswitch.selfcheck`` that ``icoswitch verify`` runs, at
verify's seeds, draw counts and tolerances, so the two share one
implementation and one set of draws.  Each check pits an independent route
(explicit Kraus reconstruction, SLD spectral formula, Choi matrix) against
the primary one.  The remaining criterion 5 tests and criterion 10 hold the
``fig2`` output to exact closed-form anchors (such as (15 + 2 sqrt 5)/41),
to the exact Bloch-vector oracle of tests/references.py, and to itself
across runs.

Criterion 5's monotonicity clause holds the cascade columns to what the
physics guarantees.  For p <= 1/2 they must be non-increasing in the noise
level (1e-9 slack).  Past p = 1/2 the bit-flip channel tends to the unitary
sigma_x, under which the cascade sigma_x U sigma_x U is the identity, so the
cascade Fisher information is not monotone there: at xi = pi/5 it has a
local minimum near p = 0.61 and rises by about 2e-3 up to p = 0.69.  For
p > 1/2 each value must instead agree with that Bloch-vector oracle to
1e-6, and every column must vanish at p = 1.
"""

import numpy as np

from icoswitch.cli import main
from icoswitch.selfcheck import (
    check_commuting_degeneracy,
    check_cptp,
    check_depolarizing_invariance,
    check_fig2_shape,
    check_joint_state_oracle,
    check_measurement_optimality,
    check_qc_closed_form,
    check_qc_probe_independence,
    check_qfi_closed_vs_sld,
    check_symmetry_and_limits,
)
from icoswitch.sweep import fig2_preset
from references import FQ_CON_ANCHOR, XI, cascade_bloch_oracle

R_VALUES = (1.0, 0.8, 0.6, 0.4, 0.2)


def _report(number: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE criterion {number} ({name}): PASS -- {detail}")


def _cas_cols():
    return ["fq_cas_r1", "fq_cas_r0_8", "fq_cas_r0_6", "fq_cas_r0_4", "fq_cas_r0_2"]


def test_criterion_01_joint_state_oracle_equivalence():
    res = check_joint_state_oracle()
    assert res.passed, res.detail
    _report(1, "joint-state oracle equivalence", res.detail)


def test_criterion_02_coupling_closed_form_and_probe_independence():
    closed = check_qc_closed_form()
    assert closed.passed, closed.detail
    probes = check_qc_probe_independence()
    assert probes.passed, probes.detail
    _report(2, "coupling scalar closed form", f"{closed.detail}; {probes.detail}")


def test_criterion_03_control_qfi_closed_form_vs_sld():
    res = check_qfi_closed_vs_sld()
    assert res.passed, res.detail
    _report(3, "control QFI closed form vs SLD", res.detail)


def test_criterion_04_measurement_optimality():
    res = check_measurement_optimality()
    assert res.passed, res.detail
    _report(4, "Hadamard measurement optimality", res.detail)


def test_criterion_05_fig2_anchor_rows():
    table = fig2_preset(steps=11, xi=XI)
    p, con = table["p"], table["fq_con"]
    assert len(p) == 11 and p[5] == 0.5
    assert con[0] == 0.0
    assert abs(con[5] - FQ_CON_ANCHOR) < 1e-6
    assert con[10] == 0.0
    for r, col in zip(R_VALUES, _cas_cols()):
        assert abs(table[col][0] - 4.0 * r * r) < 1e-6
    _report(
        5,
        "comparison-figure anchors",
        f"fq_con(0) = 0, fq_con(0.5) = {con[5]:.12g}, fq_con(1) = 0; "
        "fq_cas(0, r) = 4 r^2 for all five r",
    )


def test_criterion_05_cascade_monotonicity():
    table = fig2_preset(steps=11, xi=XI)
    p = table["p"]
    low, high = np.flatnonzero(p <= 0.5), np.flatnonzero(p > 0.5)
    assert len(low) == 6 and len(high) == 5

    violations = []
    for col in _cas_cols():
        for prev, cur in zip(low, low[1:]):
            if table[col][cur] > table[col][prev] + 1e-9:
                violations.append((col, p[prev], table[col][cur] - table[col][prev]))
    assert not violations, f"cascade column rises for p <= 1/2: {violations}"

    worst = 0.0
    for r, col in zip(R_VALUES, _cas_cols()):
        for i in high:
            worst = max(worst, abs(table[col][i] - cascade_bloch_oracle(p[i], r, XI)))
        assert table[col][-1] < 1e-9
    assert worst < 1e-6
    _report(
        5,
        "cascade monotonicity",
        "all cascade columns non-increasing for p <= 1/2; "
        f"max |fq_cas - Bloch oracle| {worst:.3e} for p > 1/2; zero at p = 1",
    )


def test_criterion_05_high_noise_crossover():
    table = fig2_preset(steps=11, xi=XI)
    for index in (6, 7, 8, 9):  # grid points p = 0.6, 0.7, 0.8, 0.9
        assert abs(table["p"][index] - index / 10) < 1e-12
        for col in _cas_cols():
            assert table["fq_con"][index] > table[col][index]
    res = check_fig2_shape()
    assert res.passed, res.detail
    _report(
        5,
        "high-noise crossover",
        f"fq_con exceeds every cascade column at p in {{0.6, 0.7, 0.8, 0.9}}; {res.detail}",
    )


def test_criterion_06_commuting_kraus_degeneracy():
    res = check_commuting_degeneracy()
    assert res.passed, res.detail
    _report(6, "commuting-Kraus degeneracy", res.detail)


def test_criterion_07_cptp_validity():
    res = check_cptp()
    assert res.passed, res.detail
    _report(7, "switched-channel CPTP validity", res.detail)


def test_criterion_08_depolarizing_independence():
    res = check_depolarizing_invariance()
    assert res.passed, res.detail
    _report(8, "depolarizing probe/axis independence", res.detail)


def test_criterion_09_symmetry_and_small_phase_limit():
    res = check_symmetry_and_limits()
    assert res.passed, res.detail
    _report(9, "noise symmetry and small-phase limit", res.detail)


def test_criterion_10_deterministic_csv(tmp_path):
    paths = [tmp_path / f"fig2_{tag}.csv" for tag in ("a", "b", "c")]
    for path in paths:
        assert main(["fig2", "--out", str(path)]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    assert len(blobs[0].splitlines()) == 202  # header + 201 grid rows
    _report(
        10,
        "deterministic CSV",
        "byte-identical output across three runs",
    )
