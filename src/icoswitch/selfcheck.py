"""Seeded oracle-equivalence and invariant suite behind `verify` and the acceptance criteria.

Each check pits an independent construction against the primary one
(closed form vs matrix trace, direct joint state vs explicit Kraus set,
closed-form Fisher information vs the numeric SLD route) or asserts a
structural invariant (complete positivity, probe independence, symmetry).
All randomness is seeded, so a pass/fail outcome is reproducible.  A
check with random draws seeds its own generator and draws each parameter
for all its draws as one array, the parameters in the order its code names
them: Pauli letters from integers, levels and phases uniform, axes as
normalised normals, Bloch vectors as such axes times radii u^(1/3).  It
hands the whole stack to the density-matrix routes and to the closed forms
in one call each; only the per-draw grid-engine comparisons stay in a loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import bloch_to_density, depolarizing_channel, noisy_phase_channel, pauli_channel
from .engine import PAULI_OF_KIND, evaluate_grid, switch_state_grid
from .metrology import (
    cfi_control,
    control_family,
    qfi_cascade,
    qfi_control,
    qfi_numeric,
)
from .qmat import channel_choi, dagger, herm_eig
from .switch import (
    qc_closed_form,
    qc_numeric,
    s00,
    s01,
    switch_kraus_apply,
    switch_kraus_ops,
    switch_state,
)

_SEED = 20230536
_KIND_OF_PAULI = {pauli: kind for kind, pauli in PAULI_OF_KIND.items()}
_LETTERS = np.array(["x", "y", "z"])


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome.  ``values`` pairs each number the detail line
    prints with the label that precedes it there."""

    name: str
    passed: bool
    detail: str
    values: tuple[tuple[str, float], ...] = ()


_NUMBER = "{} = {:.3e}"


def _result(name: str, passed: bool, *parts) -> CheckResult:
    """Build a result whose detail line and ``values`` come from one list.

    A part is literal text or a ``(label, value)`` pair, printed as
    ``label = value`` to four significant digits; a third item replaces
    that template, e.g. ``"{} within {:.3e}"``.
    """
    text, values = [], []
    for part in parts:
        if isinstance(part, str):
            text.append(part)
            continue
        label, value, *template = part
        text.append((template[0] if template else _NUMBER).format(label, value))
        values.append((label, float(value)))
    return CheckResult(name, passed, "".join(text), tuple(values))


def _axes(rng, *shape) -> np.ndarray:
    """Random unit 3-vectors of batch ``shape``, uniform on the sphere: one normal draw."""
    v = rng.normal(size=(*shape, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _blochs(rng, *shape) -> np.ndarray:
    """Random Bloch vectors of batch ``shape``, uniform in the ball: axes, then radii."""
    return _axes(rng, *shape) * rng.uniform(size=(*shape, 1)) ** (1.0 / 3.0)


def _paulis(rng, n: int) -> np.ndarray:
    """``n`` random Pauli letters."""
    return _LETTERS[rng.integers(3, size=n)]


def _overlap(pauli: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Each axis's component along its Pauli."""
    return axis[pauli[:, None] == _LETTERS]


def check_joint_state_oracle() -> CheckResult:
    """Direct joint output equals the explicit W_jk Kraus reconstruction.

    Every tenth draw also holds the grid engine's joint state to it.
    """
    rng = np.random.default_rng(_SEED)
    pauli, p, axis = _paulis(rng, 200), rng.uniform(size=200), _axes(rng, 200)
    xi, probe, p_c = rng.uniform(0.0, 2.0 * np.pi, 200), _blochs(rng, 200), rng.uniform(size=200)
    ch = noisy_phase_channel(pauli_channel(pauli, p), axis, xi)
    rho = bloch_to_density(probe)
    oracle = switch_kraus_apply(ch, rho, p_c)
    worst = float(np.max(np.abs(switch_state(ch, rho, p_c).joint - oracle)))
    every_tenth = zip(pauli[::10], p[::10], p_c[::10], xi[::10], axis[::10], probe[::10])
    engine = [
        switch_state_grid(_KIND_OF_PAULI[letter], [level], *rest)[0][0]
        for letter, level, *rest in every_tenth
    ]
    engine_diff = float(np.max(np.abs(engine - oracle[::10])))
    return _result(
        "joint state vs Kraus oracle",
        worst < 1e-12 and engine_diff < 1e-12,
        ("max |diff|", worst),
        " over 200 draws; ",
        ("max |engine - Kraus|", engine_diff),
        " on 20 draws",
    )


def check_qc_closed_form() -> CheckResult:
    """Trace of the order-interference term equals the Pauli closed form."""
    rng = np.random.default_rng(_SEED + 1)
    pauli, p, xi = _paulis(rng, 1000), rng.uniform(size=1000), rng.uniform(0.0, 2.0 * np.pi, 1000)
    axis, probe = _axes(rng, 1000), _blochs(rng, 1000)
    ch = noisy_phase_channel(pauli_channel(pauli, p), axis, xi)
    got = qc_numeric(ch, bloch_to_density(probe))
    worst = float(np.max(np.abs(got - qc_closed_form(p, xi, _overlap(pauli, axis)))))
    return _result(
        "coupling scalar closed form", worst < 1e-10, ("max |diff|", worst), " over 1000 draws"
    )


def check_qc_probe_independence() -> CheckResult:
    """The coupling scalar does not depend on the input probe (Pauli noise)."""
    rng = np.random.default_rng(_SEED + 2)
    pauli, p, axis = _paulis(rng, 5), rng.uniform(size=5), _axes(rng, 5)
    xi, probes = rng.uniform(0.0, 2.0 * np.pi, 5), _blochs(rng, 5, 50)
    # Channels of batch shape (5, 1) against probes of (5, 50): row i is channel i.
    ch = noisy_phase_channel(pauli_channel(pauli[:, None], p[:, None]), axis[:, None], xi[:, None])
    values = qc_numeric(ch, bloch_to_density(probes))
    worst = float(np.max(values.max(axis=1) - values.min(axis=1)))
    return _result(
        "coupling probe independence",
        worst < 1e-10,
        ("max spread", worst),
        " over 5 x 50 probes",
    )


def check_qfi_closed_vs_sld() -> CheckResult:
    """Control-qubit QFI: the closed form, the grid engine's fq_con, matches the SLD route."""
    rng = np.random.default_rng(_SEED + 3)
    pauli, p, p_c = _paulis(rng, 200), rng.uniform(size=200), rng.uniform(size=200)
    xi, axis, probe = rng.uniform(0.0, 2.0 * np.pi, 200), _axes(rng, 200), _blochs(rng, 200)
    family = control_family(pauli_channel(pauli, p), axis, bloch_to_density(probe), p_c)
    closed = qfi_control(p_c, p, xi, _overlap(pauli, axis))
    worst = float(np.max(np.abs(qfi_numeric(family, xi) - closed)))
    return _result(
        "control QFI closed form vs SLD", worst < 1e-6, ("max |diff|", worst), " over 200 draws"
    )


def check_measurement_optimality() -> CheckResult:
    """Hadamard-measurement CFI at p_c = 1/2 attains the QFI; p_c = 1/2 is argmax."""
    p, xi = np.meshgrid(np.linspace(0.0, 1.0, 20), np.linspace(0.0, 2.0 * np.pi, 20), indexing="ij")
    worst = float(np.max(np.abs(cfi_control(0.5, p, xi, 0.0) - qfi_control(0.5, p, xi, 0.0))))
    grid = np.arange(0.05, 0.96, 0.05)
    # One row of p_c values per case (p, xi, n_l).
    p, xi, nl = np.array([(0.3, 0.7, 0.0), (0.5, np.pi / 5, 0.2), (0.8, 2.0, -0.4)]).T[..., None]
    values = qfi_control(grid, p, xi, nl)
    argmax_ok = bool((abs(grid[np.argmax(values, axis=1)] - 0.5) < 1e-12).all())
    return _result(
        "Hadamard measurement optimality",
        worst < 1e-9 and argmax_ok,
        ("max |cfi - qfi|", worst),
        f" on 20x20 grid; argmax at 0.5: {argmax_ok}",
    )


def check_commuting_degeneracy() -> CheckResult:
    """Noise axis aligned with the rotation axis collapses the switch to the cascade.

    Also: bit flip and phase flip, both at axis e_y, have zero overlap
    between rotation axis and noise direction, hence equal efficiencies,
    though the overlap comes from different axis components (n_x, n_z).
    """
    rng = np.random.default_rng(_SEED + 4)
    p, xi, probe = rng.uniform(size=20), rng.uniform(0.0, 2.0 * np.pi, 20), _blochs(rng, 20)
    ch = noisy_phase_channel(pauli_channel("x", p), (1.0, 0.0, 0.0), xi)
    rho = bloch_to_density(probe)
    worst = float(np.max(np.abs(s01(ch, rho) - s00(ch, rho))))
    zero = qfi_control(0.5, 0.37, 1.234, 1.0)
    axis = (0.0, 1.0, 0.0)
    overlaps = np.array([[axis[0]], [axis[2]]])  # along sigma_x, then along sigma_z
    bit, phase = qfi_control(0.5, np.linspace(0.0, 1.0, 11), np.pi / 5, overlaps)
    flip_diff = float(np.max(np.abs(bit - phase)))
    return _result(
        "commuting-noise degeneracy",
        worst < 1e-12 and zero == 0.0 and flip_diff < 1e-12,
        ("max |s01 - s00|", worst),
        "; ",
        ("aligned-axis QFI", zero, "{} = {}"),
        "; ",
        ("bit-flip vs phase-flip at e_y", flip_diff),
        " on 11 noise levels",
    )


def check_cptp() -> CheckResult:
    """The switched channel is completely positive and trace preserving."""
    rng = np.random.default_rng(_SEED + 5)
    pauli, p, axis = _paulis(rng, 50), rng.uniform(size=50), _axes(rng, 50)
    xi = rng.uniform(0.0, 2.0 * np.pi, 50)
    ops = switch_kraus_ops(noisy_phase_channel(pauli_channel(pauli, p), axis, xi))
    total = (dagger(ops) @ ops).sum(axis=-3)
    worst_comp = float(np.max(np.abs(total - np.eye(4))))
    worst_eig = min(0.0, float(np.min(herm_eig(channel_choi(ops)).eigenvalues[..., 0])))
    return _result(
        "switched channel CPTP",
        worst_eig > -1e-10 and worst_comp < 1e-10,
        ("min Choi eigenvalue", worst_eig),
        ", ",
        ("completeness residual", worst_comp),
    )


def check_depolarizing_invariance() -> CheckResult:
    """Depolarizing noise: control QFI independent of both axis and probe.

    20 random axes at the fixed probe (0.1, 0.2, 0.3), then 20 random
    probes at the fixed axis e_y; the spread is taken over all 40 values.
    """
    rng = np.random.default_rng(_SEED + 6)
    axes = np.concatenate((_axes(rng, 20), np.tile((0.0, 1.0, 0.0), (20, 1))))
    probes = np.concatenate((np.tile((0.1, 0.2, 0.3), (20, 1)), _blochs(rng, 20)))
    family = control_family(depolarizing_channel(0.4), axes, bloch_to_density(probes), 0.5)
    values = qfi_numeric(family, np.pi / 5)
    spread = float(values.max() - values.min())
    return _result(
        "depolarizing probe/axis independence",
        spread < 1e-8,
        ("spread", spread),
        " over 20 random axes and 20 random probes",
    )


def check_symmetry_and_limits() -> CheckResult:
    """Noise-level p <-> 1-p symmetry and the analytic small-phase limit.

    The closed form at xi = 0 must equal 2 (1 - n_l^2) (1 - p) p exactly;
    the SLD route at xi = 1e-4 must come within 1e-4 of it.
    """
    rng = np.random.default_rng(_SEED + 7)
    p, xi = rng.uniform(size=100), rng.uniform(0.0, 2.0 * np.pi, 100)
    nl = rng.uniform(-1.0, 1.0, 100)
    both = qfi_control(0.5, np.stack((p, 1.0 - p)), xi, nl)
    worst = float(np.max(np.abs(both[0] - both[1])))
    cases = ((0.5, 0.0), (0.3, 0.4), (0.8, -0.6))
    wants = [2.0 * (1.0 - nl**2) * ((1.0 - p) * p) for p, nl in cases]
    levels, nls = zip(*cases)
    exact_ok = bool((qfi_control(0.5, levels, 0.0, nls) == wants).all())
    axes = [(nl, np.sqrt(1.0 - nl * nl), 0.0) for nl in nls]
    family = control_family(
        pauli_channel("x", levels), axes, bloch_to_density((0.0, 0.0, 0.5)), 0.5
    )
    worst_limit = float(np.max(np.abs(qfi_numeric(family, 1e-4) - wants)))
    return _result(
        "p <-> 1-p symmetry and small-phase limit",
        worst < 1e-12 and exact_ok and worst_limit < 1e-4,
        ("max symmetry residual", worst),
        f" over 100 draws; closed-form limit exact: {exact_ok}; ",
        ("SLD limit at xi = 1e-4", worst_limit, "{} within {:.3e}"),
    )


def check_fig2_shape() -> CheckResult:
    """Control column symmetric about p = 1/2, peaked there, above the cascade at high noise.

    The 20 crossover points also hold the engine's fq_cas column, one
    evaluate_grid call per probe length as in fig2, against the SLD route,
    to 1e-6.
    """
    xi = np.pi / 5
    ps = np.linspace(0.0, 1.0, 11)
    con = qfi_control(0.5, ps, xi, 0.0)
    sym = float(np.max(np.abs(con - con[::-1])))
    peak_ok = int(np.argmax(con)) == 5
    high = (0.6, 0.7, 0.8, 0.9)
    probes = [(0.0, 0.0, r) for r in (1.0, 0.8, 0.6, 0.4, 0.2)]
    # Channels of batch shape (4,) against probes of (5, 1): row i is probe i.
    cas = qfi_cascade(pauli_channel("x", high), (0.0, 1.0, 0.0), xi, np.array(probes)[:, None])
    cross_ok = bool((qfi_control(0.5, high, xi, 0.0) > cas).all())
    engine = [
        evaluate_grid(("fq_cas",), "bitflip", high, 0.5, xi, (0.0, 1.0, 0.0), probe)["fq_cas"]
        for probe in probes
    ]
    engine_diff = float(np.max(np.abs(np.array(engine) - cas)))
    return _result(
        "control-vs-cascade comparison shape",
        sym < 1e-12 and peak_ok and cross_ok and engine_diff < 1e-6,
        ("symmetry residual", sym),
        f"; peak at p = 0.5: {peak_ok}; high-noise crossover: {cross_ok}; ",
        ("max |engine - SLD|", engine_diff),
        " on 20 points",
    )


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_joint_state_oracle,
    check_qc_closed_form,
    check_qc_probe_independence,
    check_qfi_closed_vs_sld,
    check_measurement_optimality,
    check_commuting_degeneracy,
    check_cptp,
    check_depolarizing_invariance,
    check_symmetry_and_limits,
    check_fig2_shape,
)


def run_all_checks() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
