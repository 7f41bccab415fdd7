"""Seeded oracle-equivalence and invariant suite behind `verify` and the acceptance criteria.

Each check pits an independent construction against the primary one
(closed form vs matrix trace, direct joint state vs explicit Kraus set,
closed-form Fisher information vs the numeric SLD route) or asserts a
structural invariant (complete positivity, probe independence, symmetry).
All randomness is seeded, so a pass/fail outcome is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import (
    PauliAxis,
    bloch_to_density,
    depolarizing_channel,
    noisy_phase_channel,
    pauli_channel,
)
from .engine import (
    PAULI_OF_KIND,
    cascade_qfi_grid,
    evaluate_grid,
    noise_contraction,
    switch_state_grid,
)
from .metrology import (
    cfi_control,
    control_family,
    qfi_cascade,
    qfi_control,
    qfi_control_opt,
    qfi_numeric,
)
from .qmat import channel_choi, herm_eig
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


def _rand_axis(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _rand_bloch(rng) -> np.ndarray:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * rng.uniform() ** (1.0 / 3.0)


def _rand_pauli(rng) -> PauliAxis:
    return (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)[rng.integers(3)]


def check_joint_state_oracle() -> CheckResult:
    """Direct joint output equals the explicit W_jk Kraus reconstruction.

    Every tenth draw also holds the grid engine's joint state to it.
    """
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    engine_diff = 0.0
    for i in range(200):
        pauli, p, axis = _rand_pauli(rng), rng.uniform(), _rand_axis(rng)
        xi = rng.uniform(0.0, 2.0 * np.pi)
        ch = noisy_phase_channel(pauli_channel(pauli, p), axis, xi)
        probe = _rand_bloch(rng)
        rho = bloch_to_density(probe)
        p_c = rng.uniform()
        direct = switch_state(ch, rho, p_c).joint
        oracle = switch_kraus_apply(ch, rho, p_c)
        worst = max(worst, float(np.max(np.abs(direct - oracle))))
        if i % 10 == 0:
            engine = switch_state_grid(_KIND_OF_PAULI[pauli], [p], p_c, xi, axis, probe)[0][0]
            engine_diff = max(engine_diff, float(np.max(np.abs(engine - oracle))))
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
    worst = 0.0
    for _ in range(1000):
        pauli = _rand_pauli(rng)
        p = rng.uniform()
        xi = rng.uniform(0.0, 2.0 * np.pi)
        axis = _rand_axis(rng)
        ch = noisy_phase_channel(pauli_channel(pauli, p), axis, xi)
        got = qc_numeric(ch, bloch_to_density(_rand_bloch(rng)))
        want = qc_closed_form(p, xi, axis[pauli.index])
        worst = max(worst, abs(got - want))
    return _result(
        "coupling scalar closed form", worst < 1e-10, ("max |diff|", worst), " over 1000 draws"
    )


def check_qc_probe_independence() -> CheckResult:
    """The coupling scalar does not depend on the input probe (Pauli noise)."""
    rng = np.random.default_rng(_SEED + 2)
    worst = 0.0
    for _ in range(5):
        ch = noisy_phase_channel(
            pauli_channel(_rand_pauli(rng), rng.uniform()),
            _rand_axis(rng),
            rng.uniform(0.0, 2.0 * np.pi),
        )
        values = [qc_numeric(ch, bloch_to_density(_rand_bloch(rng))) for _ in range(50)]
        worst = max(worst, max(values) - min(values))
    return _result(
        "coupling probe independence",
        worst < 1e-10,
        ("max spread", worst),
        " over 5 x 50 probes",
    )


def check_qfi_closed_vs_sld() -> CheckResult:
    """Control-qubit QFI: closed form and grid engine both match the numeric SLD route."""
    rng = np.random.default_rng(_SEED + 3)
    worst = 0.0
    engine_diff = 0.0
    for _ in range(200):
        pauli = _rand_pauli(rng)
        p = rng.uniform()
        p_c = rng.uniform()
        xi = rng.uniform(0.0, 2.0 * np.pi)
        axis = _rand_axis(rng)
        noise = pauli_channel(pauli, p)
        probe = _rand_bloch(rng)
        numeric = qfi_numeric(control_family(noise, axis, bloch_to_density(probe), p_c), xi).value
        closed = qfi_control(p_c, p, xi, axis[pauli.index]).value
        engine = evaluate_grid(("fq_con",), _KIND_OF_PAULI[pauli], [p], p_c, xi, axis, probe)
        worst = max(worst, abs(numeric - closed))
        engine_diff = max(engine_diff, abs(numeric - float(engine["fq_con"][0])))
    return _result(
        "control QFI closed form vs SLD",
        worst < 1e-6 and engine_diff < 1e-6,
        ("max |diff|", worst),
        " over 200 draws; ",
        ("max |engine - SLD|", engine_diff),
    )


def check_measurement_optimality() -> CheckResult:
    """Hadamard-measurement CFI at p_c = 1/2 attains the QFI; p_c = 1/2 is argmax."""
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 20):
        for xi in np.linspace(0.0, 2.0 * np.pi, 20):
            worst = max(
                worst,
                abs(cfi_control(0.5, p, xi, 0.0).value - qfi_control_opt(p, xi, 0.0).value),
            )
    grid = np.arange(0.05, 0.96, 0.05)
    argmax_ok = True
    for p, xi, nl in ((0.3, 0.7, 0.0), (0.5, np.pi / 5, 0.2), (0.8, 2.0, -0.4)):
        values = [qfi_control(pc, p, xi, nl).value for pc in grid]
        argmax_ok &= abs(grid[int(np.argmax(values))] - 0.5) < 1e-12
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
    worst = 0.0
    for _ in range(20):
        p = rng.uniform()
        xi = rng.uniform(0.0, 2.0 * np.pi)
        ch = noisy_phase_channel(pauli_channel(PauliAxis.X, p), (1.0, 0.0, 0.0), xi)
        rho = bloch_to_density(_rand_bloch(rng))
        worst = max(worst, float(np.max(np.abs(s01(ch, rho) - s00(ch, rho)))))
    zero = qfi_control_opt(0.37, 1.234, 1.0).value
    axis = (0.0, 1.0, 0.0)
    flip_diff = max(
        abs(
            qfi_control_opt(p, np.pi / 5, axis[PauliAxis.X.index]).value
            - qfi_control_opt(p, np.pi / 5, axis[PauliAxis.Z.index]).value
        )
        for p in np.linspace(0.0, 1.0, 11)
    )
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
    worst_eig = 0.0
    worst_comp = 0.0
    for _ in range(50):
        ch = noisy_phase_channel(
            pauli_channel(_rand_pauli(rng), rng.uniform()),
            _rand_axis(rng),
            rng.uniform(0.0, 2.0 * np.pi),
        )
        ops = switch_kraus_ops(ch)
        total = sum(w.conj().T @ w for w in ops)
        worst_comp = max(worst_comp, float(np.max(np.abs(total - np.eye(4)))))
        smallest = herm_eig(channel_choi(ops)).eigenvalues[0]
        worst_eig = min(worst_eig, float(smallest))
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
    noise = depolarizing_channel(0.4)
    xi = np.pi / 5
    rho = bloch_to_density((0.1, 0.2, 0.3))
    values = [
        qfi_numeric(control_family(noise, _rand_axis(rng), rho, 0.5), xi).value
        for _ in range(20)
    ]
    values += [
        qfi_numeric(
            control_family(noise, (0.0, 1.0, 0.0), bloch_to_density(_rand_bloch(rng)), 0.5), xi
        ).value
        for _ in range(20)
    ]
    spread = max(values) - min(values)
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
    worst = 0.0
    for _ in range(100):
        p = rng.uniform()
        xi = rng.uniform(0.0, 2.0 * np.pi)
        nl = rng.uniform(-1.0, 1.0)
        worst = max(
            worst, abs(qfi_control_opt(p, xi, nl).value - qfi_control_opt(1.0 - p, xi, nl).value)
        )
    exact_ok = True
    worst_limit = 0.0
    for p, nl in ((0.5, 0.0), (0.3, 0.4), (0.8, -0.6)):
        want = 2.0 * (1.0 - nl**2) * ((1.0 - p) * p)
        exact_ok &= qfi_control_opt(p, 0.0, nl).value == want
        axis = (nl, np.sqrt(1.0 - nl * nl), 0.0)
        family = control_family(
            pauli_channel(PauliAxis.X, p), axis, bloch_to_density((0.0, 0.0, 0.5)), 0.5
        )
        worst_limit = max(worst_limit, abs(qfi_numeric(family, 1e-4).value - want))
    return _result(
        "p <-> 1-p symmetry and small-phase limit",
        worst < 1e-12 and exact_ok and worst_limit < 1e-4,
        ("max symmetry residual", worst),
        f" over 100 draws; closed-form limit exact: {exact_ok}; ",
        ("SLD limit at xi = 1e-4", worst_limit, "{} within {:.3e}"),
    )


def check_fig2_shape() -> CheckResult:
    """Control column symmetric about p = 1/2, peaked there, above the cascade at high noise.

    The 20 crossover points also hold the batched cascade engine against
    the SLD route, to 1e-6.
    """
    xi = np.pi / 5
    ps = np.linspace(0.0, 1.0, 11)
    con = [qfi_control_opt(p, xi, 0.0).value for p in ps]
    sym = max(abs(con[i] - con[10 - i]) for i in range(11))
    peak_ok = int(np.argmax(con)) == 5
    cross_ok = True
    engine_diff = 0.0
    high = (0.6, 0.7, 0.8, 0.9)
    contraction = noise_contraction("bitflip", high)
    for r in (1.0, 0.8, 0.6, 0.4, 0.2):
        engine = cascade_qfi_grid(contraction, (0.0, 1.0, 0.0), xi, (0.0, 0.0, r))
        for p, fast in zip(high, engine):
            cas = qfi_cascade(pauli_channel(PauliAxis.X, p), (0.0, 1.0, 0.0), xi, (0.0, 0.0, r)).value
            cross_ok &= qfi_control_opt(p, xi, 0.0).value > cas
            engine_diff = max(engine_diff, abs(fast - cas))
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
