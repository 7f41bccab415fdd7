"""Seeded oracle-equivalence and invariant suite behind `verify` and the acceptance criteria.

Each check pits an independent construction against the primary one
(closed form vs matrix trace, direct joint state vs explicit Kraus set,
closed-form Fisher information vs the numeric SLD route) or asserts a
structural invariant (complete positivity, probe independence, symmetry).
All randomness is seeded, so a pass/fail outcome is reproducible.  A
check that loops over random draws makes them all first, in a fixed order,
and then hands the whole stack to the density-matrix routes in one call;
only the per-draw grid-engine comparisons stay in a loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import (
    KrausChannel,
    PauliAxis,
    bloch_to_density,
    depolarizing_channel,
    noisy_phase_channel,
    pauli_channel,
)
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


def _draws(count: int, draw: Callable[[], tuple], **fields) -> np.ndarray:
    """``count`` calls of ``draw`` in order, as a structured array with one field per item.

    ``fields`` names the items of the tuple ``draw`` returns, in order, with
    their dtypes (a PauliAxis is an object, a 3-vector ``(float, 3)``).  The
    draws are written into the array as they are made.
    """
    return np.fromiter((draw() for _ in range(count)), dtype=list(fields.items()), count=count)


_VEC = (np.float64, 3)


def _noisy_pauli(d: np.ndarray) -> KrausChannel:
    """The noisy phase channels of the draws' ``pauli``, ``p``, ``axis`` and ``xi`` fields."""
    return noisy_phase_channel(pauli_channel(d["pauli"], d["p"]), d["axis"], d["xi"])


def check_joint_state_oracle() -> CheckResult:
    """Direct joint output equals the explicit W_jk Kraus reconstruction.

    Every tenth draw also holds the grid engine's joint state to it.
    """
    rng = np.random.default_rng(_SEED)
    d = _draws(
        200,
        lambda: (_rand_pauli(rng), rng.uniform(), _rand_axis(rng), rng.uniform(0.0, 2.0 * np.pi),
                 _rand_bloch(rng), rng.uniform()),
        pauli=object, p=float, axis=_VEC, xi=float, probe=_VEC, p_c=float,
    )  # fmt: skip
    ch = _noisy_pauli(d)
    rho = bloch_to_density(d["probe"])
    oracle = switch_kraus_apply(ch, rho, d["p_c"])
    worst = float(np.max(np.abs(switch_state(ch, rho, d["p_c"]).joint - oracle)))
    engine = [
        switch_state_grid(_KIND_OF_PAULI[pauli], [p], p_c, xi, axis, probe)[0][0]
        for pauli, p, axis, xi, probe, p_c in d[::10]
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
    d = _draws(
        1000,
        lambda: (_rand_pauli(rng), rng.uniform(), rng.uniform(0.0, 2.0 * np.pi), _rand_axis(rng),
                 _rand_bloch(rng)),
        pauli=object, p=float, xi=float, axis=_VEC, probe=_VEC,
    )  # fmt: skip
    got = qc_numeric(_noisy_pauli(d), bloch_to_density(d["probe"]))
    want = [qc_closed_form(p, xi, axis[pauli.index]) for pauli, p, xi, axis, _ in d]
    worst = float(np.max(np.abs(got - want)))
    return _result(
        "coupling scalar closed form", worst < 1e-10, ("max |diff|", worst), " over 1000 draws"
    )


def check_qc_probe_independence() -> CheckResult:
    """The coupling scalar does not depend on the input probe (Pauli noise)."""
    rng = np.random.default_rng(_SEED + 2)
    d = _draws(
        5,
        lambda: (_rand_pauli(rng), rng.uniform(), _rand_axis(rng), rng.uniform(0.0, 2.0 * np.pi),
                 [_rand_bloch(rng) for _ in range(50)]),
        pauli=object, p=float, axis=_VEC, xi=float, probes=(np.float64, (50, 3)),
    )  # fmt: skip
    # Channels of batch shape (5, 1) against probes of (5, 50): row i is channel i.
    d = d[:, None]
    values = qc_numeric(_noisy_pauli(d), bloch_to_density(d["probes"][:, 0]))
    worst = float(np.max(values.max(axis=1) - values.min(axis=1)))
    return _result(
        "coupling probe independence",
        worst < 1e-10,
        ("max spread", worst),
        " over 5 x 50 probes",
    )


def check_qfi_closed_vs_sld() -> CheckResult:
    """Control-qubit QFI: closed form and grid engine both match the numeric SLD route."""
    rng = np.random.default_rng(_SEED + 3)
    d = _draws(
        200,
        lambda: (_rand_pauli(rng), rng.uniform(), rng.uniform(), rng.uniform(0.0, 2.0 * np.pi),
                 _rand_axis(rng), _rand_bloch(rng)),
        pauli=object, p=float, p_c=float, xi=float, axis=_VEC, probe=_VEC,
    )  # fmt: skip
    rho = bloch_to_density(d["probe"])
    family = control_family(pauli_channel(d["pauli"], d["p"]), d["axis"], rho, d["p_c"])
    numeric = qfi_numeric(family, d["xi"])
    closed = [qfi_control(p_c, p, xi, axis[pauli.index]) for pauli, p, p_c, xi, axis, _ in d]
    engine = [
        evaluate_grid(("fq_con",), _KIND_OF_PAULI[pauli], [p], p_c, xi, axis, probe)["fq_con"][0]
        for pauli, p, p_c, xi, axis, probe in d
    ]
    worst = float(np.max(np.abs(numeric - closed)))
    engine_diff = float(np.max(np.abs(numeric - engine)))
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
            worst = max(worst, abs(cfi_control(0.5, p, xi, 0.0) - qfi_control(0.5, p, xi, 0.0)))
    grid = np.arange(0.05, 0.96, 0.05)
    argmax_ok = True
    for p, xi, nl in ((0.3, 0.7, 0.0), (0.5, np.pi / 5, 0.2), (0.8, 2.0, -0.4)):
        values = [qfi_control(pc, p, xi, nl) for pc in grid]
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
    d = _draws(
        20,
        lambda: (rng.uniform(), rng.uniform(0.0, 2.0 * np.pi), _rand_bloch(rng)),
        p=float, xi=float, probe=_VEC,
    )  # fmt: skip
    ch = noisy_phase_channel(pauli_channel(PauliAxis.X, d["p"]), (1.0, 0.0, 0.0), d["xi"])
    rho = bloch_to_density(d["probe"])
    worst = float(np.max(np.abs(s01(ch, rho) - s00(ch, rho))))
    zero = qfi_control(0.5, 0.37, 1.234, 1.0)
    axis = (0.0, 1.0, 0.0)
    flip_diff = max(
        abs(
            qfi_control(0.5, p, np.pi / 5, axis[PauliAxis.X.index])
            - qfi_control(0.5, p, np.pi / 5, axis[PauliAxis.Z.index])
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
    d = _draws(
        50,
        lambda: (_rand_pauli(rng), rng.uniform(), _rand_axis(rng), rng.uniform(0.0, 2.0 * np.pi)),
        pauli=object, p=float, axis=_VEC, xi=float,
    )  # fmt: skip
    ops = switch_kraus_ops(_noisy_pauli(d))
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
    axes = [_rand_axis(rng) for _ in range(20)] + [(0.0, 1.0, 0.0)] * 20
    probes = [(0.1, 0.2, 0.3)] * 20 + [_rand_bloch(rng) for _ in range(20)]
    rho = bloch_to_density(probes)
    family = control_family(depolarizing_channel(0.4), np.array(axes), rho, 0.5)
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
    worst = 0.0
    for _ in range(100):
        p = rng.uniform()
        xi = rng.uniform(0.0, 2.0 * np.pi)
        nl = rng.uniform(-1.0, 1.0)
        worst = max(worst, abs(qfi_control(0.5, p, xi, nl) - qfi_control(0.5, 1.0 - p, xi, nl)))
    cases = ((0.5, 0.0), (0.3, 0.4), (0.8, -0.6))
    wants = [2.0 * (1.0 - nl**2) * ((1.0 - p) * p) for p, nl in cases]
    exact_ok = all(qfi_control(0.5, p, 0.0, nl) == w for (p, nl), w in zip(cases, wants))
    levels, nls = zip(*cases)
    axes = [(nl, np.sqrt(1.0 - nl * nl), 0.0) for nl in nls]
    family = control_family(
        pauli_channel(PauliAxis.X, levels), axes, bloch_to_density((0.0, 0.0, 0.5)), 0.5
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
    con = [qfi_control(0.5, p, xi, 0.0) for p in ps]
    sym = max(abs(con[i] - con[10 - i]) for i in range(11))
    peak_ok = int(np.argmax(con)) == 5
    high = (0.6, 0.7, 0.8, 0.9)
    probes = [(0.0, 0.0, r) for r in (1.0, 0.8, 0.6, 0.4, 0.2)]
    # Channels of batch shape (4,) against probes of (5, 1): row i is probe i.
    cas = qfi_cascade(
        pauli_channel(PauliAxis.X, high), (0.0, 1.0, 0.0), xi, np.array(probes)[:, None]
    )
    cross_ok = bool((np.array([qfi_control(0.5, p, xi, 0.0) for p in high]) > cas).all())
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
