"""Fisher-information evaluation for phase estimation through the switched channel.

Two kinds of evaluators live here.  Closed forms cover the control qubit
under Pauli noise: with q_c(xi) from the switch module and
s_c = sqrt((1-p_c) p_c),

    quantum FI of the control:   4 (1-p_c) p_c (dq_c/dxi)^2 / (1 - q_c^2)
    outcome probabilities:       P_pm = 1/2 pm s_c q_c(xi)
    classical FI (Hadamard):     (dP_+/dxi)^2 / ((1-P_+) P_+)

The generic numeric evaluator computes the quantum Fisher information of
any state family xi -> rho(xi) from the spectral form of the symmetric
logarithmic derivative,

    F = sum_{j,k} 2 |<v_j| drho |v_k>|^2 / (lambda_j + lambda_k),

with drho by central finite difference and (lambda, v) from the Jacobi
eigensolver.  The closed forms use analytic derivatives throughout, so the
two routes are genuinely independent and are compared in the tests.

The numbers the sweeps print come from the grid engine (engine.py); the
density-matrix routes here (qfi_cascade, qfi_joint, cfi_numeric and
qfi_numeric on control_family) are its independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import (
    KrausChannel,
    _check_probability,
    bloch_to_density,
    bloch_vector,
    noisy_phase_channel,
    unit_axis,
)
from .qmat import ATOL_STRUCT, herm_eig
from .switch import qc_numeric, s00, switch_state

# Pairs with lambda_j + lambda_k below this are in the kernel of the SLD
# formula and are excluded (standard regularization).
SLD_EIGENVALUE_CUTOFF = 1e-10
# Central-difference step for d rho / d xi: truncation O(h^2) and roundoff
# balance near 1e-10, well inside the 1e-6 closed-form comparison tolerance.
DEFAULT_STEP = 1e-5
# 1 - q_c^2 below this is treated as the xi -> 0 (or noise-free) degeneracy
# and the analytic limit of the closed form is returned.
QC_DEGENERACY_TOL = 1e-12

StateFamily = Callable[[float], np.ndarray]


@dataclass(frozen=True)
class FisherResult:
    """A Fisher-information value and the route that produced it."""

    value: float
    method: str  # "closed_form" | "sld_numeric" | "classical"


def _fisher(value: float, method: str) -> FisherResult:
    # Clamp roundoff-negative values to zero; a real negative is a bug.
    if value < 0.0:
        if value < -1e-12:
            raise ArithmeticError(f"negative Fisher information {value}")
        value = 0.0
    return FisherResult(float(value), method)


def qfi_numeric(family: StateFamily, xi0: float, step: float = DEFAULT_STEP) -> FisherResult:
    """Quantum Fisher information of a state family by the SLD spectral formula.

    ``family`` maps a phase to a density matrix of fixed dimension.  The
    derivative is the central difference (rho(xi0+h) - rho(xi0-h)) / 2h.
    """
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    rho0 = family(xi0)
    vals, vecs = herm_eig(rho0)
    if vals[0] < -ATOL_STRUCT or abs(vals.sum() - 1.0) >= ATOL_STRUCT:
        raise ValueError("family did not produce a density operator")
    drho = (family(xi0 + step) - family(xi0 - step)) / (2.0 * step)
    overlap = vecs.conj().T @ drho @ vecs
    total = 0.0
    n = len(vals)
    for j in range(n):
        for k in range(n):
            weight = vals[j] + vals[k]
            if weight > SLD_EIGENVALUE_CUTOFF:
                total += 2.0 * abs(overlap[j, k]) ** 2 / weight
    return _fisher(total, "sld_numeric")


def _pauli_qc_pieces(p: float, xi: float, overlap: float) -> tuple[float, float, float]:
    """(1 - q_c, dq_c/dxi, limit) shared by the closed forms.

    ``limit`` is 2 (1 - n_l^2) (1 - p) p, the analytic value of
    (dq_c)^2 / (1 - q_c^2) as xi -> 0; it doubles as the degeneracy marker
    since 1 - q_c vanishes exactly when limit * (1 - cos xi) does.
    """
    p = _check_probability(p)
    overlap = float(overlap)
    if abs(overlap) > 1.0:
        raise ValueError(f"axis component must lie in [-1, 1], got {overlap}")
    xi = float(xi)
    flip_weight = (1.0 - p) * p
    limit = 2.0 * (1.0 - overlap**2) * flip_weight
    half_sin = np.sin(0.5 * xi)
    one_minus_q = 2.0 * limit * half_sin * half_sin  # exact: 1-cos = 2 sin^2(xi/2)
    dq = -limit * np.sin(xi)
    return one_minus_q, dq, limit


def qfi_control(p_c: float, p: float, xi: float, overlap: float) -> FisherResult:
    """Quantum Fisher information of the control qubit under Pauli noise.

    4 (1-p_c) p_c (dq_c)^2 / (1 - q_c^2) with the analytic derivative
    dq_c = -2 (1 - n_l^2) (1 - p) p sin(xi).  When 1 - q_c^2 falls below
    1e-12 (xi -> 0, or commuting noise), the continuity limit
    4 (1-p_c) p_c * 2 (1 - n_l^2) (1 - p) p is returned.
    """
    p_c = _check_probability(p_c, "p_c")
    one_minus_q, dq, limit = _pauli_qc_pieces(p, xi, overlap)
    weight = 4.0 * (1.0 - p_c) * p_c
    denom = one_minus_q * (2.0 - one_minus_q)  # = 1 - q_c^2, cancellation-free
    if denom < QC_DEGENERACY_TOL:
        return _fisher(weight * limit, "closed_form")
    return _fisher(weight * dq * dq / denom, "closed_form")


def qfi_control_opt(p: float, xi: float, overlap: float) -> FisherResult:
    """Control-qubit quantum Fisher information at the optimal p_c = 1/2."""
    return qfi_control(0.5, p, xi, overlap)


def measure_control(p_c: float, q_c: float) -> tuple[float, float]:
    """Outcome probabilities of the Hadamard-basis measurement of the control.

    P_pm = 1/2 pm sqrt((1-p_c) p_c) q_c.  The Hadamard basis is a fixed,
    phase-independent measurement; at p_c = 1/2 it attains the quantum
    Fisher information of the control.
    """
    p_c = _check_probability(p_c, "p_c")
    q_c = float(q_c)
    if abs(q_c) > 1.0 + 1e-10:
        raise ValueError(f"|q_c| must not exceed 1, got {q_c}")
    shift = np.sqrt((1.0 - p_c) * p_c) * q_c
    p_plus = min(max(0.5 + shift, 0.0), 1.0)
    return p_plus, 1.0 - p_plus


def cfi_control(p_c: float, p: float, xi: float, overlap: float) -> FisherResult:
    """Classical Fisher information of the Hadamard measurement of the control.

    (dP_+)^2 / ((1-P_+) P_+) with P_+ = 1/2 + s q_c and s = sqrt((1-p_c) p_c),
    written as s^2 dq_c^2 / ((p_c - 1/2)^2 + s^2 (1 - q_c^2)) so that no
    digits cancel as q_c -> 1.  At p_c = 1/2 the measurement attains the
    quantum value, and qfi_control's rule gives it, xi -> 0 limit included.
    """
    p_c = _check_probability(p_c, "p_c")
    one_minus_q, dq, limit = _pauli_qc_pieces(p, xi, overlap)
    spread = one_minus_q * (2.0 - one_minus_q)  # = 1 - q_c^2
    if p_c == 0.5:
        return _fisher(limit if spread < QC_DEGENERACY_TOL else dq * dq / spread, "classical")
    s2 = (1.0 - p_c) * p_c
    return _fisher(s2 * dq * dq / ((p_c - 0.5) ** 2 + s2 * spread), "classical")


def cascade_family(noise: KrausChannel, axis, probe) -> StateFamily:
    """Family xi -> cascade output s00 for a fixed noise level and probe."""
    axis = unit_axis(axis)
    rho = bloch_to_density(bloch_vector(probe))

    def family(xi: float) -> np.ndarray:
        return s00(noisy_phase_channel(noise, axis, xi), rho)

    return family


def control_family(noise: KrausChannel, axis, rho: np.ndarray, p_c: float) -> StateFamily:
    """Family xi -> reduced control state of the switched channel."""
    axis = unit_axis(axis)
    p_c = _check_probability(p_c, "p_c")

    def family(xi: float) -> np.ndarray:
        return switch_state(noisy_phase_channel(noise, axis, xi), rho, p_c).control_reduced

    return family


def joint_family(noise: KrausChannel, axis, rho: np.ndarray, p_c: float) -> StateFamily:
    """Family xi -> joint probe-control output of the switched channel."""
    axis = unit_axis(axis)
    p_c = _check_probability(p_c, "p_c")

    def family(xi: float) -> np.ndarray:
        return switch_state(noisy_phase_channel(noise, axis, xi), rho, p_c).joint

    return family


def qfi_cascade(noise: KrausChannel, axis, xi: float, probe, step: float = DEFAULT_STEP) -> FisherResult:
    """Quantum Fisher information of the plain cascade, evaluated numerically.

    No closed form is transcribed for this quantity; the SLD route on the
    dim-2 family keeps it free of transcription risk.
    """
    return qfi_numeric(cascade_family(noise, axis, probe), xi, step)


def qfi_joint(
    noise: KrausChannel, axis, xi: float, rho: np.ndarray, p_c: float, step: float = DEFAULT_STEP
) -> FisherResult:
    """Quantum Fisher information of the joint probe-control output (numeric).

    Never below the control-only value (partial tracing cannot increase
    Fisher information) and equal to the cascade value when the two causal
    orders coincide.
    """
    return qfi_numeric(joint_family(noise, axis, rho, p_c), xi, step)


def cfi_numeric(
    noise: KrausChannel, axis, xi: float, rho: np.ndarray, p_c: float, step: float = DEFAULT_STEP
) -> FisherResult:
    """Classical Fisher information of the Hadamard measurement, any noise.

    Differentiates P_+(xi) = 1/2 + sqrt((1-p_c) p_c) q_c(xi) by central
    difference; used where no Pauli closed form applies (depolarizing
    noise).  At an exactly degenerate point (P_+ in {0, 1} with vanishing
    slope) it returns 0.
    """
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step}")
    axis = unit_axis(axis)
    p_c = _check_probability(p_c, "p_c")
    s_c = np.sqrt((1.0 - p_c) * p_c)

    def p_plus(x: float) -> float:
        return 0.5 + s_c * qc_numeric(noisy_phase_channel(noise, axis, x), rho)

    center = p_plus(xi)
    slope = (p_plus(xi + step) - p_plus(xi - step)) / (2.0 * step)
    denom = (1.0 - center) * center
    if denom < QC_DEGENERACY_TOL:
        if abs(slope) > 1e-6:
            raise ArithmeticError(
                f"measurement distribution degenerate (P_+ = {center}) with nonzero derivative"
            )
        return _fisher(0.0, "classical")
    return _fisher(slope * slope / denom, "classical")
