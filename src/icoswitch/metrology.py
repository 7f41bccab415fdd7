"""Fisher-information evaluation for phase estimation through the switched channel.

Two kinds of evaluators live here.  Closed forms cover the control qubit
under one-Pauli noise, as entries to the grid engine's formula for the
fq_con and fc_con columns: with q_c(xi) and s_c = sqrt((1-p_c) p_c),

    quantum FI of the control:   4 (1-p_c) p_c (dq_c/dxi)^2 / (1 - q_c^2)
    outcome probabilities:       P_pm = 1/2 pm s_c q_c(xi)
    classical FI (Hadamard):     (dP_+/dxi)^2 / ((1-P_+) P_+)

The generic numeric evaluator computes the quantum Fisher information of
any state family xi -> rho(xi) from the spectral form of the symmetric
logarithmic derivative,

    F = sum_{j,k} 2 |<v_j| drho |v_k>|^2 / (lambda_j + lambda_k),

with drho by central difference of the one step DEFAULT_STEP (cfi_numeric
uses it too) and (lambda, v) from the Jacobi eigensolver.

Every evaluator returns a plain float, or an array of the batch shape for
a stack.  The numbers the sweeps print come from the grid engine
(engine.evaluate_grid); the density-matrix routes here (qfi_cascade,
qfi_joint, cfi_numeric and qfi_numeric on control_family) are its
independent oracle.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .channels import KrausChannel, bloch_to_density, noisy_phase_channel
from .engine import _check_probability, _pauli_control
from .qmat import ATOL_STRUCT, dagger, herm_eig
from .switch import qc_numeric, s00, switch_state

# Central-difference step for d rho / d xi: truncation O(h^2) and roundoff
# balance near 1e-10, well inside the 1e-6 closed-form comparison tolerance.
DEFAULT_STEP = 1e-5
# (1 - P_+) P_+ below this marks a degenerate measurement distribution in
# cfi_numeric (xi -> 0, or noise-free), where the information is 0.
QC_DEGENERACY_TOL = 1e-12
# Pairs with lambda_j + lambda_k below this are in the kernel of the SLD
# formula and are excluded (standard regularization).
SLD_EIGENVALUE_CUTOFF = 1e-10

StateFamily = Callable[[float], np.ndarray]


def _fisher(value):
    """``value`` as a float (or an array for a stack), roundoff negatives clamped to zero.

    A negative below -1e-12 is a bug, not roundoff, and raises.
    """
    value = np.asarray(value, dtype=np.float64)
    low = value.min()
    if low < 0.0:
        if low < -1e-12:
            raise ArithmeticError(f"negative Fisher information {low}")
        value = np.where(value < 0.0, 0.0, value)
    return value if value.ndim else float(value)


def qfi_numeric(family: StateFamily, xi0) -> float | np.ndarray:
    """Quantum Fisher information of a state family by the SLD spectral formula.

    ``family`` maps a phase to a density matrix of fixed dimension, or to a
    stack of them; ``xi0`` may be an array of phases, one per member, and
    the result is then an array of the batch shape.  The derivative is the
    central difference (rho(xi0+h) - rho(xi0-h)) / 2h with h = DEFAULT_STEP.
    The spectra of the whole stack come from one lockstep ``herm_eig`` call.
    """
    rho0 = family(xi0)
    vals, vecs = herm_eig(rho0)
    if not ((vals[..., 0] >= -ATOL_STRUCT) & (abs(vals.sum(axis=-1) - 1.0) < ATOL_STRUCT)).all():
        raise ValueError("family did not produce a density operator")
    drho = (family(xi0 + DEFAULT_STEP) - family(xi0 - DEFAULT_STEP)) / (2.0 * DEFAULT_STEP)
    overlap = dagger(vecs) @ drho @ vecs
    weight = vals[..., :, None] + vals[..., None, :]
    kept = weight > SLD_EIGENVALUE_CUTOFF
    terms = 2.0 * np.hypot(overlap.real, overlap.imag) ** 2 / np.where(kept, weight, 1.0)
    terms = np.where(kept, terms, 0.0).reshape(*weight.shape[:-2], -1)
    # Summed left to right over (j, k) in row-major order.
    return _fisher(np.cumsum(terms, axis=-1)[..., -1])


def qfi_control(p_c, p, xi, overlap):
    """Quantum Fisher information of the control qubit under Pauli noise.

    4 (1-p_c) p_c (dq_c)^2 / (1 - q_c^2), the grid engine's fq_con column,
    which keeps its xi -> 0 limit 4 (1-p_c) p_c * 2 (1 - n_l^2) (1 - p) p
    without a threshold.  Arguments broadcast; scalars give a float.
    """
    return _pauli_control(p_c, p, xi, overlap)["fq_con"]


def cfi_control(p_c, p, xi, overlap):
    """Classical Fisher information of the Hadamard measurement of the control.

    (dP_+)^2 / ((1-P_+) P_+) with P_+ = 1/2 + s q_c and s = sqrt((1-p_c) p_c),
    the grid engine's fc_con column; at p_c = 1/2 the measurement attains
    the quantum value.  Arguments broadcast; scalars give a float.
    """
    return _pauli_control(p_c, p, xi, overlap)["fc_con"]


def control_family(noise: KrausChannel, axis, rho: np.ndarray, p_c) -> StateFamily:
    """Family xi -> reduced control state of the switched channel.

    Noise, axes ``(..., 3)``, states, p_c and the phase broadcast, so one
    family can stand for a whole stack of draws.  Each call checks its
    inputs, in noisy_phase_channel and switch_state.
    """

    def family(xi: float) -> np.ndarray:
        return switch_state(noisy_phase_channel(noise, axis, xi), rho, p_c).control_reduced

    return family


def qfi_cascade(noise: KrausChannel, axis, xi: float, probe) -> float | np.ndarray:
    """Quantum Fisher information of the plain cascade, evaluated numerically.

    No closed form is transcribed for this quantity; the SLD route on the
    dim-2 family xi -> s00 keeps it free of transcription risk.
    """
    rho = bloch_to_density(probe)

    def family(x):
        return s00(noisy_phase_channel(noise, axis, x), rho)

    return qfi_numeric(family, xi)


def qfi_joint(
    noise: KrausChannel, axis, xi: float, rho: np.ndarray, p_c: float
) -> float | np.ndarray:
    """Quantum Fisher information of the joint probe-control output (numeric).

    Never below the control-only value (partial tracing cannot increase
    Fisher information) and equal to the cascade value when the two causal
    orders coincide.
    """

    def family(x):
        return switch_state(noisy_phase_channel(noise, axis, x), rho, p_c).joint

    return qfi_numeric(family, xi)


def cfi_numeric(noise: KrausChannel, axis, xi, rho: np.ndarray, p_c) -> float | np.ndarray:
    """Classical Fisher information of the Hadamard measurement, any noise.

    Differentiates P_+(xi) = 1/2 + sqrt((1-p_c) p_c) q_c(xi) by central
    difference with step DEFAULT_STEP.  At an exactly degenerate point (P_+
    in {0, 1} with vanishing slope) it returns 0.  Noise, axes ``(..., 3)``,
    states, p_c and the phase broadcast, as in control_family.
    """
    p_c = _check_probability(p_c, "p_c")
    s_c = np.sqrt((1.0 - p_c) * p_c)

    def p_plus(x):
        return 0.5 + s_c * qc_numeric(noisy_phase_channel(noise, axis, x), rho)

    center = p_plus(xi)
    slope = (p_plus(xi + DEFAULT_STEP) - p_plus(xi - DEFAULT_STEP)) / (2.0 * DEFAULT_STEP)
    denom = (1.0 - center) * center
    degenerate = denom < QC_DEGENERACY_TOL
    steep = degenerate & (abs(slope) > 1e-6)
    if steep.any():
        raise ArithmeticError(
            f"measurement distribution degenerate (P_+ = {np.asarray(center)[steep][0]})"
            " with nonzero derivative"
        )
    return _fisher(np.where(degenerate, 0.0, slope * slope / np.where(degenerate, 1.0, denom)))
