"""Helpers and reference values the test modules share; pytest collects nothing here.

Besides the random draws and Hypothesis strategies, this holds three oracles
that are independent of the package's density-matrix code: the exact
Bloch-vector cascade QFI of the fig2 setting (cascade_bloch_oracle), the
block form of fq_joint at p_c = 1/2 (block_fq_joint), and the control
columns' closed form in rational arithmetic (exact_control_columns).  It
also holds the forms that only the tests use:
- a channel's action on a state (apply_channel);
- the reduced control state built without a partial trace (reduced_control),
  and the probe's marginal of a bipartite operator (probe_marginal);
- two compositions of the package's density-matrix oracle: the SLD QFI of the
  joint output (qfi_joint) and the finite-difference classical FI of the
  Hadamard measurement (cfi_numeric).
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from icoswitch.channels import (
    KrausChannel,
    _act,
    _levels,
    _matching_state,
    depolarizing_channel,
    noisy_phase_channel,
    pauli_channel,
)
from icoswitch.engine import PAULI_OF_KIND, _check_probability
from icoswitch.metrology import DEFAULT_STEP, _fisher, qfi_numeric
from icoswitch.switch import _FLIP, _control_diagonal, qc_numeric, switch_state

XI = np.pi / 5
E_Y = (0.0, 1.0, 0.0)
# (1 - P_+) P_+ below this marks a degenerate measurement distribution in
# cfi_numeric (xi -> 0, or noise-free), where the information is 0.
QC_DEGENERACY_TOL = 1e-12

# Exact value of the control-qubit QFI at p = 1/2, p_c = 1/2, overlap 0,
# xi = pi/5: numerator (a sin xi)^2 with a = 1/2 and denominator 1 - q_c^2
# with q_c = (5 + sqrt 5)/8 reduce to (15 + 2 sqrt 5)/41 = 0.474930145244.
FQ_CON_ANCHOR = (15 + 2 * np.sqrt(5.0)) / 41

NOISE_LEVELS = st.one_of(
    st.sampled_from((0.0, 1.0, 1e-12, 1e-6, 1.0 - 1e-6, 1.0 - 1e-12)),
    st.floats(0, 1, allow_nan=False),
)


def noise_channel(kind: str, p) -> KrausChannel:
    """The oracle's noise channel of a noise kind at level p."""
    if kind == "depolarizing":
        return depolarizing_channel(p)
    return pauli_channel(PAULI_OF_KIND[kind], p)


def apply_channel(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Channel action sum_m K_m rho K_m^dag, member by member."""
    return _act(ch.kraus, _matching_state(ch, rho))


def reduced_control(ch: KrausChannel, rho: np.ndarray, p_c) -> np.ndarray:
    """Reduced control state, built directly rather than by partial trace.

    p_c |0><0| + (1-p_c) |1><1| + q_c sqrt((1-p_c) p_c) (|0><1| + |1><0|),
    with q_c the trace of the order-interference term.  Agrees with the
    partial trace of the joint output over the probe.
    """
    p_c = _check_probability(p_c, "p_c")
    coherence = qc_numeric(ch, rho) * np.sqrt((1.0 - p_c) * p_c)
    return _control_diagonal(p_c) + _levels(coherence) * _FLIP


def probe_marginal(m: np.ndarray) -> np.ndarray:
    """Trace out the second qubit of each two-qubit operator (..., 4, 4), keeping the first."""
    return np.trace(m.reshape(*m.shape[:-2], 2, 2, 2, 2), axis1=-3, axis2=-1)


def qfi_joint(noise: KrausChannel, axis, xi, rho: np.ndarray, p_c):
    """Quantum Fisher information of the joint probe-control output (numeric).

    Never below the control-only value (partial tracing cannot increase
    Fisher information) and equal to the cascade value when the two causal
    orders coincide.
    """

    def family(x):
        return switch_state(noisy_phase_channel(noise, axis, x), rho, p_c).joint

    return qfi_numeric(family, xi)


def cfi_numeric(noise: KrausChannel, axis, xi, rho: np.ndarray, p_c):
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


def random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_bloch(rng):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * rng.uniform() ** (1 / 3)


def unit_vectors():
    return (
        st.tuples(*(st.floats(-1, 1, allow_nan=False),) * 3)
        .filter(lambda v: np.linalg.norm(v) > 0.1)
        .map(lambda v: np.asarray(v) / np.linalg.norm(v))
    )


def phases():
    """Phases 0.02 to 0.1 from 0 and from +-pi, and in between, mod 2 pi.

    At 0, and at pi for some axes, an eigenvalue of the states vanishes as
    (xi - xi_0)^2 while the information it carries does not.  Within about
    0.014 of such a point it falls below the SLD oracle's 1e-10 cutoff,
    which drops that information; the engine's limits there are held by
    TestExactAnchors, test_information_ordering_down_to_tiny_phase and
    test_cascade_keeps_its_second_term_near_a_pure_output.
    """
    size = st.one_of(
        st.floats(0.02, 0.1),
        st.floats(math.pi - 0.1, math.pi - 0.02),
        st.floats(0.02, math.pi - 0.02),
    )
    return st.builds(
        lambda x, sign, turns: sign * x + 2.0 * math.pi * turns,
        size,
        st.sampled_from((1.0, -1.0)),
        st.sampled_from((0, 0, 0, 1, -1)),
    )


def cascade_bloch_oracle(p, r, xi):
    """Cascade QFI for bit-flip noise, axis e_y, probe r e_z, by Bloch algebra.

    Exact dynamics: the doubled rotation and two independent flips give the
    output Bloch vector
        v_x = r (1-p) sin 2xi
        v_z = r (1-2p) [(1-p) cos 2xi - p]
    and the qubit QFI is |v'|^2 + (v.v')^2 / (1 - |v|^2), reducing to |v'|^2
    for a pure output.  Independent of the density-matrix code paths.
    """
    vx = r * (1 - p) * np.sin(2 * xi)
    vz = r * (1 - 2 * p) * ((1 - p) * np.cos(2 * xi) - p)
    dvx = 2 * r * (1 - p) * np.cos(2 * xi)
    dvz = -2 * r * (1 - 2 * p) * (1 - p) * np.sin(2 * xi)
    v2 = vx * vx + vz * vz
    quad = dvx * dvx + dvz * dvz
    if v2 >= 1.0 - 1e-12:
        return quad
    return quad + (vx * dvx + vz * dvz) ** 2 / (1 - v2)


def block_fq_joint(kind: str, p, xi, axis, probe):
    """fq_joint at p_c = 1/2 from the block form of the joint output.

    At p_c = 1/2 the joint output is block diagonal in the control's Hadamard
    basis, with blocks M_pm = 1/4 sum_jk w_j w_k (X_jk pm Y_jk) rho (X_jk pm Y_jk)^dag,
    X_jk = sigma_j U sigma_k U and Y_jk = sigma_k U sigma_j U: the off-diagonal
    blocks change sign under j <-> k and cancel.  Each block is
    M = (t/2)(I + u.sigma), and the QFI of the direct sum is
    sum_pm [t'^2 / t + t (|u'|^2 + (u.u')^2 / (1 - |u|^2))].  The weights, the
    Paulis, U and dU/dxi are built here from their definitions.
    """
    paulis = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    if kind == "depolarizing":
        weights = [1.0 - 3.0 * p / 4.0] + [p / 4.0] * 3
    else:
        weights = [1.0 - p, 0.0, 0.0, 0.0]
        weights[1 + "xyz".index(PAULI_OF_KIND[kind])] = p
    n_sigma = np.einsum("i,iab->ab", axis, paulis[1:])
    u = math.cos(xi / 2.0) * paulis[0] - 1j * math.sin(xi / 2.0) * n_sigma
    du = -0.5j * n_sigma @ u
    rho = 0.5 * (paulis[0] + np.einsum("i,iab->ab", probe, paulis[1:]))
    total = 0.0
    for sign in (1.0, -1.0):
        block, dblock = np.zeros((2, 2), complex), np.zeros((2, 2), complex)
        for j, k in itertools.product(range(4), repeat=2):
            a, b = paulis[j], paulis[k]
            op = a @ u @ b @ u + sign * (b @ u @ a @ u)
            dop = a @ du @ b @ u + a @ u @ b @ du + sign * (b @ du @ a @ u + b @ u @ a @ du)
            w = weights[j] * weights[k] / 4.0
            block += w * op @ rho @ op.conj().T
            dblock += w * (dop @ rho @ op.conj().T + op @ rho @ dop.conj().T)
        t, dt = np.trace(block).real, np.trace(dblock).real
        v = np.array([np.trace(s @ block).real for s in paulis[1:]]) / t
        dv = (np.array([np.trace(s @ dblock).real for s in paulis[1:]]) - dt * v) / t
        total += dt * dt / t + t * (dv @ dv + (v @ dv) ** 2 / (1.0 - v @ v))
    return total


def exact_control_columns(kind: str, p: float, p_c: float, xi: float, axis) -> dict:
    """qc, fq_con and fc_con from the engine docstring's closed form, evaluated in
    ``fractions.Fraction`` at the exact float inputs and rounded once to float.

    sin and cos of the exact xi/2 are Taylor series, summed until a term falls
    below 1e-40, and the weights come from their definitions, so no float
    rounding or cancellation enters; xi must lie in [-pi, pi], where the
    engine takes it as given.
    """
    p, p_c, half = Fraction(p), Fraction(p_c), Fraction(xi) / 2
    if kind == "depolarizing":
        w0, wx, wy, wz = 1 - 3 * p / 4, p / 4, p / 4, p / 4
    else:
        w0, wx, wy, wz = [1 - p] + [p if letter == PAULI_OF_KIND[kind] else 0 for letter in "xyz"]
    series, term, k = [Fraction(0), Fraction(0)], Fraction(1), 0  # cos, sin; half^k / k!
    while abs(term) >= Fraction(1, 10**40):
        series[k % 2] += term if k % 4 < 2 else -term
        k += 1
        term *= half / k
    cos, sin = series
    mx, my, mz = (1 - Fraction(c) ** 2 for c in axis)
    alpha = 2 * (mx * (w0 * wx - wy * wz) + my * (w0 * wy - wx * wz) + mz * (w0 * wz - wx * wy))
    beta = 4 * (wx * wy + wx * wz + wy * wz)
    g = alpha * 2 * sin * sin + beta  # 1 - q_c
    slope2 = (alpha * 2 * sin * cos) ** 2  # q_c'^2 = (alpha sin xi)^2
    s2 = p_c * (1 - p_c)
    fq_con = 4 * s2 * slope2 / (g * (2 - g))
    fc_con = s2 * slope2 / ((p_c - Fraction(1, 2)) ** 2 + s2 * g * (2 - g))
    return {"qc": float(1 - g), "fq_con": float(fq_con), "fc_con": float(fc_con)}
