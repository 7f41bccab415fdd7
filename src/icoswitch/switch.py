"""Switched channel placing two copies of a noisy process in superposed causal order.

A control qubit prepared in sqrt(p_c)|0> + sqrt(1-p_c)|1> selects which of
the two orderings of a duplicated channel the probe traverses.  The joint
probe-control output decomposes into two superoperators:

    s00(rho) = E(E(rho))                       the plain cascade
    s01(rho) = sum_jk K_j K_k rho K_j^dag K_k^dag   the order-interference term

with the joint state

    s00(rho) (x) [p_c |0><0| + (1-p_c) |1><1|]
      + s01(rho) (x) sqrt((1-p_c) p_c) (|0><1| + |1><0|).

s01 is Hermitian but in general neither positive nor trace preserving, so
it is returned as a bare matrix.  Its trace q_c is the scalar coupling the
control coherence to the phase; for Pauli noise with probability p and a
rotation axis whose component along the noise direction is n_l,

    q_c = 1 - 2 (1 - n_l^2) (1 - p) p (1 - cos xi).

Every construction here has an independent counterpart used for
cross-validation: the joint state is rebuilt from the explicit Kraus set
W_jk = K_j K_k (x) |0><0| + K_k K_j (x) |1><1| acting on rho (x) |psi_c><psi_c|,
and q_c is available both in closed form and as the trace of s01.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, apply_channel, check_density, _check_probability
from .qmat import as_cmatrix, partial_trace

# s01 must come out Hermitian ((j,k) and (k,j) terms are mutual adjoints);
# a larger residual signals a broken channel construction, not noise.
S01_HERMITICITY_TOL = 1e-12
QC_IMAG_TOL = 1e-10

_KET0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
_KET1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)
_FLIP = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) for each square matrix in the stack a and one square b."""
    d = a.shape[-1] * b.shape[-1]
    return (a[..., :, None, :, None] * b[:, None, :]).reshape(*a.shape[:-2], d, d)


@dataclass(frozen=True)
class SwitchResult:
    """Joint probe-control output, reduced control state, and coupling q_c."""

    joint: np.ndarray
    control_reduced: np.ndarray
    q_c: float


def s00(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Cascade of the channel with itself, with independent Kraus sums."""
    return apply_channel(ch, apply_channel(ch, rho))


def s01(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Order-interference term sum_jk K_j K_k rho K_j^dag K_k^dag.

    Note the dagger order: j then k, not reversed.  The output is Hermitian
    but generally not a density operator.
    """
    rho = as_cmatrix(rho)
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError(f"dimension mismatch: state {rho.shape}, channel dim {ch.dim}")
    pairs = ch.kraus[:, None] @ ch.kraus[None, :]  # [j, k] holds K_j K_k
    # K_j^dag K_k^dag = (K_k K_j)^dag: the [k, j] pair, daggered.
    out = (pairs @ rho @ pairs.conj().transpose(1, 0, 3, 2)).sum(axis=(0, 1))
    if np.max(np.abs(out - out.conj().T)) >= S01_HERMITICITY_TOL:
        raise ArithmeticError("order-interference term came out non-Hermitian")
    return out


def qc_numeric(ch: KrausChannel, rho: np.ndarray) -> float:
    """Coupling scalar as the trace of the order-interference term."""
    t = np.trace(s01(ch, rho))
    if abs(t.imag) >= QC_IMAG_TOL:
        raise ArithmeticError(f"coupling trace has imaginary part {t.imag}")
    return float(t.real)


def qc_closed_form(p: float, xi: float, overlap: float) -> float:
    """Coupling scalar for Pauli noise, in closed form.

    ``overlap`` is n_l, the component of the rotation axis along the Pauli
    direction of the noise.  Uses 1 - cos(xi) = 2 sin^2(xi/2) to avoid
    cancellation at small xi.
    """
    p = _check_probability(p)
    overlap = float(overlap)
    if abs(overlap) > 1.0:
        raise ValueError(f"axis component must lie in [-1, 1], got {overlap}")
    half_sin = np.sin(0.5 * float(xi))
    # (1-p)*p is formed first so p and 1-p give bit-identical results.
    flip_weight = (1.0 - p) * p
    return 1.0 - 4.0 * (1.0 - overlap**2) * flip_weight * half_sin * half_sin


def switch_state(ch: KrausChannel, rho: np.ndarray, p_c: float) -> SwitchResult:
    """Joint probe-control output of the switched channel.

    The joint state is assembled from s00 and s01; the reduced control
    state is its partial trace over the probe, and q_c = tr s01.
    """
    p_c = _check_probability(p_c, "p_c")
    s00_part = s00(ch, rho)
    s01_part = s01(ch, rho)
    coherence = np.sqrt((1.0 - p_c) * p_c)
    diag = p_c * _KET0 + (1.0 - p_c) * _KET1
    joint = _kron(s00_part, diag) + _kron(s01_part, coherence * _FLIP)
    check_density(joint, "joint switch output")
    control = partial_trace(joint, keep="control", dims=(ch.dim, 2))
    t = np.trace(s01_part)
    if abs(t.imag) >= QC_IMAG_TOL:
        raise ArithmeticError(f"coupling trace has imaginary part {t.imag}")
    return SwitchResult(joint=joint, control_reduced=control, q_c=float(t.real))


def switch_kraus_ops(ch: KrausChannel) -> np.ndarray:
    """Explicit Kraus set of the switched channel on probe (x) control.

    W_jk = K_j K_k (x) |0><0| + K_k K_j (x) |1><1|, stacked with j major; the
    set satisfies completeness on the joint space.
    """
    pairs = ch.kraus[:, None] @ ch.kraus[None, :]  # [j, k] holds K_j K_k
    w = _kron(pairs, _KET0) + _kron(pairs.transpose(1, 0, 2, 3), _KET1)
    return w.reshape(-1, 2 * ch.dim, 2 * ch.dim)


def switch_kraus_apply(ch: KrausChannel, rho: np.ndarray, p_c: float) -> np.ndarray:
    """Independent reconstruction of the joint output from the W_jk Kraus set.

    Applies sum_jk W_jk (rho (x) |psi_c><psi_c|) W_jk^dag with the control
    in sqrt(p_c)|0> + sqrt(1-p_c)|1>.  Algebraically equal to the
    switch_state joint; kept as a separate code path so a transcription
    error in either construction is caught by comparison.
    """
    p_c = _check_probability(p_c, "p_c")
    rho = as_cmatrix(rho)
    psi = np.array([np.sqrt(p_c), np.sqrt(1.0 - p_c)], dtype=np.complex128)
    rho_c = np.outer(psi, psi.conj())
    w = switch_kraus_ops(ch)
    return (w @ _kron(rho, rho_c) @ w.conj().transpose(0, 2, 1)).sum(axis=0)


def reduced_control(ch: KrausChannel, rho: np.ndarray, p_c: float) -> np.ndarray:
    """Reduced control state, built directly rather than by partial trace.

    p_c |0><0| + (1-p_c) |1><1| + q_c sqrt((1-p_c) p_c) (|0><1| + |1><0|),
    with q_c the trace of the order-interference term.  Agrees with the
    partial trace of the joint output over the probe.
    """
    p_c = _check_probability(p_c, "p_c")
    q_c = qc_numeric(ch, rho)
    coherence = q_c * np.sqrt((1.0 - p_c) * p_c)
    return p_c * _KET0 + (1.0 - p_c) * _KET1 + coherence * _FLIP
