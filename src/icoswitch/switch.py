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

Every function here broadcasts over a stack of channels and a stack of
states (and an array of p_c), as in the channels module; a single channel
and state is the empty batch shape.  Every construction has an
independent counterpart used for cross-validation: the joint state is
rebuilt from the explicit Kraus set
W_jk = K_j K_k (x) |0><0| + K_k K_j (x) |1><1| acting on rho (x) |psi_c><psi_c|,
and q_c is available both as the trace of s01 and in the engine's closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, _act, _levels, _matching_state, check_density
from .engine import _check_probability, _pauli_control
from .qmat import _product, dagger, partial_trace

# s01 must come out Hermitian ((j,k) and (k,j) terms are mutual adjoints);
# a larger residual signals a broken channel construction, not noise.
S01_HERMITICITY_TOL = 1e-12
QC_IMAG_TOL = 1e-10

_KET0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
_KET1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)
_FLIP = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) for each pair of square matrices in the stacks a and b."""
    d = a.shape[-1] * b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], d, d)


@dataclass(frozen=True)
class SwitchResult:
    """Joint probe-control output, reduced control state, and coupling q_c."""

    joint: np.ndarray
    control_reduced: np.ndarray
    q_c: float | np.ndarray


def s00(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Cascade of the channel with itself, with independent Kraus sums."""
    return _act(ch.kraus, _act(ch.kraus, _matching_state(ch, rho)))


def _interference(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """s01 of a checked Kraus stack and state stack, with its Hermiticity check."""
    ops = list(np.moveaxis(kraus, -3, 0))
    # K_j^dag K_k^dag = (K_k K_j)^dag; the terms are summed with j major.
    out = sum(
        _product(_product(_product(kj, kk), rho), dagger(_product(kk, kj)))
        for kj in ops
        for kk in ops
    )
    if np.max(np.abs(out - dagger(out))) >= S01_HERMITICITY_TOL:
        raise ArithmeticError("order-interference term came out non-Hermitian")
    return out


def s01(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Order-interference term sum_jk K_j K_k rho K_j^dag K_k^dag.

    Note the dagger order: j then k, not reversed.  The output is Hermitian
    but generally not a density operator.
    """
    return _interference(ch.kraus, _matching_state(ch, rho))


def _coupling(s01_part: np.ndarray):
    """q_c = tr s01 for each member; its imaginary part must vanish."""
    t = np.trace(s01_part, axis1=-2, axis2=-1)
    stray = ~(abs(t.imag) < QC_IMAG_TOL)
    if stray.any():
        raise ArithmeticError(f"coupling trace has imaginary part {np.asarray(t.imag)[stray][0]}")
    return t.real


def qc_numeric(ch: KrausChannel, rho: np.ndarray):
    """Coupling scalar as the trace of the order-interference term."""
    return _coupling(s01(ch, rho))


def qc_closed_form(p, xi, overlap):
    """Coupling scalar for Pauli noise, 1 - 4 (1 - n_l^2) (1 - p) p sin^2(xi/2).

    ``overlap`` is n_l, the component of the rotation axis along the Pauli
    direction of the noise.  The value is the grid engine's qc column;
    arguments broadcast, and scalars give a float.
    """
    return _pauli_control(0.5, p, xi, overlap)["qc"]


def _control_diagonal(p_c) -> np.ndarray:
    """p_c |0><0| + (1-p_c) |1><1| per member."""
    return _levels(p_c) * _KET0 + _levels(1.0 - p_c) * _KET1


def switch_state(ch: KrausChannel, rho: np.ndarray, p_c) -> SwitchResult:
    """Joint probe-control output of the switched channel.

    The joint state is assembled from s00 and s01; the reduced control
    state is its partial trace over the probe, and q_c = tr s01.  The state
    stack is coerced once, and every joint state passes ``check_density``.
    """
    p_c = _check_probability(p_c, "p_c")
    rho = _matching_state(ch, rho)
    s00_part = _act(ch.kraus, _act(ch.kraus, rho))
    s01_part = _interference(ch.kraus, rho)
    coherence = np.sqrt((1.0 - p_c) * p_c)
    joint = _kron(s00_part, _control_diagonal(p_c)) + _kron(s01_part, _levels(coherence) * _FLIP)
    check_density(joint, "joint switch output")
    control = partial_trace(joint, dims=(ch.dim, 2))
    return SwitchResult(joint=joint, control_reduced=control, q_c=_coupling(s01_part))


def switch_kraus_ops(ch: KrausChannel) -> np.ndarray:
    """Explicit Kraus set of the switched channel on probe (x) control.

    W_jk = K_j K_k (x) |0><0| + K_k K_j (x) |1><1|, stacked with j major
    into shape ``(..., m^2, 2d, 2d)``; the set satisfies completeness on the
    joint space.
    """
    k = ch.kraus
    pairs = _product(k[..., :, None, :, :], k[..., None, :, :, :])  # [..., j, k] holds K_j K_k
    d = ch.dim
    # Entry ((a, c), (b, c')) of W_jk is zero unless c = c'; the probe factor
    # is K_j K_k for c = 0 and K_k K_j for c = 1.
    w = np.zeros((*pairs.shape[:-2], d, 2, d, 2), dtype=np.complex128)
    w[..., 0, :, 0] = pairs
    w[..., 1, :, 1] = np.swapaxes(pairs, -4, -3)
    return w.reshape(*w.shape[:-6], -1, 2 * d, 2 * d)


def switch_kraus_apply(ch: KrausChannel, rho: np.ndarray, p_c) -> np.ndarray:
    """Independent reconstruction of the joint output from the W_jk Kraus set.

    Applies sum_jk W_jk (rho (x) |psi_c><psi_c|) W_jk^dag with the control
    in sqrt(p_c)|0> + sqrt(1-p_c)|1>.  Algebraically equal to the
    switch_state joint; kept as a separate code path so a transcription
    error in either construction is caught by comparison.
    """
    p_c = _check_probability(p_c, "p_c")
    rho = _matching_state(ch, rho)
    psi = np.stack((np.sqrt(p_c), np.sqrt(1.0 - p_c)), axis=-1).astype(np.complex128)
    rho_c = psi[..., :, None] * psi[..., None, :].conj()
    return _act(switch_kraus_ops(ch), _kron(rho, rho_c))

