"""Dense complex linear algebra for small matrices (dim 2 and 4).

Everything is carried by plain ``numpy`` arrays of dtype complex128 in
row-major layout.  The tensor convention throughout the package is
probe-first: for a bipartite operator, the first factor of a Kronecker
product indexes the coarse blocks (probe), the second the fine blocks
(control).

Tolerances are centralized here: structural checks at 1e-10,
eigendecomposition reconstruction at 1e-11, Jacobi convergence at 1e-13
relative.  Double precision sustains these comfortably at these dimensions.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

# Structural checks: Hermiticity, trace, completeness, positivity.
ATOL_STRUCT = 1e-10
# Eigendecomposition quality: reconstruction and orthonormality residuals.
ATOL_RECON = 1e-11
# Jacobi sweep termination: off-diagonal Frobenius norm relative to ||A||_F.
JACOBI_REL_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100

I2 = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULI_MATRICES = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def as_cmatrix(entries) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting NaN/Inf entries."""
    m = np.array(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix contains non-finite entries")
    return m


def partial_trace(m: np.ndarray, keep: str, dims: tuple[int, int] = (2, 2)) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    ``keep`` is ``"probe"`` for the first tensor factor or ``"control"``
    for the second; ``dims`` gives the factor dimensions (probe, control).
    The total trace is preserved.
    """
    da, db = dims
    if m.shape != (da * db, da * db):
        raise ValueError(f"dimension mismatch: {m.shape} vs dims {dims}")
    blocks = m.reshape(da, db, da, db)
    if keep == "probe":
        return np.trace(blocks, axis1=1, axis2=3)
    if keep == "control":
        return np.trace(blocks, axis1=0, axis2=2)
    raise ValueError(f"keep must be 'probe' or 'control', got {keep!r}")


class EigDecomp(NamedTuple):
    """Hermitian eigendecomposition: ascending eigenvalues, orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(a: np.ndarray, max_sweeps: int = JACOBI_MAX_SWEEPS) -> EigDecomp:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Sweeps the pivots (p, q), p < q, in a fixed row-cyclic order and applies
    complex Givens rotations until the off-diagonal Frobenius norm falls
    below ``JACOBI_REL_TOL`` times the Frobenius norm of the input.  The
    fixed pivot order makes the result bit-stable across runs.

    Raises:
        ValueError: if the input is not Hermitian within 1e-10.
        ArithmeticError: if the sweep limit is exhausted before convergence.
    """
    a = as_cmatrix(a)
    if np.max(np.abs(a - a.conj().T)) >= ATOL_STRUCT:
        raise ValueError("herm_eig requires a Hermitian matrix")
    n = a.shape[0]
    # Fold roundoff asymmetry so the iteration preserves Hermiticity exactly.
    work = (a + a.conj().T) / 2.0
    vecs = np.eye(n, dtype=np.complex128)
    fro = np.linalg.norm(work)
    # Rotations preserve the Frobenius norm, so the reference is fixed.
    off_tol = JACOBI_REL_TOL * fro
    pivot_skip = 1e-18 * fro

    for _ in range(max_sweeps):
        off = np.linalg.norm(work - np.diag(np.diagonal(work)))
        if off <= off_tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                mag = abs(apq)
                if mag <= pivot_skip:
                    continue
                phase = apq / mag
                tau = (work[q, q].real - work[p, p].real) / (2.0 * mag)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n, dtype=np.complex128)
                rot[p, p] = c
                rot[p, q] = s * phase
                rot[q, p] = -s * np.conj(phase)
                rot[q, q] = c
                work = rot.conj().T @ work @ rot
                vecs = vecs @ rot
    else:
        raise ArithmeticError(f"Jacobi iteration did not converge in {max_sweeps} sweeps")

    vals = np.diagonal(work).real.copy()
    order = np.argsort(vals, kind="stable")
    return EigDecomp(vals[order], vecs[:, order])


def channel_choi(kraus: Iterable[np.ndarray]) -> np.ndarray:
    """Choi matrix sum_jk |j><k| (x) sum_m K_m |j><k| K_m^dag of a Kraus set.

    The first factor carries the input index, the second the output.  For a
    completely positive trace-preserving map the result is positive
    semidefinite and its partial trace over the output factor is the
    identity.
    """
    ops = [as_cmatrix(k) for k in kraus]
    if not ops:
        raise ValueError("channel_choi requires a nonempty Kraus set")
    d = ops[0].shape[0]
    if any(k.shape != (d, d) for k in ops):
        raise ValueError("Kraus operators must share one dimension")
    # sum_jk |j><k| (x) K|j><k|K^dag  ==  (I (x) K) |omega><omega| (I (x) K)^dag
    # with the unnormalized maximally entangled vector |omega> = sum_j |jj>.
    omega = np.zeros(d * d, dtype=np.complex128)
    omega[:: d + 1] = 1.0
    choi = np.zeros((d * d, d * d), dtype=np.complex128)
    eye = np.eye(d, dtype=np.complex128)
    for k in ops:
        v = np.kron(eye, k) @ omega
        choi += np.outer(v, v.conj())
    return choi
