"""Dense complex linear algebra for small matrices (dim 2 and 4).

Everything is carried by plain ``numpy`` arrays of dtype complex128 in
row-major layout.  The tensor convention throughout the package is
probe-first: for a bipartite operator, the first factor of a Kronecker
product indexes the coarse blocks (probe), the second the fine blocks
(control).

Two small kernels run in Python complex arithmetic, with no LAPACK, so
their results are deterministic.  ``psd_within`` answers the positivity
check with a Cholesky factorization shifted by the structural tolerance.
``herm_eig`` is a cyclic Jacobi eigensolver; it serves the routes that
need the spectrum itself (the SLD sum and the Choi-matrix eigenvalues).

Tolerances are centralized here: structural checks at 1e-10,
eigendecomposition reconstruction at 1e-11, Jacobi convergence at 1e-13
relative.  Double precision sustains these comfortably at these dimensions.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

import numpy as np

# Structural checks: Hermiticity, trace, completeness, positivity.
ATOL_STRUCT = 1e-10
# Eigendecomposition quality: reconstruction and orthonormality residuals.
ATOL_RECON = 1e-11
# Jacobi sweep termination: off-diagonal Frobenius norm relative to ||A||_F.
JACOBI_REL_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100
# herm_eig rescales a matrix whose largest |entry| lies outside this range.
_SCALE_LO, _SCALE_HI = math.ldexp(1.0, -500), math.ldexp(1.0, 500)

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
    if not np.isfinite(m).all():
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
    below ``JACOBI_REL_TOL`` times the Frobenius norm of the input (Golub &
    Van Loan, *Matrix Computations*, section 8.5).  Each rotation is applied
    only to rows and columns p and q, and to eigenvector columns p and q, in
    Python complex arithmetic (no LAPACK).  The fixed pivot order makes the
    result bit-stable across runs.  A matrix whose largest |entry| lies
    outside [2^-500, 2^500] is scaled by an exact power of two first and its
    eigenvalues scaled back, so the squared norms neither under- nor
    overflow; any other input runs unscaled.

    Raises:
        ValueError: if the input is not Hermitian within 1e-10.
        ArithmeticError: if the sweep limit is exhausted before convergence.
    """
    a = as_cmatrix(a)
    if np.max(np.abs(a - a.conj().T)) >= ATOL_STRUCT:
        raise ValueError("herm_eig requires a Hermitian matrix")
    n = a.shape[0]
    big = float(np.max(np.abs(a))) if n else 0.0
    exponent = math.frexp(big)[1] if big > _SCALE_HI or 0.0 < big < _SCALE_LO else 0
    # Two half steps keep each factor representable down to subnormal inputs.
    half = exponent // 2
    if exponent:
        a = a * math.ldexp(1.0, -half) * math.ldexp(1.0, half - exponent)
    # Fold roundoff asymmetry so the iteration starts exactly Hermitian.
    work = ((a + a.conj().T) / 2.0).tolist()
    # Rotations preserve the Frobenius norm, so the reference is fixed.
    fro = math.sqrt(sum(abs(x) ** 2 for row in work for x in row))
    off_tol = JACOBI_REL_TOL * fro
    pivot_skip = 1e-18 * fro
    vecs = np.eye(n, dtype=np.complex128).tolist()
    both = work + vecs  # the same row lists: updated in place, never replaced

    for _ in range(max_sweeps):
        off = math.sqrt(sum(abs(x) ** 2 for i, r in enumerate(work) for x in r[:i] + r[i + 1 :]))
        if off <= off_tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                rp, rq = work[p], work[q]
                apq = rp[q]
                mag = abs(apq)
                if mag <= pivot_skip:
                    continue
                phase = apq / mag
                tau = (rq[q].real - rp[p].real) / (2.0 * mag)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                # R is the identity but for R[p, p] = R[q, q] = c, R[p, q] = sp and
                # R[q, p] = -conj(sp).  work <- R^dag work R: rows, then columns.
                sp = t * c * phase
                spc = sp.conjugate()
                for j in range(n):
                    x, y = rp[j], rq[j]
                    rp[j] = c * x - sp * y
                    rq[j] = spc * x + c * y
                for row in both:  # columns p and q of work and vecs: X <- X R
                    x, y = row[p], row[q]
                    row[p] = c * x - spc * y
                    row[q] = sp * x + c * y
    else:
        raise ArithmeticError(f"Jacobi iteration did not converge in {max_sweeps} sweeps")

    vals = np.array([work[i][i].real for i in range(n)])
    if exponent:
        vals = vals * math.ldexp(1.0, half) * math.ldexp(1.0, exponent - half)
    order = np.argsort(vals, kind="stable")
    return EigDecomp(vals[order], np.array(vecs)[:, order])


def psd_within(a: np.ndarray) -> bool:
    """Whether every eigenvalue of the Hermitian part of ``a`` exceeds -1e-10.

    Factors (a + a^dag)/2 + t I, t = ``ATOL_STRUCT``, as U^dag U with U upper
    triangular, reading the upper triangle of the symmetrized matrix.  The
    factorization exists, every pivot positive, exactly when that matrix is
    positive definite, that is when lambda_min((a + a^dag)/2) > -t; a matrix
    with lambda_min = -t exactly is rejected.  Runs in Python complex
    arithmetic on a square complex matrix (as ``as_cmatrix`` returns it).
    """
    rows = a.tolist()
    n = len(rows)
    u = [[0j] * n for _ in range(n)]
    for j in range(n):
        cols = [r[j] for r in u[:j]]  # column j of U above the diagonal
        pivot = rows[j][j].real + ATOL_STRUCT - sum(x.real * x.real + x.imag * x.imag for x in cols)
        if not pivot > 0.0:
            return False
        d = math.sqrt(pivot)
        uj = u[j]
        uj[j] = d
        for i in range(j + 1, n):
            h = (rows[j][i] + rows[i][j].conjugate()) / 2.0
            uj[i] = (h - sum(x.conjugate() * r[i] for x, r in zip(cols, u))) / d
    return True


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
