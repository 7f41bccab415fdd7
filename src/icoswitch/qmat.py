"""Dense complex linear algebra on stacks of small matrices.

Everything is carried by plain ``numpy`` arrays of dtype complex128 in
row-major layout.  A function of matrices takes a stack ``(..., n, n)``
and works on every member at once; a single matrix is the stack with an
empty batch shape.  The tensor convention throughout the package is
probe-first: for a bipartite operator, the first factor of a Kronecker
product indexes the coarse blocks (probe), the second the fine blocks
(control).

Two kernels run elementwise in real arithmetic on the real and imaginary
parts, with no LAPACK and no fused multiply-add, so each member's result
is deterministic and does not depend on the stack it came in.
``psd_within`` answers the positivity check with a Cholesky factorization
shifted by the structural tolerance.  ``herm_eig`` is a cyclic Jacobi
eigensolver; it serves the routes that need the spectrum itself (the SLD
sum and the Choi-matrix eigenvalues), and rotates only the rows that are
nonzero in some member, so a Choi matrix of the switch is solved on half
its rows.  The private ``_product`` forms the oracle's stacked 2x2
products elementwise, where ``@`` pays a BLAS call per member.

Tolerances are centralized here: structural checks at 1e-10 and Jacobi
convergence at 1e-13 relative, within JACOBI_MAX_SWEEPS sweeps.  Double
precision sustains these comfortably at these dimensions.  ``partial_trace``
traces out the probe, the one reduction the switch needs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Structural checks: Hermiticity, trace, completeness, positivity.
ATOL_STRUCT = 1e-10
# Jacobi sweep termination: off-diagonal Frobenius norm relative to ||A||_F.
JACOBI_REL_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100
# herm_eig rescales a matrix whose largest |entry| lies outside this range.
_SCALE_LO, _SCALE_HI = math.ldexp(1.0, -500), math.ldexp(1.0, 500)

# Elementwise factors on a stacked (real, imaginary) pair: applied to the
# swapped pair (y, x) of x + iy, _TIMES_I gives i (x + iy); _CONJ conjugates.
_TIMES_I = np.array([[-1.0], [1.0]])
_CONJ = np.array([[1.0], [-1.0]])
# Coefficient signs of the partner term for the first and second of a pivot pair.
_PAIR_SIGN = np.array([[-1.0], [1.0]])


def as_cmatrix(entries) -> np.ndarray:
    """Coerce to a complex stack of square matrices, rejecting NaN/Inf entries.

    A complex128 array comes back as it is, not copied; nothing in the
    package writes to a coerced input.
    """
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in the stack."""
    return np.swapaxes(m, -1, -2).conj()


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of small matrices, batch shapes broadcast as by matmul.

    Written out as one elementwise term per inner index, summed left to
    right, so it costs a few array operations per stack where matmul pays a
    call per member, and each member's product does not depend on its stack.
    """
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for i in range(1, a.shape[-1]):
        out += a[..., :, i, None] * b[..., None, i, :]
    return out


def partial_trace(m: np.ndarray, dims: tuple[int, int] = (2, 2)) -> np.ndarray:
    """Trace out the probe, the first tensor factor, of each bipartite operator in the stack.

    ``dims`` gives the factor dimensions (probe, control); the result is
    the control's reduced operator, with the total trace preserved.
    """
    da, db = dims
    if m.shape[-2:] != (da * db, da * db):
        raise ValueError(f"dimension mismatch: {m.shape} vs dims {dims}")
    return np.trace(m.reshape(*m.shape[:-2], da, db, da, db), axis1=-4, axis2=-2)


class EigDecomp(NamedTuple):
    """Hermitian eigendecomposition: ascending eigenvalues, orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """Left-to-right sum along axis 0, one total per remaining index; overwrites ``terms``."""
    return np.cumsum(terms, axis=0, out=terms)[-1]


def herm_eig(a: np.ndarray) -> EigDecomp:
    """Eigendecomposition of each Hermitian matrix in a stack by cyclic Jacobi rotations.

    Sweeps the pivots (p, q), p < q, in a fixed row-cyclic order and applies
    complex Givens rotations until the off-diagonal Frobenius norm falls
    below ``JACOBI_REL_TOL`` times the Frobenius norm of the input (Golub &
    Van Loan, *Matrix Computations*, section 8.5).  Each rotation touches
    only rows and columns p and q, and eigenvector columns p and q.  An
    index whose row and column are exactly zero in every member is dropped
    before the sweeps and gets eigenvalue 0 and eigenvector e_i: a pivot in
    it never turns and no rotation fills it, so the eigenvalues are bit for
    bit those of the full solve, at a fraction of its pivots.  All
    matrices of the stack rotate in lockstep: each has its own scaling,
    norms, stop test and pivot skip, and one that has converged is frozen
    (c = 1, s = 0), so every member gets exactly the rotations it would get
    alone.  The arithmetic is elementwise and real, with the norms summed
    left to right in row-major order, so the result is bit-stable across
    runs and stacks.  A matrix whose largest |entry| lies outside
    [2^-500, 2^500] is scaled by an exact power of two first and its
    eigenvalues scaled back, so the squared norms neither under- nor
    overflow; any other input runs unscaled.

    Raises:
        ValueError: if a member is not Hermitian within 1e-10.
        ArithmeticError: if JACOBI_MAX_SWEEPS sweeps end before every member converged.
    """
    a = as_cmatrix(a)
    batch, n = a.shape[:-2], a.shape[-1]
    a = a.reshape(-1, n, n)
    members = a.shape[0]
    # Batch on the last axis: w[i, j, 0] and w[i, j, 1] are the real and
    # imaginary parts of entry (i, j) of every member.
    w = np.empty((n, n, 2, members))
    w[:, :, 0], w[:, :, 1] = a.real.transpose(1, 2, 0), a.imag.transpose(1, 2, 0)
    re, im = w[:, :, 0], w[:, :, 1]
    asymmetry = re - re.swapaxes(0, 1)  # |a - a^dag| from its real and imaginary parts
    if np.max(np.hypot(asymmetry, im + im.swapaxes(0, 1), out=asymmetry)) >= ATOL_STRUCT:
        raise ValueError("herm_eig requires a Hermitian matrix")
    big = np.max(np.hypot(re, im), axis=(0, 1))
    exponent = np.frexp(big)[1] * ((big > _SCALE_HI) | ((0.0 < big) & (big < _SCALE_LO)))
    # Two half steps keep each factor representable down to subnormal inputs.
    half = exponent // 2
    w *= np.ldexp(1.0, -half)
    w *= np.ldexp(1.0, half - exponent)
    # Fold roundoff asymmetry so the iteration starts exactly Hermitian.
    w[...] = (w + w.transpose(1, 0, 2, 3) * _CONJ) / 2.0
    # Only the live indices, whose row is nonzero in some member, rotate; a
    # dropped index keeps its diagonal entry, a signed zero, as eigenvalue.
    live = np.flatnonzero(w.any(axis=(1, 2, 3)))
    k = len(live)
    # Rows 0..k-1 of z hold the live block of W, rows k..2k-1 the
    # eigenvectors V; a column rotation acts on both.
    z = np.zeros((2 * k, k, 2, members))
    z[:k] = w[live[:, None], live]
    z[np.arange(k, 2 * k), np.arange(k), 0] = 1.0
    if k > 1:
        _jacobi(z, k)

    diagonal = np.arange(n)
    vals = w[diagonal, diagonal, 0].T
    vals[:, live] = z[np.arange(k), np.arange(k), 0].T
    vals = vals * np.ldexp(1.0, half)[:, None] * np.ldexp(1.0, exponent - half)[:, None]
    vecs = np.zeros((members, n, n), dtype=np.complex128)
    vecs[:, diagonal, diagonal] = 1.0
    block = np.empty((members, k, k), dtype=np.complex128)
    block.real, block.imag = z[k:, :, 0].transpose(2, 0, 1), z[k:, :, 1].transpose(2, 0, 1)
    vecs[:, live[:, None], live] = block
    order = np.argsort(vals, axis=-1, kind="stable")
    member = np.arange(members)[:, None]
    vals = vals[member, order]
    vecs = vecs[member[:, :, None], diagonal[:, None], order[:, None, :]]
    return EigDecomp(vals.reshape(*batch, n), vecs.reshape(*batch, n, n))


def _jacobi(z: np.ndarray, n: int) -> None:
    """Row-cyclic Jacobi sweeps on the n x n matrices of ``z`` (see herm_eig), in place; n > 1."""
    members = z.shape[-1]
    offdiag = ~np.eye(n, dtype=bool).ravel()

    def squares():
        sq = np.hypot(z[:n, :, 0], z[:n, :, 1])
        sq *= sq
        return sq.reshape(n * n, members)

    # Rotations preserve the Frobenius norm, so the reference is fixed.
    fro = np.sqrt(_sum_in_order(squares()))
    off_tol = JACOBI_REL_TOL * fro
    pivot_skip = 1e-18 * fro
    active = np.ones(members, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(JACOBI_MAX_SWEEPS):
            active &= ~(np.sqrt(_sum_in_order(squares()[offdiag])) <= off_tol)
            if not active.any():
                return
            for p in range(n - 1):
                for q in range(p + 1, n):
                    _rotate(z, n, p, q, active, pivot_skip)
    raise ArithmeticError(f"Jacobi iteration did not converge in {JACOBI_MAX_SWEEPS} sweeps")


def _rotate(z: np.ndarray, n: int, p: int, q: int, active: np.ndarray, pivot_skip) -> None:
    """One Jacobi rotation at pivot (p, q) for every active member of ``z``, in place.

    R is the identity but for R[p, p] = R[q, q] = c, R[p, q] = s and
    R[q, p] = -conj(s), s = t c apq / |apq|; the matrix rows of ``z`` become
    R^dag W R and the eigenvector rows V R.  A member that is frozen, or
    whose |apq| is at most its pivot skip, gets c = 1 and s = 0.  Both rows
    (and both columns) of the pair are updated by one expression, with
    signs folded into the coefficients; negation is exact, so each entry is
    the value complex arithmetic gives, c x - s y = c x + (-s0 y - s1 iy).
    """
    apq = z[p, q]
    mag = np.hypot(apq[0], apq[1])
    turn = active & (mag > pivot_skip)
    if not turn.any():
        return
    mag = np.where(turn, mag, 1.0)
    tau = (z[q, q, 0] - z[p, p, 0]) / (2.0 * mag)
    t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s0, s1 = np.where(turn, t * c, 0.0) * (apq / mag)  # s = s0 + i s1
    c = np.where(turn, c, 1.0)
    s0 = s0 * _PAIR_SIGN
    # Rows p and q: W[p] <- c W[p] - s W[q] and W[q] <- c W[q] + conj(s) W[p].
    pair = slice(p, q + 1, q - p)
    rows, other = z[pair, :n], z[pair, :n][::-1]
    z[pair, :n] = c * rows + (s0[:, None, None] * other + -s1 * (other[..., ::-1, :] * _TIMES_I))
    # Columns p and q of W and V: X[:, p] <- c X[:, p] - conj(s) X[:, q] and
    # X[:, q] <- c X[:, q] + s X[:, p].
    cols, other = z[:, pair], z[:, pair][:, ::-1]
    z[:, pair] = c * cols + (s0[:, None] * other + s1 * (other[..., ::-1, :] * _TIMES_I))


def psd_within(a: np.ndarray) -> np.ndarray:
    """Whether every eigenvalue of the Hermitian part of each member exceeds -1e-10.

    Factors (a + a^dag)/2 + t I, t = ``ATOL_STRUCT``, as U^dag U with U upper
    triangular, reading the upper triangle of the symmetrized matrix.  The
    factorization exists, every pivot positive, exactly when that matrix is
    positive definite, that is when lambda_min((a + a^dag)/2) > -t; a matrix
    with lambda_min = -t exactly is rejected.  Runs in lockstep over a stack
    of square complex matrices (as ``as_cmatrix`` returns it), elementwise
    in real arithmetic, with each sum taken left to right; a member stops
    counting once a pivot fails.  Returns a bool of the batch shape.
    """
    batch, n = a.shape[:-2], a.shape[-1]
    re = a.real.reshape(-1, n, n).transpose(1, 2, 0)
    im = a.imag.reshape(-1, n, n).transpose(1, 2, 0)
    # Row k of U is stored as row k + 1; row 0 stays zero, so every sum over
    # the rows above row j starts from 0 and runs down in order.
    u_re, u_im = np.zeros((2, n + 1, *re.shape[1:]))
    ok = np.ones(re.shape[-1], dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(n):
            cr, ci = u_re[: j + 1, j], u_im[: j + 1, j]  # column j of U above the diagonal
            pivot = re[j, j] + ATOL_STRUCT - _sum_in_order(cr * cr + ci * ci)
            ok &= pivot > 0.0
            d = np.sqrt(np.where(ok, pivot, 1.0))
            u_re[j + 1, j] = d
            # Row j right of the diagonal: (h - sum_k conj(U[k, j]) U[k, i]) / d.
            h_re = (re[j, j + 1 :] + re[j + 1 :, j]) / 2.0
            h_im = (im[j, j + 1 :] - im[j + 1 :, j]) / 2.0
            cr, ci = cr[:, None], ci[:, None]
            r_re, r_im = u_re[: j + 1, j + 1 :], u_im[: j + 1, j + 1 :]
            u_re[j + 1, j + 1 :] = (h_re - _sum_in_order(cr * r_re + ci * r_im)) / d
            u_im[j + 1, j + 1 :] = (h_im - _sum_in_order(cr * r_im - ci * r_re)) / d
    return ok.reshape(batch)


def channel_choi(kraus) -> np.ndarray:
    """Choi matrix sum_jk |j><k| (x) sum_m K_m |j><k| K_m^dag of a Kraus set.

    ``kraus`` is a sequence of operators or a stack ``(..., m, d, d)`` of
    Kraus sets.  The first factor carries the input index, the second the
    output.  For a completely positive trace-preserving map the result is
    positive semidefinite and its partial trace over the output factor is
    the identity.
    """
    if not len(kraus):
        raise ValueError("channel_choi requires a nonempty Kraus set")
    if not isinstance(kraus, np.ndarray) and len({np.shape(k) for k in kraus}) > 1:
        raise ValueError("Kraus operators must share one dimension")
    ops = as_cmatrix(kraus)
    if ops.ndim < 3:
        raise ValueError(f"expected a stack of Kraus operators, got shape {ops.shape}")
    d = ops.shape[-1]
    # sum_jk |j><k| (x) K|j><k|K^dag  ==  sum_m v_m v_m^dag with
    # v_m = (I (x) K_m) sum_j |jj>, whose entry (j, a) is K_m[a, j].
    v = np.swapaxes(ops, -1, -2).reshape(*ops.shape[:-2], d * d)
    choi = np.zeros((*v.shape[:-2], d * d, d * d), dtype=np.complex128)
    for u in np.moveaxis(v, -2, 0):
        choi += u[..., :, None] * u[..., None, :].conj()
    return choi
