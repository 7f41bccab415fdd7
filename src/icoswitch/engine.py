"""Grid engine: every sweep column on a whole grid of noise levels at once.

Every noise kind here is a Pauli mixture N(rho) = sum_j w_j sigma_j rho sigma_j
(sigma_0 = I) with weights w(p) = (w_0, w_x, w_y, w_z):

    bit flip, phase flip, bit-phase flip   1 - p on I, p on sigma_x, sigma_z, sigma_y
    depolarizing                           (1 - 3p/4, p/4, p/4, p/4)

One use of the noisy process E(rho) = N(U rho U^dag), U = exp(-i xi n.sigma/2),
maps the Bloch vector as the real matrix D R(xi), with the contraction
factors D_l = 1 - 2 (w_j + w_k) ({j, k, l} the three Pauli indices) and R the
rotation about n.  The columns come from three routes, each exact in xi:

* fq_cas, the plain cascade: v = (D R)^2 r with dR/dxi = [n]_x R, and the
  qubit QFI |v'|^2 + (v.v')^2 / (1 - |v|^2) (Zhong et al., PRA 87, 022337
  (2013)), with 1 - |v|^2 and v.v' summed from the losses 1 - D_l^2 so that
  neither cancels near a pure output.
* qc, fq_con, fc_con, the control qubit, in closed form for any Pauli
  mixture.  With c = 2 sin^2(xi/2), m_l = 1 - n_l^2 and s^2 = p_c (1 - p_c),

      alpha = 2 sum_l m_l (w_0 w_l - w_j w_k)      beta = 4 sum_{j<k} w_j w_k
      g = 1 - q_c = alpha c + beta                  q_c' = -alpha sin xi
      R = q_c'^2 / (1 - q_c^2) = alpha (alpha c / g) (2 - c) / (2 - g),
          with alpha c / g = 1 where beta = 0 (so also at xi = 0),

  fq_con = 4 s^2 R, and the Hadamard measurement's classical FI is
  s^2 q_c'^2 / ((p_c - 1/2)^2 + s^2 g (2 - g)), which is R at p_c = 1/2.
  Neither form cancels as q_c -> 1, so both hold down to xi = 0.
* fq_joint, the joint probe-control output rho = Phi Phi^dag.  Each column
  block of the Gram factor Phi is a switch Kraus operator W_jk, built once
  per call from the products sigma_j U sigma_k U of the kind's Paulis (4
  under one-Pauli noise, 16 under depolarizing), applied to the square root
  of the probe and the control state and scaled by sqrt(w_j w_k); the exact
  derivative follows from dU/dxi = -(i/2) n.sigma U.  _gram_factors yields
  Phi and Phi' in chunks of levels to fq_joint, and its first chunk to
  joint_state, which returns one level's joint output for ``verify``.
  One batched SVD of Phi gives the eigenbasis of rho, and the SLD spectral
  sum is taken there with the square roots s_j of the eigenvalues as the
  scale, so eigenvalues far below the finite-difference oracle's 1e-10
  cutoff keep their information.

_evaluate computes every column.  It trusts the names, p_c, axis and probe;
kind, p and xi get their only engine checks there (noise_weights, and
_reduce_phase, which also reduces xi mod 2 pi).  point and fig2_preset call it
on checked or constant values.  evaluate_grid first checks the names and, in
_validated as joint_state does, p_c, axis and probe; sweep and verify
call it, since a hand-built SweepConfig reaches run_sweep unchecked.
The control qubit's closed form has one more entry, _pauli_control, which
stacks one-Pauli parameters for qc_closed_form, qfi_control and cfi_control.
The density-matrix code in channels, switch and metrology is the independent
oracle the tests and ``verify`` hold these routes against.  The arrow runs
one way: this module imports only math and numpy, and the oracle takes its
input rules and its Pauli matrices from here.
"""

from __future__ import annotations

import math

import numpy as np

I2 = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULI_MATRICES = (SIGMA_X, SIGMA_Y, SIGMA_Z)

NOISE_KINDS = ("bitflip", "phaseflip", "bitphaseflip", "depolarizing")
# The Pauli each one-Pauli noise kind applies, by its letter.
PAULI_OF_KIND = {"bitflip": "x", "phaseflip": "z", "bitphaseflip": "y"}
# Indices (0 for I) of the Paulis each noise kind can weight.
_KIND_PAULIS = {kind: [0, 1 + "xyz".index(pauli)] for kind, pauli in PAULI_OF_KIND.items()}
_KIND_PAULIS["depolarizing"] = [0, 1, 2, 3]
QUANTITIES = ("qc", "fq_con", "fq_cas", "fc_con", "fq_joint")

# Excess Bloch norm up to this is attributed to roundoff and rescaled away.
BLOCH_NORM_TOL = 1e-12
AXIS_UNIT_TOL = 1e-12

_PAULIS = np.stack((I2, SIGMA_X, SIGMA_Y, SIGMA_Z))
# Largest noise grid an engine entry accepts (and the config `p` ranges and
# `fig2 --steps`): checked before the weights are built.
MAX_GRID_POINTS = 1_000_000
# _gram_factors runs over the grid in chunks of this many levels, so its
# (m, 4, 32) Gram factors stay near 100 kB on any grid.
JOINT_CHUNK = 32


def _check_probability(p, name: str = "p"):
    """``p`` as float64 in [0, 1]: a float for a scalar, an array of the batch shape for a stack."""
    p = np.asarray(p, dtype=np.float64)
    ok = (p >= 0.0) & (p <= 1.0)
    if not ok.all():
        raise ValueError(f"{name} must be a probability in [0, 1], got {p[~ok][0]}")
    return p if p.ndim else float(p)


def _check_phase(xi: float) -> float:
    xi = float(xi)
    if not math.isfinite(xi):
        raise ValueError(f"xi must be a finite number of radians, got {xi}")
    return xi


def _three_vectors(x, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as float64 3-vectors of any batch shape ``(..., 3)``, and the norm of each.

    The norm is the square root of one (1, 3) @ (3, 1) product per vector,
    the dot product ``np.linalg.norm`` takes for a single vector.  A
    non-finite component makes its norm NaN or infinite, so callers test
    finiteness only once the norm test has failed.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.shape[-1:] != (3,):
        raise ValueError(f"{what} must have 3 components, got shape {v.shape}")
    with np.errstate(over="ignore"):  # an infinite norm fails every caller's norm test
        return v, np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0][()])


def _reject_non_finite(v: np.ndarray, what: str) -> None:
    if not np.isfinite(v).all():
        raise ValueError(f"{what} has non-finite components")


def bloch_vector(r) -> np.ndarray:
    """Validate Bloch vectors ``(..., 3)``, a single one or a stack: each norm <= 1.

    A norm overshoot of at most 1e-12 is rescaled silently (roundoff from
    upstream arithmetic); anything larger is an error.
    """
    v, norm = _three_vectors(r, "Bloch vector")
    if not (norm <= 1.0).all():
        _reject_non_finite(v, "Bloch vector")
        over = norm > 1.0 + BLOCH_NORM_TOL
        if over.any():
            raise ValueError(f"Bloch vector norm {np.asarray(norm)[over][0]} exceeds 1")
        v = v / np.maximum(norm, 1.0)[..., None]
    return v


def unit_axis(n) -> np.ndarray:
    """Validate rotation axes ``(..., 3)``, a single one or a stack: each |n| = 1 to 1e-12."""
    v, norm = _three_vectors(n, "axis")
    off = ~(abs(norm - 1.0) <= AXIS_UNIT_TOL)
    if off.any():
        _reject_non_finite(v, "axis")
        raise ValueError(f"axis must be a unit vector, |n| = {np.asarray(norm)[off][0]}")
    return v


def noise_weights(kind: str, p_array) -> np.ndarray:
    """Pauli weights (w_0, w_x, w_y, w_z) of the noise, one row per level p, for at most
    MAX_GRID_POINTS levels."""
    p = _check_probability(p_array)
    if np.ndim(p) != 1:
        raise ValueError(f"noise levels must form a 1-d array, got shape {np.shape(p)}")
    if p.size > MAX_GRID_POINTS:
        raise ValueError(f"noise grid has {p.size} levels, more than {MAX_GRID_POINTS}")
    if kind not in _KIND_PAULIS:
        raise ValueError(f"unknown noise kind {kind!r}")
    if kind == "depolarizing":
        quarter = p / 4.0
        return np.stack((1.0 - 3.0 * quarter, quarter, quarter, quarter), axis=1)
    weights = np.zeros((p.size, 4))
    weights[:, 0], weights[:, _KIND_PAULIS[kind][1]] = 1.0 - p, p
    return weights


def _flip_weights(weights: np.ndarray) -> np.ndarray:
    """w_j + w_k per Bloch axis l: the weight of the two Paulis that flip component l."""
    w = weights
    return np.stack((w[:, 2] + w[:, 3], w[:, 1] + w[:, 3], w[:, 1] + w[:, 2]), axis=1)


def _reduce_phase(xi: float) -> float:
    """xi mod 2 pi in [-pi, pi], the identity there.

    Every quantity is 2 pi-periodic in xi: U(xi + 2 pi) = -U(xi), and the
    sign cancels in the channel and in each Kraus product of s01.  Reducing
    first keeps the half-angle sines and cosines exact at huge xi and puts
    the engine at the same phase the density-matrix oracle can resolve.
    """
    return math.remainder(_check_phase(xi), 2.0 * math.pi)


def _cascade_qfi(flips: np.ndarray, n, xi: float, r) -> np.ndarray:
    """Cascade QFI per row of ``flips`` (w_j + w_k per Bloch axis, from _flip_weights).

    The contraction factors are D = 1 - 2 flips and the losses
    1 - D^2 = 2 flips (1 + D), formed without cancelling.  With x = R r and
    y = R D x, the output is v = D y and
    1 - |v|^2 = (1 - |r|^2) + sum_i loss_i (x_i^2 + y_i^2), a sum of
    nonnegative terms; its derivative gives v.v' = -sum_i loss_i (x_i x_i' +
    y_i y_i').  Both stay exact to roundoff as the output nears a pure
    state, where the direct 1 - |v|^2 and v.v' would cancel.  By
    Cauchy-Schwarz (v.v')^2 <= (1 - |v|^2) sum_i loss_i (x_i'^2 + y_i'^2),
    so the second term is bounded and only the 0/0 of an exactly pure
    output is skipped.
    """
    factors = 1.0 - 2.0 * flips
    loss = 2.0 * flips * (1.0 + factors)
    cross = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    # 1 - cos xi as 2 sin^2(xi/2): no cancellation at small xi.
    rot = np.cos(xi) * np.eye(3) + np.sin(xi) * cross
    rot += 2.0 * np.sin(0.5 * xi) ** 2 * np.outer(n, n)
    drot = cross @ rot
    x, dx = rot @ r, drot @ r
    once, d_once = factors * x, factors * dx
    y = np.einsum("ij,mj->mi", rot, once)
    dy = np.einsum("ij,mj->mi", drot, once) + np.einsum("ij,mj->mi", rot, d_once)
    dv = factors * dy
    info = np.einsum("mi,mi->m", dv, dv)
    gap = max(0.0, 1.0 - r @ r) + np.einsum("mi,i->m", loss, x * x)
    gap += np.einsum("mi,mi->m", loss, y * y)
    # x.x' = 0 (R is a rotation), so lowering loss by its row minimum in the
    # x term changes nothing exactly; isotropic noise then adds exactly 0.
    shifted = loss - loss.min(axis=1, keepdims=True)
    along = np.einsum("mi,i->m", shifted, x * dx) + np.einsum("mi,mi->m", loss, y * dy)
    mixed = gap > 0.0
    info[mixed] += along[mixed] ** 2 / gap[mixed]
    return info


def _control_columns(weights: np.ndarray, n: np.ndarray, xi, p_c) -> dict:
    """qc, fq_con and fc_con from the closed form of the module docstring, for
    one axis, xi and p_c each or for one per row of ``weights``."""
    w0, wx, wy, wz = weights.T
    mx, my, mz = (1.0 - n * n).T
    alpha = 2.0 * (mx * (w0 * wx - wy * wz) + my * (w0 * wy - wx * wz) + mz * (w0 * wz - wx * wy))
    beta = 4.0 * (wx * wy + wx * wz + wy * wz)
    # One xi or a stack of them takes the same operations, so both give the
    # same bits: numpy's sin and cos, and squares as products (a Python
    # float's ``** 2`` is C pow, which is not always correctly rounded).
    half_sin, half_cos = np.sin(0.5 * xi), np.cos(0.5 * xi)
    c = 2.0 * (half_sin * half_sin)
    c_bar = 2.0 * (half_cos * half_cos)  # 2 - c without cancellation near xi = pi
    g = alpha * c + beta
    spread = g * (2.0 - g)  # 1 - q_c^2
    s2 = (1.0 - p_c) * p_c
    off = p_c - 0.5
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 only where np.where drops it
        # alpha c / g is exactly 1 under one-Pauli noise (beta = 0, g = alpha c),
        # which keeps the xi -> 0 limit; g = 0 only there, at c = 0 or alpha = 0.
        ratio = alpha * np.where(g > 0.0, alpha * c / g, 1.0) * c_bar / (2.0 - g)
        classical = np.where(
            p_c == 0.5, ratio, s2 * alpha * alpha * c * c_bar / (off * off + s2 * spread)
        )
    return {"qc": 1.0 - g, "fq_con": 4.0 * s2 * ratio, "fc_con": classical}


def _pauli_control(p_c, p, xi, overlap) -> dict:
    """qc, fq_con and fc_con under one-Pauli noise, for arguments that broadcast.

    ``overlap`` is n_l, the axis component along the noise's Pauli: these are
    _control_columns at weights (1 - p, p, 0, 0) and axis (n_l, 0, 0), each
    xi reduced as in evaluate_grid.  Scalars too take the array path, so a
    stack gives its members' values bit for bit.  The values have the
    broadcast shape, and are floats for scalar arguments.
    """
    p_c = _check_probability(p_c, "p_c")
    p = _check_probability(p)
    overlap = np.asarray(overlap, dtype=np.float64)
    outside = ~(abs(overlap) <= 1.0)
    if outside.any():
        raise ValueError(f"axis component must lie in [-1, 1], got {overlap[outside][0]}")
    p_c, p, xi, overlap = np.broadcast_arrays(p_c, p, np.asarray(xi, dtype=np.float64), overlap)
    weights = np.zeros((p.size, 4))
    weights[:, 0], weights[:, 1] = 1.0 - p.ravel(), p.ravel()
    n = np.zeros((p.size, 3))
    n[:, 0] = overlap.ravel()
    reduced = np.array([_reduce_phase(x) for x in xi.ravel().tolist()], dtype=np.float64)
    columns = _control_columns(weights, n, reduced, p_c.ravel()).items()
    return {name: col.reshape(p.shape) if p.ndim else float(col[0]) for name, col in columns}


def _kraus_blocks(n: np.ndarray, xi: float, r: np.ndarray, p_c: float, paulis):
    """Unweighted column blocks of the Gram factor and their xi-derivatives, each (k, k, 4, 2)
    for the k Pauli indices ``paulis``.

    Block (j, k) is W_jk (L (x) psi_c): the switch Kraus operator
    W_jk = sigma_j U sigma_k U (x) |0><0| + sigma_k U sigma_j U (x) |1><1|
    applied to the square root L of the probe state and to the control
    psi_c = sqrt(p_c)|0> + sqrt(1 - p_c)|1>.  Rows are probe-first (2 b + c).
    """
    n_sigma = np.einsum("i,iab->ab", n, _PAULIS[1:])
    u = math.cos(0.5 * xi) * I2 - 1j * math.sin(0.5 * xi) * n_sigma
    du = -0.5j * n_sigma @ u
    rho = 0.5 * (I2 + np.einsum("i,iab->ab", r, _PAULIS[1:]))
    half_root_det = 0.5 * math.sqrt(max(0.0, 1.0 - r @ r))  # sqrt(det rho)
    root = (rho + half_root_det * I2) / math.sqrt(1.0 + 2.0 * half_root_det)
    sigma = _PAULIS[list(paulis)]
    su, dsu = sigma @ u, sigma @ du  # sigma_j U and its derivative
    pair = np.einsum("jab,kbc->jkac", su, su)  # sigma_j U sigma_k U
    dpair = np.einsum("jab,kbc->jkac", dsu, su) + np.einsum("jab,kbc->jkac", su, dsu)
    amplitudes = math.sqrt(p_c), math.sqrt(1.0 - p_c)

    def blocks(ops):
        both_orders = (amplitudes[0] * ops @ root, amplitudes[1] * ops.transpose(1, 0, 2, 3) @ root)
        return np.stack(both_orders, axis=3).reshape(len(paulis), len(paulis), 4, 2)

    return blocks(pair), blocks(dpair)


def _gram_factors(kind: str, weights: np.ndarray, n: np.ndarray, xi: float, r, p_c: float):
    """Yield (rows, Phi, Phi') per JOINT_CHUNK rows of ``weights``: the joint output's Gram
    factor and its xi-derivative, (len(rows), 4, 2 k^2) each, for the kind's k Paulis.

    Column block (j, k) is _kraus_blocks' block (j, k) times sqrt(w_j w_k); every
    other block is 0 at every p.  The Paulis come from the kind, not from the grid's
    nonzero weights, so Phi keeps at least 8 columns and its SVD all four left
    singular vectors: the QFI sums over the kernel directions too.
    """
    paulis = _KIND_PAULIS[kind]
    blocks = _kraus_blocks(n, xi, r, p_c, paulis)
    for start in range(0, len(weights), JOINT_CHUNK):
        rows = slice(start, start + JOINT_CHUNK)
        kept = weights[rows][:, paulis]
        scale = np.sqrt(kept[:, :, None] * kept[:, None, :])[:, :, :, None, None]
        phi, dphi = ((scale * b).transpose(0, 3, 1, 2, 4).reshape(len(kept), 4, -1) for b in blocks)
        yield rows, phi, dphi


def _joint_qfi(phi: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """SLD spectral sum of rho = Phi Phi^dag, in the singular basis of Phi.

    With Phi = U S V^dag and X = U^dag Phi' V, the derivative in the
    eigenbasis of rho is O_jk = X_jk s_k + s_j conj(X_kj), and the QFI is
    sum_jk 2 |O_jk|^2 / (s_j^2 + s_k^2).  By Cauchy-Schwarz each term is at
    most 2 (|X_jk|^2 + |X_kj|^2), so no eigenvalue cutoff is needed: pairs
    of kernel directions, where X vanishes up to roundoff, add roundoff, and
    only exact zeros (0/0) are skipped.  Eigenvalues s^2 far below the
    oracle's 1e-10 cutoff therefore keep their share of the information.
    """
    left, s, right_dag = np.linalg.svd(phi, full_matrices=False)
    x = left.conj().swapaxes(1, 2) @ dphi @ right_dag.conj().swapaxes(1, 2)
    overlap = x * s[:, None, :] + s[:, :, None] * x.conj().swapaxes(1, 2)
    weight = s[:, :, None] ** 2 + s[:, None, :] ** 2
    kept = weight > 0.0
    terms = np.where(kept, 2.0 * np.abs(overlap) ** 2 / np.where(kept, weight, 1.0), 0.0)
    return terms.sum(axis=(1, 2))


def _validated(p_c, axis, probe):
    """p_c as a float and axis and probe as float64 3-vectors, each checked once as a single
    value; the probe takes bloch_vector's rescale of a roundoff overshoot."""
    n, r = np.asarray(axis, dtype=np.float64), np.asarray(probe, dtype=np.float64)
    for v, what in ((n, "axis"), (r, "Bloch vector")):
        if v.shape != (3,):
            raise ValueError(f"{what} must have 3 components, got shape {v.shape}")
    return float(_check_probability(p_c, "p_c")), unit_axis(n), bloch_vector(r)


def joint_state(kind: str, p: float, p_c: float, xi: float, axis, probe):
    """The joint probe-control output at noise level p and its exact xi-derivative, (4, 4) each."""
    (p_c, n, r), weights = _validated(p_c, axis, probe), noise_weights(kind, [p])
    _, phi, dphi = next(_gram_factors(kind, weights, n, _reduce_phase(xi), r, p_c))
    phi_dag = phi.conj().swapaxes(1, 2)
    return (phi @ phi_dag)[0], (dphi @ phi_dag + phi @ dphi.conj().swapaxes(1, 2))[0]


def evaluate_grid(names, kind: str, p_array, p_c: float, xi: float, axis, probe) -> dict:
    """The named sweep quantities (of QUANTITIES) on the noise grid ``p_array``, one array each."""
    unknown = [name for name in names if name not in QUANTITIES]
    if unknown:
        raise ValueError(f"unknown quantity {unknown[0]!r}")
    p_c, n, _ = _validated(p_c, axis, probe)  # the probe as given: _evaluate rescales it
    return _evaluate(names, kind, p_array, p_c, xi, n, probe)


def _evaluate(names, kind: str, p_array, p_c: float, xi: float, axis, probe) -> dict:
    """evaluate_grid on checked names, p_c, axis and probe; kind, p and xi take their only
    engine checks here, and only the routes the names need are computed."""
    weights, xi = noise_weights(kind, p_array), _reduce_phase(xi)
    n, (r, norm) = np.asarray(axis, dtype=np.float64), _three_vectors(probe, "Bloch vector")
    r = r / max(norm, 1.0)  # bloch_vector's rescale, once: a second can move a bit
    out = {}
    if {"qc", "fq_con", "fc_con"} & set(names):
        out.update(_control_columns(weights, n, xi, p_c))
    if "fq_cas" in names:
        out["fq_cas"] = _cascade_qfi(_flip_weights(weights), n, xi, r)
    if "fq_joint" in names:
        out["fq_joint"] = np.empty(len(weights))
        for rows, phi, dphi in _gram_factors(kind, weights, n, xi, r, p_c):
            out["fq_joint"][rows] = _joint_qfi(phi, dphi)
    return {name: out[name] for name in names}
