"""Reference values for the benchmark's output checks, computed apart from icoswitch.

Nothing here imports the package under test.  Every noise kind the program
offers is a Pauli-diagonal unital channel, so in Bloch space one use of the
noisy phase process is the real 3x3 matrix D(p) R(xi): R is the rotation by
xi about the axis n (the Bloch action of exp(-i xi n.sigma / 2)) and D holds
the contraction factors of the noise.  With dR/dxi = [n]_x R exactly, the
plain cascade has the output Bloch vector v = (D R)^2 r and the qubit QFI

    |v'|^2 + (v.v')^2 / (1 - |v|^2)          (|v'|^2 for a pure output).

The control qubit of the switch sees only the coupling scalar q_c(xi).  For
a Pauli noise along direction l (axis component n_l) and for depolarizing
noise it is

    Pauli:         q_c = 1 - 4 (1 - n_l^2) (1 - p) p sin^2(xi/2)
    depolarizing:  q_c = (1 - p/2)^2 + (1 - p) p cos(xi)

(the second follows from tr sum_jk K_j K_k rho K_j^dag K_k^dag with the four
Pauli Kraus operators, two of which anticommute).  The control state has
Bloch vector (2 s q_c, 0, 2 p_c - 1) with s = sqrt((1 - p_c) p_c), so its
QFI is 4 s^2 q_c'^2 / (1 - q_c^2), and the Hadamard measurement with
P_+ = 1/2 + s q_c has the classical FI s^2 q_c'^2 / ((p_c - 1/2)^2 + s^2 (1 - q_c^2)).
Both are written below without the cancellation of 1 - q_c^2 near q_c = 1.
"""

from __future__ import annotations

import numpy as np

NOISE_KINDS = ("bitflip", "phaseflip", "bitphaseflip", "depolarizing")
# Cartesian index of the Pauli operator each Pauli noise kind applies.
PAULI_INDEX = {"bitflip": 0, "bitphaseflip": 1, "phaseflip": 2}
# Below this, 1 - |v|^2 is a pure output and the second QFI term is dropped.
PURE_GAP = 1e-12


def contraction(kind: str, p) -> np.ndarray:
    """Bloch contraction factors of the noise, shape (..., 3)."""
    p = np.asarray(p, dtype=float)
    if kind == "depolarizing":
        return np.stack([1.0 - p] * 3, axis=-1)
    if kind not in PAULI_INDEX:
        raise ValueError(f"unknown noise kind {kind!r}")
    factors = [1.0 - 2.0 * p] * 3
    factors[PAULI_INDEX[kind]] = np.ones_like(p)
    return np.stack(factors, axis=-1)


def cross_matrix(n) -> np.ndarray:
    """[n]_x, the matrix of v -> n x v."""
    x, y, z = n
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation(n, xi: float) -> np.ndarray:
    """Rodrigues rotation by xi about the unit vector n."""
    k = cross_matrix(n)
    return np.eye(3) + np.sin(xi) * k + (1.0 - np.cos(xi)) * (k @ k)


def cascade_qfi(kind: str, p, xi: float, axis, probe) -> np.ndarray:
    """QFI of the cascade E(E(rho)) for every noise level in ``p``."""
    n = np.asarray(axis, dtype=float)
    r = np.asarray(probe, dtype=float)
    rot = rotation(n, xi)
    d = contraction(kind, np.atleast_1d(p))[:, :, None]
    step = d * rot  # D R, one 3x3 per noise level
    dstep = d * (cross_matrix(n) @ rot)
    once, donce = step @ r, dstep @ r
    v = np.einsum("mij,mj->mi", step, once)
    dv = np.einsum("mij,mj->mi", dstep, once) + np.einsum("mij,mj->mi", step, donce)
    gap = 1.0 - np.einsum("ij,ij->i", v, v)
    along = np.einsum("ij,ij->i", v, dv)
    mixed = np.where(gap > PURE_GAP, along**2 / np.where(gap > PURE_GAP, gap, 1.0), 0.0)
    return np.einsum("ij,ij->i", dv, dv) + mixed


def _coupling(kind: str, p, xi: float, axis):
    """(g, dq2, ratio): g = 1 - q_c, dq2 = (dq_c/dxi)^2, ratio = dq2 / (1 - q_c^2).

    ``ratio`` is written with the common factor of dq2 and 1 - q_c^2
    cancelled by hand, so it stays exact where both vanish.
    """
    p = np.asarray(p, dtype=float)
    if kind == "depolarizing":
        h = 1.0 - p / 4.0 - (1.0 - p) * np.cos(xi)  # g = p h
        g = p * h
        dq2 = (p * (1.0 - p) * np.sin(xi)) ** 2
        ratio = p * (1.0 - p) ** 2 * np.sin(xi) ** 2 / (h * (2.0 - g))
        return g, dq2, ratio
    nl = float(np.asarray(axis, dtype=float)[PAULI_INDEX[kind]])
    a = 2.0 * (1.0 - nl * nl) * (1.0 - p) * p
    sin2 = np.sin(0.5 * xi) ** 2
    cos2 = np.cos(0.5 * xi) ** 2
    g = 2.0 * a * sin2
    dq2 = 4.0 * a * a * sin2 * cos2
    ratio = a * cos2 / (1.0 - a * sin2)
    return g, dq2, ratio


def coupling(kind: str, p, xi: float, axis) -> np.ndarray:
    """The coupling scalar q_c."""
    return 1.0 - _coupling(kind, p, xi, axis)[0]


def control_qfi(kind: str, p, p_c: float, xi: float, axis) -> np.ndarray:
    """QFI of the control qubit, 4 (1 - p_c) p_c q_c'^2 / (1 - q_c^2)."""
    return 4.0 * (1.0 - p_c) * p_c * _coupling(kind, p, xi, axis)[2]


def control_cfi(kind: str, p, p_c: float, xi: float, axis) -> np.ndarray:
    """Classical FI of the Hadamard-basis measurement of the control."""
    g, dq2, ratio = _coupling(kind, p, xi, axis)
    s2 = (1.0 - p_c) * p_c
    bias = (p_c - 0.5) ** 2
    if bias == 0.0:
        return ratio  # = s^2 dq^2 / (s^2 (1 - q_c^2)) with s^2 = 1/4
    return s2 * dq2 / (bias + s2 * g * (2.0 - g))


def quantity(name: str, kind: str, p, p_c: float, xi: float, axis, probe) -> np.ndarray:
    """Reference for one sweep quantity; ``fq_joint`` has none (see the checks)."""
    if name == "qc":
        return coupling(kind, p, xi, axis)
    if name == "fq_con":
        return control_qfi(kind, p, p_c, xi, axis)
    if name == "fc_con":
        return control_cfi(kind, p, p_c, xi, axis)
    if name == "fq_cas":
        return cascade_qfi(kind, p, xi, axis, probe)
    raise ValueError(f"no reference for {name!r}")
