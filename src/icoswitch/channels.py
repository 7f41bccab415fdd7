"""Qubit states, the phase-imprinting rotation, and qubit noise channels.

States live in two interchangeable representations: a real Bloch vector r
with |r| <= 1, and the 2x2 density matrix (I + r.sigma)/2.  Noise is a
Kraus channel; the noisy process under study applies a rotation about a
fixed axis followed by noise,  rho -> N(U rho U^dag).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qmat import (
    ATOL_STRUCT,
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    as_cmatrix,
    psd_within,
)

# Excess Bloch norm up to this is attributed to roundoff and rescaled away.
BLOCH_NORM_TOL = 1e-12
AXIS_UNIT_TOL = 1e-12


class PauliAxis(Enum):
    """Which Pauli operator a noise channel applies: x, y or z."""

    X = "x"
    Y = "y"
    Z = "z"

    @property
    def matrix(self) -> np.ndarray:
        return {PauliAxis.X: SIGMA_X, PauliAxis.Y: SIGMA_Y, PauliAxis.Z: SIGMA_Z}[self]

    @property
    def index(self) -> int:
        """Cartesian component index (0, 1, 2) selected by this Pauli."""
        return ("x", "y", "z").index(self.value)

    @classmethod
    def coerce(cls, value: "PauliAxis | str") -> "PauliAxis":
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())


def _check_probability(p: float, name: str = "p") -> float:
    p = float(p)
    if not np.isfinite(p) or p < 0.0 or p > 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {p}")
    return p


def _check_phase(xi: float) -> float:
    xi = float(xi)
    if not np.isfinite(xi):
        raise ValueError(f"xi must be a finite number of radians, got {xi}")
    return xi


def bloch_vector(r) -> np.ndarray:
    """Validate a Bloch vector: real 3-vector with norm <= 1.

    A norm overshoot of at most 1e-12 is rescaled silently (roundoff from
    upstream arithmetic); anything larger is an error.
    """
    v = np.asarray(r, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError(f"Bloch vector must have 3 components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("Bloch vector has non-finite components")
    norm = float(np.linalg.norm(v))
    if norm > 1.0 + BLOCH_NORM_TOL:
        raise ValueError(f"Bloch vector norm {norm} exceeds 1")
    if norm > 1.0:
        v = v / norm
    return v


def unit_axis(n) -> np.ndarray:
    """Validate a rotation axis: real 3-vector with unit norm within 1e-12."""
    v = np.asarray(n, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError(f"axis must have 3 components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("axis has non-finite components")
    if abs(float(np.linalg.norm(v)) - 1.0) > AXIS_UNIT_TOL:
        raise ValueError(f"axis must be a unit vector, |n| = {np.linalg.norm(v)}")
    return v


def bloch_to_density(r) -> np.ndarray:
    """Density matrix (I + r.sigma)/2 of a Bloch vector."""
    v = bloch_vector(r)
    return (I2 + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z) / 2.0


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch components r_k = tr(rho sigma_k) of a qubit state."""
    rho = as_cmatrix(rho)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got {rho.shape}")
    return np.array([np.trace(rho @ s).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])


def check_density(rho: np.ndarray, name: str = "state") -> np.ndarray:
    """Assert the density-operator invariants: Hermitian, unit trace, PSD.

    Hermiticity and the trace are held to 1e-10.  Positivity is the shifted
    Cholesky test ``psd_within``: every eigenvalue must exceed -1e-10, with
    no eigendecomposition.
    """
    rho = as_cmatrix(rho)
    if np.max(np.abs(rho - rho.conj().T)) >= ATOL_STRUCT:
        raise ValueError(f"{name} is not Hermitian")
    if abs(np.trace(rho).real - 1.0) >= ATOL_STRUCT or abs(np.trace(rho).imag) >= ATOL_STRUCT:
        raise ValueError(f"{name} does not have unit trace")
    if not psd_within(rho):
        raise ValueError(f"{name} is not positive semidefinite")
    return rho


def rotation_unitary(axis, phase: float) -> np.ndarray:
    """SU(2) rotation exp(-i phase n.sigma / 2) in closed form.

    Built as cos(phase/2) I - i sin(phase/2) (n.sigma), which is exact and
    deterministic; no matrix exponential is involved.
    """
    n = unit_axis(axis)
    n_sigma = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    half = 0.5 * float(phase)
    return np.cos(half) * I2 - 1j * np.sin(half) * n_sigma


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Ordered Kraus operators of a channel rho -> sum_m K_m rho K_m^dag.

    Construction coerces the operators into one read-only (m, d, d)
    complex stack, ``kraus``, and checks it once: finite entries and the
    completeness relation sum_m K_m^dag K_m = I within 1e-10.  Channels
    compare and hash by identity, so a channel can be a set member or a dict
    key; two channels built from equal operators are not equal.
    """

    kraus: np.ndarray

    def __post_init__(self):
        if len({np.shape(k) for k in self.kraus}) > 1:
            raise ValueError("Kraus operators must share one dimension")
        ops = np.array(self.kraus, dtype=np.complex128)
        if ops.shape[:1] == (0,):
            raise ValueError("a channel needs at least one Kraus operator")
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise ValueError(f"expected a square matrix, got shape {ops.shape[1:]}")
        if not np.isfinite(ops).all():
            raise ValueError("matrix contains non-finite entries")
        d = ops.shape[1]
        # sum_m K_m^dag K_m = A^dag A for the operators stacked as rows, A = (m d, d).
        rows = ops.reshape(-1, d)
        residual = (rows.conj().T @ rows).tolist()
        for i in range(d):
            residual[i][i] -= 1.0
        if not all(abs(x) < ATOL_STRUCT for row in residual for x in row):
            raise ValueError("Kraus operators violate completeness sum K^dag K = I")
        ops.flags.writeable = False
        object.__setattr__(self, "kraus", ops)

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]

    def __iter__(self):
        return iter(self.kraus)

    def __len__(self) -> int:
        return len(self.kraus)


def pauli_channel(axis: PauliAxis | str, p: float) -> KrausChannel:
    """Noise that applies one Pauli operator with probability p.

    Kraus set {sqrt(1-p) I, sqrt(p) sigma_l}; action
    rho -> (1-p) rho + p sigma_l rho sigma_l.  l = x is bit flip, l = z
    phase flip, l = y bit-phase flip.
    """
    axis = PauliAxis.coerce(axis)
    p = _check_probability(p)
    return KrausChannel((np.sqrt(1.0 - p) * I2, np.sqrt(p) * axis.matrix))


def depolarizing_channel(p: float) -> KrausChannel:
    """Isotropic noise rho -> (1-p) rho + p I/2.

    Kraus set {sqrt(1-3p/4) I, sqrt(p/4) sigma_x, sqrt(p/4) sigma_y,
    sqrt(p/4) sigma_z}.
    """
    p = _check_probability(p)
    w = np.sqrt(p / 4.0)
    return KrausChannel(
        (np.sqrt(1.0 - 3.0 * p / 4.0) * I2, w * SIGMA_X, w * SIGMA_Y, w * SIGMA_Z)
    )


def noisy_phase_channel(noise: KrausChannel, axis, phase: float) -> KrausChannel:
    """The noisy phase process E(rho) = N(U rho U^dag) as one Kraus set.

    Each noise operator N_m becomes N_m U, so completeness is inherited
    from the noise channel by unitarity of U.
    """
    if noise.dim != 2:
        raise ValueError(f"noise channel must act on a qubit, got dim {noise.dim}")
    return KrausChannel(noise.kraus @ rotation_unitary(axis, phase))


def apply_channel(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Channel action sum_m K_m rho K_m^dag."""
    rho = as_cmatrix(rho)
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError(f"dimension mismatch: state {rho.shape}, channel dim {ch.dim}")
    ops = ch.kraus
    return (ops @ rho @ ops.conj().transpose(0, 2, 1)).sum(axis=0)
