"""Qubit states, the phase-imprinting rotation, and qubit noise channels.

States live in two interchangeable representations: a real Bloch vector r
with |r| <= 1 (checked by the engine's bloch_vector, as axes are by its
unit_axis), and the 2x2 density matrix (I + r.sigma)/2.  Noise is a
Kraus channel; the noisy process under study applies a rotation about a
fixed axis followed by noise,  rho -> N(U rho U^dag).

Every constructor and check here broadcasts over leading batch axes: an
array of noise levels, phases or axes (shape ``(..., 3)``) gives a stack
of channels, and a stack of states ``(..., d, d)`` goes through a stack of
channels member by member.  A single value is the empty batch shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    I2,
    PAULI_MATRICES,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _check_probability,
    bloch_vector,
    unit_axis,
)
from .qmat import ATOL_STRUCT, _product, as_cmatrix, dagger, psd_within


def bloch_to_density(r) -> np.ndarray:
    """Density matrix (I + r.sigma)/2 of each Bloch vector."""
    x, y, z = np.moveaxis(bloch_vector(r)[..., None, None], -3, 0)
    return (I2 + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z) / 2.0


def check_density(rho: np.ndarray, name: str = "state") -> np.ndarray:
    """Assert the density-operator invariants on every member: Hermitian, unit trace, PSD.

    Hermiticity and the trace are held to 1e-10.  Positivity is the shifted
    Cholesky test ``psd_within``: every eigenvalue must exceed -1e-10, with
    no eigendecomposition.  One failing member fails the stack.
    """
    rho = as_cmatrix(rho)
    if np.max(np.abs(rho - dagger(rho))) >= ATOL_STRUCT:
        raise ValueError(f"{name} is not Hermitian")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    if not ((abs(trace.real - 1.0) < ATOL_STRUCT) & (abs(trace.imag) < ATOL_STRUCT)).all():
        raise ValueError(f"{name} does not have unit trace")
    if not psd_within(rho).all():
        raise ValueError(f"{name} is not positive semidefinite")
    return rho


def rotation_unitary(axis, phase) -> np.ndarray:
    """SU(2) rotation exp(-i phase n.sigma / 2) in closed form, per axis and phase.

    Built as cos(phase/2) I - i sin(phase/2) (n.sigma), which is exact and
    deterministic; no matrix exponential is involved.  Axes ``(..., 3)`` and
    phases ``(...)`` broadcast against each other.
    """
    x, y, z = np.moveaxis(unit_axis(axis)[..., None, None], -3, 0)
    n_sigma = x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z
    half = 0.5 * np.asarray(phase, dtype=np.float64)[..., None, None]
    return np.cos(half) * I2 - 1j * np.sin(half) * n_sigma


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Ordered Kraus operators of a channel rho -> sum_m K_m rho K_m^dag, or a stack of channels.

    Construction coerces the operators into one read-only complex array,
    ``kraus``, of shape ``(..., m, d, d)``: m operators of dimension d for
    each channel of the batch shape ``...`` (empty for one channel).  It
    checks every member once: finite entries and the completeness relation
    sum_m K_m^dag K_m = I within 1e-10, all members from one batched
    product.  Iterating yields the m operators, each a stack over the
    batch.  Channels compare and hash by identity, so a channel can be a
    set member or a dict key; two channels built from equal operators are
    not equal.
    """

    kraus: np.ndarray

    def __post_init__(self):
        # A sequence of operators may be ragged; an array is not.
        if not isinstance(self.kraus, np.ndarray) and len({np.shape(k) for k in self.kraus}) > 1:
            raise ValueError("Kraus operators must share one dimension")
        ops = np.array(self.kraus, dtype=np.complex128)
        if ops.shape[:1] == (0,) or ops.shape[-3:-2] == (0,):
            raise ValueError("a channel needs at least one Kraus operator")
        if ops.ndim < 3:
            raise ValueError(f"expected a stack of Kraus operators, got shape {ops.shape}")
        if ops.shape[-1] != ops.shape[-2]:
            raise ValueError(f"expected a square matrix, got shape {ops.shape[-2:]}")
        if not np.isfinite(ops).all():
            raise ValueError("matrix contains non-finite entries")
        d = ops.shape[-1]
        # sum_m K_m^dag K_m = A^dag A for the operators stacked as rows, A = (m d, d).
        rows = ops.reshape(*ops.shape[:-3], -1, d)
        if not (np.abs(_product(dagger(rows), rows) - np.eye(d)) < ATOL_STRUCT).all():
            raise ValueError("Kraus operators violate completeness sum K^dag K = I")
        ops.flags.writeable = False
        object.__setattr__(self, "kraus", ops)

    @property
    def dim(self) -> int:
        return self.kraus.shape[-1]

    def __iter__(self):
        return iter(np.moveaxis(self.kraus, -3, 0))

    def __len__(self) -> int:
        return self.kraus.shape[-3]


def _pauli_index(letter) -> int:
    """0, 1 or 2 for the Pauli letter x, y or z, in either case."""
    try:
        return ("x", "y", "z").index(str(letter).lower())
    except ValueError:
        raise ValueError(f"Pauli axis must be 'x', 'y' or 'z', got {str(letter)!r}") from None


def _pauli_matrices(axis) -> np.ndarray:
    """sigma_l for one Pauli letter, or a stack of them for an array of letters."""
    letters = np.asarray(axis, dtype=object)
    index = [_pauli_index(letter) for letter in letters.flat]
    return np.stack(PAULI_MATRICES)[index].reshape(*letters.shape, 2, 2)


def _levels(x) -> np.ndarray:
    """Scalars, one per channel, shaped to multiply a stack of matrices."""
    return np.asarray(x)[..., None, None]


def pauli_channel(axis, p) -> KrausChannel:
    """Noise that applies one Pauli operator with probability p.

    Kraus set {sqrt(1-p) I, sqrt(p) sigma_l}; action
    rho -> (1-p) rho + p sigma_l rho sigma_l.  l = x is bit flip, l = z
    phase flip, l = y bit-phase flip.  ``axis`` is the letter ``"x"``,
    ``"y"`` or ``"z"`` (either case), or an array of letters, and broadcasts
    against an array ``p``.
    """
    sigma = _pauli_matrices(axis)
    p = _check_probability(p)
    ops = np.broadcast_arrays(_levels(np.sqrt(1.0 - p)) * I2, _levels(np.sqrt(p)) * sigma)
    return KrausChannel(np.stack(ops, axis=-3))


def depolarizing_channel(p) -> KrausChannel:
    """Isotropic noise rho -> (1-p) rho + p I/2.

    Kraus set {sqrt(1-3p/4) I, sqrt(p/4) sigma_x, sqrt(p/4) sigma_y,
    sqrt(p/4) sigma_z}.  An array ``p`` gives one channel per level.
    """
    p = _check_probability(p)
    w = _levels(np.sqrt(p / 4.0))
    keep = _levels(np.sqrt(1.0 - 3.0 * p / 4.0)) * I2
    return KrausChannel(np.stack((keep, w * SIGMA_X, w * SIGMA_Y, w * SIGMA_Z), axis=-3))


def noisy_phase_channel(noise: KrausChannel, axis, phase) -> KrausChannel:
    """The noisy phase process E(rho) = N(U rho U^dag) as one Kraus set per member.

    Each noise operator N_m becomes N_m U, so completeness is inherited
    from the noise channel by unitarity of U.  The batch shapes of the
    noise, the axes ``(..., 3)`` and the phases broadcast.
    """
    if noise.dim != 2:
        raise ValueError(f"noise channel must act on a qubit, got dim {noise.dim}")
    return KrausChannel(_product(noise.kraus, rotation_unitary(axis, phase)[..., None, :, :]))


def _matching_state(ch: KrausChannel, rho) -> np.ndarray:
    """``rho`` coerced to a complex stack of states of the channel's dimension."""
    rho = as_cmatrix(rho)
    if rho.shape[-1] != ch.dim:
        raise ValueError(f"dimension mismatch: state {rho.shape}, channel dim {ch.dim}")
    return rho


def _act(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_m K_m rho K_m^dag per member of a checked Kraus stack and state stack.

    The sum runs over the operators in order, one (..., d, d) term at a time.
    """
    return sum(_product(_product(k, rho), dagger(k)) for k in np.moveaxis(kraus, -3, 0))

