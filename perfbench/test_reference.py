"""The benchmark's reference formulas against values derived by hand.

Run from the repository root with ``python -m pytest perfbench``.
"""

import math

import numpy as np
import pytest

import reference as ref

SQRT5 = math.sqrt(5.0)
E_Y = (0.0, 1.0, 0.0)


def test_control_qfi_at_half_noise_and_pi_over_5():
    # n_l = 0, p = p_c = 1/2: QFI = cos^2(xi/2) / (2 - sin^2(xi/2)), and
    # cos(pi/5) = (1 + sqrt 5) / 4 gives (5 + sqrt 5) / (13 + sqrt 5).
    for kind in ("bitflip", "phaseflip"):
        axis = E_Y if kind == "bitflip" else (1.0, 0.0, 0.0)
        assert ref.control_qfi(kind, 0.5, 0.5, math.pi / 5, axis) == pytest.approx((15 + 2 * SQRT5) / 41, abs=1e-15)


def test_coupling_at_half_noise_and_pi_over_5():
    # 1 - sin^2(pi/10) = cos^2(pi/10) = (5 + sqrt 5) / 8.
    assert ref.coupling("bitflip", 0.5, math.pi / 5, E_Y) == pytest.approx((5 + SQRT5) / 8, abs=1e-15)


def test_coupling_ignores_the_axis_component_along_the_noise():
    assert ref.coupling("bitflip", 0.3, 1.1, (1.0, 0.0, 0.0)) == 1.0
    assert ref.control_qfi("bitflip", 0.3, 0.5, 1.1, (1.0, 0.0, 0.0)) == 0.0


def test_depolarizing_coupling_and_control_qfi():
    # Without rotation the anticommuting Kraus pairs leave q_c = 1 - 3 p^2 / 4;
    # fully depolarizing noise leaves 1/4 whatever the phase.
    assert ref.coupling("depolarizing", 0.4, 0.0, E_Y) == pytest.approx(1 - 3 * 0.16 / 4, abs=1e-15)
    assert ref.coupling("depolarizing", 1.0, 2.0, E_Y) == pytest.approx(0.25, abs=1e-15)
    # p = 1/2, xi = pi/2: q_c = 9/16, q_c' = -1/4, QFI = (1/16) / (1 - 81/256) = 16/175.
    assert ref.coupling("depolarizing", 0.5, math.pi / 2, E_Y) == pytest.approx(9 / 16, abs=1e-15)
    assert ref.control_qfi("depolarizing", 0.5, 0.5, math.pi / 2, E_Y) == pytest.approx(16 / 175, abs=1e-15)


def test_hadamard_measurement_attains_the_qfi_only_at_half():
    for kind in ref.NOISE_KINDS:
        args = (kind, 0.3, 0.5, 1.1, (0.48, 0.6, 0.64))
        assert ref.control_cfi(*args) == pytest.approx(ref.control_qfi(*args), rel=1e-14)
        off = (kind, 0.3, 0.2, 1.1, (0.48, 0.6, 0.64))
        assert ref.control_cfi(*off) < ref.control_qfi(*off)
        assert ref.control_cfi(kind, 0.3, 0.0, 1.1, (0.48, 0.6, 0.64)) == 0.0


def test_cascade_qfi_hand_values():
    p = np.array([0.0, 0.5, 1.0])
    # Bit flip, axis e_y, probe r e_z: 4 r^2 without noise; at p = 1/2 the
    # Bloch vector is (r/2) sin 2xi e_x, so r = 1, xi = pi/8 gives
    # cos^2(pi/4) / (1 - sin^2(pi/4) / 4) = 4/7; at p = 1 the cascade is the identity.
    got = ref.cascade_qfi("bitflip", p, math.pi / 8, E_Y, (0.0, 0.0, 1.0))
    np.testing.assert_allclose(got, [4.0, 4.0 / 7.0, 0.0], rtol=0, atol=1e-14)
    np.testing.assert_allclose(ref.cascade_qfi("bitflip", 0.0, 0.7, E_Y, (0.0, 0.0, 0.6)), [1.44], atol=1e-14)
    # Depolarizing shrinks the doubled rotation by (1 - p)^2: 4 (1 - p)^4 r^2 for r normal to n.
    got = ref.cascade_qfi("depolarizing", p, 0.9, E_Y, (0.0, 0.0, 1.0))
    np.testing.assert_allclose(got, [4.0, 0.25, 0.0], rtol=0, atol=1e-14)


def test_rotation_is_the_bloch_action_of_the_phase_unitary():
    sigma = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
    n, r, xi = np.array([0.48, 0.6, 0.64]), np.array([0.1, -0.5, 0.3]), 1.3
    u = math.cos(xi / 2) * np.eye(2) - 1j * math.sin(xi / 2) * sum(c * s for c, s in zip(n, sigma))
    rho = (np.eye(2) + sum(c * s for c, s in zip(r, sigma))) / 2
    out = u @ rho @ u.conj().T
    bloch = [np.trace(out @ s).real for s in sigma]
    np.testing.assert_allclose(ref.rotation(n, xi) @ r, bloch, atol=1e-15)
