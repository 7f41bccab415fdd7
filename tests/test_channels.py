"""Tests for qubit states, the phase rotation, and the noise channels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icoswitch.channels import (
    KrausChannel,
    bloch_to_density,
    bloch_vector,
    check_density,
    depolarizing_channel,
    noisy_phase_channel,
    pauli_channel,
    rotation_unitary,
    unit_axis,
)
from icoswitch.engine import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, evaluate_grid
from icoswitch.qmat import herm_eig
from references import apply_channel, random_bloch


class TestBlochMaps:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(bloch_to_density((0, 0, 0)), I2 / 2, atol=0)

    def test_pure_zero(self):
        np.testing.assert_allclose(bloch_to_density((0, 0, 1)), np.diag([1.0, 0.0]), atol=0)

    def test_partially_polarized(self):
        np.testing.assert_allclose(
            bloch_to_density((0, 0, 0.6)), np.diag([0.8, 0.2]), atol=1e-15
        )

    def test_norm_overshoot_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            bloch_vector((0, 0, 1.001))

    def test_tiny_overshoot_rescaled(self):
        v = bloch_vector((0, 0, 1 + 5e-13))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-15

    def test_round_trip(self):
        # r_k = tr(rho sigma_k) recovers the Bloch vector.
        rng = np.random.default_rng(21)
        for _ in range(50):
            r = random_bloch(rng)
            rho = bloch_to_density(r)
            back = [np.trace(rho @ sigma).real for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
            assert np.max(np.abs(back - r)) < 1e-12

    def test_check_density(self):
        check_density(bloch_to_density((0.1, 0.2, 0.3)))
        with pytest.raises(ValueError, match="trace"):
            check_density(np.diag([1.0, 1.0]).astype(complex))
        with pytest.raises(ValueError, match="positive"):
            check_density(np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(ValueError, match="Hermitian"):
            check_density(np.array([[1, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize(
        "rho, message",
        [
            (np.array([[1, 1], [0, 0]]), "joint is not Hermitian"),
            (np.diag([1.0, 1.0]), "joint does not have unit trace"),
            (np.diag([1.0 + 2e-10, -2e-10]), "joint is not positive semidefinite"),
            (np.diag([0.5, 0.5, 0.5, -0.5]), "joint is not positive semidefinite"),
        ],
    )
    def test_check_density_messages(self, rho, message):
        with pytest.raises(ValueError) as info:
            check_density(rho.astype(complex), "joint")
        assert str(info.value) == message

    def test_check_density_tolerates_roundoff_negatives(self):
        check_density(np.diag([1.0 + 5e-11, -5e-11]).astype(complex))
        check_density(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))

    @pytest.mark.parametrize(
        "check, what", [(bloch_vector, "Bloch vector"), (unit_axis, "axis")]
    )
    def test_three_vector_messages(self, check, what):
        for bad, message in (
            ((1.0, 0.0), f"{what} must have 3 components, got shape (2,)"),
            (np.zeros((3, 1)), f"{what} must have 3 components, got shape (3, 1)"),
            ((0.0, np.nan, 0.0), f"{what} has non-finite components"),
            ((0.0, 0.0, -np.inf), f"{what} has non-finite components"),
        ):
            with pytest.raises(ValueError) as info:
                check(bad)
            assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            unit_axis((0.0, 0.6, 0.6))
        assert str(info.value) == f"axis must be a unit vector, |n| = {np.sqrt(0.72)}"


class TestRotationUnitary:
    def test_zero_phase(self):
        np.testing.assert_allclose(rotation_unitary((0, 0, 1), 0.0), I2, atol=0)

    def test_pi_about_y(self):
        np.testing.assert_allclose(
            rotation_unitary((0, 1, 0), np.pi), np.array([[0, -1], [1, 0]]), atol=1e-16
        )

    def test_z_quarter_turn(self):
        expected = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
        np.testing.assert_allclose(rotation_unitary((0, 0, 1), np.pi / 2), expected, atol=1e-16)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            rotation_unitary((0, 1, 1), 0.3)

    @given(
        phase1=st.floats(-10, 10, allow_nan=False),
        phase2=st.floats(-10, 10, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_same_axis_composition(self, phase1, phase2):
        axis = (0.0, 1.0, 0.0)
        combined = rotation_unitary(axis, phase1) @ rotation_unitary(axis, phase2)
        np.testing.assert_allclose(
            combined, rotation_unitary(axis, phase1 + phase2), atol=1e-12
        )

    def test_unitarity(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            u = rotation_unitary(n, rng.uniform(-10, 10))
            assert np.max(np.abs(u @ u.conj().T - I2)) < 1e-12


class TestPauliChannel:
    def test_axis_letters(self):
        np.testing.assert_array_equal(pauli_channel("X", 0.3).kraus, pauli_channel("x", 0.3).kraus)
        for bad in ("w", np.array(["x", "w"])):
            with pytest.raises(ValueError) as info:
                pauli_channel(bad, 0.3)
            assert str(info.value) == "Pauli axis must be 'x', 'y' or 'z', got 'w'"

    def test_p_zero_is_identity(self):
        rho = bloch_to_density((0.3, -0.2, 0.4))
        np.testing.assert_allclose(apply_channel(pauli_channel("x", 0.0), rho), rho, atol=0)

    def test_deterministic_flip(self):
        out = apply_channel(pauli_channel("x", 1.0), np.diag([1.0, 0.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=0)

    def test_mixture(self):
        out = apply_channel(pauli_channel("x", 0.3), np.diag([1.0, 0.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([0.7, 0.3]), atol=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="probability"):
            pauli_channel("x", 1.2)
        with pytest.raises(ValueError, match="probability"):
            pauli_channel("z", -0.1)

    def test_double_application_flip_probability(self):
        # Two independent passes flip with net probability 2p(1-p).
        p = 0.3
        ch = pauli_channel("x", p)
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = apply_channel(ch, apply_channel(ch, rho))
        np.testing.assert_allclose(
            np.diag(out).real, [1 - 2 * p * (1 - p), 2 * p * (1 - p)], atol=1e-15
        )

    @given(p=st.floats(0, 1, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_completeness(self, p):
        ch = pauli_channel("y", p)
        total = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(total - I2)) < 1e-10


class TestDepolarizingChannel:
    def test_p_zero_identity(self):
        rho = bloch_to_density((0.1, 0.5, -0.3))
        np.testing.assert_allclose(apply_channel(depolarizing_channel(0.0), rho), rho, atol=1e-16)

    def test_full_depolarization(self):
        rho = bloch_to_density((0.2, 0.3, 0.8))
        np.testing.assert_allclose(apply_channel(depolarizing_channel(1.0), rho), I2 / 2, atol=1e-15)

    def test_half_mixture(self):
        out = apply_channel(depolarizing_channel(0.5), np.diag([1.0, 0.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([0.75, 0.25]), atol=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="probability"):
            depolarizing_channel(-0.2)


class TestNoisyPhaseChannel:
    def test_noise_free_is_rotation(self):
        ch = noisy_phase_channel(pauli_channel("x", 0.0), (0, 1, 0), 0.7)
        assert ch.kraus.shape == (2, 2, 2)
        np.testing.assert_allclose(ch.kraus[0], rotation_unitary((0, 1, 0), 0.7), atol=0)
        np.testing.assert_allclose(ch.kraus[1], np.zeros((2, 2)), atol=0)

    def test_zero_phase_is_noise(self):
        p = 0.4
        ch = noisy_phase_channel(pauli_channel("x", p), (0, 1, 0), 0.0)
        np.testing.assert_allclose(ch.kraus[0], np.sqrt(1 - p) * I2, atol=0)
        np.testing.assert_allclose(ch.kraus[1], np.sqrt(p) * SIGMA_X, atol=0)

    def test_completeness_inherited(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            ch = noisy_phase_channel(
                pauli_channel("z", rng.uniform()), n, rng.uniform(0, 2 * np.pi)
            )
            total = sum(k.conj().T @ k for k in ch.kraus)
            assert np.max(np.abs(total - I2)) < 1e-10

    def test_rejects_dim4_noise(self):
        big = KrausChannel((np.eye(4, dtype=complex),))
        with pytest.raises(ValueError, match="qubit"):
            noisy_phase_channel(big, (0, 1, 0), 0.1)


class TestApplyChannel:
    def test_identity_channel(self):
        rho = bloch_to_density((0.3, 0.1, -0.4))
        np.testing.assert_array_equal(apply_channel(KrausChannel((I2,)), rho), rho)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply_channel(pauli_channel("x", 0.5), np.eye(4, dtype=complex) / 4)

    def test_preserves_density_invariants(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            rho = bloch_to_density(random_bloch(rng))
            kind = rng.integers(2)
            if kind == 0:
                ch = pauli_channel(("x", "y", "z")[rng.integers(3)], rng.uniform())
            else:
                ch = depolarizing_channel(rng.uniform())
            out = apply_channel(ch, rho)
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert abs(np.trace(out).imag) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            assert herm_eig(out).eigenvalues[0] > -1e-12


class TestKrausChannel:
    def test_incomplete_set_rejected(self):
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel((0.5 * I2,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            KrausChannel(())

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            KrausChannel((I2, np.eye(4, dtype=complex)))

    def test_iteration_order(self):
        ch = pauli_channel("x", 0.25)
        assert ch.kraus.shape == (2, 2, 2)
        np.testing.assert_array_equal(ch.kraus[0], np.sqrt(0.75) * I2)

    @pytest.mark.parametrize(
        "ops, message",
        [
            ((np.ones((2, 3)) / np.sqrt(2),), "expected a square matrix, got shape (2, 3)"),
            ((np.array([[np.nan, 0], [0, 1]]),), "matrix contains non-finite entries"),
            (
                (I2, np.array([[0, complex(0, np.inf)], [0, 0]])),
                "matrix contains non-finite entries",
            ),
        ],
    )
    def test_non_square_and_non_finite_rejected(self, ops, message):
        with pytest.raises(ValueError) as info:
            KrausChannel(ops)
        assert str(info.value) == message

    def test_non_finite_real_part_rejected(self):
        with pytest.raises(ValueError) as info:
            KrausChannel(np.array([[[np.inf, 0], [0, 1]]]))
        assert str(info.value) == "matrix contains non-finite entries"

    def test_compares_and_hashes_by_identity(self):
        a, b = pauli_channel("x", 0.2), pauli_channel("x", 0.2)
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a)
        assert {a, b, a} == {a, b} and len({a, b}) == 2
        assert {a: 1}[a] == 1

    def test_stack_and_list_inputs_agree(self):
        ops = [np.sqrt(0.5) * I2, np.sqrt(0.5) * SIGMA_Y]
        np.testing.assert_array_equal(KrausChannel(np.array(ops)).kraus, KrausChannel(ops).kraus)

    def test_operators_held_as_one_read_only_stack(self):
        ops = [np.sqrt(0.5) * I2, np.sqrt(0.5) * SIGMA_Z]
        ch = KrausChannel(ops)
        assert ch.kraus.shape == (2, 2, 2) and ch.kraus.dtype == np.complex128
        np.testing.assert_array_equal(ch.kraus[1], ops[1])
        assert ch.dim == 2
        with pytest.raises(ValueError):
            ch.kraus[0, 0, 0] = 2.0
        ops[0][0, 0] = 7.0  # the channel holds a copy, not the caller's arrays
        assert ch.kraus[0, 0, 0] == np.sqrt(0.5)


class TestStacks:
    """Constructors and checks broadcast over a batch; one bad member fails the stack."""

    def test_check_density_rejects_one_non_psd_member(self):
        rng = np.random.default_rng(25)
        for bad in (np.diag([1.0 + 2e-10, -2e-10]), np.diag([0.5, 0.5, 0.5, -0.5])):
            n = len(bad)
            stack = np.array([np.eye(n) / n] * 6, dtype=complex)
            if n == 2:
                stack = bloch_to_density(np.array([random_bloch(rng) for _ in range(6)]))
            check_density(stack, "joint")
            stack[3] = bad
            with pytest.raises(ValueError) as info:
                check_density(stack, "joint")
            assert str(info.value) == "joint is not positive semidefinite"

    def test_levels_and_axes_broadcast(self):
        levels = np.array([0.0, 0.3, 1.0])
        flips = pauli_channel(np.array(["x", "y", "z"]), levels)
        depol = depolarizing_channel(levels)
        for i, (axis, p) in enumerate(zip("xyz", levels)):
            np.testing.assert_array_equal(flips.kraus[i], pauli_channel(axis, p).kraus)
            np.testing.assert_array_equal(depol.kraus[i], depolarizing_channel(p).kraus)
        assert flips.kraus.shape == (3, 2, 2, 2) and depol.kraus.shape == (3, 4, 2, 2)
        one_axis = pauli_channel("y", levels[:, None] * np.ones(4))
        assert one_axis.kraus.shape == (3, 4, 2, 2, 2)

    def test_one_bad_member_is_named(self):
        with pytest.raises(ValueError) as info:
            pauli_channel("x", np.array([0.2, 1.2, np.nan]))
        assert str(info.value) == "p must be a probability in [0, 1], got 1.2"
        with pytest.raises(ValueError) as info:
            unit_axis(np.array([[0.0, 1.0, 0.0], [0.0, 0.6, 0.6]]))
        assert str(info.value) == f"axis must be a unit vector, |n| = {np.sqrt(0.72)}"
        with pytest.raises(ValueError, match="non-finite"):
            bloch_vector(np.array([[0.0, 0.0, 0.5], [np.inf, 0.0, 0.0]]))
        ops = np.array([pauli_channel("x", 0.3).kraus] * 3)
        ops[1, 0] *= 0.5
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel(ops)

    def test_bloch_overshoot_rescales_only_its_member(self):
        v = bloch_vector(np.array([[0.0, 0.0, 1.0 + 5e-13], [0.1, 0.2, 0.3]]))
        assert abs(np.linalg.norm(v[0]) - 1.0) <= 1e-15
        np.testing.assert_array_equal(v[1], [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("check, what", [(bloch_vector, "Bloch vector"), (unit_axis, "axis")])
    def test_single_vector_checks_refuse_a_stack(self, check, what):
        # The validators take any batch shape; the grid engine alone asks for
        # one axis and one probe, and refuses a stack of either by name.
        axes = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(check(axes), axes)
        vectors = {"axis": (0.0, 1.0, 0.0), "Bloch vector": (0.0, 0.0, 1.0), what: axes}
        axis, probe = vectors["axis"], vectors["Bloch vector"]
        with pytest.raises(ValueError) as info:
            evaluate_grid(("qc",), "bitflip", [0.3], 0.5, 0.1, axis, probe)
        assert str(info.value) == f"{what} must have 3 components, got shape (2, 3)"

    def test_rotation_and_noisy_channel_per_member(self):
        rng = np.random.default_rng(26)
        axes = np.array([random_bloch(rng) for _ in range(5)])
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        phases = rng.uniform(0, 2 * np.pi, size=5)
        noise = depolarizing_channel(0.4)
        ch = noisy_phase_channel(noise, axes, phases)
        rotations = rotation_unitary(axes, phases)
        for i in range(5):
            np.testing.assert_array_equal(rotations[i], rotation_unitary(axes[i], phases[i]))
            one = noisy_phase_channel(noise, axes[i], phases[i])
            np.testing.assert_array_equal(ch.kraus[i], one.kraus)
        assert ch.kraus.shape == (5, 4, 2, 2)
