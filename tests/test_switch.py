"""Tests for the switched-channel superoperators, the joint state, and q_c."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icoswitch.channels import (
    KrausChannel,
    bloch_to_density,
    check_density,
    depolarizing_channel,
    noisy_phase_channel,
    pauli_channel,
    rotation_unitary,
)
from icoswitch.metrology import control_family, qfi_numeric
from icoswitch.engine import I2, SIGMA_X
from icoswitch.qmat import channel_choi, herm_eig, partial_trace
from icoswitch.switch import (
    qc_closed_form,
    qc_numeric,
    s00,
    s01,
    switch_kraus_apply,
    switch_kraus_ops,
    switch_state,
)
from references import (
    E_Y,
    XI,
    apply_channel,
    probe_marginal,
    qfi_joint,
    random_axis,
    random_bloch,
    reduced_control,
)

def random_pauli_setup(rng):
    """A noisy phase channel with its parameters, plus a random probe."""
    axis_name = ("x", "y", "z")[rng.integers(3)]
    p = rng.uniform()
    xi = rng.uniform(0, 2 * np.pi)
    axis = random_axis(rng)
    ch = noisy_phase_channel(pauli_channel(axis_name, p), axis, xi)
    overlap = axis[("x", "y", "z").index(axis_name)]
    rho = bloch_to_density(random_bloch(rng))
    return ch, rho, p, xi, overlap


class TestS00:
    def test_noise_free_doubles_phase(self):
        ch = noisy_phase_channel(pauli_channel("x", 0.0), E_Y, XI)
        rho = bloch_to_density((0, 0, 0.7))
        u2 = rotation_unitary(E_Y, 2 * XI)
        np.testing.assert_allclose(s00(ch, rho), u2 @ rho @ u2.conj().T, atol=1e-15)

    def test_full_bitflip_cancels_y_rotation(self):
        # sigma_x U sigma_x U = I for a rotation about e_y.
        ch = noisy_phase_channel(pauli_channel("x", 1.0), E_Y, XI)
        rho = bloch_to_density((0.3, -0.1, 0.5))
        np.testing.assert_allclose(s00(ch, rho), rho, atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            ch, rho, *_ = random_pauli_setup(rng)
            assert abs(np.trace(s00(ch, rho)) - 1.0) < 1e-12


class TestS01:
    def test_single_kraus_equals_cascade(self):
        ch = noisy_phase_channel(pauli_channel("x", 0.0), E_Y, XI)
        rho = bloch_to_density((0, 0, 0.4))
        np.testing.assert_allclose(s01(ch, rho), s00(ch, rho), atol=1e-15)

    def test_aligned_axis_equals_cascade(self):
        # Noise Pauli parallel to the rotation axis: all Kraus operators commute.
        rng = np.random.default_rng(32)
        for sign in (1.0, -1.0):
            ch = noisy_phase_channel(pauli_channel("x", 0.37), (sign, 0.0, 0.0), 1.234)
            rho = bloch_to_density(random_bloch(rng))
            assert np.max(np.abs(s01(ch, rho) - s00(ch, rho))) < 1e-12

    def test_trace_zero_point(self):
        # p = 1/2, axis e_y with bit-flip noise, xi = pi: the coupling vanishes.
        ch = noisy_phase_channel(pauli_channel("x", 0.5), E_Y, np.pi)
        rho = bloch_to_density((0.2, 0.6, -0.3))
        assert abs(np.trace(s01(ch, rho))) < 1e-14

    def test_hermitian(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            ch, rho, *_ = random_pauli_setup(rng)
            out = s01(ch, rho)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12


class TestSwitchState:
    def test_control_in_basis_state_selects_single_order(self):
        ch = noisy_phase_channel(pauli_channel("y", 0.3), E_Y, XI)
        rho = bloch_to_density((0.1, 0.2, 0.5))
        for p_c, ket in ((0.0, np.diag([0.0, 1.0])), (1.0, np.diag([1.0, 0.0]))):
            joint = switch_state(ch, rho, p_c).joint
            expected = np.kron(s00(ch, rho), ket.astype(complex))
            np.testing.assert_allclose(joint, expected, atol=1e-15)

    def test_matches_kraus_oracle(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            ch, rho, *_ = random_pauli_setup(rng)
            p_c = rng.uniform()
            direct = switch_state(ch, rho, p_c).joint
            oracle = switch_kraus_apply(ch, rho, p_c)
            assert np.max(np.abs(direct - oracle)) < 1e-12

    def test_joint_is_density(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            ch, rho, *_ = random_pauli_setup(rng)
            res = switch_state(ch, rho, rng.uniform())
            check_density(res.joint)
            assert abs(np.trace(res.joint) - 1.0) < 1e-12

    @pytest.mark.parametrize("p_c", [0.0, 1.0])
    @pytest.mark.parametrize("p, rank", [(0.0, 1), (0.3, 2)])
    def test_rank_deficient_joint_states_pass(self, p, rank, p_c):
        # A pure probe through a unitary (p = 0) or a two-Kraus Pauli channel,
        # with the control in a basis state: the joint state has rank 1 or 2,
        # so two or three of its eigenvalues are zero up to roundoff.
        rng = np.random.default_rng(37)
        for _ in range(20):
            probe = random_axis(rng)
            ch = noisy_phase_channel(pauli_channel("x", p), random_axis(rng), rng.uniform(0, 6))
            joint = switch_state(ch, bloch_to_density(probe), p_c).joint
            vals = np.linalg.eigvalsh(joint)
            assert np.sum(vals > 1e-12) == rank and vals[0] > -1e-15

    def test_makes_no_eigendecomposition(self, monkeypatch):
        # Positivity of the joint state is the Cholesky test, not herm_eig.
        # The counter replaces herm_eig in every module namespace holding it.
        calls = []

        def counted(a, *rest):
            calls.append(a.shape)
            return herm_eig(a, *rest)

        for name, module in list(sys.modules.items()):
            if name.startswith("icoswitch") and hasattr(module, "herm_eig"):
                monkeypatch.setattr(module, "herm_eig", counted)
        rng = np.random.default_rng(38)
        for _ in range(20):
            ch, rho, *_ = random_pauli_setup(rng)
            switch_state(ch, rho, rng.uniform())
        assert calls == []
        qfi_joint(pauli_channel("x", 0.3), E_Y, XI, bloch_to_density((0, 0, 1)), 0.5)
        assert calls == [(4, 4)]  # the counter does see the SLD route's solve

    def test_probe_marginal_is_cascade(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            ch, rho, *_ = random_pauli_setup(rng)
            joint = switch_state(ch, rho, rng.uniform()).joint
            np.testing.assert_allclose(probe_marginal(joint), s00(ch, rho), atol=1e-12)

    def test_control_reduced_is_probe_trace(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            ch, rho, *_ = random_pauli_setup(rng)
            res = switch_state(ch, rho, rng.uniform())
            np.testing.assert_allclose(
                res.control_reduced, partial_trace(res.joint), atol=1e-12
            )

    def test_qc_magnitude_bounded(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            ch, rho, *_ = random_pauli_setup(rng)
            assert abs(switch_state(ch, rho, 0.5).q_c) <= 1 + 1e-10


class TestSwitchKraus:
    def test_identical_orders_give_product_state(self):
        ch = noisy_phase_channel(pauli_channel("x", 0.0), E_Y, XI)
        rho = bloch_to_density((0, 0, 1.0))
        out = switch_kraus_apply(ch, rho, 0.5)
        plus = np.full((2, 2), 0.5, dtype=complex)
        np.testing.assert_allclose(out, np.kron(s00(ch, rho), plus), atol=1e-15)

    def test_completeness(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            ch, *_ = random_pauli_setup(rng)
            total = sum(w.conj().T @ w for w in switch_kraus_ops(ch))
            assert np.max(np.abs(total - np.eye(4))) < 1e-10

    def test_choi_positive(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            ch, *_ = random_pauli_setup(rng)
            vals, _ = herm_eig(channel_choi(switch_kraus_ops(ch)))
            assert vals[0] > -1e-10


def random_isometry_channel(rng, m, d=2):
    """m Kraus operators cut from a random isometry V (V^dag V = I): not Pauli, not commuting."""
    z = rng.normal(size=(m * d, d)) + 1j * rng.normal(size=(m * d, d))
    v, _ = np.linalg.qr(z)
    return KrausChannel(tuple(v[i * d : (i + 1) * d] for i in range(m)))


def random_density(rng, d=2):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = z @ z.conj().T
    return rho / np.trace(rho)


# The textbook double loops that the batched kernels replace.
def loop_apply(ops, rho):
    out = np.zeros_like(rho)
    for k in ops:
        out += k @ rho @ k.conj().T
    return out


def loop_s01(ops, rho):
    out = np.zeros_like(rho)
    for kj in ops:
        for kk in ops:
            out += kj @ kk @ rho @ kj.conj().T @ kk.conj().T
    return out


def loop_switch_kraus_ops(ops):
    ket0, ket1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    return [np.kron(kj @ kk, ket0) + np.kron(kk @ kj, ket1) for kj in ops for kk in ops]


def loop_switch_kraus_apply(ops, rho, p_c):
    psi = np.array([np.sqrt(p_c), np.sqrt(1.0 - p_c)], dtype=complex)
    joint_in = np.kron(rho, np.outer(psi, psi.conj()))
    out = np.zeros_like(joint_in)
    for w in loop_switch_kraus_ops(ops):
        out += w @ joint_in @ w.conj().T
    return out


class TestBatchedKernelsMatchLoops:
    """The stacked Kraus kernels against literal loops, on non-Pauli Kraus sets."""

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_kernels(self, m):
        rng = np.random.default_rng(50 + m)
        for _ in range(10):
            ch = random_isometry_channel(rng, m)
            ops = list(ch.kraus)
            rho = random_density(rng)
            p_c = rng.uniform()
            assert np.max(np.abs(apply_channel(ch, rho) - loop_apply(ops, rho))) < 1e-15
            assert np.max(np.abs(s01(ch, rho) - loop_s01(ops, rho))) < 1e-15
            got = switch_kraus_ops(ch)
            want = loop_switch_kraus_ops(ops)
            assert len(got) == len(want) == m * m
            assert max(np.max(np.abs(g - w)) for g, w in zip(got, want)) < 1e-15
            oracle = loop_switch_kraus_apply(ops, rho, p_c)
            assert np.max(np.abs(switch_kraus_apply(ch, rho, p_c) - oracle)) < 1e-15

    def test_s01_dagger_order_matters(self):
        # On these sets sum_jk K_j K_k rho K_k^dag K_j^dag (reversed daggers) is
        # far from s01, so the comparison above can tell the two orders apart.
        rng = np.random.default_rng(60)
        ch = random_isometry_channel(rng, 2)
        rho = random_density(rng)
        reversed_order = sum(kj @ kk @ rho @ (kj @ kk).conj().T for kj in ch.kraus for kk in ch.kraus)
        assert np.max(np.abs(s01(ch, rho) - reversed_order)) > 1e-2


class TestReducedControl:
    def test_unit_coupling_gives_plus_state(self):
        ch = noisy_phase_channel(pauli_channel("x", 0.3), E_Y, 0.0)
        rho = bloch_to_density((0, 0, 0.2))
        np.testing.assert_allclose(
            reduced_control(ch, rho, 0.5), (I2 + SIGMA_X) / 2, atol=1e-14
        )

    def test_zero_coupling_is_diagonal(self):
        ch = noisy_phase_channel(pauli_channel("x", 0.5), E_Y, np.pi)
        rho = bloch_to_density((0, 0, 0.2))
        for p_c in (0.3, 0.5, 0.9):
            np.testing.assert_allclose(
                reduced_control(ch, rho, p_c), np.diag([p_c, 1 - p_c]), atol=1e-14
            )

    def test_valid_density_and_matches_partial_trace(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            ch, rho, *_ = random_pauli_setup(rng)
            p_c = rng.uniform()
            direct = reduced_control(ch, rho, p_c)
            check_density(direct)
            np.testing.assert_allclose(
                direct, switch_state(ch, rho, p_c).control_reduced, atol=1e-12
            )


class TestQcClosedForm:
    def test_zero_phase(self):
        assert qc_closed_form(0.7, 0.0, 0.3) == 1.0

    def test_vanishing_point(self):
        assert abs(qc_closed_form(0.5, np.pi, 0.0)) < 1e-15

    def test_fifth_turn_value(self):
        # 1 - 2 (1/4) (1 - cos(pi/5)) = (5 + sqrt 5)/8
        assert abs(qc_closed_form(0.5, XI, 0.0) - 0.9045084971874737) < 1e-15

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="probability"):
            qc_closed_form(1.1, 0.5, 0.0)
        with pytest.raises(ValueError, match="component"):
            qc_closed_form(0.5, 0.5, 1.5)

    @given(numerator=st.integers(0, 1024))
    @settings(max_examples=100, deadline=None)
    def test_noise_symmetry_exact_on_dyadics(self, numerator):
        # p and 1-p are both exact binary fractions here, so the symmetric
        # product (1-p) p makes the two evaluations bit-identical.
        p = numerator / 1024.0
        assert qc_closed_form(p, 1.3, 0.2) == qc_closed_form(1.0 - p, 1.3, 0.2)

    def test_range(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            q = qc_closed_form(rng.uniform(), rng.uniform(0, 2 * np.pi), rng.uniform(-1, 1))
            assert -1.0 <= q <= 1.0


class TestQcNumeric:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(43)
        worst = 0.0
        for _ in range(200):
            ch, rho, p, xi, overlap = random_pauli_setup(rng)
            worst = max(worst, abs(qc_numeric(ch, rho) - qc_closed_form(p, xi, overlap)))
        assert worst < 1e-10

    def test_noise_free_unit_trace(self):
        ch = noisy_phase_channel(pauli_channel("z", 0.0), E_Y, 1.1)
        assert abs(qc_numeric(ch, bloch_to_density((0, 0, 0.3))) - 1.0) < 1e-14

    def test_tilted_axis_half_overlap(self):
        # overlap^2 = 1/2 at p = 1/2, xi = pi gives q_c = 1/2.
        axis = (1 / np.sqrt(2), 1 / np.sqrt(2), 0.0)
        ch = noisy_phase_channel(pauli_channel("x", 0.5), axis, np.pi)
        assert abs(qc_numeric(ch, bloch_to_density((0, 0, 0.5))) - 0.5) < 1e-14

    def test_probe_independent(self):
        rng = np.random.default_rng(44)
        ch = noisy_phase_channel(pauli_channel("y", 0.35), random_axis(rng), 2.2)
        values = [
            qc_numeric(ch, bloch_to_density(random_bloch(rng))) for _ in range(50)
        ]
        assert max(values) - min(values) < 1e-10


def mixed_noise_stack(rng, size):
    """Noise channels of every kind in one stack, each as four Kraus operators.

    Depolarizing noise is depolarizing_channel itself; a Pauli channel is
    pauli_channel padded with two zero operators, which changes no action.
    """
    sets = []
    for i in range(size):
        kind, p = ("x", "y", "z", "depolarizing")[i % 4], rng.uniform()
        if kind == "depolarizing":
            sets.append(depolarizing_channel(p).kraus)
        else:
            sets.append(np.concatenate([pauli_channel(kind, p).kraus, np.zeros((2, 2, 2))]))
    return KrausChannel(np.array(sets))


class TestStackedOracleMatchesPerDraw:
    """Each oracle function on a stack of draws equals its calls draw by draw, entry for entry."""

    def test_mixed_noise_stack(self):
        rng = np.random.default_rng(70)
        size = 12
        noise = mixed_noise_stack(rng, size)
        axes = np.array([random_axis(rng) for _ in range(size)])
        xis = rng.uniform(0, 2 * np.pi, size=size)
        rho = bloch_to_density(np.array([random_bloch(rng) for _ in range(size)]))
        p_cs = rng.uniform(size=size)
        ch = noisy_phase_channel(noise, axes, xis)
        assert ch.kraus.shape == (size, 4, 2, 2)
        res = switch_state(ch, rho, p_cs)
        stacked = {
            "s00": s00(ch, rho),
            "s01": s01(ch, rho),
            "joint": res.joint,
            "control_reduced": res.control_reduced,
            "q_c": res.q_c,
            "kraus_apply": switch_kraus_apply(ch, rho, p_cs),
            "choi": channel_choi(switch_kraus_ops(ch)),
            "qfi": qfi_numeric(control_family(noise, axes, rho, p_cs), xis),
        }
        for i in range(size):
            one_noise = KrausChannel(noise.kraus[i])
            one = noisy_phase_channel(one_noise, axes[i], xis[i])
            res = switch_state(one, rho[i], p_cs[i])
            family = control_family(one_noise, axes[i], rho[i], p_cs[i])
            per_draw = {
                "s00": s00(one, rho[i]),
                "s01": s01(one, rho[i]),
                "joint": res.joint,
                "control_reduced": res.control_reduced,
                "q_c": res.q_c,
                "kraus_apply": switch_kraus_apply(one, rho[i], p_cs[i]),
                "choi": channel_choi(switch_kraus_ops(one)),
                "qfi": qfi_numeric(family, xis[i]),
            }
            np.testing.assert_array_equal(ch.kraus[i], one.kraus)
            for name, value in per_draw.items():
                np.testing.assert_array_equal(stacked[name][i], value, err_msg=f"{name}, draw {i}")
        assert isinstance(per_draw["qfi"], float)

    def test_channel_and_state_stacks_broadcast(self):
        # One channel against a stack of states, and a (3, 1) stack of
        # channels against (3, 5) states: row i is channel i.
        rng = np.random.default_rng(71)
        probes = np.array([[random_bloch(rng) for _ in range(5)] for _ in range(3)])
        rho = bloch_to_density(probes)
        ch = noisy_phase_channel(pauli_channel("z", rng.uniform(size=(3, 1))), random_axis(rng), XI)
        q = qc_numeric(ch, rho)
        assert q.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                assert q[i, j] == qc_numeric(KrausChannel(ch.kraus[i, 0]), rho[i, j])
        single = KrausChannel(ch.kraus[0, 0])
        np.testing.assert_array_equal(s00(single, rho)[1, 2], s00(single, rho[1, 2]))
