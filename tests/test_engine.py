"""Tests for the grid engine: every sweep column against the density-matrix oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icoswitch.channels import bloch_to_density, noisy_phase_channel
from icoswitch.cli import main
from icoswitch.engine import (
    NOISE_KINDS,
    PAULI_OF_KIND,
    QUANTITIES,
    evaluate_grid,
    switch_state_grid,
)
from icoswitch.metrology import cfi_numeric, control_family, qfi_joint, qfi_numeric
from icoswitch.qmat import I2, SIGMA_X, SIGMA_Y, SIGMA_Z
from icoswitch.sweep import compute_quantity, noise_channel
from icoswitch.switch import qc_numeric, s00, s01, switch_state
from test_metrology import unit_vectors

PAULI_BASIS = (I2, SIGMA_X, SIGMA_Y, SIGMA_Z)


def _qubit_qfi(u, du):
    """|u'|^2 + (u.u')^2 / (1 - |u|^2), the second term dropped for a pure u."""
    gap = 1.0 - u @ u
    return du @ du + ((u @ du) ** 2 / gap if gap > 1e-12 else 0.0)


def hadamard_joint_witness(kind, p, xi, axis, probe):
    """Joint-output QFI at p_c = 1/2 through the Hadamard block form.

    A Hadamard on the control turns the joint state at p_c = 1/2 into
    (A + B)/2 (+) (A - B)/2 with A = s00 = (I + v.sigma)/2 and
    B = s01 = (q_c I + b.sigma)/2: two qubit blocks with traces
    t_pm = (1 pm q_c)/2 and Bloch vectors u_pm = (v pm b)/(1 pm q_c).  The
    QFI of a direct sum is sum_pm [t_pm'^2 / t_pm + t_pm F(u_pm)], F the
    qubit formula.  s00 and s01 hold two factors U and two U^dag, so they
    are trigonometric polynomials of degree 2 in xi, and five samples give
    their derivative exactly by spectral differentiation.  Only the
    density-matrix code (s00, s01 on Kraus channels) is used.
    """
    noise, rho = noise_channel(kind, p), bloch_to_density(probe)
    samples = []
    for x in xi + 2.0 * np.pi * np.arange(5) / 5:
        ch = noisy_phase_channel(noise, axis, x)
        parts = (s00(ch, rho), s01(ch, rho))
        samples.append([np.trace(part @ s).real for part in parts for s in PAULI_BASIS])
    samples = np.array(samples)
    harmonics = np.array([0, 1, 2, -2, -1])[:, None]
    slope = (1j * harmonics * np.fft.fft(samples, axis=0) / 5).sum(axis=0).real
    v, q, b = samples[0, 1:4], samples[0, 4], samples[0, 5:]
    dv, dq, db = slope[1:4], slope[4], slope[5:]
    total = 0.0
    for sign in (1.0, -1.0):
        t, dt = (1.0 + sign * q) / 2.0, sign * dq / 2.0
        u = (v + sign * b) / (2.0 * t)
        du = (dv + sign * db - 2.0 * dt * u) / (2.0 * t)
        total += dt * dt / t + t * _qubit_qfi(u, du)
    return total


def _phase():
    """Phases 0.02 to 0.1 from 0 and from +-pi, and in between, mod 2 pi.

    At 0, and at pi for some axes, an eigenvalue of the states vanishes as
    (xi - xi_0)^2 while the information it carries does not.  Within about
    0.014 of such a point it falls below the oracle's 1e-10 cutoff, which
    drops that information; the engine's limits there are held by
    TestExactAnchors and test_information_ordering_down_to_tiny_phase.
    """
    size = st.one_of(
        st.floats(0.02, 0.1),
        st.floats(math.pi - 0.1, math.pi - 0.02),
        st.floats(0.02, math.pi - 0.02),
    )
    return st.builds(
        lambda x, sign, turns: sign * x + 2.0 * math.pi * turns,
        size,
        st.sampled_from((1.0, -1.0)),
        st.sampled_from((0, 0, 0, 1, -1)),
    )


def _resolved_by_oracle(state):
    """No eigenvalue between 1e-15 (kernel up to roundoff) and 1e-9."""
    values = np.linalg.eigvalsh(state)
    return not np.any((values > 1e-15) & (values < 1e-9))


NOISE_LEVELS = st.one_of(
    st.sampled_from((0.0, 1.0, 1e-12, 1e-6, 1.0 - 1e-6, 1.0 - 1e-12)),
    st.floats(0, 1, allow_nan=False),
)


class TestEngineMatchesOracle:
    @given(
        kind=st.sampled_from(NOISE_KINDS),
        p=NOISE_LEVELS,
        axis=unit_vectors(),
        direction=unit_vectors(),
        length=st.one_of(st.just(1.0), st.floats(0, 1, allow_nan=False)),
        p_c=st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0, 1, allow_nan=False)),
        xi=_phase(),
    )
    @settings(max_examples=150, deadline=None)
    def test_columns_match_density_matrix_routes(self, kind, p, axis, direction, length, p_c, xi):
        probe = direction * length
        columns = evaluate_grid(QUANTITIES, kind, [p], p_c, xi, axis, probe)
        got = {name: float(col[0]) for name, col in columns.items()}
        noise, rho = noise_channel(kind, p), bloch_to_density(probe)
        channel = noisy_phase_channel(noise, axis, xi)
        assert abs(got["qc"] - qc_numeric(channel, rho)) < 1e-12
        # The oracle drops what eigenvalues below its 1e-10 cutoff carry, so
        # each Fisher information is compared only where that cutoff does not
        # cut through the spectrum of the state it is taken on.
        state = switch_state(channel, rho, p_c)
        if _resolved_by_oracle(state.control_reduced):
            fq_con = qfi_numeric(control_family(noise, axis, rho, p_c), xi)
            assert abs(got["fq_con"] - fq_con) < 1e-6
            assert abs(got["fc_con"] - cfi_numeric(noise, axis, xi, rho, p_c)) < 1e-6
        if _resolved_by_oracle(state.joint):
            assert abs(got["fq_joint"] - qfi_joint(noise, axis, xi, rho, p_c)) < 1e-6
        assert got["fq_joint"] >= max(got["fq_con"], got["fq_cas"]) - 1e-9
        assert got["fc_con"] <= got["fq_con"] + 1e-12

    @given(
        kind=st.sampled_from(NOISE_KINDS),
        p=NOISE_LEVELS,
        axis=unit_vectors(),
        direction=unit_vectors(),
        length=st.one_of(st.just(1.0), st.floats(0, 1, allow_nan=False)),
        p_c=st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0, 1, allow_nan=False)),
        exponent=st.floats(-8, 0.5),
        sign=st.sampled_from((1.0, -1.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_information_ordering_down_to_tiny_phase(
        self, kind, p, axis, direction, length, p_c, exponent, sign
    ):
        # Below |xi| ~ 0.014 the oracle's eigenvalue cutoff drops information,
        # so this holds the engine to the ordering alone, down to |xi| = 1e-8.
        xi = sign * 10.0**exponent
        got = evaluate_grid(QUANTITIES, kind, [p], p_c, xi, axis, direction * length)
        assert got["fq_joint"][0] >= max(got["fq_con"][0], got["fq_cas"][0]) - 1e-9
        assert got["fc_con"][0] <= got["fq_con"][0] + 1e-12

    def test_joint_states_match_switch_state(self):
        rng = np.random.default_rng(71)
        for kind in NOISE_KINDS:
            p, p_c, xi = rng.uniform(), rng.uniform(), rng.uniform(-4, 4)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            probe = (0.3, -0.5, 0.4)
            noise, rho = noise_channel(kind, p), bloch_to_density(probe)
            joint, djoint = switch_state_grid(kind, [p], p_c, xi, axis, probe)
            direct = switch_state(noisy_phase_channel(noise, axis, xi), rho, p_c).joint
            np.testing.assert_allclose(joint[0], direct, atol=1e-15)
            step = 1e-5
            ahead = switch_state(noisy_phase_channel(noise, axis, xi + step), rho, p_c).joint
            behind = switch_state(noisy_phase_channel(noise, axis, xi - step), rho, p_c).joint
            np.testing.assert_allclose(djoint[0], (ahead - behind) / (2 * step), atol=1e-9)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_joint_matches_hadamard_witness(self, kind):
        rng = np.random.default_rng(72)
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            xi = rng.uniform(-3, 3)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            probe = rng.normal(size=3)
            probe *= rng.uniform(0.2, 0.9) / np.linalg.norm(probe)
            got = evaluate_grid(("fq_joint",), kind, [p], 0.5, xi, axis, probe)["fq_joint"][0]
            assert abs(got - hadamard_joint_witness(kind, p, xi, axis, probe)) < 1e-12


class TestExactAnchors:
    @pytest.mark.parametrize("axis", [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.6, 0.8, 0.0)])
    def test_noise_free_pure_probe_joint_is_four(self, axis, capsys):
        for kind in NOISE_KINDS:
            for p_c in (0.5, 0.3):
                got = evaluate_grid(("fq_joint",), kind, [0.0], p_c, math.pi / 5, axis, (0, 0, 1))
                assert abs(got["fq_joint"][0] - 4.0) < 1e-12
        # The defaults of `point`: axis e_y, p_c = 1/2, xi = pi/5.
        e_y, e_z = (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
        default = compute_quantity("fq_joint", "bitflip", 0.0, 0.5, math.pi / 5, e_y, e_z)
        assert default == 4.0
        assert main(["point", "--p", "0", "--quantity", "fq_joint"]) == 0
        assert capsys.readouterr().out == "4.00000000000\n"

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_every_column_at_full_noise(self, kind):
        # Pauli noise at p = 1 is the unitary sigma_l: q_c = 1, no control
        # information, and the switch reduces to the cascade.  Full
        # depolarization erases the probe: q_c = 1/4 and nothing depends on xi.
        rng = np.random.default_rng(73)
        for _ in range(5):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            p_c, xi = rng.uniform(), rng.uniform(-3, 3)
            columns = evaluate_grid(QUANTITIES, kind, [1.0], p_c, xi, axis, (0.2, 0.5, -0.6))
            got = {name: col[0] for name, col in columns.items()}
            assert got["fq_con"] == 0.0 and got["fc_con"] == 0.0
            if kind == "depolarizing":
                assert got["qc"] == 0.25 and got["fq_cas"] == 0.0
                assert got["fq_joint"] < 1e-15
            else:
                assert got["qc"] == 1.0
                assert abs(got["fq_joint"] - got["fq_cas"]) < 1e-12
        # Axis orthogonal to the noise Pauli: sigma_l U sigma_l = U^dag, so the
        # cascade is the identity and carries no information.
        if kind != "depolarizing":
            axis = np.roll((0.0, 0.6, 0.8), PAULI_OF_KIND[kind].index)
            probe = (0.3, 0.4, 0.5)
            got = evaluate_grid(("fq_cas", "fq_joint"), kind, [1.0], 0.5, 1.1, axis, probe)
            assert got["fq_cas"][0] < 1e-15 and got["fq_joint"][0] < 1e-15

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_definite_order_joint_is_cascade_at_small_phase(self, kind):
        # At p_c in {0, 1} the joint state is the cascade output times a pure
        # control, so the Gram route and the Bloch route must agree, also
        # where the output is nearly pure and 1 - |v|^2 is of order xi^2
        # (down to the 1e-10 below which fq_cas drops that term).
        axis = np.array((0.24253563, 0.1, 0.9701425))
        axis /= np.linalg.norm(axis)
        # Along the Pauli it keeps, half-strength Pauli noise leaves a pure
        # probe nearly pure at small xi.
        kept = np.roll((1.0, 0.0, 0.0), PAULI_OF_KIND[kind].index if kind in PAULI_OF_KIND else 0)
        for p in (0.3, 0.5):
            for xi in (1e-4, 1e-3, 1e-2):
                for p_c, probe in ((0.0, kept), (1.0, (0.0, 0.6, 0.8))):
                    got = evaluate_grid(("fq_cas", "fq_joint"), kind, [p], p_c, xi, axis, probe)
                    cascade, joint = got["fq_cas"][0], got["fq_joint"][0]
                    assert abs(cascade - joint) < 1e-12 * max(1.0, joint), (p, xi, p_c)

    @pytest.mark.parametrize("kind", sorted(PAULI_OF_KIND))
    def test_small_phase_limit(self, kind):
        # At p_c = 1/2, fq_con and fc_con tend to 2 (1 - n_l^2) (1 - p) p as xi -> 0.
        axis = np.array((0.48, 0.6, 0.64))
        for p in (0.1, 0.5, 0.8):
            alpha = 2.0 * (1.0 - axis[PAULI_OF_KIND[kind].index] ** 2) * (1 - p) * p
            for xi in (1e-8, -1e-6):
                got = evaluate_grid(("fq_con", "fc_con"), kind, [p], 0.5, xi, axis, (0, 0, 1))
                assert abs(got["fq_con"][0] - alpha) < 1e-11 * alpha
                assert abs(got["fc_con"][0] - alpha) < 1e-11 * alpha

    def test_depolarizing_control_vanishes_at_zero_phase(self):
        levels = [0.0, 0.3, 0.7, 1.0]
        axis, probe = (0.6, 0.0, 0.8), (0.0, 0.0, 1.0)
        got = evaluate_grid(("fq_con", "fc_con"), "depolarizing", levels, 0.4, 0.0, axis, probe)
        assert got["fq_con"].tolist() == [0.0] * 4
        assert got["fc_con"].tolist() == [0.0] * 4


class TestEvaluateGrid:
    def test_rejects_bad_input_at_entry(self):
        args = ("bitflip", [0.2], 0.5, 0.3, (0, 1, 0), (0, 0, 1))
        with pytest.raises(ValueError, match="unknown quantity 'entropy'"):
            evaluate_grid(("qc", "entropy"), *args)
        with pytest.raises(ValueError, match="p_c"):
            evaluate_grid(("qc",), "bitflip", [0.2], 1.5, 0.3, (0, 1, 0), (0, 0, 1))
        with pytest.raises(ValueError, match="xi"):
            evaluate_grid(("qc",), "bitflip", [0.2], 0.5, float("inf"), (0, 1, 0), (0, 0, 1))
        with pytest.raises(ValueError, match="probability"):
            evaluate_grid(("qc",), "bitflip", [0.2, float("nan")], 0.5, 0.3, (0, 1, 0), (0, 0, 1))
        with pytest.raises(ValueError, match="unit"):
            evaluate_grid(("qc",), "bitflip", [0.2], 0.5, 0.3, (0, 2, 0), (0, 0, 1))
        with pytest.raises(ValueError, match="norm"):
            evaluate_grid(("qc",), "bitflip", [0.2], 0.5, 0.3, (0, 1, 0), (0, 0, 2))
