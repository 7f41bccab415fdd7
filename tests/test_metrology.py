"""Tests for the Fisher-information evaluators, closed-form and numeric."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icoswitch.channels import (
    bloch_to_density,
    depolarizing_channel,
    pauli_channel,
    rotation_unitary,
)
from icoswitch.cli import main
from icoswitch.engine import NOISE_KINDS, SIGMA_X, SIGMA_Y, SIGMA_Z, evaluate_grid, noise_weights
from icoswitch.metrology import (
    _fisher,
    cfi_control,
    control_family,
    qfi_cascade,
    qfi_control,
    qfi_numeric,
)
from icoswitch.sweep import FIG2_R_VALUES, fig2_preset
from icoswitch.switch import qc_closed_form
from references import (
    E_Y,
    FQ_CON_ANCHOR,
    XI,
    apply_channel,
    cascade_bloch_oracle,
    cfi_numeric,
    noise_channel,
    phases,
    qfi_joint,
    random_axis,
    random_bloch,
    unit_vectors,
)


class TestQfiNumeric:
    def test_constant_family(self):
        rho = bloch_to_density((0.2, 0.1, 0.4))
        assert qfi_numeric(lambda xi: rho, 0.7) == 0.0

    def test_pure_rotation_unit_information(self):
        # Generator n.sigma/2 on a pure probe orthogonal to the axis: QFI 1.
        rho = bloch_to_density((0, 0, 1.0))

        def family(xi):
            u = rotation_unitary(E_Y, xi)
            return u @ rho @ u.conj().T

        assert abs(qfi_numeric(family, 0.9) - 1.0) < 1e-8

    def test_control_family_matches_closed_form_anchor(self):
        fam = control_family(pauli_channel("x", 0.5), E_Y, bloch_to_density((0, 0, 0.5)), 0.5)
        assert abs(qfi_numeric(fam, XI) - FQ_CON_ANCHOR) < 1e-6

    def test_rejects_non_density_family(self):
        with pytest.raises(ValueError, match="density"):
            qfi_numeric(lambda xi: np.diag([2.0, 0.0]).astype(complex), 0.1)


class TestFisherClamp:
    """Roundoff negatives clamp to 0 member by member; a real negative raises."""

    def test_single_value(self):
        for value, want in ((-1e-13, 0.0), (-0.0, -0.0), (0.25, 0.25)):
            got = _fisher(value)
            assert type(got) is float and got == want
            assert np.signbit(got) == np.signbit(want)
        with pytest.raises(ArithmeticError, match="negative Fisher information -2e-12"):
            _fisher(-2e-12)

    def test_stack(self):
        got = _fisher(np.array([[0.5, -1e-13], [-0.0, 1e-3]]))
        np.testing.assert_array_equal(got, [[0.5, 0.0], [-0.0, 1e-3]])
        with pytest.raises(ArithmeticError, match="-1e-09"):
            _fisher(np.array([0.5, -1e-9, -1e-13]))


class TestQfiControl:
    def test_definite_order_gives_zero(self):
        for p_c in (0.0, 1.0):
            assert qfi_control(p_c, 0.5, XI, 0.0) == 0.0

    def test_anchor_value(self):
        assert abs(qfi_control(0.5, 0.5, XI, 0.0) - FQ_CON_ANCHOR) < 1e-15

    def test_quarter_weight(self):
        # 4 (3/4)(1/4) = 3/4 of the balanced-control value.
        assert abs(qfi_control(0.25, 0.5, XI, 0.0) - 0.75 * FQ_CON_ANCHOR) < 1e-15

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="p_c"):
            qfi_control(1.5, 0.5, XI, 0.0)
        with pytest.raises(ValueError, match="component"):
            qfi_control(0.5, 0.5, XI, -1.2)

    def test_balanced_control_is_argmax(self):
        grid = np.arange(0.05, 0.96, 0.05)
        rng = np.random.default_rng(51)
        for _ in range(20):
            p = rng.uniform(0.05, 0.95)
            xi = rng.uniform(0.3, 2 * np.pi - 0.3)
            nl = rng.uniform(-0.9, 0.9)
            if qfi_control(0.5, p, xi, nl) <= 0:
                continue
            values = [qfi_control(pc, p, xi, nl) for pc in grid]
            assert abs(grid[int(np.argmax(values))] - 0.5) < 1e-12


class TestQfiControlOpt:
    """The control QFI at the optimal p_c = 1/2."""

    def test_extreme_noise_gives_zero(self):
        assert qfi_control(0.5, 0.0, XI, 0.0) == 0.0
        assert qfi_control(0.5, 1.0, XI, 0.0) == 0.0

    def test_aligned_axis_gives_zero(self):
        assert qfi_control(0.5, 0.3, XI, 1.0) == 0.0
        assert qfi_control(0.5, 0.3, XI, -1.0) == 0.0

    def test_anchor_value(self):
        assert abs(qfi_control(0.5, 0.5, XI, 0.0) - FQ_CON_ANCHOR) < 1e-15

    def test_noise_symmetry(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            p, xi, nl = rng.uniform(), rng.uniform(0, 2 * np.pi), rng.uniform(-1, 1)
            assert abs(qfi_control(0.5, p, xi, nl) - qfi_control(0.5, 1 - p, xi, nl)) < 1e-12

    def test_peak_at_half_noise(self):
        ps = np.arange(0.0, 1.0001, 0.05)
        values = [qfi_control(0.5, p, XI, 0.0) for p in ps]
        assert abs(ps[int(np.argmax(values))] - 0.5) < 1e-12

    def test_small_phase_limit(self):
        for p, nl in ((0.5, 0.0), (0.3, 0.4), (0.9, -0.5)):
            expected = 2.0 * (1.0 - nl**2) * ((1.0 - p) * p)
            assert qfi_control(0.5, p, 0.0, nl) == expected


class TestCfiControl:
    def test_attains_qfi_at_balanced_control(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            p, xi, nl = rng.uniform(), rng.uniform(0, 2 * np.pi), rng.uniform(-1, 1)
            assert abs(cfi_control(0.5, p, xi, nl) - qfi_control(0.5, p, xi, nl)) < 1e-9

    def test_definite_control_gives_zero(self):
        assert cfi_control(0.0, 0.5, XI, 0.0) == 0.0

    def test_quarter_weight_direct_evaluation(self):
        # Direct arithmetic through the outcome probabilities.
        s = np.sqrt(0.25 * 0.75)
        q = qc_closed_form(0.5, XI, 0.0)
        dq = -0.5 * np.sin(XI)
        p_plus = 0.5 + s * q
        expected = (s * dq) ** 2 / ((1 - p_plus) * p_plus)
        got = cfi_control(0.25, 0.5, XI, 0.0)
        assert abs(got - expected) < 1e-14
        assert got <= qfi_control(0.25, 0.5, XI, 0.0) + 1e-9

    def test_never_exceeds_qfi(self):
        rng = np.random.default_rng(56)
        for _ in range(200):
            p_c = rng.uniform()
            p, xi, nl = rng.uniform(), rng.uniform(0, 2 * np.pi), rng.uniform(-1, 1)
            assert (
                cfi_control(p_c, p, xi, nl)
                <= qfi_control(p_c, p, xi, nl) + 1e-9
            )

    def test_small_phase_at_balanced_control(self, capsys):
        # (1 - P_+) P_+ cancels at small xi; the classical FI must still equal
        # the quantum value at p_c = 1/2 instead of failing or exceeding it.
        for xi in (1e-8, 1e-6, 3e-6, 1e-5, 1e-3):
            for overlap in (0.0, 0.6):
                want = qfi_control(0.5, 0.5, xi, overlap)
                assert abs(cfi_control(0.5, 0.5, xi, overlap) - want) < 1e-12
        argv = ["point", "--noise", "bitflip", "--p", "0.5", "--xi", "1e-6", "--quantity", "fc_con"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "0.500000000000\n"

    def test_degenerate_point_returns_limit(self):
        # p_c = 1/2 and xi = 0: P_+ = 1 with vanishing slope.
        assert cfi_control(0.5, 0.5, 0.0, 0.0) == 0.5

    def test_matches_numeric_route(self):
        rng = np.random.default_rng(57)
        for _ in range(20):
            p = rng.uniform()
            p_c = rng.uniform(0.1, 0.9)
            xi = rng.uniform(0.3, 2 * np.pi - 0.3)
            axis = random_axis(rng)
            noise = pauli_channel("x", p)
            rho = bloch_to_density(random_bloch(rng))
            numeric = cfi_numeric(noise, axis, xi, rho, p_c)
            closed = cfi_control(p_c, p, xi, axis[0])
            assert abs(numeric - closed) < 1e-6

    def test_numeric_route_on_a_stack_equals_its_draws(self):
        # The validators take any batch shape, so the numeric route takes a
        # stack of draws as every other oracle evaluator does.
        rng = np.random.default_rng(58)
        p, p_c, xi = rng.uniform(size=6), rng.uniform(0.1, 0.9, 6), rng.uniform(0.3, 6.0, 6)
        axes = np.array([random_axis(rng) for _ in range(6)])
        rho = bloch_to_density(np.array([random_bloch(rng) for _ in range(6)]))
        xi[0], p_c[0] = 0.0, 0.5  # one degenerate draw: P_+ = 1 with vanishing slope
        stacked = cfi_numeric(pauli_channel("x", p), axes, xi, rho, p_c)
        assert stacked.shape == (6,) and stacked[0] == 0.0
        for i in range(6):
            one = cfi_numeric(pauli_channel("x", p[i]), axes[i], xi[i], rho[i], p_c[i])
            assert isinstance(one, float) and one == stacked[i]


class TestQfiCascade:
    def test_pure_probe_no_noise(self):
        assert abs(qfi_cascade(pauli_channel("x", 0.0), E_Y, XI, (0, 0, 1.0)) - 4.0) < 1e-6

    def test_mixed_probe_no_noise(self):
        assert abs(qfi_cascade(pauli_channel("x", 0.0), E_Y, XI, (0, 0, 0.6)) - 1.44) < 1e-6

    def test_full_bitflip_kills_information(self):
        assert qfi_cascade(pauli_channel("x", 1.0), E_Y, XI, (0, 0, 0.8)) < 1e-9

    def test_matches_bloch_oracle(self):
        for p in np.linspace(0.0, 1.0, 11):
            for r in (1.0, 0.6, 0.2):
                got = qfi_cascade(pauli_channel("x", p), E_Y, XI, (0, 0, r))
                assert abs(got - cascade_bloch_oracle(p, r, XI)) < 1e-6

    def test_true_noise_profile_has_small_rebound(self):
        # The cascade column falls steeply to a minimum near p = 0.61 and
        # rises slightly before vanishing at p = 1; it is NOT monotone.
        ps = np.linspace(0.0, 1.0, 11)
        col = [qfi_cascade(pauli_channel("x", p), E_Y, XI, (0, 0, 1.0)) for p in ps]
        assert all(col[i + 1] <= col[i] + 1e-9 for i in range(6))  # falls up to p = 0.6
        assert col[7] > col[6] + 1e-3  # genuine rebound, confirmed by the Bloch oracle
        assert abs(cascade_bloch_oracle(0.7, 1.0, XI) - cascade_bloch_oracle(0.6, 1.0, XI) - (col[7] - col[6])) < 1e-6
        assert col[10] < 1e-9


def fq_cas(kind, grid, axis, xi, probe):
    return evaluate_grid(("fq_cas",), kind, grid, 0.5, xi, axis, probe)["fq_cas"]


class TestCascadeQfiGrid:
    """The engine's fq_cas column (evaluate_grid) against the SLD and Bloch oracles."""

    @given(
        kind=st.sampled_from(NOISE_KINDS),
        p=st.floats(0, 1, allow_nan=False),
        axis=unit_vectors(),
        direction=unit_vectors(),
        length=st.one_of(st.just(1.0), st.floats(0, 1, allow_nan=False)),
        xi=phases(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_sld_route(self, kind, p, axis, direction, length, xi):
        probe = direction * length
        fast = fq_cas(kind, [p], axis, xi, probe)[0]
        oracle = qfi_cascade(noise_channel(kind, p), axis, xi, probe)
        assert abs(fast - oracle) < 1e-6

    def test_fig2_columns_match_bloch_oracle(self):
        table = fig2_preset(steps=201)
        for name, r in zip(list(table)[2:], FIG2_R_VALUES):
            for p, value in zip(table["p"], table[name]):
                assert abs(value - cascade_bloch_oracle(p, r, XI)) < 1e-12

    def test_exact_anchors(self):
        for xi in (XI, 1.0, 2.5, -0.4):
            for r in FIG2_R_VALUES:
                start, end = fq_cas("bitflip", [0.0, 1.0], E_Y, xi, (0, 0, r))
                assert abs(start - 4 * r * r) < 1e-12
                assert end == 0.0
        assert fq_cas("depolarizing", [1.0], (0.6, 0.0, 0.8), XI, (0.3, 0.4, 0.5))[0] == 0.0

    def test_one_call_equals_per_point_calls(self):
        grid = np.linspace(0.0, 1.0, 9)
        axis, probe = (0.6, 0.0, 0.8), (0.5, 0.5, 0.5)
        batch = fq_cas("phaseflip", grid, axis, XI, probe)
        for p, value in zip(grid, batch):
            assert fq_cas("phaseflip", [p], axis, XI, probe)[0] == value

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="xi"):
            fq_cas("bitflip", [0.5], E_Y, float("nan"), (0, 0, 1))


class TestNoiseContraction:
    def test_matches_pauli_transfer_matrix(self):
        # T_ij = 1/2 tr(sigma_i E(sigma_j)) from the Kraus set is diag D(p),
        # with D_l = w_0 + w_l - w_j - w_k from the Pauli weights.
        paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
        grid = np.linspace(0.0, 1.0, 7)
        for kind in NOISE_KINDS:
            for p, w in zip(grid, noise_weights(kind, grid)):
                w0, wx, wy, wz = w
                factors = [w0 + wx - wy - wz, w0 + wy - wx - wz, w0 + wz - wx - wy]
                channel = noise_channel(kind, p)
                transfer = np.array(
                    [
                        [0.5 * np.trace(si @ apply_channel(channel, sj)).real for sj in paulis]
                        for si in paulis
                    ]
                )
                np.testing.assert_allclose(transfer, np.diag(factors), atol=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="probability"):
            noise_weights("bitflip", [0.2, 1.5])
        with pytest.raises(ValueError, match="probability"):
            noise_weights("bitflip", [float("nan")])
        with pytest.raises(ValueError, match="noise kind"):
            noise_weights("thermal", [0.2])


class TestQfiJoint:
    def test_no_noise_equals_cascade(self):
        noise = pauli_channel("x", 0.0)
        rho = bloch_to_density((0, 0, 1.0))
        joint = qfi_joint(noise, E_Y, XI, rho, 0.5)
        cascade = qfi_cascade(noise, E_Y, XI, (0, 0, 1.0))
        assert abs(joint - cascade) < 1e-6

    def test_definite_order_equals_cascade(self):
        noise = pauli_channel("x", 0.4)
        rho = bloch_to_density((0, 0, 0.7))
        joint = qfi_joint(noise, E_Y, XI, rho, 0.0)
        cascade = qfi_cascade(noise, E_Y, XI, (0, 0, 0.7))
        assert abs(joint - cascade) < 1e-9

    def test_dominates_control_marginal(self):
        # Partial tracing cannot increase Fisher information.
        noise = pauli_channel("x", 0.5)
        rho = bloch_to_density((0, 0, 0.0))
        joint = qfi_joint(noise, E_Y, XI, rho, 0.5)
        assert joint >= qfi_control(0.5, 0.5, XI, 0.0) - 1e-6


class TestOracleAgreement:
    def test_closed_form_vs_sld(self):
        rng = np.random.default_rng(58)
        worst = 0.0
        for _ in range(50):
            name = ("x", "y", "z")[rng.integers(3)]
            p, p_c = rng.uniform(), rng.uniform()
            xi = rng.uniform(0, 2 * np.pi)
            axis = random_axis(rng)
            noise = pauli_channel(name, p)
            rho = bloch_to_density(random_bloch(rng))
            numeric = qfi_numeric(control_family(noise, axis, rho, p_c), xi)
            closed = qfi_control(p_c, p, xi, axis[("x", "y", "z").index(name)])
            worst = max(worst, abs(numeric - closed))
        assert worst < 1e-6

    def test_small_phase_limit_vs_sld(self):
        fam = control_family(pauli_channel("x", 0.5), E_Y, bloch_to_density((0, 0, 0.5)), 0.5)
        assert abs(qfi_numeric(fam, 1e-4) - 0.5) < 1e-4


class TestNoiseGeometry:
    def test_depolarizing_invariance(self):
        rng = np.random.default_rng(59)
        noise = depolarizing_channel(0.4)
        values = []
        for _ in range(10):
            fam = control_family(noise, random_axis(rng), bloch_to_density(random_bloch(rng)), 0.5)
            values.append(qfi_numeric(fam, XI))
        assert max(values) - min(values) < 1e-8

    def test_pauli_depends_only_on_axis_overlap(self):
        # Axes sharing the component along the noise Pauli give equal values.
        rng = np.random.default_rng(60)
        noise = pauli_channel("x", 0.3)
        overlap = 0.3
        rest = np.sqrt(1 - overlap**2)
        axes = [
            (overlap, rest, 0.0),
            (overlap, 0.0, rest),
            (overlap, rest * np.cos(1.1), rest * np.sin(1.1)),
        ]
        values = []
        for axis in axes:
            fam = control_family(noise, axis, bloch_to_density(random_bloch(rng)), 0.5)
            values.append(qfi_numeric(fam, XI))
        assert max(values) - min(values) < 1e-8
        assert abs(values[0] - qfi_control(0.5, 0.3, XI, overlap)) < 1e-6

    def test_probe_independence_of_control_information(self):
        rng = np.random.default_rng(61)
        noise = pauli_channel("y", 0.45)
        axis = random_axis(rng)
        values = []
        for _ in range(10):
            fam = control_family(noise, axis, bloch_to_density(random_bloch(rng)), 0.5)
            values.append(qfi_numeric(fam, XI))
        assert max(values) - min(values) < 1e-8


class TestCrossover:
    def test_control_beats_cascade_at_high_noise(self):
        for p in (0.6, 0.7, 0.8, 0.9):
            control = qfi_control(0.5, p, XI, 0.0)
            for r in (1.0, 0.8, 0.6, 0.4, 0.2):
                cascade = qfi_cascade(pauli_channel("x", p), E_Y, XI, (0, 0, r))
                assert control > cascade

    def test_pure_probe_beats_control_at_low_noise(self):
        cascade = qfi_cascade(pauli_channel("x", 0.05), E_Y, XI, (0, 0, 1.0))
        assert cascade > qfi_control(0.5, 0.05, XI, 0.0)
