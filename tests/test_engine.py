"""Tests for the grid engine: every sweep column against the density-matrix oracle."""

import ast
import importlib.util
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import icoswitch.engine
from icoswitch.channels import bloch_to_density, noisy_phase_channel
from icoswitch.cli import main
from icoswitch.engine import (
    I2,
    NOISE_KINDS,
    PAULI_OF_KIND,
    QUANTITIES,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    evaluate_grid,
    joint_state,
)
from icoswitch.metrology import cfi_control, control_family, qfi_control, qfi_numeric
from icoswitch.switch import qc_closed_form, qc_numeric, s00, s01, switch_state
from references import (
    NOISE_LEVELS,
    block_fq_joint,
    cfi_numeric,
    noise_channel,
    phases,
    qfi_joint,
    random_axis,
    random_bloch,
    unit_vectors,
)

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


def _resolved_by_oracle(state):
    """No eigenvalue between 1e-15 (kernel up to roundoff) and 1e-9."""
    values = np.linalg.eigvalsh(state)
    return not np.any((values > 1e-15) & (values < 1e-9))


class TestEngineMatchesOracle:
    @given(
        kind=st.sampled_from(NOISE_KINDS),
        p=NOISE_LEVELS,
        axis=unit_vectors(),
        direction=unit_vectors(),
        length=st.one_of(st.just(1.0), st.floats(0, 1, allow_nan=False)),
        p_c=st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0, 1, allow_nan=False)),
        xi=phases(),
    )
    # A noise-free level: fq_joint builds the blocks of the kind's Paulis, not
    # only those this grid weights, so its SVD keeps the kernel directions.
    @example(
        kind="bitflip",
        p=0.0,
        axis=np.array([0.0, 1.0, 0.0]),
        direction=np.array([0.0, 0.0, 1.0]),
        length=1.0,
        p_c=0.0,
        xi=0.0625,
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
            joint, djoint = joint_state(kind, p, p_c, xi, axis, probe)
            direct = switch_state(noisy_phase_channel(noise, axis, xi), rho, p_c).joint
            np.testing.assert_allclose(joint, direct, atol=1e-15)
            step = 1e-5
            ahead = switch_state(noisy_phase_channel(noise, axis, xi + step), rho, p_c).joint
            behind = switch_state(noisy_phase_channel(noise, axis, xi - step), rho, p_c).joint
            np.testing.assert_allclose(djoint, (ahead - behind) / (2 * step), atol=1e-9)

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

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_joint_matches_block_form(self, kind):
        # Phases at least 0.05 from 0 and from +-pi, where no block eigenvalue vanishes.
        rng = np.random.default_rng(73)
        for _ in range(150):
            xi = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, math.pi - 0.05)
            p, axis, probe = rng.uniform(), random_axis(rng), random_bloch(rng)
            got = evaluate_grid(("fq_joint",), kind, [p], 0.5, xi, axis, probe)["fq_joint"][0]
            assert got == pytest.approx(block_fq_joint(kind, p, xi, axis, probe), rel=1e-11)


class TestExactAnchors:
    @pytest.mark.parametrize("axis", [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.6, 0.8, 0.0)])
    def test_noise_free_pure_probe_joint_is_four(self, axis, capsys):
        for kind in NOISE_KINDS:
            for p_c in (0.5, 0.3):
                got = evaluate_grid(("fq_joint",), kind, [0.0], p_c, math.pi / 5, axis, (0, 0, 1))
                assert abs(got["fq_joint"][0] - 4.0) < 1e-12
        # The defaults of `point`: axis e_y, p_c = 1/2, xi = pi/5.
        e_y, e_z = (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
        default = evaluate_grid(("fq_joint",), "bitflip", [0.0], 0.5, math.pi / 5, e_y, e_z)
        assert default["fq_joint"][0] == 4.0
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
            axis = np.roll((0.0, 0.6, 0.8), "xyz".index(PAULI_OF_KIND[kind]))
            probe = (0.3, 0.4, 0.5)
            got = evaluate_grid(("fq_cas", "fq_joint"), kind, [1.0], 0.5, 1.1, axis, probe)
            assert got["fq_cas"][0] < 1e-15 and got["fq_joint"][0] < 1e-15

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_definite_order_joint_is_cascade_at_small_phase(self, kind):
        # At p_c in {0, 1} the joint state is the cascade output times a pure
        # control, so the Gram route and the Bloch route must agree, also
        # where the output is nearly pure and 1 - |v|^2 is of order xi^2.
        axis = np.array((0.24253563, 0.1, 0.9701425))
        axis /= np.linalg.norm(axis)
        # Along the Pauli it keeps, half-strength Pauli noise leaves a pure
        # probe nearly pure at small xi.
        kept = np.roll((1.0, 0.0, 0.0), "xyz".index(PAULI_OF_KIND.get(kind, "x")))
        for p in (0.3, 0.5):
            for xi in (1e-4, 1e-3, 1e-2):
                for p_c, probe in ((0.0, kept), (1.0, (0.0, 0.6, 0.8))):
                    got = evaluate_grid(("fq_cas", "fq_joint"), kind, [p], p_c, xi, axis, probe)
                    cascade, joint = got["fq_cas"][0], got["fq_joint"][0]
                    assert abs(cascade - joint) < 1e-12 * max(1.0, joint), (p, xi, p_c)

    @pytest.mark.parametrize("kind", sorted(PAULI_OF_KIND))
    def test_cascade_keeps_its_second_term_near_a_pure_output(self, kind):
        # With the control in |1> (p_c = 0) only one order acts, so fq_joint is
        # the cascade exactly.  A pure probe along the Pauli the noise keeps
        # stays within about p xi^2 of pure, and there the second term
        # (v.v')^2 / (1 - |v|^2) carries most of fq_cas.
        rng = np.random.default_rng(74)
        kept = np.roll((1.0, 0.0, 0.0), "xyz".index(PAULI_OF_KIND[kind]))
        levels = [1e-6, 1e-3, 0.1, 0.3, 0.5, 0.9]
        for axis in rng.normal(size=(4, 3)):
            axis /= np.linalg.norm(axis)
            for xi in 10.0 ** np.arange(-8, -2):
                for probe in (kept, -kept):
                    got = evaluate_grid(("fq_cas", "fq_joint"), kind, levels, 0.0, xi, axis, probe)
                    error = abs(got["fq_cas"] - got["fq_joint"]) / got["fq_joint"]
                    assert error.max() < 1e-11, (xi, probe)

    @pytest.mark.parametrize("kind", sorted(PAULI_OF_KIND))
    def test_small_phase_limit(self, kind):
        # At p_c = 1/2, fq_con and fc_con tend to 2 (1 - n_l^2) (1 - p) p as xi -> 0.
        axis = np.array((0.48, 0.6, 0.64))
        for p in (0.1, 0.5, 0.8):
            alpha = 2.0 * (1.0 - axis["xyz".index(PAULI_OF_KIND[kind])] ** 2) * (1 - p) * p
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


# Conjugating every operator by a Clifford unitary turns the Bloch vectors by
# a signed permutation and swaps two Pauli noises.  A Hadamard maps (x, y, z)
# to (z, -y, x), a phase gate (x, y, z) to (-y, x, z).
CLIFFORDS = {
    "hadamard": (
        [[0, 0, 1], [0, -1, 0], [1, 0, 0]],
        {"bitflip": "phaseflip", "phaseflip": "bitflip"},
    ),
    "phase": (
        [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
        {"bitflip": "bitphaseflip", "bitphaseflip": "bitflip"},
    ),
}


class TestCovariance:
    """A unitary on the probe turns the joint output and not the control, so
    mapping the axis and the probe by its rotation, and the noise by its
    conjugation, leaves every column as it was.  No oracle takes part."""

    @staticmethod
    def _assert_covariant(rng, kind, image, rotation):
        """Columns of ``kind`` equal those of ``image`` at the axis and probe
        turned by ``rotation(rng)``, on 25 seeded draws of 8 noise levels each."""
        for _ in range(25):
            axis, probe = rng.normal(size=(2, 3))
            axis /= np.linalg.norm(axis)
            probe *= rng.uniform() ** (1 / 3) / np.linalg.norm(probe)
            levels, p_c, xi = rng.uniform(size=8), rng.uniform(), rng.uniform(-7.0, 7.0)
            turn = rotation(rng)
            want = evaluate_grid(QUANTITIES, kind, levels, p_c, xi, axis, probe)
            got = evaluate_grid(QUANTITIES, image, levels, p_c, xi, turn @ axis, turn @ probe)
            for name in QUANTITIES:
                bound = 1e-12 * np.maximum(1.0, abs(want[name]))
                assert (abs(got[name] - want[name]) <= bound).all(), name

    @pytest.mark.parametrize("gate", sorted(CLIFFORDS))
    @pytest.mark.parametrize("kind", sorted(PAULI_OF_KIND))
    def test_clifford_relabels_pauli_noise(self, gate, kind):
        turn, swap = CLIFFORDS[gate]
        rng = np.random.default_rng(75)
        self._assert_covariant(rng, kind, swap.get(kind, kind), lambda rng: np.array(turn, float))

    def test_depolarizing_noise_is_rotation_invariant(self):
        def rotation(rng):
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            q *= np.sign(np.diag(r))
            return q * np.linalg.det(q)  # det(q) = -1 would be a reflection

        rng = np.random.default_rng(76)
        self._assert_covariant(rng, "depolarizing", "depolarizing", rotation)


class TestEvaluateGrid:
    def test_engine_stands_alone(self):
        # The engine runs as a module of its own, outside the package, and
        # gives the package's bits; sweep reaches the numbers only through it.
        package = Path(icoswitch.engine.__file__).parent
        spec = importlib.util.spec_from_file_location("engine_alone", package / "engine.py")
        alone = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(alone)
        args = (QUANTITIES, "bitphaseflip", [0.3], 0.3, 0.7, (0.6, 0.0, 0.8), (0.1, 0.2, 0.3))
        got, want = alone.evaluate_grid(*args), evaluate_grid(*args)
        assert all(got[name].tobytes() == want[name].tobytes() for name in QUANTITIES)
        tree = ast.parse((package / "sweep.py").read_text(encoding="utf-8"))
        relative = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level}
        assert relative == {"engine"}

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

    def test_grid_length_capped_before_the_weights(self, monkeypatch):
        monkeypatch.setattr(icoswitch.engine, "MAX_GRID_POINTS", 10)
        assert icoswitch.engine.noise_weights("depolarizing", np.zeros(10)).shape == (10, 4)
        args = (0.5, 0.3, (0, 1, 0), (0, 0, 1))
        for entry in (
            lambda grid: icoswitch.engine.noise_weights("depolarizing", grid),
            lambda grid: evaluate_grid(("qc",), "bitflip", grid, *args),
        ):
            with pytest.raises(ValueError, match="^noise grid has 11 levels, more than 10$"):
                entry(np.zeros(11))

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_empty_grid_gives_empty_columns(self, kind):
        got = evaluate_grid(QUANTITIES, kind, [], 0.3, 0.7, (0.6, 0.0, 0.8), (0.1, 0.2, 0.3))
        for name in QUANTITIES:
            assert got[name].dtype == np.float64 and got[name].shape == (0,), name

    def test_joint_consumers_build_the_kinds_paulis(self, monkeypatch):
        seen, kraus_blocks = [], icoswitch.engine._kraus_blocks

        def recording(n, xi, r, p_c, paulis=(0, 1, 2, 3)):
            seen.append(list(paulis))
            return kraus_blocks(n, xi, r, p_c, paulis)

        monkeypatch.setattr(icoswitch.engine, "_kraus_blocks", recording)
        args = (0.4, 0.7, (0.6, 0.0, 0.8), (0.1, 0.2, 0.3))
        joint_state("bitphaseflip", 0.0, *args)
        evaluate_grid(("fq_joint",), "bitphaseflip", [0.0, 0.3], *args)
        assert seen == [[0, 2], [0, 2]]

    def test_fq_joint_runs_in_chunks(self, monkeypatch):
        args = (("fq_joint",), "depolarizing")
        rest = (0.3, 0.7, (0.6, 0.0, 0.8), (0.1, 0.2, 0.3))
        grid = np.linspace(0.0, 1.0, 10)
        points = [evaluate_grid(*args, [p], *rest)["fq_joint"] for p in grid]
        monkeypatch.setattr(icoswitch.engine, "JOINT_CHUNK", 3)
        got = evaluate_grid(*args, grid, *rest)["fq_joint"]
        assert got.tobytes() == np.concatenate(points).tobytes()
        monkeypatch.undo()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            column = evaluate_grid(*args, np.linspace(0.0, 1.0, 4096), *rest)["fq_joint"]
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # Whole-grid Gram factors take about 8 kB a level, 35 MB here; in
        # chunks the temporaries past the output stay well under 1 MB.
        assert peak - column.nbytes < 1_000_000


CONTROL = ("qc", "fq_con", "fc_con")
CLOSED_FORMS = {"qc": qc_closed_form, "fq_con": qfi_control, "fc_con": cfi_control}


def _closed_form(name, p_c, p, xi, overlap):
    """The named closed form at these arguments; qc takes no p_c."""
    args = (p, xi, overlap) if name == "qc" else (p_c, p, xi, overlap)
    return CLOSED_FORMS[name](*args)


class TestPauliClosedForms:
    """qc_closed_form, qfi_control and cfi_control are the engine's control columns."""

    @pytest.mark.parametrize("kind", sorted(PAULI_OF_KIND))
    def test_match_engine_columns(self, kind):
        rng = np.random.default_rng(71)
        ps = np.concatenate(([0.0, 1.0], np.arange(1, 16) / 16, rng.uniform(size=20)))
        xis = np.concatenate(
            ([0.0, np.pi, -np.pi, 2.5 * np.pi, -7.0, 1e6], rng.uniform(-3 * np.pi, 3 * np.pi, 40))
        )
        p_cs = np.concatenate(([0.0, 0.5, 1.0], rng.uniform(size=4)))
        engine, overlaps = {name: [] for name in CONTROL}, []
        for xi in xis:
            for p_c in p_cs:
                axis = rng.normal(size=3)
                axis /= np.linalg.norm(axis)
                cols = evaluate_grid(CONTROL, kind, ps, p_c, xi, axis, (0.1, 0.2, 0.3))
                for name in CONTROL:
                    engine[name].append(cols[name])
                overlaps.append(axis["xyz".index(PAULI_OF_KIND[kind])])
        # One stacked call per closed form, shape (xi, p_c, p).
        overlap = np.reshape(overlaps, (len(xis), len(p_cs), 1))
        for name in CONTROL:
            closed = _closed_form(name, p_cs[:, None], ps, xis[:, None, None], overlap)
            got = np.reshape(engine[name], closed.shape)
            assert got.tobytes() == closed.tobytes(), name

    @pytest.mark.parametrize("name", CONTROL)
    def test_stack_equals_scalar_calls_bit_for_bit(self, name):
        rng = np.random.default_rng(72)
        p = np.concatenate(([0.0, 1.0, 0.25, 0.75], rng.uniform(size=4)))[:, None]
        p_c = np.concatenate(([0.0, 0.5, 1.0], rng.uniform(size=5)))
        xi = np.concatenate(([0.0, np.pi, -np.pi, 9.0], rng.uniform(-10.0, 10.0, size=4)))
        overlap = np.concatenate(([-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, size=5)))
        stacked = _closed_form(name, p_c, p, xi, overlap)
        assert stacked.shape == (8, 8)
        singles = [
            [_closed_form(name, p_c[j], p[i, 0], xi[j], overlap[j]) for j in range(8)]
            for i in range(8)
        ]
        assert all(type(v) is float for row in singles for v in row)
        assert np.array(singles).tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("name", CONTROL)
    def test_rejects_non_finite_and_outside_input(self, name):
        nan, inf = math.nan, math.inf
        cases = [
            ((0.5, 0.5, 0.6, nan), r"axis component must lie in \[-1, 1\], got nan"),
            ((0.5, 0.5, 0.6, [0.0, -1.5]), r"axis component must lie in \[-1, 1\], got -1.5"),
            ((0.5, 0.5, nan, 0.0), "xi must be a finite number of radians, got nan"),
            ((0.3, 0.5, inf, 0.0), "xi must be a finite number of radians, got inf"),
            ((0.5, 0.5, [0.6, -inf, 0.1], 0.0), "xi must be a finite number of radians, got -inf"),
            ((0.5, [0.2, nan], 0.6, 0.0), r"p must be a probability in \[0, 1\], got nan"),
        ]
        if name != "qc":
            p_c_message = r"p_c must be a probability in \[0, 1\], got 1.5"
            cases.append((([0.5, 1.5], 0.5, 0.6, 0.0), p_c_message))
        for args, message in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy warning on the way is a failure too
                with pytest.raises(ValueError, match=f"^{message}$"):
                    _closed_form(name, *args)
