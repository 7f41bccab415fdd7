"""Tests for the small dense complex linear algebra kernels."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icoswitch.qmat
from icoswitch.engine import I2, SIGMA_X, SIGMA_Y
from icoswitch.qmat import (
    ATOL_STRUCT,
    _product,
    as_cmatrix,
    channel_choi,
    herm_eig,
    partial_trace,
    psd_within,
)
from references import probe_marginal

# Eigendecomposition quality: reconstruction and orthonormality residuals.
ATOL_RECON = 1e-11


def random_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def random_hermitian(rng, n):
    a = random_complex(rng, n)
    return (a + a.conj().T) / 2


def random_density(rng, n):
    a = random_complex(rng, n)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def assert_matches_eigh(a, n):
    """herm_eig against numpy's LAPACK eigh: values to 1e-12, vectors by residuals."""
    vals, vecs = herm_eig(a)
    np.testing.assert_allclose(vals, np.linalg.eigvalsh(a), rtol=0, atol=1e-12)
    rebuilt = vecs @ np.diag(vals) @ vecs.conj().T
    assert np.max(np.abs(rebuilt - a)) < ATOL_RECON * max(1.0, np.linalg.norm(a))
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(n))) < ATOL_RECON


class TestAsCmatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_cmatrix([[np.nan, 0], [0, 1]])

    def test_rejects_inf_imag(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_cmatrix([[1j * np.inf, 0], [0, 1]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            as_cmatrix([[1, 2, 3], [4, 5, 6]])


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 2)
        sigma = random_density(rng, 2)
        np.testing.assert_allclose(partial_trace(np.kron(rho, sigma)), sigma, atol=1e-14)

    def test_bell_state(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        bell = np.outer(phi, phi.conj())
        np.testing.assert_allclose(partial_trace(bell), I2 / 2, atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m = random_complex(rng, 4)
            m = m / np.trace(m)
            assert abs(np.trace(partial_trace(m)) - 1.0) < 1e-12

    def test_kron_scaling(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_complex(rng, 2)
            a = a / np.trace(a)
            b = random_complex(rng, 2)
            np.testing.assert_allclose(partial_trace(np.kron(a, b)), b, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            partial_trace(np.eye(3, dtype=complex))


class TestHermEig:
    def test_diagonal(self):
        vals, vecs = herm_eig(np.diag([0.2, 0.8]).astype(complex))
        np.testing.assert_allclose(vals, [0.2, 0.8], atol=0)
        np.testing.assert_allclose(vecs, I2, atol=0)

    def test_sigma_x(self):
        vals, _ = herm_eig(SIGMA_X)
        np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)

    def test_ascending_order(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            vals, _ = herm_eig(random_hermitian(rng, 4))
            assert np.all(np.diff(vals) >= 0)

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_reconstruction_and_orthonormality(self, n):
        rng = np.random.default_rng(9 + n)
        for _ in range(5):
            a = random_hermitian(rng, n)
            assert_matches_eigh(a, n)

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = random_hermitian(rng, 4)
            vals, _ = herm_eig(a)
            assert abs(vals.sum() - np.trace(a).real) < 1e-11

    def test_zero_matrix(self):
        vals, vecs = herm_eig(np.zeros((4, 4), dtype=complex))
        np.testing.assert_array_equal(vals, np.zeros(4))
        np.testing.assert_array_equal(vals, np.linalg.eigvalsh(np.zeros((4, 4))))
        np.testing.assert_array_equal(vecs, np.eye(4))

    def test_one_live_row(self):
        # Only row and column 2 are nonzero: the rest is deflated, and the
        # live 1x1 block needs no sweep.
        a = np.zeros((4, 4), dtype=complex)
        a[2, 2] = -1.5
        vals, vecs = herm_eig(a)
        np.testing.assert_array_equal(vals, np.linalg.eigvalsh(a))
        np.testing.assert_array_equal(vecs, np.eye(4)[:, [2, 0, 1, 3]])

    @pytest.mark.parametrize("entry", [2.0, -0.75, 1e-170, 3e300])
    def test_one_by_one(self, entry):
        vals, vecs = herm_eig(np.array([[entry + 0j]]))
        np.testing.assert_array_equal(vals, [entry])
        np.testing.assert_array_equal(vecs, [[1.0]])

    def test_stack_of_one_by_one(self):
        entries = np.array([2.0, 0.0, -1e-170, 5.0])
        vals, vecs = herm_eig(entries.reshape(2, 2, 1, 1))
        np.testing.assert_array_equal(vals, entries.reshape(2, 2, 1))
        np.testing.assert_array_equal(vecs, np.ones((2, 2, 1, 1)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            herm_eig(np.array([[1j]]))

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(rng, 4)
        first = herm_eig(a)
        second = herm_eig(a.copy())
        np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
        np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)


class TestHermEigContract:
    """The cyclic Jacobi solver against np.linalg.eigh on the oracle's kinds of input."""

    @pytest.mark.parametrize("n, ranks", [(4, (1, 2, 3)), (16, (1, 4, 8, 15))])
    def test_rank_deficient_gram(self, n, ranks):
        # sum_m v_m v_m^dag, the shape of a Choi matrix of m Kraus operators.
        rng = np.random.default_rng(200 + n)
        for rank in ranks:
            v = rng.normal(size=(rank, n)) + 1j * rng.normal(size=(rank, n))
            gram = v.T @ v.conj()
            vals, _ = herm_eig(gram)
            assert np.all(np.abs(vals[: n - rank]) < 1e-12 * np.linalg.norm(gram))
            assert_matches_eigh(gram, n)

    @pytest.mark.parametrize("spectrum", [(0.3, 0.3, 0.7, 0.7), (1.0, 1.0, 1.0, -2.0), (0.25,) * 4])
    def test_repeated_eigenvalues(self, spectrum):
        rng = np.random.default_rng(300)
        u = random_unitary(rng, 4)
        a = u @ np.diag(spectrum) @ u.conj().T
        assert_matches_eigh((a + a.conj().T) / 2, 4)

    def test_diagonal_input_makes_no_rotation(self):
        diag = np.array([0.7, -1.5, 0.0, 2.25, 0.7])
        vals, vecs = herm_eig(np.diag(diag).astype(complex))
        order = np.argsort(diag, kind="stable")
        np.testing.assert_array_equal(vals, diag[order])
        np.testing.assert_array_equal(vecs, np.eye(5)[:, order])

    def test_entries_below_pivot_skip_are_not_rotated(self):
        # Only the (0, 1) pivot exceeds 1e-18 ||A||_F.  The (2, 3) entry is
        # skipped, so the result equals that of the matrix without it, bit
        # for bit; a rotation there would put ~1e-19 into the eigenvectors.
        a = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        a[0, 1], a[1, 0] = 0.5 + 0.25j, 0.5 - 0.25j
        tiny = a.copy()
        tiny[2, 3], tiny[3, 2] = 1e-19j, -1e-19j
        with_tiny, without = herm_eig(tiny), herm_eig(a)
        np.testing.assert_array_equal(with_tiny.eigenvalues, without.eigenvalues)
        np.testing.assert_array_equal(with_tiny.eigenvectors, without.eigenvectors)
        assert_matches_eigh(tiny, 4)

    def test_sweep_limit_raises(self, monkeypatch):
        monkeypatch.setattr(icoswitch.qmat, "JACOBI_MAX_SWEEPS", 0)
        with pytest.raises(ArithmeticError, match="0 sweeps"):
            herm_eig(SIGMA_X)

    @pytest.mark.parametrize("n", [2, 16])  # 4x4: TestHermEig.test_deterministic
    def test_bit_identical_repeat(self, n):
        a = random_hermitian(np.random.default_rng(400 + n), n)
        first, second = herm_eig(a), herm_eig(a.copy())
        np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
        np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)


class TestHermEigScaling:
    """Entries outside [2^-500, 2^500] are scaled by a power of two, not squared raw."""

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170, 1e300])
    def test_scaled_sigma_x(self, scale):
        vals, vecs = herm_eig(scale * SIGMA_X)
        np.testing.assert_allclose(vals, [-scale, scale], rtol=1e-12, atol=0)
        np.testing.assert_array_equal(vecs, herm_eig(SIGMA_X).eigenvectors)

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170, 1e300])
    def test_scaled_hermitian_matches_unscaled(self, scale):
        a = random_hermitian(np.random.default_rng(500), 4)
        np.testing.assert_allclose(
            herm_eig(scale * a).eigenvalues, scale * herm_eig(a).eigenvalues, rtol=1e-12, atol=0
        )


def stack_member(rng, kind, n):
    """One Hermitian member of a test stack.

    "dense" has complex entries of one size and takes the most sweeps (5 or
    6 at n = 4); "tiny" is a dense member scaled to entries near 1e-170, so
    herm_eig scales it by a power of two; "diagonal" makes no rotation;
    "gaps" is a Gram matrix whose odd rows and columns are exactly zero, as
    in a Choi matrix, so alone it is solved on its even rows only.
    """
    if kind == "diagonal":
        return np.diag(rng.normal(size=n)).astype(complex)
    if kind == "gaps":
        v = random_complex(rng, n)
        v[:, 1::2] = 0.0
        return v.T @ v.conj()
    dense = random_hermitian(rng, n)
    return 1e-170 * dense if kind == "tiny" else dense


@st.composite
def hermitian_stacks(draw):
    """A stack of 2, 4 or 16 Hermitian matrices mixing the kinds of ``stack_member``.

    Every stack has a dense member, so none of its rows is zero throughout.
    """
    size = draw(st.sampled_from([2, 4, 16]))
    n = draw(st.sampled_from([2, 3, 4]))
    kinds = draw(st.permutations((["dense", "gaps", "diagonal", "tiny"] * 4)[:size]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array([stack_member(rng, kind, n) for kind in kinds])


class TestHermEigStacks:
    """A stack rotates in lockstep, yet each member gets the result it gets alone."""

    @given(stack=hermitian_stacks())
    @settings(max_examples=30, deadline=None)
    def test_stack_equals_members(self, stack):
        # Entry for entry, with no tolerance: a frozen member's rotations are
        # exactly c = 1, s = 0 (a zero may come out with the other sign), and
        # a "gaps" member solved alone on its live rows matches its full-size
        # solve inside the stack.
        together = herm_eig(stack)
        assert together.eigenvalues.shape == stack.shape[:-1]
        assert together.eigenvectors.shape == stack.shape
        for i, member in enumerate(stack):
            alone = herm_eig(member)
            np.testing.assert_array_equal(together.eigenvalues[i], alone.eigenvalues)
            np.testing.assert_array_equal(together.eigenvectors[i], alone.eigenvectors)

    @given(stack=hermitian_stacks(), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_one_bad_member_fails_the_stack(self, stack, data):
        with mock.patch.object(icoswitch.qmat, "JACOBI_MAX_SWEEPS", 1):
            with pytest.raises(ArithmeticError, match="1 sweeps"):
                herm_eig(stack)
        broken = stack.copy()
        broken[data.draw(st.integers(0, len(stack) - 1)), 0, 1] += 1e-3
        with pytest.raises(ValueError, match="Hermitian"):
            herm_eig(broken)

    def test_choi_sized_stack(self):
        rng = np.random.default_rng(410)
        kinds = ("dense", "diagonal", "tiny", "gaps")
        stack = np.array([stack_member(rng, kind, 16) for kind in kinds])
        together = herm_eig(stack.reshape(2, 2, 16, 16))
        for i, member in enumerate(stack):
            alone = herm_eig(member)
            np.testing.assert_array_equal(together.eigenvalues[i // 2, i % 2], alone.eigenvalues)
            np.testing.assert_array_equal(together.eigenvectors[i // 2, i % 2], alone.eigenvectors)
            assert_matches_eigh(member, 16)


class TestProduct:
    """The elementwise stacked product against matmul on the oracle's shapes."""

    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [
            ((2, 2), (2, 2)),
            ((4, 4), (4, 4)),
            ((30, 4, 2, 2), (30, 1, 2, 2)),  # noise Kraus sets times rotations
            ((30, 4, 1, 2, 2), (30, 1, 4, 2, 2)),  # the pair products K_j K_k
            ((16, 30, 4, 4), (30, 4, 4)),  # switched Kraus operators on joint states
            ((30, 2, 8), (30, 8, 2)),  # the completeness sum over stacked operators
            ((5, 1, 2, 2), (5, 50, 2, 2)),  # channels (5, 1) against probes (5, 50)
        ],
    )
    def test_matches_matmul(self, a_shape, b_shape):
        rng = np.random.default_rng(700)
        a = rng.normal(size=a_shape) + 1j * rng.normal(size=a_shape)
        b = rng.normal(size=b_shape) + 1j * rng.normal(size=b_shape)
        a_before, b_before = a.copy(), b.copy()
        got, want = _product(a, b), a @ b
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(a) @ np.abs(b))
        np.testing.assert_array_equal(a, a_before)
        np.testing.assert_array_equal(b, b_before)

    @pytest.mark.parametrize("d", [2, 4])
    def test_stack_equals_members(self, d):
        rng = np.random.default_rng(710 + d)
        a = rng.normal(size=(6, 3, d, d)) + 1j * rng.normal(size=(6, 3, d, d))
        b = rng.normal(size=(6, 1, d, d)) + 1j * rng.normal(size=(6, 1, d, d))
        together = _product(a, b.conj().swapaxes(-1, -2))
        for i, j in np.ndindex(6, 3):
            alone = _product(a[i, j].copy(), b[i, 0].conj().T.copy())
            np.testing.assert_array_equal(together[i, j].view(float), alone.view(float))


class TestPsdWithinStacks:
    def test_stack_equals_members(self):
        rng = np.random.default_rng(620)
        levels = np.array([-1e-9, -2e-10, 0.0, 0.3])
        stack = np.array([spectrum_matrix(rng, rng.choice(levels, size=4)) for _ in range(40)])
        together = psd_within(stack)
        assert together.shape == (40,) and 0 < together.sum() < 40
        assert list(together) == [psd_within(member) for member in stack]


def spectrum_matrix(rng, spectrum):
    u = random_unitary(rng, len(spectrum))
    a = u @ np.diag(spectrum) @ u.conj().T
    return (a + a.conj().T) / 2


class TestPsdWithin:
    """The shifted Cholesky test against the eigenvalue predicate it replaces."""

    @pytest.mark.parametrize("n, draws", [(2, 400), (4, 400), (16, 40)])
    def test_agrees_with_eigenvalue_predicate(self, n, draws):
        # Spectra from {-1e-9, -2e-10, -5e-11, 0, 1e-12, 0.3}: the smallest
        # level is drawn first, so a third of the draws have lambda_min below
        # -1e-10, and none has it within a factor 2 of -1e-10.
        # The draws are made first, in order, and solved by one stacked herm_eig.
        rng = np.random.default_rng(600 + n)
        levels = np.array([-1e-9, -2e-10, -5e-11, 0.0, 1e-12, 0.3])

        def draw():
            lowest = rng.choice(levels)
            spectrum = np.append(rng.choice(levels[levels >= lowest], size=n - 1), lowest)
            return spectrum_matrix(rng, spectrum)

        stack = np.array([draw() for _ in range(draws)])
        wants = herm_eig(stack).eigenvalues[:, 0] >= -ATOL_STRUCT
        assert [psd_within(a) for a in stack] == list(wants)
        assert 0 < wants.sum() < draws

    @pytest.mark.parametrize("diag", [(0.5, -1e-10), (-1e-10, 0.5), (0.25, 0.25, 0.5, -1e-10)])
    def test_bound_is_strict(self, diag):
        # lambda_min = -1e-10 exactly: the shifted pivot is exactly 0.
        assert not psd_within(np.diag(diag).astype(complex))
        assert psd_within(np.diag(diag).astype(complex) + 1e-12 * np.eye(len(diag)))

    def test_rank_one_projectors_pass(self):
        rng = np.random.default_rng(610)
        for n in (2, 4, 16):
            for _ in range(20):
                v = rng.normal(size=n) + 1j * rng.normal(size=n)
                v /= np.linalg.norm(v)
                assert psd_within(np.outer(v, v.conj()))

    def test_symmetrizes_before_reading_a_triangle(self):
        # Eigenvalues a +- b with b = 0.5 + 8e-11: lambda_min = -8e-11 passes.
        # An asymmetry of +-4e-11 on the off-diagonal entries gives an upper
        # triangle with lambda_min = -1.2e-10 and a lower one with -4e-11, so
        # a kernel reading either raw triangle fails one of the two cases.
        b = 0.5 + 8e-11
        a = np.array([[0.5, b + 4e-11], [b - 4e-11, 0.5]], dtype=complex)
        for m in (a, a.T):
            assert np.max(np.abs(m - m.conj().T)) < ATOL_STRUCT
            assert psd_within(m)
            assert not psd_within(m - 1e-10 * np.eye(2))

    def test_deterministic_and_leaves_input(self):
        a = spectrum_matrix(np.random.default_rng(611), [0.0, 0.2, 0.3, 0.5])
        before = a.copy()
        assert psd_within(a) and psd_within(a)
        np.testing.assert_array_equal(a, before)


class TestChannelChoi:
    def test_identity_channel(self):
        choi = channel_choi([I2])
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        np.testing.assert_allclose(choi, 2 * np.outer(phi, phi.conj()), atol=1e-15)
        assert abs(np.trace(choi) - 2.0) < 1e-15

    def test_full_bit_flip_is_rank_one(self):
        choi = channel_choi([SIGMA_X])
        vals, _ = herm_eig(choi)
        assert np.sum(vals > 1e-12) == 1
        assert abs(vals[-1] - 2.0) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            channel_choi([])

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            channel_choi([I2, np.eye(4, dtype=complex)])

    def test_complete_channel_has_identity_input_marginal(self):
        # For sum K^dag K = I the partial trace over the output factor is I.
        p = 0.3
        ops = [np.sqrt(1 - p) * I2, np.sqrt(p) * SIGMA_Y]
        choi = channel_choi(ops)
        marginal = probe_marginal(choi)
        assert np.max(np.abs(marginal - I2)) < ATOL_STRUCT
        vals, _ = herm_eig(choi)
        assert vals[0] > -ATOL_STRUCT
