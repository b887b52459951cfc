import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msbls import linalg
from msbls.linalg import (
    TRIANGULAR_BLOCK,
    RngStream,
    SolverError,
    as_matrix,
    derive_streams,
    pseudoinverse,
    random_matrix,
    ridge_solve,
    ridge_solve_blocks,
)


class TestRngStream:
    @pytest.mark.parametrize("scale", [1e3, 1.0, 7.3e5, 3.3e-2])
    def test_uniform_is_generator_uniform_bit_for_bit(self, scale):
        ours, reference = RngStream(11), np.random.Generator(np.random.PCG64(11))
        assert np.array_equal(
            ours.uniform(-scale, scale, 37, 5), reference.uniform(-scale, scale, size=(37, 5))
        )
        # The stream stands at the same place afterwards.
        assert np.array_equal(ours.standard_normal(3, 2), reference.standard_normal((3, 2)))

    def test_words_are_seeded_uint32(self):
        words = RngStream(12).words(4)
        assert words.dtype == np.uint32 and words.shape == (4,)
        assert np.array_equal(words, RngStream(12).words(4))
        assert not np.array_equal(words, RngStream(13).words(4))


class TestRandomMatrix:
    def test_degenerate_uniform_interval_is_all_zero(self):
        out = random_matrix(2, 2, ("uniform", 0.0, 0.0), RngStream(3))
        assert out.shape == (2, 2)
        assert np.all(out == 0.0)

    def test_same_seed_same_draws(self):
        a = random_matrix(3, 4, "standard_normal", RngStream(7))
        b = random_matrix(3, 4, "standard_normal", RngStream(7))
        assert np.array_equal(a, b)

    def test_law_of_large_numbers_normal(self):
        # Independent oracle: direct statistics on the draw itself.
        draw = random_matrix(1000, 1, "standard_normal", RngStream(1))
        assert abs(draw.mean()) < 0.1
        assert abs(draw.var() - 1.0) < 0.15

    def test_uniform_bounds_respected(self):
        draw = random_matrix(200, 5, ("uniform", -2.0, 3.0), RngStream(5))
        assert draw.min() >= -2.0 and draw.max() <= 3.0

    @pytest.mark.parametrize("dist", ["standard_normal", ("uniform", -2.0, 3.0)],
                             ids=["normal", "uniform"])
    def test_one_row_draw_is_the_streams_first_row(self, dist):
        draw = random_matrix(1, 4, dist, RngStream(6))
        reference = RngStream(6)
        expected = (reference.standard_normal(1, 4) if dist == "standard_normal"
                    else reference.uniform(-2.0, 3.0, 1, 4))
        assert draw.shape == (1, 4)
        assert np.array_equal(draw, expected)

    @pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (-1, 2)])
    def test_zero_dimension_rejected(self, rows, cols):
        with pytest.raises(ValueError):
            random_matrix(rows, cols, "standard_normal", RngStream(0))

    def test_bad_distribution_rejected(self):
        with pytest.raises(ValueError):
            random_matrix(2, 2, "poisson", RngStream(0))
        with pytest.raises(ValueError):
            random_matrix(2, 2, ("uniform", 1.0, 0.0), RngStream(0))


class TestDeriveStreams:
    def test_deterministic_and_distinct(self):
        s1 = derive_streams(42, ["a", "b", "c"])
        s2 = derive_streams(42, ["a", "b", "c"])
        assert [s1[k].seed for k in "abc"] == [s2[k].seed for k in "abc"]
        assert len({s1[k].seed for k in "abc"}) == 3

    def test_streams_draw_independently(self):
        s = derive_streams(0, ["x", "y"])
        before = s["y"].standard_normal(2, 2)
        s["x"].standard_normal(100, 100)
        again = derive_streams(0, ["x", "y"])["y"]
        assert np.array_equal(before, again.standard_normal(2, 2))


class TestPseudoinverse:
    def test_identity(self):
        out = pseudoinverse(np.eye(3), 1e-8)
        assert np.max(np.abs(out - np.eye(3))) < 1e-6

    def test_scalar_inverse(self):
        out = pseudoinverse(np.array([[2.0]]), 1e-12)
        assert abs(out[0, 0] - 0.5) < 1e-9

    def test_moore_penrose_identity_tall(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 3))
        q = pseudoinverse(a, 1e-10)
        assert q.shape == (3, 6)
        assert np.max(np.abs(q @ a - np.eye(3))) < 1e-5

    def test_two_algebraic_forms_agree(self):
        # Both closed forms computed independently of the implementation.
        # The wide-side inverse is only conditioned to lam * sigma_min^-2,
        # so the 1e-10 agreement is checked at a ridge float64 can express.
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal((5, 3))
            lam = 1e-4
            left = np.linalg.solve(a.T @ a + lam * np.eye(3), a.T)
            right = a.T @ np.linalg.inv(a @ a.T + lam * np.eye(5))
            assert np.max(np.abs(left - right)) < 1e-10
            ours = pseudoinverse(a, lam)
            assert np.max(np.abs(ours - left)) < 1e-10

    def test_two_forms_track_at_default_ridge(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rng.standard_normal((5, 3))
            left = np.linalg.solve(a.T @ a + 1e-8 * np.eye(3), a.T)
            assert np.max(np.abs(pseudoinverse(a, 1e-8) - left)) < 1e-6

    def test_reconstruction_property(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = int(rng.integers(3, 12))
            n = int(rng.integers(1, m + 1))
            a = rng.standard_normal((m, n))
            q = pseudoinverse(a, 1e-10)
            assert np.max(np.abs(a @ q @ a - a)) < 1e-6

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            pseudoinverse(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            pseudoinverse(np.array([[np.nan, 1.0], [0.0, 1.0]]), 1e-8)
        with pytest.raises(ValueError):
            pseudoinverse(np.zeros((0, 3)), 1e-8)


class TestRidgeSolve:
    def test_identity_system(self):
        w = ridge_solve(np.eye(2), np.eye(2), 1e-8)
        assert np.max(np.abs(w - np.eye(2))) < 1e-6

    def test_exact_fit_column(self):
        w = ridge_solve(np.array([[1.0], [1.0]]), np.array([[1.0], [1.0]]), 1e-8)
        assert abs(w[0, 0] - 1.0) < 1e-6

    def test_synthetic_recovery(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((20, 5))
        w_true = rng.standard_normal((5, 3))
        w = ridge_solve(a, a @ w_true, 1e-10)
        assert np.max(np.abs(w - w_true)) < 1e-5

    def test_matches_pseudoinverse_route(self):
        rng = np.random.default_rng(4)
        for shape in [(8, 3), (3, 8)]:
            a = rng.standard_normal(shape)
            y = rng.standard_normal((shape[0], 2))
            direct = ridge_solve(a, y, 1e-8)
            via_pinv = pseudoinverse(a, 1e-8) @ y
            assert np.allclose(direct, via_pinv, atol=1e-9)

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ridge_solve(np.eye(3), np.eye(2), 1e-8)

    @given(
        n=st.integers(2, 12),
        f=st.integers(1, 12),
        c=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_residual_never_worse_than_zero_weights(self, n, f, c, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, f))
        y = rng.standard_normal((n, c))
        w = ridge_solve(a, y, 1e-8)
        assert np.linalg.norm(a @ w - y) <= np.linalg.norm(y) + 1e-9


def test_as_matrix_rejects_non_finite_and_wrong_rank():
    with pytest.raises(ValueError):
        as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf]]))


@pytest.mark.parametrize("ridge", [np.inf, np.nan])
def test_non_finite_ridge_rejected(ridge):
    a = np.random.default_rng(0).standard_normal((4, 3))
    with pytest.raises(ValueError, match="ridge must be positive and finite"):
        ridge_solve(a, np.ones((4, 1)), ridge)
    with pytest.raises(ValueError, match="ridge must be positive and finite"):
        pseudoinverse(a, ridge)


@pytest.mark.parametrize("a_shape, y_shape", [((4, 3), (5, 1)), ((2, 5), (3, 1))],
                         ids=["n>=f", "n<f"])
def test_row_mismatch_rejected_on_either_gram(a_shape, y_shape):
    # a.T @ y refuses the rows when n >= f, the Cholesky solve when n < f.
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ridge_solve(rng.standard_normal(a_shape), rng.standard_normal(y_shape), 1e-8)


@pytest.mark.one_blas_thread
class TestRidgeSolveBlocks:
    @pytest.mark.parametrize("n", [60, 25], ids=["n>=f", "n<f"])
    def test_matches_the_stacked_solve(self, n):
        rng = np.random.default_rng(n)
        zn, hm = rng.standard_normal((n, 10)), rng.standard_normal((n, 30))
        y = rng.standard_normal((n, 3))
        stacked = ridge_solve(np.hstack([zn, hm]), y, 1e-2)
        blocks = ridge_solve_blocks([zn, hm], y, 1e-2)
        assert np.linalg.norm(blocks - stacked) / np.linalg.norm(stacked) < 1e-10

    @pytest.mark.parametrize("n", [60, 25], ids=["n>=f", "n<f"])
    def test_health_holds_the_condition_estimate(self, n):
        rng = np.random.default_rng(n)
        zn, hm = rng.standard_normal((n, 10)), rng.standard_normal((n, 30))
        health = {}
        ridge_solve_blocks([zn, hm], rng.standard_normal((n, 3)), 1e-2, health)
        a = np.hstack([zn, hm])
        gram = a.T @ a if n >= 40 else a @ a.T
        exact = 1 / np.linalg.cond(gram + 1e-2 * np.eye(len(gram)), 1)
        # LAPACK bounds the inverse's norm from below, so the estimate sits at
        # or above the true value (less three-digit rounding), within a small factor.
        assert exact * 0.99 <= health["gram_rcond"] <= exact * 10

    @pytest.mark.parametrize("first, second", [((5, 1), (4, 2)), ((2, 3), (3, 3))],
                             ids=["n>=f", "n<f"])
    def test_block_row_mismatch_rejected(self, first, second):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ridge_solve_blocks(
                [rng.standard_normal(first), rng.standard_normal(second)],
                np.ones((first[0], 1)), 1e-8,
            )

    def test_never_holds_a_stacked_copy(self):
        from msbls.bls import train_output_weights

        rng = np.random.default_rng(0)
        zn, hm = rng.standard_normal((4000, 100)), np.tanh(rng.standard_normal((4000, 1000)))
        y = np.eye(10)[rng.integers(0, 10, 4000)]
        tracemalloc.start()
        try:
            train_output_weights(zn, hm, y, 1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4000 * 1100 * 8


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.one_blas_thread
class TestNumpyCholesky:
    """The readout factors and solves on numpy's BLAS; scipy's Cholesky, which
    it replaced, is the reference for its results and its failure message."""

    @pytest.mark.parametrize("order", [1, TRIANGULAR_BLOCK - 1, TRIANGULAR_BLOCK,
                                       TRIANGULAR_BLOCK + 1, 300])
    @pytest.mark.parametrize("cols", [1, 10])
    @pytest.mark.parametrize("layout", ["factor", "reversed transpose"])
    def test_lower_solve_matches_numpy_solve(self, order, cols, layout):
        rng = np.random.default_rng([order, cols])
        a = rng.standard_normal((2 * order, order))
        low = np.linalg.cholesky(a.T @ a + order * np.eye(order))
        if layout == "reversed transpose":  # the backward solve's lower-triangular view
            low = low.T[::-1, ::-1]
        rhs = rng.standard_normal((order, cols))
        assert relative_error(linalg._lower_solve(low, rhs), np.linalg.solve(low, rhs)) < 1e-12

    @pytest.mark.parametrize("n", [400, 200], ids=["n>=f", "n<f"])
    def test_ridge_solve_blocks_matches_scipy_cho_solve(self, n):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        cho_factor, cho_solve = scipy_linalg.cho_factor, scipy_linalg.cho_solve
        rng = np.random.default_rng(n)
        zn, hm = rng.standard_normal((n, 100)), rng.standard_normal((n, 200))
        y, ridge = rng.standard_normal((n, 10)), 1e-2
        a = np.hstack([zn, hm])
        if n >= a.shape[1]:
            want = cho_solve(cho_factor(a.T @ a + ridge * np.eye(a.shape[1])), a.T @ y)
        else:
            want = a.T @ cho_solve(cho_factor(a @ a.T + ridge * np.eye(n)), y)
        got = ridge_solve_blocks([zn, hm], y, ridge)
        assert got.flags.c_contiguous
        assert relative_error(got, want) < 1e-10

    @staticmethod
    def assert_scipy_names_the_same_minor(gram, minor):
        cho_factor = pytest.importorskip("scipy.linalg").cho_factor
        with pytest.raises(np.linalg.LinAlgError) as scipy_error:
            cho_factor(gram)
        with pytest.raises(SolverError) as failure:
            linalg._spd_solve(gram.copy(), 1e-300, np.ones((len(gram), 1)))
        assert str(failure.value) == f"positive-definite factorization failed: {scipy_error.value}"
        assert str(failure.value).startswith(f"positive-definite factorization failed: {minor}-th ")
        assert isinstance(failure.value.__cause__, np.linalg.LinAlgError)

    def test_ones_gram_fails_at_the_second_minor(self):
        # A ridge of 1e-300 leaves 1 + ridge == 1, so the second pivot is 0.
        self.assert_scipy_names_the_same_minor(np.ones((6, 6)), 2)

    @pytest.mark.parametrize("minor", [1, 2, TRIANGULAR_BLOCK, 201, 300])
    def test_negative_diagonal_entry_fails_at_its_minor(self, minor):
        gram = np.diag(np.linspace(1.0, 2.0, 300))
        gram[minor - 1, minor - 1] = -1.0
        self.assert_scipy_names_the_same_minor(gram, minor)


@pytest.mark.one_blas_thread
class TestRcondEstimate:
    """``gram_rcond`` comes from a numpy port of LAPACK's ``dlacn2``, driven as
    ``dpocon`` drives it; scipy's ``dpocon``, which it replaced, is the reference."""

    @staticmethod
    def assert_matches_dpocon(gram):
        dpocon = pytest.importorskip("scipy.linalg.lapack").dpocon
        low, anorm = np.linalg.cholesky(gram), np.linalg.norm(gram, 1)
        want = dpocon(low.T, anorm, "U")[0]
        assert abs(linalg._rcond_estimate(low, anorm) - want) <= 1e-12 * want

    @pytest.mark.parametrize("order", [1, 2, 127, 128, 129, 300])
    def test_matches_dpocon(self, order):
        rng = np.random.default_rng(order)
        a = rng.standard_normal((2 * order, order)) * rng.uniform(0.01, 100.0, order)
        self.assert_matches_dpocon(a.T @ a + 1e-2 * np.eye(order))

    def test_matches_dpocon_on_a_rank_deficient_gram_plus_the_default_ridge(self):
        # 200 columns spanning 50 dimensions, as mapped features wider than the input.
        rng = np.random.default_rng(7)
        a = rng.standard_normal((400, 50)) @ rng.standard_normal((50, 200))
        self.assert_matches_dpocon(a.T @ a + 1e-8 * np.eye(200))
