import numpy as np
import pytest

from kcca.errors import InputError, NotPositiveDefiniteError
from kcca.kernels import (
    GRAM_BLOCK,
    KernelSpec,
    cross_kernel,
    gram_matrix,
    parse_kernel_spec,
)
from kcca.linalg import cholesky
from oracles import centering_matrix, kernel_eval

GAUSS1 = KernelSpec("gaussian", sigma=1.0)


class TestKernelEval:
    def test_zero_distance_is_one(self):
        x = np.array([0.3, -2.0])
        assert kernel_eval(GAUSS1, x, x) == 1.0

    def test_gaussian_closed_form(self):
        # ||x1 - x2||^2 = 2
        x1 = np.array([1.0, 0.0])
        x2 = np.array([0.0, 1.0])
        assert kernel_eval(GAUSS1, x1, x2) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_linear_dot_product(self):
        assert kernel_eval(KernelSpec("linear"), [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_polynomial(self):
        spec = KernelSpec("polynomial", degree=2, offset=1.0)
        assert kernel_eval(spec, [1.0, 2.0], [3.0, 4.0]) == (11.0 + 1.0) ** 2

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            kernel_eval(GAUSS1, [1.0], [1.0, 2.0])

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for spec in (GAUSS1, KernelSpec("linear"), KernelSpec("polynomial")):
            for _ in range(20):
                a, b = rng.normal(size=(2, 3))
                assert kernel_eval(spec, a, b) == kernel_eval(spec, b, a)

    def test_bad_sigma(self):
        with pytest.raises(InputError):
            KernelSpec("gaussian", sigma=0.0)
        with pytest.raises(InputError):
            KernelSpec("gaussian", sigma=-1.0)


class TestGramMatrix:
    def test_identical_rows(self):
        K = gram_matrix(GAUSS1, np.array([[1.0, 2.0], [1.0, 2.0]]))
        np.testing.assert_array_equal(K, np.ones((2, 2)))

    def test_linear_identity_rows(self):
        K = gram_matrix(KernelSpec("linear"), np.eye(2))
        np.testing.assert_array_equal(K, np.eye(2))

    def test_entrywise_recomputation(self):
        rng = np.random.default_rng(1)
        # below 8 features the reductions agree to the last bit; from 8 up,
        # numpy's pairwise sum in kernel_eval may differ in the last bits
        for p, sigma, rtol in ((2, 0.1, 0.0), (9, 1.0, 1e-13)):
            X = rng.uniform(0.0, 1.0, (5, p))
            spec = KernelSpec("gaussian", sigma=sigma)
            K = gram_matrix(spec, X)
            for i in range(5):
                for j in range(i, 5):
                    expect = kernel_eval(spec, X[i], X[j])
                    assert K[i, j] == pytest.approx(expect, rel=rtol, abs=0.0)
                    assert K[j, i] == K[i, j]

    def test_exact_symmetry(self):
        rng = np.random.default_rng(2)
        big = np.random.default_rng(20).normal(size=(300, 3))
        for spec in (GAUSS1, KernelSpec("linear"), KernelSpec("polynomial")):
            for X in (rng.normal(size=(17, 3)), big):
                K = gram_matrix(spec, X)
                assert np.array_equal(K, K.T)

    def test_gaussian_diag_exactly_one(self):
        rng = np.random.default_rng(3)
        K = gram_matrix(GAUSS1, rng.normal(size=(10, 4)))
        np.testing.assert_array_equal(np.diag(K), np.ones(10))

    def test_translation_bit_identical(self):
        # inputs on a dyadic grid so that x + shift is exact arithmetic
        rng = np.random.default_rng(4)
        X = rng.integers(-8, 9, size=(12, 2)) / 8.0
        shift = np.array([0.5, -2.25])
        K0 = gram_matrix(GAUSS1, X)
        K1 = gram_matrix(GAUSS1, X + shift)
        assert np.array_equal(K0, K1)

    def test_gaussian_psd(self):
        rng = np.random.default_rng(5)
        for n in (3, 20, 50):
            K = gram_matrix(KernelSpec("gaussian", sigma=0.7), rng.normal(size=(n, 3)))
            assert np.linalg.eigvalsh(K).min() >= -1e-8 * np.mean(np.diag(K))
            # the library's own factorization accepts K once shifted by the tolerance
            cholesky(K, jitter=1e-8 * np.mean(np.diag(K)) + 1e-12)

    def test_empty_input(self):
        with pytest.raises(InputError):
            gram_matrix(GAUSS1, np.empty((0, 2)))


class TestBlockedGram:
    """gram_matrix fills GRAM_BLOCK rows at a time; sizes straddle the block edges."""

    SPECS = (GAUSS1, KernelSpec("linear"), KernelSpec("polynomial", degree=3, offset=0.5))

    @pytest.mark.parametrize("n", [GRAM_BLOCK - 1, GRAM_BLOCK, GRAM_BLOCK + 1, 2 * GRAM_BLOCK + 1, 300])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_symmetric_and_equal_to_cross_kernel(self, n, spec):
        X = np.random.default_rng(n).normal(size=(n, 2))
        K = gram_matrix(spec, X)
        assert np.array_equal(K, K.T)
        ref = cross_kernel(spec, X, X)
        if spec.kind == "gaussian":
            assert np.array_equal(K, ref)
        else:  # a block product may round differently from the full one
            assert np.max(np.abs(K - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestCentering:
    def test_n1(self):
        np.testing.assert_array_equal(centering_matrix(1), [[0.0]])

    def test_n2(self):
        np.testing.assert_allclose(centering_matrix(2), [[0.5, -0.5], [-0.5, 0.5]])

    def test_annihilates_ones(self):
        J = centering_matrix(10)
        assert np.max(np.abs(J @ np.ones(10))) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 7, 100])
    def test_idempotent_matmul(self, n):
        J = centering_matrix(n)
        assert np.max(np.abs(J @ J - J)) <= 1e-14

    @pytest.mark.parametrize("n", [2, 7, 100, 1000])
    def test_idempotent_exact_arithmetic(self, n):
        # J has two distinct entries, so J@J does too; evaluate those two
        # exactly with rationals to keep BLAS summation error out of the check
        from fractions import Fraction

        J = centering_matrix(n)
        a = Fraction(J[0, 0])
        b = Fraction(J[0, 1])
        diag_defect = a * a + (n - 1) * b * b - a
        off_defect = 2 * a * b + (n - 2) * b * b - b
        assert max(abs(float(diag_defect)), abs(float(off_defect))) <= 1e-14

    def test_rejects_zero(self):
        with pytest.raises(InputError):
            centering_matrix(0)


class TestCrossKernel:
    def test_matches_gram_on_same_set(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(6, 2))
        for spec in (GAUSS1, KernelSpec("linear"), KernelSpec("polynomial")):
            np.testing.assert_array_equal(cross_kernel(spec, X, X), gram_matrix(spec, X))

    def test_mismatch(self):
        with pytest.raises(InputError):
            cross_kernel(GAUSS1, np.ones((2, 2)), np.ones((2, 3)))


class TestSpecParsing:
    def test_gaussian(self):
        spec = parse_kernel_spec("gaussian:sigma=0.25")
        assert spec.kind == "gaussian" and spec.sigma == 0.25

    def test_linear(self):
        assert parse_kernel_spec("linear").kind == "linear"

    def test_poly(self):
        spec = parse_kernel_spec("poly:degree=3,offset=0.5")
        assert (spec.kind, spec.degree, spec.offset) == ("polynomial", 3, 0.5)

    def test_poly_defaults(self):
        spec = parse_kernel_spec("poly")
        assert (spec.degree, spec.offset) == (2, 1.0)

    @pytest.mark.parametrize(
        "text,token",
        [
            ("gaussian:sigma=abc", "sigma=abc"),
            ("gaussian:width=1.0", "width=1.0"),
            ("rbf:sigma=1.0", "rbf"),
            ("poly:degree=x", "degree=x"),
        ],
    )
    def test_errors_name_token(self, text, token):
        with pytest.raises(InputError, match=token.replace(".", r"\.")):
            parse_kernel_spec(text)

    def test_round_trip(self):
        for text in ("gaussian:sigma=0.1", "linear", "poly:degree=2,offset=1.0"):
            assert parse_kernel_spec(parse_kernel_spec(text).to_string()) == parse_kernel_spec(text)
