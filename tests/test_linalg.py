import numpy as np
import pytest

from kcca.datagen import SimSpec, gen_sim1
from kcca.errors import InputError, NotPositiveDefiniteError, SingularRegularizationError
from kcca.kernels import KernelSpec, gram_matrix
from kcca.linalg import (
    RANK_TOL,
    cholesky,
    pivoted_cholesky,
    solve_lower_transposed,
    solve_lower_triangular,
    solve_paired_eig,
    svd,
)

from oracles import paired_eig_bruteforce


def random_spd(rng, n, cond=10.0):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    vals = np.linspace(1.0, cond, n)
    return Q @ np.diag(vals) @ Q.T


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_hand_example(self):
        C = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        np.testing.assert_allclose(C, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], atol=1e-15)

    def test_indefinite_reports_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.pivot == 1

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for n in (2, 5, 30):
            A = random_spd(rng, n)
            C = cholesky(A)
            err = np.max(np.abs(C @ C.T - A))
            assert err <= 1e-10 * np.max(np.diag(A))
            assert np.all(np.diag(C) > 0)

    def test_jitter_rescues_semidefinite(self):
        A = np.ones((3, 3))  # rank 1
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(A)
        C = cholesky(A, jitter=1e-8)
        assert np.all(np.diag(C) > 0)

    def test_negative_jitter(self):
        with pytest.raises(InputError):
            cholesky(np.eye(2), jitter=-1.0)


class TestTriangularSolves:
    def test_identity_factor(self):
        f = cholesky(np.eye(4))
        B = np.arange(8.0).reshape(4, 2)
        np.testing.assert_array_equal(solve_lower_triangular(f, B), B)

    def test_hand_substitution(self):
        f = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))  # lower [[2,0],[1,sqrt2]]
        x = solve_lower_triangular(f, np.array([[4.0], [3.0]]))
        np.testing.assert_allclose(x, [[2.0], [1.0 / np.sqrt(2.0)]], atol=1e-15)

    def test_spd_solve_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            A = random_spd(rng, 8)
            b = rng.normal(size=8)
            f = cholesky(A)
            x = solve_lower_transposed(f, solve_lower_triangular(f, b))
            assert np.max(np.abs(A @ x - b)) <= 1e-10


class TestSvd:
    def test_diagonal(self):
        res = svd(np.diag([3.0, 1.0]))
        np.testing.assert_array_equal(res.s, [3.0, 1.0])

    def test_rank_one(self):
        res = svd(np.array([[0.0, 2.0], [0.0, 0.0]]))
        np.testing.assert_allclose(res.s, [2.0, 0.0], atol=1e-15)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(6, 4))
        res = svd(A)
        assert np.all(np.diff(res.s) <= 0) and np.all(res.s >= 0)
        assert np.max(np.abs(res.U.T @ res.U - np.eye(4))) <= 1e-10
        assert np.max(np.abs(res.V.T @ res.V - np.eye(4))) <= 1e-10
        recon = res.U @ np.diag(res.s) @ res.V.T
        assert np.max(np.abs(A - recon)) <= 1e-10 * max(1.0, res.s[0])

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(5, 5))
        res = svd(A)
        for k in range(5):
            i = np.argmax(np.abs(res.U[:, k]))
            assert res.U[i, k] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(7, 3))
        r1, r2 = svd(A), svd(A.copy())
        assert np.array_equal(r1.U, r2.U)
        assert np.array_equal(r1.s, r2.s)
        assert np.array_equal(r1.V, r2.V)

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def with_spectrum(rng, s):
    n = len(s)
    Q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    Q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (Q1 * s) @ Q2.T


class TestTopDSvd:
    """`svd(A, d)` keeps the top d triplets of the full SVD."""

    SPECTRUM = np.concatenate([[1.0, 3e-3], 1e-3 * 0.8 ** np.arange(298.0)])

    def test_repeat_calls_bit_identical(self):
        A = with_spectrum(np.random.default_rng(31), self.SPECTRUM)
        r1, r2 = svd(A, 2), svd(A.copy(), 2)
        for f in ("U", "s", "V"):
            assert np.array_equal(getattr(r1, f), getattr(r2, f))

    @pytest.mark.parametrize("shape, d", [((63, 63), 2), ((300, 300), 10), ((300, 200), 2)])
    def test_below_ratio_or_non_square_truncates_full_svd(self, shape, d):
        A = np.random.default_rng(32).normal(size=shape)
        ref = svd(A)
        res = svd(A, d)
        np.testing.assert_array_equal(res.s, ref.s[:d])
        np.testing.assert_array_equal(res.U, ref.U[:, :d])
        np.testing.assert_array_equal(res.V, ref.V[:, :d])

    @pytest.mark.parametrize("d", [0, 3])
    def test_component_count_checked(self, d):
        with pytest.raises(InputError):
            svd(np.eye(2), d)

    def test_paired_eig_top_two_match_full_solve(self):
        rng = np.random.default_rng(34)
        n = 256
        M, L, N = rng.normal(size=(n, n)), random_spd(rng, n), random_spd(rng, n)
        full = solve_paired_eig(M, L, N, d=n)
        top = solve_paired_eig(M, L, N, d=2)
        np.testing.assert_allclose(top.lambdas, full.lambdas[:2], rtol=1e-12, atol=0)
        for got, ref in ((top.alphas, full.alphas[:, :2]), (top.betas, full.betas[:, :2])):
            assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))


class TestPivotedCholesky:
    @pytest.mark.parametrize("n", [40, 500])
    def test_factor_reproduces_pivot_columns_and_bounds_residual(self, n):
        train, _, _ = gen_sim1(SimSpec("sim1", n, 5, seed=8))
        spec = KernelSpec("gaussian", sigma=1.0)
        K = gram_matrix(spec, train.x)
        G, P, T = pivoted_cholesky(gram_matrix(spec, train.x))
        r = G.shape[1]
        assert P.shape == (r,) and len(set(P.tolist())) == r
        assert np.array_equal(T, G[P]) and np.array_equal(T, np.tril(T))
        top = np.max(np.diag(K))
        assert np.max(np.abs(K[:, P] - G @ T.T)) <= 1e-12 * top
        assert np.max(np.diag(K) - np.einsum("ij,ij->i", G, G)) <= RANK_TOL * top
        if n == 40:
            assert r == n
        else:
            assert r < n

    def test_low_rank_gram(self):
        X = np.random.default_rng(35).normal(size=(30, 3))
        G, P, T = pivoted_cholesky(X @ X.T)
        assert G.shape == (30, 3)
        np.testing.assert_allclose(G @ G.T, X @ X.T, atol=1e-12)


class TestPairedEig:
    def test_zero_m(self):
        sol = solve_paired_eig(np.zeros((3, 3)), np.eye(3), np.eye(3), d=3)
        np.testing.assert_array_equal(sol.lambdas, np.zeros(3))

    def test_identity_metrics(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(4, 4))
        sol = solve_paired_eig(M, np.eye(4), np.eye(4), d=4)
        ref = svd(M)
        np.testing.assert_allclose(sol.lambdas, ref.s, atol=1e-12)
        np.testing.assert_allclose(sol.alphas, ref.U, atol=1e-12)
        np.testing.assert_allclose(sol.betas, ref.V, atol=1e-12)

    def _random_instance(self, rng, n):
        M = rng.normal(size=(n, n))
        return M, random_spd(rng, n), random_spd(rng, n)

    def test_residuals_and_normalization(self):
        rng = np.random.default_rng(6)
        for n in (2, 4, 8):
            M, L, N = self._random_instance(rng, n)
            sol = solve_paired_eig(M, L, N, d=n)
            fro = np.linalg.norm(M)
            for k in range(n):
                a, b, lam = sol.alphas[:, k], sol.betas[:, k], sol.lambdas[k]
                assert np.linalg.norm(M @ b - lam * (L @ a)) <= 1e-8 * fro
                assert np.linalg.norm(M.T @ a - lam * (N @ b)) <= 1e-8 * fro
                assert abs(a @ L @ a - 1.0) <= 1e-10
                assert abs(b @ N @ b - 1.0) <= 1e-10

    def test_against_doubled_system_oracle(self):
        rng = np.random.default_rng(7)
        M, L, N = self._random_instance(rng, 4)
        sol = solve_paired_eig(M, L, N, d=4)
        all_eigs = paired_eig_bruteforce(M, L, N)
        positive = np.sort(all_eigs[all_eigs > 1e-10])[::-1]
        mine = sol.lambdas[sol.lambdas > 1e-10]
        assert len(mine) <= len(positive)
        np.testing.assert_allclose(mine, positive[: len(mine)], rtol=1e-8)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        n = 6
        M, L, N = self._random_instance(rng, n)
        p = rng.permutation(n)
        sol = solve_paired_eig(M, L, N, d=n)
        solp = solve_paired_eig(M[np.ix_(p, p)], L[np.ix_(p, p)], N[np.ix_(p, p)], d=n)
        np.testing.assert_allclose(solp.lambdas, sol.lambdas, atol=1e-10)
        # spectrum is simple almost surely, so vectors permute up to sign
        for k in range(n):
            a = sol.alphas[p, k]
            ap = solp.alphas[:, k]
            assert min(np.max(np.abs(ap - a)), np.max(np.abs(ap + a))) <= 1e-8

    def test_singular_metric_error_advice(self):
        M = np.eye(2)
        singular = np.zeros((2, 2))
        with pytest.raises(SingularRegularizationError, match="eta"):
            solve_paired_eig(M, singular - np.eye(2), np.eye(2), d=1)

    def test_too_many_components(self):
        with pytest.raises(InputError):
            solve_paired_eig(np.eye(2), np.eye(2), np.eye(2), d=3)

    def test_reports_applied_jitter(self):
        sol = solve_paired_eig(np.eye(2), np.eye(2), np.eye(2), d=1, jitter=0.5)
        assert sol.jitter == (0.5, 0.5)
        sol = solve_paired_eig(np.eye(2), np.ones((2, 2)), np.eye(2), d=1)
        assert sol.jitter == (1e-9, 0.0)
