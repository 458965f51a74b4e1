import numpy as np
import pytest

from kcca import cca, linalg
from kcca.cca import (
    KccaConfig,
    build_mln,
    correlation_table,
    fit_kcca,
    fit_linear_cca,
    model_from_dict,
    model_to_dict,
    project,
    project_linear,
)
from kcca.datagen import PairedDataset, SimSpec, gen_sim1, gen_sim2
from kcca.errors import DegenerateFeatureError, InputError, NotPositiveDefiniteError
from kcca.kernels import KernelSpec, cross_kernel, gram_matrix

from oracles import linear_cca_rhos_ref, mln_ref, pearson_ref

GAUSS1 = KernelSpec("gaussian", sigma=1.0)
LINEAR = KernelSpec("linear")


def gauss_config(sigma, eta, d=2):
    k = KernelSpec("gaussian", sigma=sigma)
    return KccaConfig(kernel_x=k, kernel_y=k, eta1=eta, eta2=eta, d=d)


def random_paired(rng, n, n_x=2, n_y=2):
    return PairedDataset(x=rng.normal(size=(n, n_x)), y=rng.normal(size=(n, n_y)))


class TestConfig:
    def test_rkhs_requires_positive_eta(self):
        with pytest.raises(InputError):
            KccaConfig(kernel_x=GAUSS1, kernel_y=GAUSS1, eta1=0.0, eta2=1.0)

    def test_dual_l2_allows_zero_eta(self):
        KccaConfig(kernel_x=LINEAR, kernel_y=LINEAR, eta1=0.0, eta2=0.0, regularizer="dual_l2")

    def test_unknown_regularizer(self):
        with pytest.raises(InputError):
            KccaConfig(kernel_x=GAUSS1, kernel_y=GAUSS1, regularizer="ridge")


class TestBuildMln:
    def test_single_sample(self):
        F = np.array([[0.3, 0.7]])
        M, L, N = build_mln(F, F, 2.0, 2.0)
        np.testing.assert_array_equal(M, np.zeros((2, 2)))
        np.testing.assert_array_equal(L, 2.0 * np.eye(2))

    def test_identity_grams_no_reg(self):
        I2 = np.eye(2)  # features of the identity Gram
        M, L, N = build_mln(I2, I2, 0.0, 0.0)
        np.testing.assert_allclose(M, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    @pytest.mark.parametrize("regularizer", ["rkhs", "dual_l2"])
    def test_matches_explicit_j_oracle(self, regularizer):
        # full-rank factors: K = G G^T with F = G (rkhs), or K = U S^2 U^T with
        # F = U S^2 (dual_l2); the dense matrices are then B (M, L, N) B^T, B = G or U
        rng = np.random.default_rng(0)
        Kx = gram_matrix(GAUSS1, rng.normal(size=(5, 2)))
        Ky = gram_matrix(GAUSS1, rng.normal(size=(5, 2)))
        bases, feats = [], []
        for K in (Kx, Ky):
            G = np.linalg.cholesky(K)
            U, s, _ = np.linalg.svd(G)
            bases.append(G if regularizer == "rkhs" else U)
            feats.append(G if regularizer == "rkhs" else U * s**2)
        M, L, N = build_mln(*feats, 0.3, 0.7)
        Mr, Lr, Nr = mln_ref(Kx, Ky, 0.3, 0.7, rkhs=regularizer == "rkhs")
        Bx, By = bases
        np.testing.assert_allclose(Bx @ M @ By.T, Mr, atol=1e-13)
        np.testing.assert_allclose(Bx @ L @ Bx.T, Lr, atol=1e-13)
        np.testing.assert_allclose(By @ N @ By.T, Nr, atol=1e-13)
        assert np.array_equal(L, L.T) and np.array_equal(N, N.T)

    def test_size_mismatch(self):
        rng = np.random.default_rng(1)
        with pytest.raises(InputError):
            build_mln(rng.normal(size=(4, 3)), rng.normal(size=(5, 3)), 1.0, 1.0)


class TestFitKcca:
    def test_simulation1_paper_table(self):
        # single representative draw; the seed-averaged check lives in acceptance
        train, test, _ = gen_sim1(SimSpec("sim1", 40, 100, seed=8))
        model = fit_kcca(train, gauss_config(1.0, 1.0))
        table = correlation_table(project(model, "x", train.x), project(model, "y", train.y))
        assert table[0, 0] == pytest.approx(0.98, abs=0.05)
        assert table[1, 1] == pytest.approx(0.97, abs=0.05)
        assert abs(table[0, 1]) < 0.15 and abs(table[1, 0]) < 0.15

    def test_identical_variates_reach_unit_correlation(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 2))
        data = PairedDataset(x=X, y=X.copy())
        cfg = KccaConfig(
            kernel_x=LINEAR, kernel_y=LINEAR, eta1=1e-8, eta2=1e-8, regularizer="dual_l2", d=1
        )
        model = fit_kcca(data, cfg)
        table = correlation_table(project(model, "x", X), project(model, "y", X))
        assert table[0, 0] >= 0.999

    def test_single_sample_rejected(self):
        data = PairedDataset(x=np.ones((1, 2)), y=np.ones((1, 2)))
        with pytest.raises(InputError):
            fit_kcca(data, gauss_config(1.0, 1.0, d=1))

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(3)
        data = random_paired(rng, 15)
        m1 = fit_kcca(data, gauss_config(0.5, 0.2))
        m2 = fit_kcca(data, gauss_config(0.5, 0.2))
        assert np.array_equal(m1.alphas, m2.alphas)
        assert np.array_equal(m1.betas, m2.betas)
        assert np.array_equal(m1.lambdas, m2.lambdas)

    def test_stored_duals_satisfy_residuals(self):
        rng = np.random.default_rng(4)
        data = random_paired(rng, 12)
        cfg = gauss_config(0.8, 0.5, d=3)
        model = fit_kcca(data, cfg)
        Kx = gram_matrix(cfg.kernel_x, data.x)
        Ky = gram_matrix(cfg.kernel_y, data.y)
        M, L, N = mln_ref(Kx, Ky, cfg.eta1, cfg.eta2)
        fro = np.linalg.norm(M)
        for k in range(3):
            a, b, lam = model.alphas[:, k], model.betas[:, k], model.lambdas[k]
            assert np.linalg.norm(M @ b - lam * (L @ a)) <= 1e-8 * fro
            assert np.linalg.norm(M.T @ a - lam * (N @ b)) <= 1e-8 * fro

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        data = random_paired(rng, 20)
        shifted = PairedDataset(x=data.x + np.array([3.5, -1.25]), y=data.y.copy())
        cfg = gauss_config(1.0, 0.5)
        m0, m1 = fit_kcca(data, cfg), fit_kcca(shifted, cfg)
        np.testing.assert_allclose(m1.lambdas, m0.lambdas, atol=1e-10)
        t0 = correlation_table(project(m0, "x", data.x), project(m0, "y", data.y))
        t1 = correlation_table(
            project(m1, "x", shifted.x), project(m1, "y", shifted.y)
        )
        np.testing.assert_allclose(t1, t0, atol=1e-10)

    def test_train_correlation_dominates_lambda(self):
        # the regularized objective lower-bounds the empirical correlation
        rng = np.random.default_rng(6)
        for trial in range(5):
            train, _, _ = gen_sim1(SimSpec("sim1", 30, 5, seed=100 + trial))
            model = fit_kcca(train, gauss_config(1.0, 1.0))
            table = correlation_table(
                project(model, "x", train.x), project(model, "y", train.y)
            )
            for k in range(2):
                assert table[k, k] >= model.lambdas[k] - 1e-8


def dense_fit(data, cfg):
    """The n x n fit: dense M, L, N from the oracle, solved directly."""
    Kx = gram_matrix(cfg.kernel_x, data.x)
    Ky = gram_matrix(cfg.kernel_y, data.y)
    M, L, N = mln_ref(Kx, Ky, cfg.eta1, cfg.eta2, rkhs=cfg.regularizer == "rkhs")
    return (M, L, N), linalg.solve_paired_eig(M, L, N, cfg.d)


class TestLowRankFit:
    """The r x r fit against the dense n x n problem it replaces, at sim1 500/50."""

    @pytest.fixture(scope="class")
    def sim1_500(self):
        return gen_sim1(SimSpec("sim1", 500, 50, seed=8))[:2]

    @pytest.mark.parametrize("regularizer", ["rkhs", "dual_l2"])
    def test_matches_dense_problem(self, sim1_500, regularizer):
        train, test = sim1_500
        cfg = KccaConfig(kernel_x=GAUSS1, kernel_y=GAUSS1, regularizer=regularizer)
        model = fit_kcca(train, cfg)
        assert max(model.diagnostics["rank"]) < train.n
        (M, L, N), ref = dense_fit(train, cfg)
        np.testing.assert_allclose(model.lambdas, ref.lambdas, rtol=1e-10, atol=0)
        norm_m = np.linalg.norm(M, 2)
        for k in range(cfg.d):
            a, b, lam = model.alphas[:, k], model.betas[:, k], model.lambdas[k]
            assert np.linalg.norm(M @ b - lam * (L @ a)) <= 1e-9 * norm_m * np.linalg.norm(b)
            assert np.linalg.norm(M.T @ a - lam * (N @ b)) <= 1e-9 * norm_m * np.linalg.norm(a)
        for side, pts, coef in (("x", test.x, ref.alphas), ("y", test.y, ref.betas)):
            got = project(model, side, pts)
            want = cross_kernel(GAUSS1, pts, getattr(train, side)) @ coef
            for k in range(cfg.d):  # each component is fixed up to its sign
                err = min(np.max(np.abs(got[:, k] - s * want[:, k])) for s in (1, -1))
                assert err <= 1e-9 * np.max(np.abs(want[:, k]))

    @pytest.mark.parametrize("regularizer", ["rkhs", "dual_l2"])
    def test_repeat_fits_bit_identical(self, sim1_500, regularizer):
        cfg = KccaConfig(kernel_x=GAUSS1, kernel_y=GAUSS1, regularizer=regularizer)
        m1, m2 = fit_kcca(sim1_500[0], cfg), fit_kcca(sim1_500[0], cfg)
        for field in ("alphas", "betas", "lambdas"):
            assert np.array_equal(getattr(m1, field), getattr(m2, field))

    def test_rkhs_duals_live_on_the_pivots(self, sim1_500):
        model = fit_kcca(sim1_500[0], gauss_config(1.0, 1.0))
        rows = np.count_nonzero(np.any(model.alphas != 0, axis=1))
        assert rows == model.diagnostics["rank"][0]

    @pytest.mark.parametrize("regularizer", ["rkhs", "dual_l2"])
    def test_blocked_gram_fit_bit_identical(self, monkeypatch, regularizer):
        train = gen_sim1(SimSpec("sim1", 300, 5, seed=8))[0]
        cfg = KccaConfig(kernel_x=GAUSS1, kernel_y=GAUSS1, regularizer=regularizer)
        blocked = fit_kcca(train, cfg)
        monkeypatch.setattr(cca, "gram_matrix", lambda s, X: cross_kernel(s, X, X))
        whole = fit_kcca(train, cfg)
        for field in ("alphas", "betas", "lambdas"):
            assert np.array_equal(getattr(blocked, field), getattr(whole, field))
        assert blocked.diagnostics == whole.diagnostics

    def test_rank_below_components_rejected(self):
        rng = np.random.default_rng(26)
        data = PairedDataset(x=rng.normal(size=(20, 1)), y=rng.normal(size=(20, 2)))
        cfg = KccaConfig(kernel_x=LINEAR, kernel_y=LINEAR, regularizer="dual_l2", d=2)
        with pytest.raises(InputError, match=r"of rank \[1, 2\]"):
            fit_kcca(data, cfg)


class TestDiagnostics:
    def test_sim1_ranks_and_no_jitter(self):
        train, _, _ = gen_sim1(SimSpec("sim1", 200, 5, seed=8))
        model = fit_kcca(train, gauss_config(1.0, 1.0))
        r_x, r_y = model.diagnostics["rank"]
        assert r_x < 200 and r_y < 200
        assert model.diagnostics["jitter"] == [0.0, 0.0]
        assert model_to_dict(model)["diagnostics"] == {"rank": [r_x, r_y], "jitter": [0.0, 0.0]}

    def test_fallback_jitter_is_recorded(self, monkeypatch):
        cholesky = linalg.cholesky

        def refuse_unjittered(A, jitter=0.0):
            if jitter == 0.0:
                raise NotPositiveDefiniteError(pivot=0)
            return cholesky(A, jitter)

        monkeypatch.setattr(linalg, "cholesky", refuse_unjittered)
        model = fit_kcca(random_paired(np.random.default_rng(27), 15), gauss_config(1.0, 1.0))
        j_l, j_n = model.diagnostics["jitter"]
        assert j_l > 0 and j_n > 0

    def test_model_without_diagnostics_loads(self):
        rng = np.random.default_rng(28)
        model = fit_kcca(random_paired(rng, 10), gauss_config(1.0, 1.0))
        doc = model_to_dict(model)
        del doc["diagnostics"]
        loaded = model_from_dict(doc)
        assert loaded.diagnostics is None and "diagnostics" not in model_to_dict(loaded)
        pts = rng.normal(size=(4, 2))
        assert np.array_equal(project(loaded, "x", pts), project(model, "x", pts))


class TestProject:
    def test_linear_kernel_single_coefficient(self):
        train = PairedDataset(x=np.array([[2.0, 1.0], [0.0, 3.0]]), y=np.zeros((2, 2)))
        cfg = KccaConfig(
            kernel_x=LINEAR, kernel_y=LINEAR, eta1=1e-6, eta2=1e-6, regularizer="dual_l2", d=1
        )
        model = cca.KccaModel(
            train_x=train.x,
            train_y=train.y,
            config=cfg,
            alphas=np.array([[1.0], [0.0]]),
            betas=np.array([[0.0], [1.0]]),
            lambdas=np.array([1.0]),
        )
        pts = np.array([[1.0, 1.0], [4.0, -2.0]])
        np.testing.assert_allclose(project(model, "x", pts), pts @ train.x[0][:, None])

    def test_far_point_decays_to_zero(self):
        rng = np.random.default_rng(7)
        data = random_paired(rng, 10)
        model = fit_kcca(data, gauss_config(0.3, 0.5, d=1))
        far = data.x.max(axis=0) + 10.0  # >= 10 sigma * ... away from everything
        u = project(model, "x", far[None, :])
        assert np.abs(u[0, 0]) <= 1e-20 * np.sum(np.abs(model.alphas))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(8)
        model = fit_kcca(random_paired(rng, 8), gauss_config(1.0, 1.0))
        with pytest.raises(InputError):
            project(model, "x", np.zeros((2, 3)))
        with pytest.raises(InputError):
            project(model, "z", np.zeros((2, 2)))

    def test_training_projection_consistency(self):
        rng = np.random.default_rng(9)
        data = random_paired(rng, 14)
        model = fit_kcca(data, gauss_config(0.9, 0.3))
        Kx = gram_matrix(model.config.kernel_x, data.x)
        Ky = gram_matrix(model.config.kernel_y, data.y)
        direct = correlation_table(Kx @ model.alphas, Ky @ model.betas)
        via_project = correlation_table(
            project(model, "x", data.x), project(model, "y", data.y)
        )
        np.testing.assert_allclose(via_project, direct, atol=1e-12)


class TestCorrelationTable:
    def test_identical_features(self):
        rng = np.random.default_rng(10)
        U = rng.normal(size=(30, 2))
        table = correlation_table(U, U.copy())
        np.testing.assert_allclose(np.diag(table), [1.0, 1.0], atol=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(11)
        U = rng.normal(size=(25, 2))
        V = rng.normal(size=(25, 2))
        table = correlation_table(U, V)
        for j in range(2):
            for k in range(2):
                assert table[j, k] == pytest.approx(
                    pearson_ref(U[:, j], V[:, k]), abs=1e-12
                )

    def test_entries_bounded(self):
        rng = np.random.default_rng(12)
        table = correlation_table(rng.normal(size=(50, 3)), rng.normal(size=(50, 3)))
        assert np.all(np.abs(table) <= 1.0)

    def test_constant_column_raises(self):
        rng = np.random.default_rng(13)
        U = rng.normal(size=(10, 2))
        U[:, 1] = 4.2
        with pytest.raises(DegenerateFeatureError, match="column 1"):
            correlation_table(U, rng.normal(size=(10, 2)))

    def test_too_few_rows(self):
        with pytest.raises(InputError):
            correlation_table(np.ones((1, 2)), np.ones((1, 2)))


class TestLinearCca:
    def test_identical_1d_variates(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(30, 1))
        model = fit_linear_cca(PairedDataset(x=x, y=x.copy()), d=1, ridge=1e-12)
        assert model.rhos[0] == pytest.approx(1.0, abs=1e-10)

    def test_unit_training_variance(self):
        rng = np.random.default_rng(15)
        data = random_paired(rng, 40)
        model = fit_linear_cca(data, d=2, ridge=0.0)
        for side, pts in (("x", data.x), ("y", data.y)):
            feats = project_linear(model, side, pts)
            var = np.mean((feats - feats.mean(axis=0)) ** 2, axis=0)
            np.testing.assert_allclose(var, np.ones(2), atol=1e-8)

    def test_independent_gaussians_near_zero(self):
        rng = np.random.default_rng(16)
        data = random_paired(rng, 2000)
        model = fit_linear_cca(data, d=2)
        assert model.rhos[0] <= 0.1

    def test_rank_deficient_needs_ridge(self):
        x = np.ones((10, 2)) * np.array([[1.0], [2.0]] * 5)  # second column duplicates first
        x[:, 1] = x[:, 0]
        data = PairedDataset(x=x, y=np.random.default_rng(17).normal(size=(10, 2)))
        with pytest.raises(NotPositiveDefiniteError, match="ridge"):
            fit_linear_cca(data, d=2, ridge=0.0)
        fit_linear_cca(data, d=2, ridge=1e-6)

    def test_projection_of_mean_is_zero(self):
        rng = np.random.default_rng(18)
        data = random_paired(rng, 25)
        model = fit_linear_cca(data, d=2)
        feats = project_linear(model, "x", data.x.mean(axis=0)[None, :])
        np.testing.assert_allclose(feats, np.zeros((1, 2)), atol=1e-12)

    def test_train_projection_reproduces_rhos(self):
        rng = np.random.default_rng(19)
        data = PairedDataset(
            x=rng.normal(size=(60, 2)),
            y=rng.normal(size=(60, 2)) * 0.4,
        )
        data.y[:, 0] += data.x[:, 0]
        model = fit_linear_cca(data, d=2, ridge=0.0)
        table = correlation_table(
            project_linear(model, "x", data.x), project_linear(model, "y", data.y)
        )
        np.testing.assert_allclose(np.diag(table), model.rhos, atol=1e-10)

    @pytest.mark.parametrize("ridge", [1e-10, 0.5])
    def test_ridge_enters_once(self, ridge):
        train, _, _ = gen_sim1(SimSpec("sim1", 40, 1, seed=8))
        rng = np.random.default_rng(29)
        for data in (train, PairedDataset(x=rng.normal(size=(60, 5)), y=rng.normal(size=(60, 3)))):
            want = linear_cca_rhos_ref(data.x, data.y, ridge, 2)
            np.testing.assert_allclose(fit_linear_cca(data, 2, ridge).rhos, want, rtol=1e-10)

    def test_too_many_components(self):
        rng = np.random.default_rng(20)
        with pytest.raises(InputError):
            fit_linear_cca(random_paired(rng, 10), d=3)


class TestLinearKernelReduction:
    def test_matches_linear_cca(self):
        rng = np.random.default_rng(21)
        for trial in range(5):
            data = PairedDataset(
                x=rng.normal(size=(30, 2)), y=rng.normal(size=(30, 2))
            )
            data.y[:, 0] += 0.8 * data.x[:, 0]
            lin = fit_linear_cca(data, d=2, ridge=1e-10)
            cfg = KccaConfig(
                kernel_x=LINEAR,
                kernel_y=LINEAR,
                eta1=1e-8,
                eta2=1e-8,
                regularizer="dual_l2",
                d=2,
            )
            km = fit_kcca(data, cfg)
            table = correlation_table(
                project(km, "x", data.x), project(km, "y", data.y)
            )
            np.testing.assert_allclose(np.diag(table), lin.rhos, atol=1e-3)
            # features agree up to sign
            uk = project(km, "x", data.x)
            ul = project_linear(lin, "x", data.x)
            for k in range(2):
                a = (uk[:, k] - uk[:, k].mean()) / np.std(uk[:, k])
                b = (ul[:, k] - ul[:, k].mean()) / np.std(ul[:, k])
                assert min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) <= 0.05


class TestSerialization:
    def test_kcca_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(22)
        data = random_paired(rng, 12)
        model = fit_kcca(data, gauss_config(0.7, 0.4))
        path = tmp_path / "model.json"
        cca.save_model(model, path)
        loaded = cca.load_model(path)
        pts = rng.normal(size=(5, 2))
        assert np.array_equal(project(loaded, "x", pts), project(model, "x", pts))
        assert np.array_equal(project(loaded, "y", pts), project(model, "y", pts))
        assert loaded.config == model.config

    def test_linear_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(23)
        data = random_paired(rng, 20)
        model = fit_linear_cca(data, d=2, ridge=1e-9)
        path = tmp_path / "model.json"
        cca.save_model(model, path)
        loaded = cca.load_model(path)
        pts = rng.normal(size=(5, 2))
        assert np.array_equal(
            project_linear(loaded, "x", pts), project_linear(model, "x", pts)
        )
        assert loaded.ridge == model.ridge

    def test_failed_save_keeps_existing_model(self, tmp_path, monkeypatch):
        model = fit_linear_cca(random_paired(np.random.default_rng(25), 20), d=2, ridge=1e-9)
        path = tmp_path / "model.json"
        cca.save_model(model, path)
        before = path.read_bytes()

        def fail(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(cca.json, "dumps", fail)
        with pytest.raises(OSError, match="no space"):
            cca.save_model(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_schema_checked(self):
        with pytest.raises(InputError):
            model_from_dict({"schema": "other/9", "method": "kcca"})

    def test_dict_round_trip(self):
        rng = np.random.default_rng(24)
        model = fit_kcca(random_paired(rng, 8), gauss_config(1.0, 1.0))
        again = model_from_dict(model_to_dict(model))
        assert np.array_equal(again.alphas, model.alphas)
        assert again.diagnostics == model.diagnostics == {"rank": [8, 8], "jitter": [0.0, 0.0]}
        assert np.array_equal(again.train_x, model.train_x)


class TestSimulation2:
    def test_paper_test_table(self):
        train, test = gen_sim2(SimSpec("sim2", 10, 100, seed=8))
        model = fit_kcca(train, gauss_config(0.1, 0.1))
        table = correlation_table(
            project(model, "x", test.x), project(model, "y", test.y)
        )
        assert table[0, 0] == pytest.approx(0.90, abs=0.08)
        assert table[1, 1] == pytest.approx(0.88, abs=0.08)
