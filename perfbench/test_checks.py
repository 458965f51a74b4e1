"""The benchmark's correctness checks pass on real outputs and fire on perturbed ones.

    python3 -m pytest perfbench/test_checks.py

Outputs come from the real CLI on small experiments: n = 40 takes the
generalized-eigh path, n = 200 the residual path (the jitter fallback
fires there).
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import kcca.cli  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402

SMALL = wl.Experiment("sim1", "sim1", 40, 60, sigma=1.0, eta=1.0, linear_eval=True)
RESIDUAL = wl.Experiment("sim1", "sim1", 200, 60, sigma=1.0, eta=1.0)
# A paper_sizes dataset on which LAPACK cannot factor the rkhs metric N
# (smallest eigenvalue about 7e-17), although the package's fit succeeds.
SINGULAR_N_SEED = 3200074


def _make(tmp_path, exp, data_seed=3):
    directory = tmp_path / exp.name
    directory.mkdir()
    for _, argv in wl.commands(exp, str(directory), data_seed=data_seed):
        assert kcca.cli.main(argv) == 0
    assert kcca.cli.main(wl.eval_argv(str(directory), wl.REPORT_AGAIN, wl.PLOTS_AGAIN)) == 0
    return directory


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    return _make(tmp_path_factory.mktemp("small"), SMALL)


@pytest.fixture(scope="module")
def singular_n(tmp_path_factory):
    return _make(tmp_path_factory.mktemp("singular_n"), SMALL, SINGULAR_N_SEED)


@pytest.fixture(scope="module")
def residual(tmp_path_factory):
    return _make(tmp_path_factory.mktemp("residual"), RESIDUAL)


def _copy(src, tmp_path):
    return shutil.copytree(src, tmp_path / "copy")


def _edit_json(path, fn):
    with open(path) as fh:
        doc = json.load(fh)
    fn(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _edit_csv_value(path, row, col, fn):
    with open(path) as fh:
        lines = fh.read().splitlines()
    fields = lines[row].split(",")
    fields[col] = repr(fn(float(fields[col])))
    lines[row] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _names(fails):
    return {f.split(":")[0] for f in fails}


@pytest.mark.parametrize("exp_fixture, exp", [("small", SMALL), ("singular_n", SMALL),
                                              ("residual", RESIDUAL)])
def test_real_outputs_pass(request, exp_fixture, exp):
    assert checks.check_experiment(request.getfixturevalue(exp_fixture), exp, repeated_eval=True) == []


def test_perturbed_lambda_fires_eigh(small, tmp_path):
    d = _copy(small, tmp_path)
    _edit_json(d / wl.MODEL, lambda doc: doc["lambdas"].__setitem__(0, doc["lambdas"][0] * (1 + 1e-6)))
    assert "eigh" in _names(checks.check_experiment(d, SMALL))


def test_perturbed_lambda_fires_eigh_with_fallback(singular_n, tmp_path):
    d = _copy(singular_n, tmp_path)
    _edit_json(d / wl.MODEL, lambda doc: doc["lambdas"].__setitem__(1, doc["lambdas"][1] * (1 + 1e-6)))
    assert "eigh" in _names(checks.check_experiment(d, SMALL))


def test_failing_eigh_fires(small, tmp_path, monkeypatch):
    def singular(*args, **kwargs):
        raise checks.np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(checks.scipy.linalg, "eigh", singular)
    assert "eigh" in _names(checks.check_experiment(small, SMALL))


def test_perturbed_lambda_fires_residual(residual, tmp_path):
    d = _copy(residual, tmp_path)
    _edit_json(d / wl.MODEL, lambda doc: doc["lambdas"].__setitem__(1, doc["lambdas"][1] * (1 + 1e-6)))
    assert "residual" in _names(checks.check_experiment(d, RESIDUAL))


def test_lambda_out_of_order_fires(residual, tmp_path):
    d = _copy(residual, tmp_path)
    _edit_json(d / wl.MODEL, lambda doc: doc["lambdas"].reverse())
    assert "lambda" in _names(checks.check_experiment(d, RESIDUAL))


@pytest.mark.parametrize("exp_fixture, exp", [("small", SMALL), ("residual", RESIDUAL)])
def test_perturbed_alpha_fires(request, tmp_path, exp_fixture, exp):
    d = _copy(request.getfixturevalue(exp_fixture), tmp_path)
    _edit_json(d / wl.MODEL, lambda doc: doc["alphas"][7].__setitem__(0, doc["alphas"][7][0] * 1.001))
    names = _names(checks.check_experiment(d, exp))
    assert {"residual", "normalization", "transform"} <= names


def test_perturbed_feature_file_fires(small, tmp_path):
    d = _copy(small, tmp_path)
    _edit_csv_value(d / wl.FEATURES["y"], 5, 1, lambda v: v * (1 + 1e-7))
    assert _names(checks.check_experiment(d, SMALL)) == {"transform"}


def test_perturbed_table_fires(small, tmp_path):
    d = _copy(small, tmp_path)
    _edit_json(d / wl.REPORT, lambda doc: doc["test_table"][0].__setitem__(1, doc["test_table"][0][1] + 1e-6))
    assert _names(checks.check_experiment(d, SMALL)) == {"corrcoef"}


def test_perturbed_plot_fires(small, tmp_path):
    d = _copy(small, tmp_path)
    _edit_csv_value(d / wl.PLOTS / "component_2.csv", 3, 0, lambda v: v + 1e-6)
    assert _names(checks.check_experiment(d, SMALL)) == {"plots"}


def test_train_pearson_below_lambda_fires(small, tmp_path):
    d = _copy(small, tmp_path)

    def lower(doc):
        doc["train_diag"][0] = doc["lambdas"][0] - 1e-3
        doc["train_table"][0][0] = doc["train_diag"][0]

    _edit_json(d / wl.REPORT, lower)
    assert "pearson" in _names(checks.check_experiment(d, SMALL))


def test_perturbed_linear_rho_fires(small, tmp_path):
    d = _copy(small, tmp_path)
    _edit_json(d / wl.LINEAR_MODEL, lambda doc: doc["rhos"].__setitem__(0, doc["rhos"][0] * (1 + 1e-6)))
    assert "linear" in _names(checks.check_experiment(d, SMALL))


def test_differing_repeat_eval_fires(small, tmp_path):
    d = _copy(small, tmp_path)
    with open(d / wl.REPORT_AGAIN, "a") as fh:
        fh.write(" ")
    assert checks.check_experiment(d, SMALL) == []
    assert _names(checks.check_experiment(d, SMALL, repeated_eval=True)) == {"repeat eval"}


def test_missing_output_fires(small, tmp_path):
    d = _copy(small, tmp_path)
    os.remove(d / wl.FEATURES["x"])
    assert _names(checks.check_experiment(d, SMALL)) == {"files"}
