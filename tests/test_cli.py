import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kcca
from kcca import linalg
from kcca.cli import _render_bracket_table, main, read_dataset, write_dataset
from kcca.datagen import PairedDataset


def run(argv, capsys=None):
    return main(argv)


def simulate(tmp_path, scenario="sim1", train=40, test=100, seed=7, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    tr = tmp_path / "train.csv"
    te = tmp_path / "test.csv"
    rc = main(
        [
            "simulate",
            "--scenario", scenario,
            "--train", str(train),
            "--test", str(test),
            "--seed", str(seed),
            "--out-train", str(tr),
            "--out-test", str(te),
            *extra,
        ]
    )
    assert rc == 0
    return tr, te


def test_import_does_not_load_scipy():
    # only fitting needs scipy; simulate, eval and transform processes never load it
    src = os.path.dirname(os.path.dirname(kcca.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, kcca.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestSimulate:
    def test_row_counts(self, tmp_path):
        tr, te = simulate(tmp_path)
        assert len(tr.read_text().splitlines()) == 41
        assert len(te.read_text().splitlines()) == 101

    def test_byte_identical_rerun(self, tmp_path):
        tr1, te1 = simulate(tmp_path / "a", seed=5)
        tr2, te2 = simulate(tmp_path / "b", seed=5)
        assert tr1.read_bytes() == tr2.read_bytes()
        assert te1.read_bytes() == te2.read_bytes()

    def test_zero_train_is_usage_error(self, tmp_path, capsys):
        rc = main(
            [
                "simulate", "--scenario", "sim1", "--train", "0", "--test", "5",
                "--seed", "1", "--out-train", str(tmp_path / "a"), "--out-test", str(tmp_path / "b"),
            ]
        )
        assert rc == 64
        assert capsys.readouterr().err.startswith("error[usage]:")

    def test_unwritable_path(self, tmp_path, capsys):
        rc = main(
            [
                "simulate", "--scenario", "sim1", "--train", "5", "--test", "5",
                "--seed", "1",
                "--out-train", str(tmp_path / "missing" / "a.csv"),
                "--out-test", str(tmp_path / "b.csv"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error[io]:")

    def test_sim2_has_label_column(self, tmp_path):
        _, te = simulate(tmp_path, scenario="sim2", train=10, test=20)
        header = te.read_text().splitlines()[0]
        assert header == "x1,x2,y1,y2,label"

    def test_missing_flag_is_usage_error(self, capsys):
        assert main(["simulate", "--scenario", "sim1"]) == 64


class TestCsvRoundTrip:
    def test_exact_values(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = PairedDataset(x=rng.normal(size=(7, 3)), y=rng.normal(size=(7, 2)))
        path = tmp_path / "d.csv"
        write_dataset(path, ds)
        back = read_dataset(path)
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)
        assert back.labels is None

    def test_labels_preserved(self, tmp_path):
        ds = PairedDataset(
            x=np.zeros((3, 1)), y=np.ones((3, 1)), labels=np.array([2, 0, 1])
        )
        path = tmp_path / "d.csv"
        write_dataset(path, ds)
        np.testing.assert_array_equal(read_dataset(path).labels, [2, 0, 1])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1,2,3\n")
        from kcca.errors import InputError

        with pytest.raises(InputError):
            read_dataset(path)


class TestFit:
    def test_kcca_fit_writes_model(self, tmp_path, capsys):
        tr, _ = simulate(tmp_path)
        model = tmp_path / "m.json"
        rc = main(
            [
                "fit", "--data", str(tr),
                "--kernel-x", "gaussian:sigma=1.0", "--kernel-y", "gaussian:sigma=1.0",
                "--eta1", "1.0", "--eta2", "1.0", "--model", str(model),
            ]
        )
        assert rc == 0
        assert "lambdas:" in capsys.readouterr().out
        doc = json.loads(model.read_text())
        assert doc["method"] == "kcca"
        assert len(doc["lambdas"]) == 2

    def test_linear_fit_reports_rhos(self, tmp_path, capsys):
        tr, _ = simulate(tmp_path)
        rc = main(
            ["fit", "--data", str(tr), "--method", "linear", "--model", str(tmp_path / "m.json")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        rho_line = next(ln for ln in out.splitlines() if ln.startswith("rhos:"))
        rho1 = float(rho_line.split()[1])
        assert 0.1 < rho1 < 0.9

    def test_eta_shorthand(self, tmp_path):
        tr, _ = simulate(tmp_path, train=10, test=5)
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        main(["fit", "--data", str(tr), "--eta", "0.5", "--model", str(m1)])
        main(["fit", "--data", str(tr), "--eta1", "0.5", "--eta2", "0.5", "--model", str(m2)])
        assert m1.read_bytes() == m2.read_bytes()

    def test_missing_data_flag(self, capsys):
        assert main(["fit", "--model", "m.json"]) == 64

    def test_bad_kernel_spec_is_domain_error(self, tmp_path, capsys):
        tr, _ = simulate(tmp_path, train=5, test=5)
        rc = main(["fit", "--data", str(tr), "--kernel-x", "gauss:s=1", "--model", str(tmp_path / "m.json")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error[domain]:")


class TestEvalAndTransform:
    @pytest.fixture
    def fitted(self, tmp_path):
        tr, te = simulate(tmp_path)
        model = tmp_path / "m.json"
        assert main(["fit", "--data", str(tr), "--eta", "1.0", "--model", str(model)]) == 0
        return tr, te, model

    def test_eval_report(self, fitted, tmp_path, capsys):
        tr, te, model = fitted
        report = tmp_path / "report.json"
        rc = main(
            ["eval", "--model", str(model), "--train", str(tr), "--test", str(te), "--report", str(report)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "(" in out  # bracketed train (test) rendering
        doc = json.loads(report.read_text())
        assert doc["schema"] == "kcca-report/1"
        for key in ("train_table", "test_table", "train_diag", "test_diag", "lambdas", "config"):
            assert key in doc
        assert np.all(np.abs(np.array(doc["train_table"])) <= 1.0)
        assert doc["train_diag"][0] > 0.9

    def test_bracket_table_prints_unsigned_zero(self):
        table = _render_bracket_table(np.array([[-0.004, -0.5]] * 2), np.array([[-1e-17, 0.5]] * 2))
        assert table.splitlines()[1].split() == ["u1:", "0.00", "(0.00)", "-0.50", "(0.50)"]
        assert "-0.00" not in table

    def test_eval_deterministic(self, fitted, tmp_path):
        tr, te, model = fitted
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["eval", "--model", str(model), "--train", str(tr), "--test", str(te), "--report", str(r1)])
        main(["eval", "--model", str(model), "--train", str(tr), "--test", str(te), "--report", str(r2)])
        assert r1.read_bytes() == r2.read_bytes()

    def test_plot_dir(self, fitted, tmp_path):
        tr, te, model = fitted
        plots = tmp_path / "plots"
        main(
            ["eval", "--model", str(model), "--train", str(tr), "--test", str(te), "--plot-dir", str(plots)]
        )
        for k in (1, 2):
            lines = (plots / f"component_{k}.csv").read_text().splitlines()
            assert lines[0] == "u,v,split,order"
            assert len(lines) == 1 + 40 + 100
            splits = {ln.split(",")[2] for ln in lines[1:]}
            assert splits == {"train", "test"}
        # order column ranks the first x coordinate 1..N within the train split
        train_orders = sorted(
            int(ln.split(",")[3])
            for ln in (plots / "component_1.csv").read_text().splitlines()[1:]
            if ln.split(",")[2] == "train"
        )
        assert train_orders == list(range(1, 41))

    def test_transform_matches_eval(self, fitted, tmp_path):
        tr, te, model = fitted
        u_csv, v_csv = tmp_path / "u.csv", tmp_path / "v.csv"
        assert main(["transform", "--model", str(model), "--data", str(tr), "--side", "x", "--out", str(u_csv)]) == 0
        assert main(["transform", "--model", str(model), "--data", str(tr), "--side", "y", "--out", str(v_csv)]) == 0
        U = np.loadtxt(u_csv, delimiter=",", skiprows=1)
        V = np.loadtxt(v_csv, delimiter=",", skiprows=1)
        from kcca.cca import correlation_table

        report = tmp_path / "report.json"
        main(["eval", "--model", str(model), "--train", str(tr), "--test", str(te), "--report", str(report)])
        expected = np.array(json.loads(report.read_text())["train_table"])
        np.testing.assert_allclose(correlation_table(U, V), expected, atol=1e-12)

    def test_transform_row_count(self, fitted, tmp_path):
        tr, te, model = fitted
        out = tmp_path / "f.csv"
        main(["transform", "--model", str(model), "--data", str(te), "--side", "x", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "u1,u2" and len(lines) == 101

    def test_transform_empty_file_usage_error(self, fitted, tmp_path, capsys):
        _, _, model = fitted
        empty = tmp_path / "empty.csv"
        empty.write_text("x1,x2,y1,y2\n")
        rc = main(["transform", "--model", str(model), "--data", str(empty), "--side", "x", "--out", str(tmp_path / "o.csv")])
        assert rc == 64

    def test_dimension_mismatch_is_exit_3(self, fitted, tmp_path, capsys):
        _, _, model = fitted
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,x3,y1\n1,2,3,4\n5,6,7,8\n")
        rc = main(["transform", "--model", str(model), "--data", str(bad), "--side", "x", "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error[domain]:")


class TestEndToEndDeterminism:
    def test_full_pipeline_byte_identical(self, tmp_path):
        reports = []
        for run_dir in ("run1", "run2"):
            d = tmp_path / run_dir
            d.mkdir()
            tr, te = simulate(d, seed=3)
            model = d / "m.json"
            main(["fit", "--data", str(tr), "--eta", "1.0", "--model", str(model)])
            report = d / "r.json"
            main(["eval", "--model", str(model), "--train", str(tr), "--test", str(te), "--report", str(report)])
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]


def assert_one_domain_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 3
    assert len(err.splitlines()) == 1 and err.startswith("error[domain]:"), err
    return err


def with_config(doc, **changes):
    """The model document with config fields (and top-level fields named like arrays) replaced."""
    arrays = {k: changes.pop(k) for k in list(changes) if k in doc}
    return json.dumps({**doc, **arrays, "config": {**doc["config"], **changes}})


def with_diagnostics(doc, raw):
    """The model document with `raw` JSON text as its diagnostics value."""
    return json.dumps({**doc, "diagnostics": None}).replace('"diagnostics": null', f'"diagnostics": {raw}')


class TestBadInputOneErrorLine:
    @pytest.mark.parametrize(
        "text,message",
        [
            ("x1,x2,y1,y2\n1,2,3,4\n1,abc,3,4\n", "row 3 could not convert string to float: 'abc'"),
            ("x1,x2,y1,y2\n1,2,3,4\n1,,3,4\n", "row 3 could not convert string to float: ''"),
            ("x1,x2,y1,y2,label\n1,2,3,4,0\n1,2,3,4,1.5\n", "row 3 invalid literal for int() with base 10: '1.5'"),
            ("x1,x2,y1,y2,label\n1,2,3,4,0\n1,2,3,4,one\n", "row 3 invalid literal for int() with base 10: 'one'"),
            ("x1,x2,y1,y2\n1,2,3,4\n1,nan,3,4\n", "must be finite"),
            ("x1,x2,y1,y2\n1,2,3,4\n1,2,inf,4\n", "must be finite"),
            ("x1,x2,y1,y2\n1,2,3,4\n1,2,3,-inf\n", "must be finite"),
            ("x1,x2,y1,y2\n1,2,3,4\n1,2,3\n", "row 3 has 3 fields, expected 4"),
            ("x1,x2,y1,y2\n1,2,3,4\n\xff\xfe,2,3,4\n", "row 3 could not convert string to float: '\ufffd\ufffd'"),
            ("x1,x2,y1,y2,label\n1,2,3,4,0\n1,2,3,4,99999999999999999999\n", "row 3 Python int too large"),
            ("x1,y1\n1,2,3\n1,x\n", "row 2 has 3 fields, expected 2"),
            ("x1,y1\n1,2\n\n1,2\n3,abc\n", "row 4 could not convert string to float: 'abc'"),
        ],
        ids=[
            "non-numeric", "empty-field", "float-label", "word-label", "nan", "inf", "-inf",
            "short-row", "not-utf8", "huge-label", "long-row-first", "blank-line-not-counted",
        ],
    )
    def test_bad_csv_values(self, tmp_path, capsys, text, message):
        data = tmp_path / "d.csv"
        data.write_bytes(text.encode("latin-1"))
        err = assert_one_domain_error(main(["fit", "--data", str(data), "--model", str(tmp_path / "m.json")]), capsys)
        assert message in err, err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--eta", "nan"],
            ["--eta", "inf"],
            ["--eta1", "nan"],
            ["--eta2", "nan"],
            ["--jitter", "nan"],
            ["--jitter", "inf"],
            ["--method", "linear", "--ridge", "nan"],
            ["--method", "linear", "--components", "-1"],
            ["--method", "linear", "--components", "0"],
            ["--kernel-x", "gaussian:sigma=inf"],
            ["--kernel-y", "gaussian:sigma=nan"],
            ["--kernel-x", "poly:offset=nan"],
            ["--kernel-y", "poly:offset=inf"],
            ["--kernel-x", "gaussian:sigma=1e-200"],
            ["--reg", "dual-l2", "--kernel-y", "poly:degree=400"],
        ],
        ids=" ".join,
    )
    def test_non_finite_flags(self, tmp_path, capsys, flags):
        tr, _ = simulate(tmp_path, train=10, test=5)
        rc = main(["fit", "--data", str(tr), "--model", str(tmp_path / "m.json"), *flags])
        assert_one_domain_error(rc, capsys)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text, doc: text[:300],
            lambda text, doc: json.dumps({k: v for k, v in doc.items() if k != "train_x"}),
            lambda text, doc: json.dumps({**doc, "config": 5}),
            lambda text, doc: json.dumps({**doc, "config": {**doc["config"], "kernel_x": 1}}),
            lambda text, doc: json.dumps({**doc, "config": {**doc["config"], "eta1": "1"}}),
            lambda text, doc: json.dumps([doc]),
            lambda text, doc: json.dumps({**doc, "method": ["kcca"]}),
            lambda text, doc: json.dumps({**doc, "alphas": doc["alphas"][:-1]}),
            lambda text, doc: json.dumps({**doc, "betas": [row[:1] for row in doc["betas"]]}),
            lambda text, doc: json.dumps({**doc, "alphas": [[float("nan")] * 2] + doc["alphas"][1:]}),
            lambda text, doc: json.dumps({**doc, "train_y": [["a", "b"]] * len(doc["train_y"])}),
            lambda text, doc: with_config(doc, eta1=True),
            lambda text, doc: with_config(doc, eta2=True),
            lambda text, doc: with_config(doc, jitter=True),
            lambda text, doc: with_config(doc, jitter=False),
            lambda text, doc: with_config(doc, components=2.0),
            # a one-component model, so that d = true agrees with the array shapes
            lambda text, doc: with_config(
                doc, components=True, alphas=[r[:1] for r in doc["alphas"]],
                betas=[r[:1] for r in doc["betas"]], lambdas=doc["lambdas"][:1],
            ),
            lambda text, doc: with_diagnostics(doc, '"junk"'),
            lambda text, doc: with_diagnostics(doc, "[1, 2]"),
            lambda text, doc: with_diagnostics(doc, '{"rank": "x"}'),
            lambda text, doc: with_diagnostics(doc, '{"rank": [1e400]}'),
            lambda text, doc: with_diagnostics(doc, "null"),
            lambda text, doc: with_diagnostics(doc, '{"rank": [10, 10], "jitter": [0.0, 0.0], "cond": 1}'),
            lambda text, doc: with_diagnostics(doc, '{"rank": [10.0, 10], "jitter": [0.0, 0.0]}'),
            lambda text, doc: with_diagnostics(doc, '{"rank": [true, 10], "jitter": [0.0, 0.0]}'),
            lambda text, doc: with_diagnostics(doc, '{"rank": [11, 10], "jitter": [0.0, 0.0]}'),
            lambda text, doc: with_diagnostics(doc, '{"rank": [1, 10], "jitter": [0.0, 0.0]}'),
            lambda text, doc: with_diagnostics(doc, '{"rank": [10, 10], "jitter": [-1.0, 0.0]}'),
            lambda text, doc: with_diagnostics(doc, '{"rank": [10, 10], "jitter": [0.0, false]}'),
        ],
        ids=[
            "truncated", "missing-key", "config-int", "kernel-int", "eta-string", "top-level-list", "method-list",
            "alphas-rows", "betas-cols", "nan-alphas", "string-entries", "eta1-true", "eta2-true", "jitter-true",
            "jitter-false", "components-float", "components-true", "diagnostics-string", "diagnostics-list",
            "rank-string", "rank-overflow", "diagnostics-null", "diagnostics-extra-key", "rank-float", "rank-bool",
            "rank-above-n", "rank-below-d", "jitter-negative", "jitter-bool",
        ],
    )
    def test_malformed_model_json(self, tmp_path, capsys, corrupt):
        tr, te = simulate(tmp_path, train=10, test=5)
        model = tmp_path / "m.json"
        assert main(["fit", "--data", str(tr), "--model", str(model)]) == 0
        text = model.read_text()
        model.write_text(corrupt(text, json.loads(text)))
        capsys.readouterr()
        out = tmp_path / "f.csv"
        rc = main(["transform", "--model", str(model), "--data", str(te), "--side", "x", "--out", str(out)])
        assert_one_domain_error(rc, capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: {**doc, "ridge": "abc"},
            lambda doc: {**doc, "ridge": -1.0},
            lambda doc: {**doc, "ridge": None},
            lambda doc: {**doc, "ridge": True},
            lambda doc: {**doc, "ridge": False},
            lambda doc: {**doc, "A": [[]] * len(doc["A"]), "B": [[]] * len(doc["B"]), "rhos": []},
        ],
        ids=["ridge-string", "ridge-negative", "ridge-null", "ridge-true", "ridge-false", "no-components"],
    )
    def test_malformed_linear_model(self, tmp_path, capsys, corrupt):
        tr, te = simulate(tmp_path, train=10, test=5)
        model = tmp_path / "m.json"
        assert main(["fit", "--data", str(tr), "--method", "linear", "--model", str(model)]) == 0
        model.write_text(json.dumps(corrupt(json.loads(model.read_text()))))
        capsys.readouterr()
        report = tmp_path / "r.json"
        rc = main(["eval", "--model", str(model), "--train", str(tr), "--test", str(te), "--report", str(report)])
        assert_one_domain_error(rc, capsys)
        assert not report.exists()

    def test_negative_ridge_names_ridge(self, tmp_path, capsys):
        tr, _ = simulate(tmp_path, train=10, test=5)
        rc = main(["fit", "--data", str(tr), "--method", "linear", "--ridge", "-1", "--model", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert rc == 3 and err.startswith("error[domain]: ridge must be") and "-1" in err

    def test_lambda_above_one_is_rejected(self, tmp_path, capsys, monkeypatch):
        solve = linalg.solve_paired_eig

        def inflated(*args, **kwargs):
            sol = solve(*args, **kwargs)
            return dataclasses.replace(sol, lambdas=np.r_[1.0 + 1e-6, sol.lambdas[1:]])

        monkeypatch.setattr(linalg, "solve_paired_eig", inflated)
        tr, _ = simulate(tmp_path, train=40, test=5, seed=8)
        model = tmp_path / "m.json"
        rc = main(["fit", "--data", str(tr), "--model", str(model)])
        err = capsys.readouterr().err
        assert rc == 3 and err.startswith("error[domain]: largest lambda 1.000001") and "eta" in err
        assert len(err.splitlines()) == 1
        assert not model.exists()

    def test_tiny_eta_fits_with_lambda_at_most_one(self, tmp_path, capsys):
        tr, _ = simulate(tmp_path, train=40, test=5, seed=8)
        model = tmp_path / "m.json"
        assert main(["fit", "--data", str(tr), "--eta", "1e-12", "--model", str(model)]) == 0
        assert json.loads(model.read_text())["lambdas"][0] <= 1.0


# Fuzzing the CLI boundary: whatever the bytes, values or flags, main() returns a
# documented exit code and a failure is one error[...] line.  Fixed examples, so
# that a run cannot flake.
FUZZ = settings(derandomize=True, max_examples=150, deadline=None, database=None)
JSON_SCALARS = st.none() | st.booleans() | st.integers(-3, 60) | st.floats() | st.text(max_size=6)
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# where a value is put in each method's model document
MODEL_PATHS = st.tuples(st.just("kcca"), st.sampled_from([
    ("config", "eta1"), ("config", "eta2"), ("config", "jitter"), ("config", "components"),
    ("config", "regularizer"), ("config", "kernel_x"), ("config",), ("diagnostics",), ("diagnostics", "rank"),
    ("diagnostics", "jitter"), ("diagnostics", "rank", 0), ("diagnostics", "jitter", 1), ("lambdas",),
])) | st.tuples(st.just("linear"), st.sampled_from([("ridge",), ("rhos",), ("mean_x",), ("A", 0)]))
FLAG_VALUES = st.floats().map(repr) | st.sampled_from(["0", "-0.0", "1e-320", "1e308", "abc", ""])


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """Small training and test files, and one fitted model file of each method."""
    d = tmp_path_factory.mktemp("fuzz")
    files = {"sim1": simulate(d / "sim1", train=30, test=10, seed=4), "sim2": simulate(d / "sim2", "sim2", 20, 10, 4)}
    models = {method: str(d / f"{method}.json") for method in ("kcca", "linear")}
    for method, model in models.items():
        assert main(["fit", "--data", str(files["sim1"][0]), "--method", method, "--model", model]) == 0
    return files, models


def run_fuzzed(argv, out):
    """main(argv) with its output captured; checks the exit code, the one error line
    and that a failed command leaves no `out` file."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3, 64), rc
    if rc:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error["), lines
        assert not os.path.exists(out)
    return rc


@st.composite
def mutated_bytes(draw, text):
    """`text` with up to four spans replaced, by random bytes or by CSV-ish tokens."""
    data = bytearray(text)
    tokens = st.sampled_from([b",", b"\n", b"", b"nan", b"-inf", b"1e400", b"x3", b"label", b"7", b"\xff\xfe"])
    for _ in range(draw(st.integers(1, 4))):
        i = min(draw(st.integers(0, 40) | st.integers(0, len(data))), len(data))  # the header half the time
        j = draw(st.integers(i, min(len(data), i + 8)))
        data[i:j] = draw(st.binary(max_size=6) | tokens)
    return bytes(data)


class TestFuzzCliBoundary:
    @FUZZ
    @given(data=st.data(), scenario=st.sampled_from(["sim1", "sim2"]), command=st.sampled_from(["kcca", "linear", "eval"]))
    def test_csv_bytes(self, fuzz_base, data, scenario, command):
        files, models = fuzz_base
        train, test = files[scenario]
        with tempfile.TemporaryDirectory() as d:
            csv, out = os.path.join(d, "d.csv"), os.path.join(d, "out")
            with open(csv, "wb") as fh:
                fh.write(data.draw(mutated_bytes(train.read_bytes())))
            if command == "eval":
                run_fuzzed(["eval", "--model", models["kcca"], "--train", csv, "--test", str(test), "--report", out], out)
            else:
                run_fuzzed(["fit", "--data", csv, "--method", command, "--model", out], out)

    @FUZZ
    @given(where=MODEL_PATHS, value=JSON_VALUES, command=st.sampled_from(["eval", "transform"]))
    @example(where=("kcca", ("config", "eta1")), value=True, command="eval")
    def test_model_json_values(self, fuzz_base, where, value, command):
        files, models = fuzz_base
        train, test = files["sim1"]
        method, path = where
        with open(models[method]) as fh:
            doc = json.load(fh)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with tempfile.TemporaryDirectory() as d:
            model, out = os.path.join(d, "m.json"), os.path.join(d, "out")
            with open(model, "w") as fh:
                json.dump(doc, fh)
            if command == "transform":
                run_fuzzed(["transform", "--model", model, "--data", str(test), "--side", "y", "--out", out], out)
            elif run_fuzzed(["eval", "--model", model, "--train", str(train), "--test", str(test), "--report", out], out) == 0:
                with open(out) as fh:
                    report = json.load(fh)
                # an echoed number is a number, never a JSON boolean
                assert not any(isinstance(v, bool) for v in [*report.get("config", {}).values(), report.get("ridge")])

    @FUZZ
    @given(
        method=st.sampled_from(["kcca", "linear"]),
        reg=st.sampled_from(["rkhs", "dual-l2"]),
        flags=st.dictionaries(st.sampled_from(["--jitter", "--ridge", "--eta", "--eta1", "--eta2"]), FLAG_VALUES, max_size=3),
        components=st.integers(-1, 4),
    )
    def test_fit_flags(self, fuzz_base, method, reg, flags, components):
        files, _ = fuzz_base
        argv = ["fit", "--data", str(files["sim1"][0]), "--method", method, "--reg", reg, "--components", str(components)]
        argv += [f"{flag}={value}" for flag, value in flags.items()]
        with tempfile.TemporaryDirectory() as d:
            model = os.path.join(d, "m.json")
            run_fuzzed(argv + ["--model", model], model)
