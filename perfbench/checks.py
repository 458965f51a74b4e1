"""Correctness checks of one experiment's output files, computed apart from kcca.

Nothing here imports kcca.  Kernels come from `scipy.spatial.distance.cdist`,
M, L and N are applied through an explicit centering matrix J, and every
check reads the files the CLI wrote.  Each check returns a list of failure
messages, each prefixed with the check's name; an empty list means the
outputs are correct.

Tolerances (all far above what the package reaches and far below what a
wrong result gives; see test_checks.py):

- eigenvalues against `scipy.linalg.eigh` of the doubled generalized
  system: 1e-8 relative.  Used only for n_train <= EIGH_MAX_N (a failing
  `eigh` is a failed check); a metric that LAPACK cannot factor gets the
  documented fallback jitter first, as in the package.  At n >= 200 the
  rkhs metrics are numerically singular and `eigh` itself fails.
- eigen residuals: 1e-9 relative to ||M|| ||beta||, plus the residual that
  the documented Cholesky fallback jitter (1e-9 mean(diag L)) produces
  exactly.  Normalization alpha^T L alpha = 1 likewise.
- projections: 1e-10 relative to sum_i |k(x, x_i)| |alpha_i|.
- correlation tables: 1e-9 absolute.
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist

import workloads as wl

EIGH_MAX_N = 100
EIG_RTOL = 1e-8
RESID_RTOL = 1e-9
FALLBACK_JITTER = 1e-9
PROJ_RTOL = 1e-10
CORR_ATOL = 1e-9
RHO_RTOL = 1e-8
CHUNK_ROWS = 4096


def gaussian_kernel(A, B, sigma):
    return np.exp(-cdist(A, B, "sqeuclidean") / (2.0 * sigma * sigma))


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, values


def read_dataset(path):
    header, values = read_csv(path)
    nx = sum(1 for h in header if h.startswith("x"))
    ny = sum(1 for h in header if h.startswith("y"))
    return values[:, :nx], values[:, nx:nx + ny]


def project(points, train, coef, sigma):
    """Kernel-sum projection and its scale sum_i |k| |coef|, in row chunks."""
    out = np.empty((points.shape[0], coef.shape[1]))
    scale = np.empty_like(out)
    for i in range(0, points.shape[0], CHUNK_ROWS):
        K = gaussian_kernel(points[i:i + CHUNK_ROWS], train, sigma)
        out[i:i + CHUNK_ROWS] = K @ coef
        scale[i:i + CHUNK_ROWS] = K @ np.abs(coef)
    return out, scale


def _cross_corr(U, V):
    d = U.shape[1]
    return np.corrcoef(U, V, rowvar=False)[:d, d:]


class DualProblem:
    """M, L and N of the kernel CCA dual, applied to vectors via explicit J."""

    def __init__(self, Kx, Ky, eta, reg):
        n = Kx.shape[0]
        self.n, self.Kx, self.Ky, self.eta = n, Kx, Ky, eta
        self.J = np.eye(n) - np.full((n, n), 1.0 / n)
        self.rkhs = reg == "rkhs"
        # Scale of the fallback jitter only: mean(diag L) without an n^3 product.
        rx = np.diag(Kx) if self.rkhs else np.ones(n)
        ry = np.diag(Ky) if self.rkhs else np.ones(n)
        diag_l = np.einsum("ij,ij->j", Kx, Kx - Kx.mean(axis=0)) / n + eta * rx
        diag_n = np.einsum("ij,ij->j", Ky, Ky - Ky.mean(axis=0)) / n + eta * ry
        self.jitter_l = FALLBACK_JITTER * diag_l.mean()
        self.jitter_n = FALLBACK_JITTER * diag_n.mean()

    def M(self, b):
        return self.Kx @ (self.J @ (self.Ky @ b)) / self.n

    def MT(self, a):
        return self.Ky @ (self.J @ (self.Kx @ a)) / self.n

    def L(self, a):
        return self.Kx @ (self.J @ (self.Kx @ a)) / self.n + self.eta * (self.Kx @ a if self.rkhs else a)

    def N(self, b):
        return self.Ky @ (self.J @ (self.Ky @ b)) / self.n + self.eta * (self.Ky @ b if self.rkhs else b)

    def norm_M(self, iters=20):
        """Power-iteration estimate of ||M||_2, from below."""
        v = np.full(self.n, 1.0 / np.sqrt(self.n))
        s = 0.0
        for _ in range(iters):
            w = self.MT(self.M(v))
            s = np.linalg.norm(w)
            v = w / s
        return np.sqrt(s)

    def dense(self):
        Kx, Ky, J, n = self.Kx, self.Ky, self.J, self.n
        Rx = Kx if self.rkhs else np.eye(n)
        Ry = Ky if self.rkhs else np.eye(n)
        return Kx @ J @ Ky / n, Kx @ J @ Kx / n + self.eta * Rx, Ky @ J @ Ky / n + self.eta * Ry


def check_lambdas(lam, d):
    fails = []
    if lam.shape != (d,):
        return [f"lambda: expected {d} values, got shape {lam.shape}"]
    if np.any(lam < 0) or np.any(lam > 1):
        fails.append(f"lambda: values outside [0, 1]: {lam.tolist()}")
    if np.any(np.diff(lam) > 0):
        fails.append(f"lambda: not in descending order: {lam.tolist()}")
    return fails


def _with_fallback(A, jitter):
    """A, or A + jitter*I where LAPACK cannot factor A: the documented fallback.

    The rkhs metrics at sigma = 1 can be numerically singular (smallest
    eigenvalue about 1e-16 of their scale) on some datasets; `eigh` then
    cannot factor the doubled metric, although the exact problem has a
    solution.  The fallback jitter moves lambda by about 1e-10 relative.
    """
    try:
        scipy.linalg.cholesky(A, lower=True)
        return A
    except np.linalg.LinAlgError:
        return A + jitter * np.eye(A.shape[0])


def check_eigh(problem, lam):
    """Top eigenvalues of [[0, M], [M^T, 0]] v = w [[L, 0], [0, N]] v."""
    M, L, N = problem.dense()
    L, N = _with_fallback(L, problem.jitter_l), _with_fallback(N, problem.jitter_n)
    n = problem.n
    Z = np.zeros((n, n))
    try:
        w = scipy.linalg.eigh(np.block([[Z, M], [M.T, Z]]), np.block([[L, Z], [Z, N]]),
                              eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        return [f"eigh: generalized eigenproblem not solvable at n = {n} ({exc})"]
    top = w[::-1][: lam.shape[0]]
    err = np.abs(top - lam) / np.abs(top)
    if np.any(err > EIG_RTOL):
        return [f"eigh: lambda {lam.tolist()} vs generalized eigh {top.tolist()} "
                f"(max rel err {err.max():.3g})"]
    return []


def check_residuals(problem, alphas, betas, lam):
    """M b = lam L a, M^T a = lam N b and a^T L a = b^T N b = 1, allowing for jitter."""
    fails = []
    norm_m = problem.norm_M()
    for k in range(lam.shape[0]):
        a, b, l = alphas[:, k], betas[:, k], lam[k]
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        for side, resid, allow in (
            ("M b - lam L a", problem.M(b) - l * problem.L(a),
             RESID_RTOL * norm_m * nb + 2.0 * l * problem.jitter_l * na),
            ("M^T a - lam N b", problem.MT(a) - l * problem.N(b),
             RESID_RTOL * norm_m * na + 2.0 * l * problem.jitter_n * nb),
        ):
            r = np.linalg.norm(resid)
            if not r <= allow:
                fails.append(f"residual: component {k + 1} ||{side}|| = {r:.3g} > {allow:.3g}")
        for name, quad, allow in (
            ("a^T L a", a @ problem.L(a), RESID_RTOL + 2.0 * problem.jitter_l * na * na),
            ("b^T N b", b @ problem.N(b), RESID_RTOL + 2.0 * problem.jitter_n * nb * nb),
        ):
            if not abs(quad - 1.0) <= allow:
                fails.append(f"normalization: component {k + 1} {name} = {float(quad)!r}")
    return fails


def check_features(path, prefix, expected, scale):
    header, values = read_csv(path)
    d = expected.shape[1]
    if header != [f"{prefix}{k + 1}" for k in range(d)]:
        return [f"transform: {path} header {header}"]
    if values.shape != expected.shape:
        return [f"transform: {path} shape {values.shape}, expected {expected.shape}"]
    err = np.abs(values - expected) - PROJ_RTOL * scale
    if np.any(err > 0):
        i, k = np.unravel_index(int(np.argmax(err)), err.shape)
        return [f"transform: {path} row {i + 1} column {k + 1} = {float(values[i, k])!r}, "
                f"independent projection {float(expected[i, k])!r}"]
    return []


def check_tables(report, feats_tr, feats_te, what):
    fails = []
    for split, (U, V) in (("train", feats_tr), ("test", feats_te)):
        got = np.asarray(report[f"{split}_table"], dtype=float)
        want = _cross_corr(U, V)
        if got.shape != want.shape or np.any(np.abs(got - want) > CORR_ATOL):
            fails.append(f"corrcoef: {what} {split}_table {got.tolist()} vs numpy.corrcoef {want.tolist()}")
        elif report[f"{split}_diag"] != np.diag(got).tolist():
            fails.append(f"corrcoef: {what} {split}_diag is not the diagonal of {split}_table")
    return fails


def check_plots(plot_dir, splits):
    """component_k.csv files against the projections; `splits` maps a split
    name to (first x coordinate, U, V, scale of U, scale of V)."""
    fails = []
    d = splits["train"][1].shape[1]
    for k in range(d):
        path = os.path.join(plot_dir, f"component_{k + 1}.csv")
        with open(path) as fh:
            lines = fh.read().splitlines()
        if lines[0] != "u,v,split,order":
            fails.append(f"plots: {path} header {lines[0]!r}")
            continue
        rows = [ln.split(",") for ln in lines[1:]]
        want, tol, labels = [], [], []
        for split, (x1, U, V, SU, SV) in splits.items():
            order = np.argsort(np.argsort(x1, kind="stable"), kind="stable") + 1
            want.append(np.stack([U[:, k], V[:, k]], axis=1))
            tol.append(PROJ_RTOL * np.stack([SU[:, k], SV[:, k]], axis=1))
            labels += [(split, int(o)) for o in order]
        if len(rows) != len(labels):
            fails.append(f"plots: {path} has {len(rows)} rows, expected {len(labels)}")
            continue
        got = np.array([[float(r[0]), float(r[1])] for r in rows])
        if np.any(np.abs(got - np.concatenate(want)) > np.concatenate(tol)):
            fails.append(f"plots: {path} u,v columns differ from the independent projection")
        if [(r[2], int(r[3])) for r in rows] != labels:
            fails.append(f"plots: {path} split/order columns are wrong")
    return fails


def check_config(doc, exp):
    cfg = doc.get("config", {})
    want = {"kernel_x": exp.kernel, "kernel_y": exp.kernel, "eta1": exp.eta, "eta2": exp.eta,
            "regularizer": exp.reg.replace("-", "_"), "components": exp.d}
    bad = {k: cfg.get(k) for k, v in want.items() if cfg.get(k) != v}
    if doc.get("schema") != "kcca-model/1" or doc.get("method") != "kcca" or bad:
        return [f"model: schema/method/config mismatch {bad}"]
    return []


def check_linear(doc, report, x, y, test_x, test_y, d):
    """Linear CCA rho against QR+SVD canonical correlations, and its report.

    The ridge r enters as sqrt(r) I rows under the centered data scaled by
    1/sqrt(n), whose QR then whitens X^T X / n + r I exactly.
    """

    def whitened(data):
        n, p = data.shape
        stacked = np.vstack([(data - data.mean(axis=0)) / np.sqrt(n), np.sqrt(wl.LINEAR_RIDGE) * np.eye(p)])
        return np.linalg.qr(stacked)[0][:n]

    want = np.linalg.svd(whitened(x).T @ whitened(y), compute_uv=False)[:d]
    rho = np.asarray(doc["rhos"], dtype=float)
    if rho.shape != want.shape or np.any(np.abs(rho - want) > RHO_RTOL * want):
        return [f"linear: rho {rho.tolist()} vs QR+SVD {want.tolist()}"]
    if report is None:
        return []
    mx, my = np.asarray(doc["mean_x"]), np.asarray(doc["mean_y"])
    A, B = np.asarray(doc["A"]), np.asarray(doc["B"])
    fails = [] if report.get("rhos") == doc["rhos"] else ["linear: report rhos differ from the model"]
    return fails + check_tables(report, ((x - mx) @ A, (y - my) @ B),
                                ((test_x - mx) @ A, (test_y - my) @ B), "linear")


def _same_bytes(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def check_repeat_eval(directory):
    """Two evals of one model must give byte-identical reports and plot files."""
    pairs = [(wl.REPORT, wl.REPORT_AGAIN)]
    pairs += [(os.path.join(wl.PLOTS, f), os.path.join(wl.PLOTS_AGAIN, f))
              for f in sorted(os.listdir(os.path.join(directory, wl.PLOTS)))]
    return [f"repeat eval: {a} and {b} differ" for a, b in pairs
            if not _same_bytes(os.path.join(directory, a), os.path.join(directory, b))]


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def check_experiment(directory, exp, repeated_eval=False):
    """Every check of one experiment directory; returns failure messages."""
    try:
        return _check_experiment(directory, exp, repeated_eval)
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"files: missing or malformed output ({exc!r})"]


def _check_experiment(directory, exp, repeated_eval):
    def path(name):
        return os.path.join(directory, name)

    x, y = read_dataset(path(wl.TRAIN))
    tx, ty = read_dataset(path(wl.TEST))
    doc = _load_json(path(wl.MODEL))
    report = _load_json(path(wl.REPORT))
    linear = _load_json(path(wl.LINEAR_MODEL))
    linear_report = _load_json(path(wl.LINEAR_REPORT)) if exp.linear_eval else None
    if x.shape[0] != exp.n_train or tx.shape[0] != exp.n_test:
        return [f"files: {x.shape[0]} train / {tx.shape[0]} test rows, "
                f"expected {exp.n_train} / {exp.n_test}"]

    fails = check_config(doc, exp)
    if not (np.array_equal(np.asarray(doc["train_x"]), x) and np.array_equal(np.asarray(doc["train_y"]), y)):
        fails.append("model: stored training data differs from the training CSV")
    alphas = np.asarray(doc["alphas"], dtype=float)
    betas = np.asarray(doc["betas"], dtype=float)
    lam = np.asarray(doc["lambdas"], dtype=float)
    if alphas.shape != (exp.n_train, exp.d) or betas.shape != alphas.shape:
        fails.append(f"model: coefficient shapes {alphas.shape}, {betas.shape}")
    fails += check_lambdas(lam, exp.d)
    if fails:
        return fails

    Kx = gaussian_kernel(x, x, exp.sigma)
    Ky = gaussian_kernel(y, y, exp.sigma)
    problem = DualProblem(Kx, Ky, exp.eta, exp.reg.replace("-", "_"))
    if exp.n_train <= EIGH_MAX_N:
        fails += check_eigh(problem, lam)
    fails += check_residuals(problem, alphas, betas, lam)

    u_tr, v_tr = Kx @ alphas, Ky @ betas
    u_te, su_te = project(tx, x, alphas, exp.sigma)
    v_te, sv_te = project(ty, y, betas, exp.sigma)
    fails += check_features(path(wl.FEATURES["x"]), "u", u_te, su_te)
    fails += check_features(path(wl.FEATURES["y"]), "v", v_te, sv_te)

    if report.get("schema") != "kcca-report/1" or report.get("lambdas") != doc["lambdas"]:
        fails.append("report: schema or lambdas differ from the model")
    fails += check_tables(report, (u_tr, v_tr), (u_te, v_te), "kcca")
    if exp.reg == "rkhs":
        diag = np.asarray(report["train_diag"])
        if np.any(diag < lam - CORR_ATOL):
            fails.append(f"pearson: train diagonal {diag.tolist()} below lambda {lam.tolist()}")
    fails += check_plots(path(wl.PLOTS), {
        "train": (x[:, 0], u_tr, v_tr, Kx @ np.abs(alphas), Ky @ np.abs(betas)),
        "test": (tx[:, 0], u_te, v_te, su_te, sv_te),
    })
    fails += check_linear(linear, linear_report, x, y, tx, ty, exp.d)
    if repeated_eval:
        fails += check_repeat_eval(directory)
    return fails
