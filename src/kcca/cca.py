"""Model fitting, projection and correlation-table evaluation.

Both fitters are ridge CCA on features F: `build_mln` centres them and
assembles M = Fx^T J Fy / n and the ridged L and N, and `linalg.whitened_svd`
solves.  `fit_linear_cca` is classical primal CCA, with the raw data as
features and one ridge on both sides.  `fit_kcca` is the kernelized dual
method: with Gram matrices Kx, Ky and the centering operator J it solves

    M beta = lambda L alpha,    M^T alpha = lambda N beta,
    M = (1/N) Kx^T J Ky,  L = (1/N) Kx^T J Kx + eta1 * Rx,  N likewise,

where the regularizer R is the Gram matrix itself ("rkhs" mode, penalizing
the feature-space norms ||a||^2, ||b||^2) or the identity ("dual_l2" mode,
penalizing the dual coefficient norms), without forming these n x n
matrices.  Each Gram is factored once, K ~ G G^T with r << n columns
(`linalg.pivoted_cholesky`), which makes the problem ridge CCA on r features
F, so `build_mln` gives r x r matrices.  rkhs uses F = G; its alpha
is zero off the pivot rows P and alpha[P] = G[P]^{-T} w, so that
K alpha = G w.  dual_l2 uses the thin SVD G = U S W^T, F = U S^2 and
alpha = U c.

Projection of new points is the raw representer sum u(x*) = sum_i
alpha_ik k(x_i, x*), uncentered, over the rows with a nonzero alpha;
correlation tables are Pearson correlations centered by the means of
whichever split is being evaluated.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DegenerateFeatureError, InputError, NotPositiveDefiniteError, NumericalError
from .kernels import KernelSpec, cross_kernel, gram_matrix, parse_kernel_spec

MODEL_SCHEMA = "kcca-model/1"

REGULARIZERS = ("rkhs", "dual_l2")


@dataclass(frozen=True)
class KccaConfig:
    kernel_x: KernelSpec
    kernel_y: KernelSpec
    eta1: float = 1.0
    eta2: float = 1.0
    regularizer: str = "rkhs"
    d: int = 2
    jitter: float = 0.0

    def __post_init__(self):
        if self.regularizer not in REGULARIZERS:
            raise InputError(f"unknown regularizer {self.regularizer!r}")
        for name in ("eta1", "eta2", "jitter"):
            _check_number(name, getattr(self, name))
        if self.regularizer == "rkhs" and (self.eta1 == 0 or self.eta2 == 0):
            raise InputError("rkhs regularizer requires eta1 > 0 and eta2 > 0")
        _check_number("component count", self.d, 1, numbers.Integral)


@dataclass(frozen=True)
class KccaModel:
    train_x: np.ndarray
    train_y: np.ndarray
    config: KccaConfig
    alphas: np.ndarray
    betas: np.ndarray
    lambdas: np.ndarray
    # {"rank": [r_x, r_y], "jitter": [j_L, j_N]}: Gram ranks and the jitter the solve applied
    diagnostics: dict | None = None


@dataclass(frozen=True)
class LinearCcaModel:
    mean_x: np.ndarray
    mean_y: np.ndarray
    A: np.ndarray
    B: np.ndarray
    rhos: np.ndarray
    ridge: float = 0.0


def build_mln(Fx, Fy, eta1, eta2):
    """Ridge-CCA matrices of two feature arrays, centred here by J = I - 11^T/n:
    M = Fx^T J Fy / n, L = Fx^T J Fx / n + eta1 I and N = Fy^T J Fy / n + eta2 I."""
    fx, fy = (np.asarray(F, dtype=float) for F in (Fx, Fy))
    n = fx.shape[0]
    if fy.shape[0] != n:
        raise InputError(f"feature row counts differ: {n} vs {fy.shape[0]}")
    fx, fy = fx - fx.mean(axis=0), fy - fy.mean(axis=0)
    # numpy's X.T @ X is a symmetric rank-k update: L and N are exactly symmetric
    L = fx.T @ fx / n + eta1 * np.eye(fx.shape[1])
    Nmat = fy.T @ fy / n + eta2 * np.eye(fy.shape[1])
    return fx.T @ fy / n, L, Nmat


def _factor_side(spec, X, regularizer):
    """Features F of one side's Gram and the map from F-coefficients to dual alphas."""
    G, P, T = linalg.pivoted_cholesky(gram_matrix(spec, X))
    if regularizer == "dual_l2":
        res = linalg.svd(G)
        return res.U * res.s**2, lambda c: res.U @ c

    def duals(w):
        alphas = np.zeros((len(G), w.shape[1]))
        alphas[P] = linalg.solve_lower_transposed(T, w)
        return alphas

    return G, duals


def fit_kcca(data, config):
    """Fit the dual model on a paired dataset.  Deterministic given inputs."""
    if data.n < 2:
        raise InputError("kernel CCA needs at least 2 samples (centering is degenerate)")
    Fx, duals_x = _factor_side(config.kernel_x, data.x, config.regularizer)
    Fy, duals_y = _factor_side(config.kernel_y, data.y, config.regularizer)
    ranks = [Fx.shape[1], Fy.shape[1]]
    if config.d > min(ranks):
        raise InputError(f"cannot extract {config.d} components from Grams of rank {ranks}")
    M, L, Nmat = build_mln(Fx, Fy, config.eta1, config.eta2)
    sol = linalg.solve_paired_eig(M, L, Nmat, config.d, config.jitter)
    # Cauchy-Schwarz bounds every exact lambda by 1; above it the solve has lost precision
    if sol.lambdas[0] > 1.0 + 1e-8:
        raise NumericalError(
            f"largest lambda {sol.lambdas[0]:.9g} exceeds 1: the metrics are too "
            "ill-conditioned; increase the regularization constant eta"
        )
    return KccaModel(
        train_x=np.array(data.x, dtype=float),
        train_y=np.array(data.y, dtype=float),
        config=config,
        alphas=duals_x(sol.alphas),
        betas=duals_y(sol.betas),
        lambdas=sol.lambdas,
        diagnostics={"rank": ranks, "jitter": list(sol.jitter)},
    )


def project(model, side, points):
    """Canonical features of new points on one side.

    Kernel sums over the training rows with a nonzero coefficient for a
    KccaModel; a LinearCcaModel goes to project_linear.
    """
    if isinstance(model, LinearCcaModel):
        return project_linear(model, side, points)
    points, (train, spec, coef) = _on_side(
        side, points, (model.train_x, model.config.kernel_x, model.alphas),
        (model.train_y, model.config.kernel_y, model.betas),
    )
    rows = np.any(coef != 0, axis=1)  # rkhs duals are zero off the Gram's pivot rows
    return cross_kernel(spec, points, train[rows]) @ coef[rows]


def _on_side(side, points, x_parts, y_parts):
    """Pick the parts of one side; check the points' width against the first part."""
    if side not in ("x", "y"):
        raise InputError(f"side must be 'x' or 'y', got {side!r}")
    parts = x_parts if side == "x" else y_parts
    points = np.atleast_2d(np.asarray(points, dtype=float))
    width = parts[0].shape[-1]
    if points.shape[1] != width:
        raise InputError(f"point dimension {points.shape[1]} does not match training side {width}")
    return points, parts


def correlation_table(u_feats, v_feats):
    """d x d Pearson correlations between u and v columns of one split."""
    U = np.atleast_2d(np.asarray(u_feats, dtype=float))
    V = np.atleast_2d(np.asarray(v_feats, dtype=float))
    if U.shape[0] != V.shape[0]:
        raise InputError("u and v feature row counts differ")
    if U.shape[0] < 2:
        raise InputError("correlation needs at least 2 rows")
    Uc = U - U.mean(axis=0)
    Vc = V - V.mean(axis=0)
    su = np.sqrt(np.sum(Uc * Uc, axis=0))
    sv = np.sqrt(np.sum(Vc * Vc, axis=0))
    for name, feats, sd in (("u", U, su), ("v", V, sv)):
        scale = np.maximum(1.0, np.max(np.abs(feats), axis=0))
        bad = np.nonzero(sd <= 1e-12 * scale)[0]
        if bad.size:
            raise DegenerateFeatureError(
                column=int(bad[0]),
                message=f"{name} feature column {int(bad[0])} has zero variance",
            )
    T = (Uc.T @ Vc) / np.outer(su, sv)
    over = np.abs(T) - 1.0
    if np.any(over > 1e-12):
        j, k = np.unravel_index(int(np.argmax(over)), T.shape)
        raise NumericalError(f"correlation entry ({j},{k}) = {T[j, k]!r} is outside [-1, 1]")
    np.clip(T, -1.0, 1.0, out=T)
    return T


def fit_linear_cca(data, d, ridge=0.0):
    """Classical CCA: ridge CCA on the raw features, one ridge for both sides."""
    if data.n < 2:
        raise InputError("linear CCA needs at least 2 samples")
    n_x, n_y = data.x.shape[1], data.y.shape[1]
    if not 1 <= d <= min(n_x, n_y):
        raise InputError(f"cannot extract {d} components from dimensions ({n_x}, {n_y})")
    _check_number("ridge", ridge)
    Cxy, Cxx, Cyy = build_mln(data.x, data.y, ridge, ridge)
    try:  # the ridge is on the diagonals already
        fx = linalg.cholesky(Cxx)
        fy = linalg.cholesky(Cyy)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(
            pivot=exc.pivot,
            message=f"covariance block is rank deficient (pivot {exc.pivot}); "
            "pass a positive ridge",
        ) from exc
    sol = linalg.whitened_svd(Cxy, fx, fy, d)
    return LinearCcaModel(
        mean_x=data.x.mean(axis=0), mean_y=data.y.mean(axis=0), A=sol.alphas, B=sol.betas,
        rhos=np.clip(sol.lambdas, 0.0, 1.0), ridge=ridge,
    )


def _check_number(name, value, low=0, kind=numbers.Real):
    """`value` if it is a finite `kind` >= low; not a bool, which JSON true and false load as."""
    if isinstance(value, bool) or not (isinstance(value, kind) and low <= value < math.inf):
        noun = "an integer" if kind is numbers.Integral else "a finite number"
        raise InputError(f"{name} must be {noun} >= {low}, got {value!r}")
    return value


def project_linear(model, side, points):
    points, (mean, W) = _on_side(side, points, (model.mean_x, model.A), (model.mean_y, model.B))
    return (points - mean) @ W


# --- model serialization -------------------------------------------------
#
# Single JSON document.  Arrays are nested lists of decimal floats emitted
# by json (shortest round-trip repr), so deserialize -> project reproduces
# the original results exactly.


def _config_to_dict(config):
    return {
        "kernel_x": config.kernel_x.to_string(),
        "kernel_y": config.kernel_y.to_string(),
        "eta1": config.eta1,
        "eta2": config.eta2,
        "regularizer": config.regularizer,
        "components": config.d,
        "jitter": config.jitter,
    }


def config_from_dict(doc):
    return KccaConfig(
        kernel_x=parse_kernel_spec(doc["kernel_x"]),
        kernel_y=parse_kernel_spec(doc["kernel_y"]),
        eta1=doc["eta1"],
        eta2=doc["eta2"],
        regularizer=doc["regularizer"],
        d=doc["components"],
        jitter=doc["jitter"],
    )


# array fields of each method; equal letters are dimensions that must agree
_ARRAY_FIELDS = {
    "kcca": {"train_x": "np", "train_y": "nq", "alphas": "nd", "betas": "nd", "lambdas": "d"},
    "linear": {"mean_x": "p", "mean_y": "q", "A": "pd", "B": "qd", "rhos": "d"},
}


def model_to_dict(model):
    if isinstance(model, KccaModel):
        doc = {"method": "kcca", "config": _config_to_dict(model.config)}
        if model.diagnostics is not None:
            doc["diagnostics"] = model.diagnostics
    elif isinstance(model, LinearCcaModel):
        doc = {"method": "linear", "ridge": model.ridge}
    else:
        raise InputError(f"cannot serialize {type(model).__name__}")
    doc["schema"] = MODEL_SCHEMA
    doc.update((key, getattr(model, key).tolist()) for key in _ARRAY_FIELDS[doc["method"]])
    return doc


def _arrays(doc, fields, dims):
    """Read `fields` of doc as non-empty finite float arrays whose dimension letters agree."""
    out = {}
    for key, shape in fields.items():
        a = np.asarray(doc[key], dtype=float)
        if (
            a.ndim != len(shape)
            or a.size == 0
            or not np.all(np.isfinite(a))
            or any(dims.setdefault(dim, m) != m for dim, m in zip(shape, a.shape))
        ):
            raise InputError(f"model field {key!r} is empty, non-finite or misshapen {a.shape}")
        out[key] = a
    return out


def _diagnostics(doc, dims):
    """doc's diagnostics: None if absent (older models), else exactly
    {"rank": [r_x, r_y], "jitter": [j_L, j_N]} with integer ranks in d..n and jitters >= 0."""
    if "diagnostics" not in doc:
        return None
    diag = doc["diagnostics"]
    if not (
        isinstance(diag, dict)
        and diag.keys() == {"rank", "jitter"}
        and all(isinstance(v, list) and len(v) == 2 for v in diag.values())
    ):
        raise InputError('model diagnostics must be {"rank": [r_x, r_y], "jitter": [j_L, j_N]}')
    for r in diag["rank"]:
        if _check_number("diagnostics rank", r, dims["d"], numbers.Integral) > dims["n"]:
            raise InputError(f"diagnostics rank {r} exceeds the {dims['n']} training rows")
    for j in diag["jitter"]:
        _check_number("diagnostics jitter", j)
    return diag


def model_from_dict(doc):
    if not isinstance(doc, dict):
        raise InputError("model document is not a JSON object")
    schema = doc.get("schema")
    if schema != MODEL_SCHEMA:
        raise InputError(f"unsupported model schema {schema!r}")
    method = doc.get("method")
    if method not in ("kcca", "linear"):
        raise InputError(f"unknown model method {method!r}")
    try:
        fields = _ARRAY_FIELDS[method]
        if method == "kcca":
            config = config_from_dict(doc["config"])
            dims = {"d": config.d}
            arrays = _arrays(doc, fields, dims)
            return KccaModel(config=config, diagnostics=_diagnostics(doc, dims), **arrays)
        ridge = _check_number("ridge", doc.get("ridge", 0.0))
        return LinearCcaModel(ridge=ridge, **_arrays(doc, fields, {}))
    except InputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed model document: {type(exc).__name__}: {exc}") from None


def save_model(model, path):
    """Write beside `path` first, then rename over it: an error leaves `path` as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x")  # outside the try: a name already taken is not ours to delete
    try:
        with fh:  # one write: json.dump would make one per encoder chunk
            fh.write(json.dumps(model_to_dict(model), indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_model(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise InputError(f"{path}: not a JSON document: {exc}") from None
    return model_from_dict(doc)
