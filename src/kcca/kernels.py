"""Kernel functions and Gram matrices.

The Gaussian kernel follows the convention

    k(x1, x2) = exp(-||x1 - x2||^2 / (2 * sigma^2)),

i.e. the factor 2*sigma^2 in the denominator.  Some libraries use sigma^2
or a gamma parameterization instead; all code in this package assumes the
2*sigma^2 form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

VALID_KINDS = ("gaussian", "linear", "polynomial")

GRAM_BLOCK = 64  # gram_matrix rows per cross_kernel call: B x N temporaries stay in cache


@dataclass(frozen=True)
class KernelSpec:
    """Declarative kernel choice.

    kind "gaussian" uses `sigma`; "polynomial" uses `degree` and `offset`;
    "linear" has no parameters.
    """

    kind: str
    sigma: float = 1.0
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise InputError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian" and not (math.isfinite(self.sigma) and self.sigma > 0):
            raise InputError(f"gaussian kernel requires a finite sigma > 0, got {self.sigma}")
        if self.kind == "polynomial":
            if int(self.degree) != self.degree or self.degree < 1:
                raise InputError(f"polynomial degree must be an integer >= 1, got {self.degree}")
            if not (math.isfinite(self.offset) and self.offset >= 0):
                raise InputError(f"polynomial offset must be finite and >= 0, got {self.offset}")

    def to_string(self):
        if self.kind == "gaussian":
            return f"gaussian:sigma={self.sigma!r}"
        if self.kind == "polynomial":
            return f"poly:degree={self.degree},offset={self.offset!r}"
        return "linear"


def parse_kernel_spec(text):
    """Parse the CLI grammar: gaussian:sigma=<float> | linear | poly:degree=<int>,offset=<float>."""
    head, _, rest = text.partition(":")
    if head == "linear":
        if rest:
            raise InputError(f"linear kernel takes no parameters, got {rest!r}")
        return KernelSpec("linear")
    if head == "gaussian":
        params = _parse_params(rest, {"sigma": float})
        if "sigma" not in params:
            raise InputError("gaussian kernel requires sigma=<float>")
        return KernelSpec("gaussian", sigma=params["sigma"])
    if head == "poly":
        params = _parse_params(rest, {"degree": int, "offset": float})
        return KernelSpec(
            "polynomial",
            degree=params.get("degree", 2),
            offset=params.get("offset", 1.0),
        )
    raise InputError(f"unknown kernel kind {head!r}")


def _parse_params(rest, schema):
    params = {}
    if not rest:
        return params
    for token in rest.split(","):
        key, eq, value = token.partition("=")
        if not eq or key not in schema:
            raise InputError(f"bad kernel parameter token {token!r}")
        try:
            params[key] = schema[key](value)
        except ValueError:
            raise InputError(f"bad kernel parameter token {token!r}") from None
    return params


def _finite(K):
    if not np.all(np.isfinite(K)):
        raise InputError("kernel values overflow or are undefined; check the kernel parameters")
    return K


def cross_kernel(spec, A, B):
    """Kernel matrix between two sample sets: entry (i, j) = k(A_i, B_j).

    The only kernel evaluator.  Gaussian squared distances are summed from
    pairwise differences, sum_k (B_jk - A_ik)^2 in feature order (never the
    expanded ||a||^2 - 2 a.b + ||b||^2, so only row differences matter),
    then divided by -2 sigma^2 and exponentiated in place.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise InputError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    if spec.kind == "gaussian":
        K = np.zeros((A.shape[0], B.shape[0]))
        d = np.empty_like(K)
        for k in range(A.shape[1]):
            np.subtract(B[:, k], A[:, k, None], out=d)
            d *= d
            K += d
        K /= -2.0 * spec.sigma**2
        return _finite(np.exp(K, out=K))
    P = A @ B.T
    if spec.kind == "linear":
        return _finite(P)
    return _finite((P + spec.offset) ** spec.degree)


def gram_matrix(spec, X):
    """N x N Gram matrix cross_kernel(spec, X, X), exactly symmetric.

    Filled GRAM_BLOCK rows at a time, so every temporary is GRAM_BLOCK x N:
    one cross_kernel call gives a block's part of the upper triangle, which
    is mirrored below the diagonal.  Inside a diagonal block, entries (i, j)
    and (j, i) are computed alike: Gaussian ones sum the same squares in the
    same order, linear and polynomial ones come from the same products
    (numpy's symmetric rank-k update when N <= GRAM_BLOCK).  Gaussian
    entries equal cross_kernel's bit for bit.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if n < 1:
        raise InputError("gram_matrix requires at least one sample")
    K = np.empty((n, n))
    for i in range(0, n, GRAM_BLOCK):
        j = i + GRAM_BLOCK
        K[i:j, i:] = cross_kernel(spec, X[i:j], X[i:])
        K[j:, i:j] = K[i:j, j:].T
    return K
