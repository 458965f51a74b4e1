"""Dense linear algebra used by the fitters.

Cholesky, triangular solves and SVD are thin wrappers over LAPACK (via
numpy/scipy) with the error reporting and the deterministic sign
convention the rest of the package relies on.  The coupled eigenproblem

    M beta = lambda L alpha,    M^T alpha = lambda N beta

with L, N symmetric positive definite is reduced by whitening: factor
L = C_L C_L^T and N = C_N C_N^T, form G = C_L^{-1} M C_N^{-T}, and read
the solution off the top-d SVD of G.  This keeps every lambda real and >= 0
and gives components orthonormal in the L- and N-metrics by construction.
Kernel CCA and linear CCA are both this computation on different matrices.
For a square G with n >= TOP_D_RATIO * d, `svd` finds the top subspace from
G^T G and takes the values from G itself (Rayleigh-Ritz), so they keep their
digits; it falls back to the full SVD when s_d^2 < TOP_D_GUARD * s_1^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, get_lapack_funcs, solve_triangular

from .errors import InputError, NotPositiveDefiniteError, SingularRegularizationError

TOP_D_RATIO = 32  # `svd` takes the top-d path for square order n >= TOP_D_RATIO * d
TOP_D_GUARD = 1e-6  # ...and falls back to gesdd when s_d^2 < TOP_D_GUARD * s_1^2


@dataclass(frozen=True)
class SvdResult:
    U: np.ndarray
    s: np.ndarray
    V: np.ndarray


@dataclass(frozen=True)
class PairedEigSolution:
    alphas: np.ndarray
    betas: np.ndarray
    lambdas: np.ndarray


def cholesky(A, jitter=0.0):
    """Lower Cholesky factor C of A + jitter*I, so that C @ C.T equals it.

    Raises NotPositiveDefiniteError with the failing pivot index when the
    input (after jitter) is not positive definite.
    """
    if not (math.isfinite(jitter) and jitter >= 0):
        raise InputError(f"jitter must be finite and >= 0, got {jitter}")
    work = np.array(A, dtype=float, order="C")
    if jitter:
        work[np.diag_indices_from(work)] += jitter
    (potrf,) = get_lapack_funcs(("potrf",), (work,))
    c, info = potrf(work, lower=1, clean=1, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefiniteError(pivot=info - 1)
    if info < 0:
        raise InputError(f"illegal value in argument {-info} of potrf")
    return c


def solve_lower_triangular(C, B):
    """Solve C @ X = B by forward substitution (C lower triangular)."""
    return solve_triangular(C, np.asarray(B, dtype=float), lower=True)


def solve_lower_transposed(C, B):
    """Solve C.T @ X = B by back substitution (C lower triangular)."""
    return solve_triangular(C, np.asarray(B, dtype=float), lower=True, trans="T")


def svd(A, d=None):
    """Top-d thin SVD (every triplet when d is None), signs fixed.

    In every left singular vector the entry of largest absolute value is
    made positive (ties broken by lowest index); the matching right vector
    is flipped along with it.  Two calls on the same input are therefore
    bit-identical, on either path.

    A square A of order n >= TOP_D_RATIO * d takes the top d eigenvectors V
    of A^T A and the Rayleigh-Ritz step A V = U S W^T, V <- V W: S comes from
    A, not from the eigenvalues, which lose eps * s_1^2 / s_k^2 relative.  If
    s_d^2 < TOP_D_GUARD * s_1^2, and for every other A, gesdd runs, cut to d.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise InputError("svd input contains non-finite entries")
    d = min(A.shape) if d is None else d
    if not 1 <= d <= min(A.shape):
        raise InputError(f"cannot take {d} singular triplets of a {A.shape} matrix")
    U, s, V = (_top_svd if A.shape[0] == A.shape[1] >= TOP_D_RATIO * d else _full_svd)(A, d)
    for k in range(d):
        i = int(np.argmax(np.abs(U[:, k])))
        if U[i, k] < 0:
            U[:, k] = -U[:, k]
            V[:, k] = -V[:, k]
    return SvdResult(U=U, s=s, V=V)


def _full_svd(A, d):
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return U[:, :d], s[:d], Vt[:d].T


def _top_svd(A, d):
    AtA = A.T @ A  # numpy's syrk path: exactly symmetric
    if not np.all(np.isfinite(AtA)):
        return _full_svd(A, d)
    w, V = eigh(AtA, subset_by_index=[len(A) - d, len(A) - 1])
    if not w[0] >= TOP_D_GUARD * w[-1] > 0:
        return _full_svd(A, d)
    U, s, Wt = np.linalg.svd(A @ V, full_matrices=False)
    return U, s, V @ Wt.T


def whitened_svd(M, CL, CN, d):
    """Top-d solution of the coupled problem given lower factors of L and N.

    Forms G = CL^{-1} M CN^{-T}, takes its sign-fixed top-d SVD and back-solves
    the singular vectors, so alpha_k^T L alpha_k = beta_k^T N beta_k = 1.
    """
    Y = solve_lower_triangular(CL, M)
    G = solve_lower_triangular(CN, Y.T).T
    res = svd(G, d)
    alphas = solve_lower_transposed(CL, res.U)
    betas = solve_lower_transposed(CN, res.V)
    return PairedEigSolution(alphas=alphas, betas=betas, lambdas=res.s.copy())


def _factor_with_retry(A, jitter, what):
    try:
        return cholesky(A, jitter)
    except NotPositiveDefiniteError:
        pass
    fallback = jitter + 1e-9 * max(float(np.mean(np.diag(A))), 0.0)
    try:
        return cholesky(A, fallback)
    except NotPositiveDefiniteError as exc:
        raise SingularRegularizationError(
            f"{what} is not positive definite even with jitter {fallback:g}; "
            "increase the regularization constant eta or the jitter"
        ) from exc


def solve_paired_eig(M, L, Nmat, d, jitter=0.0):
    """Top-d solution of M beta = lambda L alpha, M^T alpha = lambda N beta.

    Components are normalized alpha_k^T L alpha_k = beta_k^T N beta_k = 1
    and returned with lambdas descending.
    """
    M = np.asarray(M, dtype=float)
    if not all(np.all(np.isfinite(A)) for A in (M, L, Nmat)):
        raise InputError("M, L or N has non-finite entries; the kernel values are too large")
    CL = _factor_with_retry(np.asarray(L, dtype=float), jitter, "left metric L")
    CN = _factor_with_retry(np.asarray(Nmat, dtype=float), jitter, "right metric N")
    return whitened_svd(M, CL, CN, d)
