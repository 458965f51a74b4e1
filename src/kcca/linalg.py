"""Dense linear algebra used by the fitters.

Cholesky (plain and pivoted), triangular solves and SVD are thin wrappers
over LAPACK (via numpy/scipy) with the error reporting and the
deterministic sign convention the rest of the package relies on.
scipy is imported inside the functions that call it, so that commands
which never fit (simulate, eval, transform) do not load it.
`pivoted_cholesky` gives the low-rank Gram factors K ~ G G^T that turn
kernel CCA into an r x r problem.  The coupled eigenproblem

    M beta = lambda L alpha,    M^T alpha = lambda N beta

with L, N symmetric positive definite is reduced by whitening: factor
L = C_L C_L^T and N = C_N C_N^T, form G = C_L^{-1} M C_N^{-T}, and read
the solution off the SVD of G, cut to d.  This keeps every lambda real and
>= 0 and gives components orthonormal in the L- and N-metrics by
construction.  Kernel CCA and linear CCA are both this computation on
different matrices, of order r (the Gram rank) and of the data dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, NotPositiveDefiniteError, SingularRegularizationError

RANK_TOL = 1e-10  # pivoted_cholesky stops once every residual diagonal is <= RANK_TOL * max diag


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
    jitter: tuple = (0.0, 0.0)  # what solve_paired_eig added to the diagonals of L and N


def cholesky(A, jitter=0.0):
    """Lower Cholesky factor C of A + jitter*I, so that C @ C.T equals it.

    Raises NotPositiveDefiniteError with the failing pivot index when the
    input (after jitter) is not positive definite.
    """
    if not (math.isfinite(jitter) and jitter >= 0):
        raise InputError(f"jitter must be finite and >= 0, got {jitter}")
    from scipy.linalg import get_lapack_funcs

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


def pivoted_cholesky(K):
    """Low-rank factor K ~ G G^T by LAPACK pstrf (diagonal pivoting); overwrites K.

    Factoring stops once every diagonal of K - G G^T is <= RANK_TOL * max diag K.
    Returns (G, P, T): G is n x r with rows in sample order, P the r pivot rows
    in the order taken, and T = G[P], lower triangular, so that K[:, P] = G T^T.
    """
    from scipy.linalg import get_lapack_funcs

    K = np.asarray(K, dtype=float)
    (pstrf,) = get_lapack_funcs(("pstrf",), (K,))
    # K is symmetric, so K.T is the same matrix in the Fortran order pstrf overwrites
    c, piv, r, _ = pstrf(K.T, tol=RANK_TOL * float(np.max(np.diag(K))), lower=1, overwrite_a=1)
    G = np.empty((K.shape[0], r))
    G[piv - 1] = np.tril(c[:, :r])
    P = piv[:r] - 1
    return G, P, G[P]


def solve_lower_triangular(C, B):
    """Solve C @ X = B by forward substitution (C lower triangular)."""
    from scipy.linalg import solve_triangular

    return solve_triangular(C, np.asarray(B, dtype=float), lower=True)


def solve_lower_transposed(C, B):
    """Solve C.T @ X = B by back substitution (C lower triangular)."""
    from scipy.linalg import solve_triangular

    return solve_triangular(C, np.asarray(B, dtype=float), lower=True, trans="T")


def svd(A, d=None):
    """Thin SVD cut to the top d triplets (every triplet when d is None), signs fixed.

    In every left singular vector the entry of largest absolute value is
    made positive (ties broken by lowest index); the matching right vector
    is flipped along with it.  Two calls on the same input are therefore
    bit-identical, and svd(A, d) is svd(A) cut to d.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise InputError("svd input contains non-finite entries")
    d = min(A.shape) if d is None else d
    if not 1 <= d <= min(A.shape):
        raise InputError(f"cannot take {d} singular triplets of a {A.shape} matrix")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    U, s, V = U[:, :d], s[:d], Vt[:d].T
    for k in range(d):
        i = int(np.argmax(np.abs(U[:, k])))
        if U[i, k] < 0:
            U[:, k] = -U[:, k]
            V[:, k] = -V[:, k]
    return SvdResult(U=U, s=s, V=V)


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
    """Lower factor of A + j*I and the j applied: `jitter`, or the fallback if A fails."""
    try:
        return cholesky(A, jitter), jitter
    except NotPositiveDefiniteError:
        pass
    fallback = jitter + 1e-9 * max(float(np.mean(np.diag(A))), 0.0)
    try:
        return cholesky(A, fallback), fallback
    except NotPositiveDefiniteError as exc:
        raise SingularRegularizationError(
            f"{what} is not positive definite even with jitter {fallback:g}; "
            "increase the regularization constant eta or the jitter"
        ) from exc


def solve_paired_eig(M, L, Nmat, d, jitter=0.0):
    """Top-d solution of M beta = lambda L alpha, M^T alpha = lambda N beta.

    Components are normalized alpha_k^T L alpha_k = beta_k^T N beta_k = 1
    and returned with lambdas descending.  `jitter` is added to the
    diagonals of L and N; a metric that still fails to factor gets 1e-9 of
    its mean diagonal more, and the solution reports what was applied.
    """
    M = np.asarray(M, dtype=float)
    if not all(np.all(np.isfinite(A)) for A in (M, L, Nmat)):
        raise InputError("M, L or N has non-finite entries; the kernel values are too large")
    CL, jitter_l = _factor_with_retry(np.asarray(L, dtype=float), jitter, "left metric L")
    CN, jitter_n = _factor_with_retry(np.asarray(Nmat, dtype=float), jitter, "right metric N")
    return replace(whitened_svd(M, CL, CN, d), jitter=(jitter_l, jitter_n))
