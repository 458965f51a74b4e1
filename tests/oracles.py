"""Independent reference routines used only by the tests.

Everything here is written with plain Python loops so it shares no code
path with the library: hand-rolled Cholesky, triangular substitution, a
cyclic Jacobi eigensolver, and a brute-force solver for the coupled
eigenproblem that works on the doubled symmetric system

    [[0, M], [M^T, 0]] w = lambda [[L, 0], [0, N]] w

whose eigenvalues come in +/- pairs; the positive half must match the
library's whitened-SVD solution.  `kernel_eval` (one kernel value per
pair) is the reference for `gram_matrix`/`cross_kernel`, and `mln_ref`
(with an explicit J) for the dense n x n matrices that the low-rank fit
never forms.  `linear_cca_rhos_ref` whitens by QR, not by a Cholesky
factor of a covariance, so it forms no covariance at all.
"""

import numpy as np

from kcca.errors import InputError


def cholesky_ref(A):
    """Textbook lower Cholesky by explicit loops."""
    n = A.shape[0]
    C = np.zeros((n, n))
    for j in range(n):
        s = A[j, j] - sum(C[j, k] ** 2 for k in range(j))
        if s <= 0:
            raise ValueError(f"not positive definite at pivot {j}")
        C[j, j] = np.sqrt(s)
        for i in range(j + 1, n):
            C[i, j] = (A[i, j] - sum(C[i, k] * C[j, k] for k in range(j))) / C[j, j]
    return C


def forward_sub(C, b):
    n = C.shape[0]
    x = np.zeros(n)
    for i in range(n):
        x[i] = (b[i] - sum(C[i, k] * x[k] for k in range(i))) / C[i, i]
    return x


def jacobi_eigvals(S, sweeps=100, tol=1e-14):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    A = np.array(S, dtype=float)
    n = A.shape[0]
    scale = max(1.0, float(np.max(np.abs(A))))
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(A[p, q]))
                if abs(A[p, q]) <= tol * scale:
                    continue
                theta = 0.5 * (A[q, q] - A[p, p]) / A[p, q]
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                A = rot.T @ A @ rot
        if off <= tol * scale:
            break
    return np.sort(np.diag(A))


def paired_eig_bruteforce(M, L, N):
    """All generalized eigenvalues of the doubled system, sorted ascending."""
    n = M.shape[0]
    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = M
    A[n:, :n] = M.T
    B = np.zeros((2 * n, 2 * n))
    B[:n, :n] = L
    B[n:, n:] = N
    C = cholesky_ref(B)
    # S = C^{-1} A C^{-T}, built column by column with hand substitutions
    n2 = 2 * n
    Cinv_A = np.column_stack([forward_sub(C, A[:, j]) for j in range(n2)])
    S = np.column_stack([forward_sub(C, Cinv_A.T[:, j]) for j in range(n2)]).T
    S = 0.5 * (S + S.T)
    return jacobi_eigvals(S)


def pearson_ref(u, v):
    """Scalar Pearson correlation by the definition, loop arithmetic."""
    n = len(u)
    mu = sum(u) / n
    mv = sum(v) / n
    num = sum((u[i] - mu) * (v[i] - mv) for i in range(n))
    du = sum((u[i] - mu) ** 2 for i in range(n))
    dv = sum((v[i] - mv) ** 2 for i in range(n))
    return num / np.sqrt(du * dv)


def mln_ref(kx, ky, eta1, eta2, rkhs=True):
    """Straight-line evaluation of the coupled-problem matrices with an
    explicitly materialized centering matrix."""
    n = kx.shape[0]
    J = np.eye(n) - np.ones((n, n)) / n
    M = kx.T @ J @ ky / n
    L = kx.T @ J @ kx / n
    N = ky.T @ J @ ky / n
    if rkhs:
        L = L + eta1 * kx
        N = N + eta2 * ky
    else:
        L = L + eta1 * np.eye(n)
        N = N + eta2 * np.eye(n)
    return M, L, N


def kernel_eval(spec, x1, x2):
    """Evaluate k(x1, x2) for a single pair of vectors."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.shape != x2.shape:
        raise InputError(f"dimension mismatch: {x1.shape} vs {x2.shape}")
    if spec.kind == "gaussian":
        d = x1 - x2
        # same reduction as gram_matrix/cross_kernel, so the entrywise
        # recomputation is bit-equal below 8 features (numpy's pairwise
        # summation changes the order from 8 up)
        return float(np.exp(-np.sum(d * d) / (2.0 * spec.sigma**2)))
    if spec.kind == "linear":
        return float(np.dot(x1, x2))
    return float((np.dot(x1, x2) + spec.offset) ** spec.degree)


def centering_matrix(n):
    """Explicit J = I - (1/n) 11^T."""
    if n < 1:
        raise InputError("centering_matrix requires n >= 1")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def linear_cca_rhos_ref(x, y, ridge, d):
    """Top-d ridge canonical correlations: sqrt(ridge) I rows under the centred
    data scaled by 1/sqrt(n), whose QR whitens X^T X / n + ridge I exactly."""

    def whitened(data):
        n, p = data.shape
        stacked = np.vstack([(data - data.mean(axis=0)) / np.sqrt(n), np.sqrt(ridge) * np.eye(p)])
        return np.linalg.qr(stacked)[0][:n]

    return np.linalg.svd(whitened(x).T @ whitened(y), compute_uv=False)[:d]
