"""Measurement-matrix ensembles and their recovery diagnostics.

Covers the classical restricted-isometry ensembles (Gaussian, Bernoulli),
the antipodal column-scaled ensemble whose coherence grows with the scaling
spread, and an empirical Monte-Carlo estimate of the isometry constant.
"""

import numpy as np

__all__ = [
    "gaussian_matrix",
    "bernoulli_matrix",
    "antipodal_scaled_matrix",
    "rip_check_montecarlo",
]


def gaussian_matrix(stream, K, M, normalize_columns=False):
    """K x M matrix with i.i.d. standard normal entries, drawn row-major.

    With ``normalize_columns`` the columns are rescaled to unit l2 norm
    (used when an explicit near-isometry is wanted).
    """
    A = stream.gaussian((K, M))
    if normalize_columns:
        A = A / np.linalg.norm(A, axis=0, keepdims=True)
    return A

def bernoulli_matrix(stream, K, M):
    """K x M matrix with i.i.d. equiprobable +-1 entries."""
    u = stream.uniform((K, M))
    return np.where(u < 0.5, 1.0, -1.0)

def antipodal_scaled_matrix(stream, K, M, d):
    """K x M matrix whose column j takes the values +-d_j equiprobably."""
    d = np.asarray(d, dtype=float)
    if d.shape != (M,):
        raise ValueError("d must have one scale per column")
    return bernoulli_matrix(stream, K, M) * d[None, :]


def rip_check_montecarlo(A, k, trials, stream):
    """Empirical lower bound on the order-k isometry constant of A.

    Draws ``trials`` random supports of size k with unit-Gaussian
    coefficients and returns the largest observed |  ||A x||^2 / ||x||^2 - 1 |.
    The true constant delta_k is the supremum over all supports, so this
    estimate never exceeds it.
    """
    A = np.asarray(A, dtype=float)
    M = A.shape[1]
    if not 0 < k < M:
        raise ValueError("need 0 < k < cols(A)")
    worst = 0.0
    for _ in range(trials):
        T = stream.subset(M, k)
        x = stream.gaussian(k)
        nx = float(x @ x)
        if nx == 0.0:
            continue
        Ax = A[:, T] @ x
        worst = max(worst, abs(float(Ax @ Ax) / nx - 1.0))
    return worst
