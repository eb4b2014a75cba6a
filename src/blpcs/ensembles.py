"""Measurement-matrix ensembles.

Covers the classical restricted-isometry ensembles (Gaussian, Bernoulli)
and the antipodal column-scaled ensemble whose coherence grows with the
scaling spread.  The Monte-Carlo isometry estimate that shows the scaled
ensemble is not RIP lives with the tests that check that claim
(``tests/oracles.py``).
"""

import numpy as np

__all__ = [
    "gaussian_matrix",
    "bernoulli_matrix",
    "antipodal_scaled_matrix",
]


def gaussian_matrix(stream, K, M):
    """K x M matrix with i.i.d. standard normal entries, drawn row-major."""
    return stream.gaussian((K, M))

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

