"""Sparsifying bases: cosine transforms, fractional powers, secret variants.

The fractional cosine transform is obtained from the eigendecomposition of
the DCT matrix; packing a real signal into a half-length complex one and
unpacking after the complex fractional transform yields a real orthogonal
matrix (the reality-preserving fractional cosine transform).
:func:`build_secret_basis` turns it into the key-dependent basis with three
basis-equivalence steps -- column permutation, column scaling and column
mixing -- which keep its sparsifying power.

Orientation note: with the textbook entry formula used here the DCT matrix
has cosine waves as its *columns* (a synthesis matrix), so the
energy-concentrating analysis map of the length-M transform is x -> R^T x.
All coefficient maps in this module use that analysis direction.
"""

import ctypes
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .keyrand import Permutation

__all__ = [
    "EigenSystem",
    "SecretBasisSpec",
    "dct_matrix",
    "dct_eigensystem",
    "rpfrct_matrix",
    "mix_coefficients",
    "unmix_coefficients",
    "build_secret_basis",
    "best_s_term",
    "corner_region_1d",
    "corner_region_2d",
]


def dct_matrix(n):
    """Orthogonal DCT matrix with entries (1/sqrt(n)) eps_l cos(2 pi (2i+1) l / 4n).

    Row index i, column index l; eps_0 = 1 and eps_l = sqrt(2) for l > 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    i = np.arange(n)[:, None]
    l = np.arange(n)[None, :]
    eps = np.where(l == 0, 1.0, np.sqrt(2.0))
    return (1.0 / np.sqrt(n)) * eps * np.cos(2.0 * np.pi * (2 * i + 1) * l / (4.0 * n))


@dataclass
class EigenSystem:
    """Unitary eigendecomposition C = U diag(exp(j phi)) U*."""

    U: np.ndarray
    phis: np.ndarray

    def fractional(self, alpha):
        """The alpha-th power via the principal eigenvalue arguments."""
        return self.U @ (np.exp(1j * alpha * self.phis)[:, None] * self.U.conj().T)


def _blas_thread_control():
    """The get and set of the thread count of numpy's bundled OpenBLAS,
    found through numpy's LAPACK extension, which links it; None when that
    library exports neither."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


_BLAS_THREADS = _blas_thread_control()
_BLAS_THREADS_LOCK = threading.Lock()


@contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread, then restore its count.

    The count is process-wide, so the lock keeps two callers from
    interleaving their pin and restore.  Does nothing when OpenBLAS offers
    no thread control.
    """
    if _BLAS_THREADS is None:
        yield
        return
    get, put = _BLAS_THREADS
    with _BLAS_THREADS_LOCK:
        old = get()
        put(1)
        try:
            yield
        finally:
            put(old)


_EIG_CACHE = {}
_CLUSTER_TOL = 1e-7
_EIG_RESID_TOL = 1e-10


def dct_eigensystem(n):
    """Eigensystem of dct_matrix(n) with a deterministic ordering convention.

    Eigenvalues are sorted by principal argument in (-pi, pi].  Distinct
    arguments make each eigenvector unique up to LAPACK's phase convention;
    two arguments closer than 1e-7 raise ArithmeticError (no n up to 2048,
    the sizes a key allows, comes near: their closest arguments are about
    7.6e-4 apart).  The eigensolver runs on one OpenBLAS thread, so the
    result does not depend on the thread count.  Results are cached per
    size.
    """
    if n in _EIG_CACHE:
        return _EIG_CACHE[n]
    C = dct_matrix(n)
    # LAPACK's eigenvectors differ in the last bits between thread counts
    # from n = 128 on; one thread keeps every key independent of the count
    with _one_blas_thread():
        lam, U = np.linalg.eig(C.astype(complex))
    phi = np.angle(lam)
    # keep the principal branch (-pi, pi] but fold values hugging -pi onto +pi
    # so an eigenvalue at -1 sorts last on either side of the branch cut
    phi = np.where(phi <= -np.pi + _CLUSTER_TOL, phi + 2.0 * np.pi, phi)
    order = np.argsort(phi, kind="stable")
    phi, U = phi[order], U[:, order]
    if n > 1 and np.diff(phi).min() < _CLUSTER_TOL:
        raise ArithmeticError(
            f"the size-{n} DCT has eigenvalue arguments closer than {_CLUSTER_TOL:g}, "
            "so its eigenvectors are not unique")
    sys = EigenSystem(U=U, phis=phi)
    resid = np.max(np.abs(sys.fractional(1.0) - C))
    unit = np.max(np.abs(U.conj().T @ U - np.eye(n)))
    if resid > _EIG_RESID_TOL or unit > _EIG_RESID_TOL:
        raise ArithmeticError(
            f"eigendecomposition of the size-{n} DCT failed: "
            f"reconstruction residual {resid:.3e}, orthonormality residual {unit:.3e}")
    _EIG_CACHE[n] = sys
    return sys


def rpfrct_matrix(M, alpha):
    """Real orthogonal reality-preserving fractional cosine transform.

    Built by applying the half-length complex fractional transform B to the
    signal packed as first-half + j second-half:

        R = [[Re B, -Im B],
             [Im B,  Re B]]

    M must be even.
    """
    if M < 2 or M % 2 != 0:
        raise ValueError("signal length must be even and >= 2")
    B = dct_eigensystem(M // 2).fractional(alpha)
    return np.block([[B.real, -B.imag], [B.imag, B.real]])


def mix_coefficients(s, mixes):
    """Coefficients in the mixed basis: the eq. 8 update for each mix (j, k, a, b).

    Column j of the basis is replaced with a*psi_j + b*psi_k, so the
    coefficients update as s'_j = s_j / a, s'_k = s_k - s_j b / a (the mixes
    applied in reverse order).  For signals supported entirely inside or
    outside the mixed columns the coefficient count is unchanged.  Returns a
    new array.
    """
    s = np.array(s, dtype=float)
    for j, k, a, b in reversed(mixes):
        sj = s[j]
        s[j] = sj / a
        s[k] = s[k] - sj * b / a
    return s

def unmix_coefficients(sp, mixes):
    """Inverse of :func:`mix_coefficients`; returns a new array."""
    s = np.array(sp, dtype=float)
    for j, k, a, b in mixes:
        sj = s[j]
        s[j] = a * sj
        s[k] = s[k] + b * sj
    return s


@dataclass
class SecretBasisSpec:
    """Composition recipe for a key-dependent sparsifying basis.

    The basis is Psi_K = Psi P D Q where Psi is the fractional cosine basis
    of order alpha, P permutes columns, D = diag(1/d_j) scales them and Q
    applies the column mixes (j, k, a, b).  Without ``beta`` the basis acts
    on length-n signals; with ``beta`` it acts on n x n images, stored as
    column-stacked vectors of length n^2, with order alpha along the first
    axis and beta along the second.  ``perm``, ``scale`` and ``mixes`` index
    those n or n^2 coefficients; a step left unset is skipped.
    """

    n: int
    alpha: float
    beta: float | None = None
    perm: Permutation | None = None
    scale: np.ndarray | None = None
    mixes: list = field(default_factory=list)


def build_secret_basis(spec):
    """Build the key-dependent basis Psi_K = Psi P D Q; return (forward, inverse).

    ``forward`` is the sparsifying map Psi_K^{-1} (signal to coefficients):
    the fractional cosine analysis, then P^T, then the column scaling
    (coefficients divide by 1/d_j), then the mix update.  ``inverse`` is
    Psi_K (coefficients to signal) and undoes the same steps in reverse.
    Steps the spec leaves unset are skipped.  The spec's mixes are taken as
    given: each must join two distinct coefficients with a non-zero factor
    a; which coefficients may be mixed is the key's choice
    (:meth:`blpcs.cipher.BlpKey.basis_spec`).
    """
    n = spec.n
    if spec.beta is not None:
        Ra, Rb = rpfrct_matrix(n, spec.alpha), rpfrct_matrix(n, spec.beta)
        size = n * n

        # images are column-stacked vectors of length n^2
        def analysis(x):
            X = np.asarray(x, dtype=float).reshape((n, n), order="F")
            return (Ra.T @ X @ Rb).flatten(order="F")

        def synthesis(s):
            S = np.asarray(s, dtype=float).reshape((n, n), order="F")
            return (Ra @ S @ Rb.T).flatten(order="F")
    else:
        R = rpfrct_matrix(n, spec.alpha)
        size = n

        def analysis(x):
            return R.T @ x

        def synthesis(s):
            return R @ s

    perm = spec.perm
    if perm is not None and perm.n != size:
        raise ValueError("permutation size does not match the basis")
    inv_d = None
    if spec.scale is not None:
        d = np.asarray(spec.scale, dtype=float)
        if d.shape != (size,):
            raise ValueError("need one scale factor per basis column")
        if not np.all((d > 0) & np.isfinite(d)):
            raise ValueError("scale factors d_j must be positive and finite")
        inv_d = 1.0 / d
    mixes = [(int(j), int(k), float(a), float(b)) for j, k, a, b in spec.mixes]
    for j, k, a, b in mixes:
        if a == 0.0:
            raise ValueError("mix factor a must be non-zero")
        if j == k or not (0 <= j < size and 0 <= k < size):
            raise ValueError(f"invalid mix pair ({j}, {k})")

    def forward(x):
        s = analysis(x)
        if perm is not None:
            s = perm.apply_transpose(s)
        if inv_d is not None:
            s = s / inv_d
        return mix_coefficients(s, mixes) if mixes else s

    def inverse(s):
        if mixes:
            s = unmix_coefficients(s, mixes)
        if inv_d is not None:
            s = s * inv_d
        if perm is not None:
            s = perm.apply(s)
        return synthesis(s)

    return forward, inverse


def best_s_term(coeffs, s):
    """Keep the s largest-magnitude entries of coeffs, zeroing the rest."""
    coeffs = np.asarray(coeffs, dtype=float)
    if not 0 <= s <= coeffs.size:
        raise ValueError("s must be between 0 and len(coeffs)")
    out = np.zeros_like(coeffs)
    if s == 0:
        return out
    keep = np.argsort(-np.abs(coeffs), kind="stable")[:s]
    out[keep] = coeffs[keep]
    return out


def corner_region_1d(M, side):
    """Indices of the leading ``side`` entries of each half of a length-M vector."""
    idx = np.arange(M)
    return idx[(idx % (M // 2)) < side]

def corner_region_2d(n, side):
    """Column-stacked indices of the four side x side sub-block corners of an n x n array."""
    r = np.arange(n)
    hit = (r % (n // 2)) < side
    rows, cols = np.meshgrid(r[hit], r[hit], indexing="ij")
    return (cols * n + rows).ravel()
