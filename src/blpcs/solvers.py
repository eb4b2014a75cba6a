"""Sparse recovery solvers.

Two routes with different regimes and guarantees:

* :func:`omp_recover` -- greedy orthogonal matching pursuit, the workhorse
  for exactly sparse synthetic signals (:func:`subspace_pursuit` refines a
  fixed-size support where a greedy pick goes wrong);
* :func:`ista_bpdn_batch` -- l1-regularized least squares by monotone FISTA
  (soft thresholding with Beck-Teboulle momentum, reset at each stage of a
  fixed lambda continuation), used for compressible signals such as image
  columns: many columns against one matrix, a NaN in the measurements
  marking a row lost from its column, in float32 when given float32
  inputs and in float64 otherwise; :func:`debias` refits its estimate by least squares on each
  column's support, always in float64, solving the normal equations of
  many columns at once in blocks of bounded memory, and :func:`ista_bpdn`
  is the float64 single-vector solve with that refit.

The exhaustive l0 search that greedy pursuit is checked against is test code
(``tests/oracles.py``).

:func:`two_step_decode` is the sensing-matrix solve of the bi-level
cipher's decode (OMP and SP, keeping the feasible fit of least l1 norm);
each caller then applies its own basis to the coefficients.  Every solver
returns its coefficient estimate as an array; a caller that needs the
residual computes it from the estimate.
"""

from math import sqrt

import numpy as np

__all__ = [
    "omp_recover",
    "subspace_pursuit",
    "ista_bpdn",
    "ista_bpdn_batch",
    "debias",
    "two_step_decode",
]


# relative residual at which the pursuits stop, and the relative objective
# change at which a continuation stage of ista_bpdn_batch stops
_RESIDUAL_TOL = 1e-10
# support refinement rounds of subspace pursuit
_REFINE_ITERS = 30


# power-iteration steps of the spectral norm estimate
_POWER_ITERS = 30


def _spectral_norm_sq(A):
    """Squared spectral norm by deterministic power iteration."""
    M = A.shape[1]
    v = np.ones(M) / np.sqrt(M)
    for _ in range(_POWER_ITERS):
        w = A.conj().T @ (A @ v)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    # 1% headroom so that 1/L stays a valid step even if the iteration has
    # not fully converged
    return float(np.linalg.norm(A @ v) ** 2) * 1.01


# ---------------------------------------------------------------------------
# orthogonal matching pursuit

def omp_recover(A, y, sparsity_budget):
    """Greedy pursuit: pick the column most correlated with the residual,
    least-squares refit on the active set, repeat.

    Stops when the relative residual drops below 1e-10 or the budget is
    exhausted.  Works for real and complex systems.  Returns the estimate.
    """
    A = np.asarray(A)
    y = np.asarray(y).ravel()
    K, M = A.shape
    if sparsity_budget > K:
        raise ValueError("sparsity budget cannot exceed the number of rows")
    x = np.zeros(M, dtype=np.result_type(A.dtype, y.dtype, float))
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0:
        return x
    r = y.astype(x.dtype)
    support: list[int] = []
    sol = np.zeros(0, dtype=x.dtype)
    for _ in range(sparsity_budget):
        if len(support) == M:
            break
        corr = np.abs(A.conj().T @ r)
        corr[support] = -1.0
        support.append(int(np.argmax(corr)))
        sol, *_ = np.linalg.lstsq(A[:, support], y, rcond=None)
        r = y - A[:, support] @ sol
        if np.linalg.norm(r) < _RESIDUAL_TOL * ynorm:
            break
    x[support] = sol
    return x


def subspace_pursuit(A, y, k):
    """Best k-sparse fit by iterative support refinement.

    Starts from the k columns most correlated with y, then repeatedly merges
    the current support with the k best residual correlations, least-squares
    fits, and prunes back to k.  Unlike greedy pursuit it can evict an early
    wrong pick, which matters when small coefficients hide behind large ones.
    Returns the estimate.
    """
    A = np.asarray(A)
    y = np.asarray(y).ravel()
    K, M = A.shape
    if not 1 <= k <= min(K, M):
        raise ValueError("need 1 <= k <= min(rows, cols)")
    x = np.zeros(M, dtype=np.result_type(A.dtype, y.dtype, float))
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0:
        return x
    sup = np.argsort(-np.abs(A.conj().T @ y), kind="stable")[:k]
    sol, *_ = np.linalg.lstsq(A[:, sup], y, rcond=None)
    r = y - A[:, sup] @ sol
    best = (float(np.linalg.norm(r)), sup, sol)
    for _ in range(_REFINE_ITERS):
        cand = np.union1d(sup, np.argsort(-np.abs(A.conj().T @ r), kind="stable")[:k])
        sol_c, *_ = np.linalg.lstsq(A[:, cand], y, rcond=None)
        sup = cand[np.argsort(-np.abs(sol_c), kind="stable")[:k]]
        sup.sort()
        sol, *_ = np.linalg.lstsq(A[:, sup], y, rcond=None)
        r = y - A[:, sup] @ sol
        rn = float(np.linalg.norm(r))
        if rn < best[0] - 1e-12 * ynorm:
            best = (rn, sup, sol)
        else:
            break
        if rn < _RESIDUAL_TOL * ynorm:
            break
    x[best[1]] = best[2]
    return x


# ---------------------------------------------------------------------------
# monotone FISTA for basis-pursuit denoising

# the continuation schedule of ista_bpdn_batch: relative lambda from _LAM_HI
# down to a floor of at least _LAM_LO, over _STAGES stages of _STAGE_ITERS.
# An image decode never meets the stop test and runs every iteration, yet its
# quality saturates long before the solve converges: debias refits the
# support that the last stage leaves, so the budget is set by that quality
_LAM_HI = 0.1
_LAM_LO = 1e-3
_STAGES = 4
_STAGE_ITERS = 28


def _lam_floor(ratio):
    """Continuation floor adapted to the sampling ratio rows/cols.

    Heavily undersampled columns need a stronger l1 weight: driving lambda
    toward zero makes the iteration chase an equality solution that no
    longer matches the signal once the measurement count falls below the
    recovery threshold.  The floor never goes below ``_LAM_LO``.
    """
    adaptive = 10.0 ** (-1.0 - 3.45 * max(0.0, ratio - 0.12))
    return float(min(_LAM_HI, max(adaptive, _LAM_LO)))


def ista_bpdn_batch(A, Y, *, obj_trace=None):
    """Solve min 0.5||y - A s||^2 + lambda ||s||_1 for every column of Y.

    All columns share A, so the iteration runs as dense matrix products.
    A NaN in Y marks a measurement that was lost: its row takes no part in
    that column's fit, which is exactly the subsetted-rows problem of
    packet-loss decoding.  Returns the estimate matrix, without a refit:
    :func:`debias` is the least-squares refit on the support.

    The iteration runs in the floating dtype of the inputs,
    ``np.result_type(A, Y, np.float32)``: float32 ``A`` and ``Y`` give
    float32 iterates, work buffers and result; float64 or integer inputs
    give float64.  Lambda, the per-column weights, the step 1/L and the
    summed objectives are float64 either way.

    The iteration is monotone FISTA (Beck & Teboulle, SIAM J. Imaging Sci.
    2009) with step 1/L: each soft-threshold step starts from the momentum
    point S + beta (S - S_old), and the momentum restarts (t = 1) at each
    continuation stage.  A step that raises the composite objective (summed
    over columns) is rejected: the iterate stays and the momentum restarts.
    So the objective is non-increasing within each stage from its first
    step on.  The residual of the momentum point is the same combination
    of the residuals of S and S_old, so a step costs two matrix products.

    The schedule is fixed: 4 continuation stages of 28 iterations, lambda
    falling geometrically from 0.1 to the floor of :func:`_lam_floor`
    (both relative to each column's ||A^T y||_inf).  An accepted step whose
    relative objective change is at most 1e-10 ends its stage early.  When
    ``obj_trace`` is a list, the objective of the kept iterate is appended
    after every iteration, rejected or not.
    """
    A = np.asarray(A)
    Y = np.asarray(Y)
    dtype = np.result_type(A, Y, np.float32)
    A = A.astype(dtype, copy=False)
    Y = Y.astype(dtype, copy=False)
    if Y.ndim != 2 or Y.shape[0] != A.shape[0]:
        raise ValueError("Y must be K x n with K = rows(A)")
    K, M = A.shape
    ncol = Y.shape[1]
    L = _spectral_norm_sq(A)
    if L == 0.0:
        return np.zeros((M, ncol), dtype)
    lost = np.isnan(Y)
    mask = None
    rows = np.full(ncol, float(K))
    if lost.any():
        mask = (~lost).astype(dtype)
        Y = np.where(lost, dtype.type(0), Y)
        rows = mask.sum(axis=0, dtype=float)
    corr = np.abs(A.T @ Y).max(axis=0).astype(float)
    corr[corr == 0] = 1.0
    lam_lo = np.array([_lam_floor(r / M) for r in rows])
    # S, RS: the kept iterate and its (masked) residual Y - A S; S_old, RS_old:
    # the kept iterate before it, the other end of the momentum step (after a
    # rejected step they hold the rejected one, which beta = 0 leaves out)
    S = np.zeros((M, ncol), dtype)
    RS = Y.copy()  # the lost rows of Y are already zero
    S_old = np.zeros((M, ncol), dtype)
    RS_old = Y.copy()
    # work buffers, so that the iteration allocates nothing of matrix size
    Z = np.empty((M, ncol), dtype)
    C = np.empty((M, ncol), dtype)
    AS = np.empty((K, ncol), dtype)
    for st in range(_STAGES):
        lam = _LAM_HI * (lam_lo / _LAM_HI) ** (st / (_STAGES - 1))
        w = lam * corr
        th = (w / L).astype(dtype)
        neg_th = -th
        t, beta = 1.0, 0.0
        prev_obj = None
        for _ in range(_STAGE_ITERS):
            # gradient step from V = S + beta (S - S_old):
            # Z = V + A^T R_V / L, with R_V = RS + beta (RS - RS_old) the residual at V
            np.subtract(RS, RS_old, out=AS)
            AS *= beta
            AS += RS
            np.matmul(A.T, AS, out=Z)
            Z /= L
            np.subtract(S, S_old, out=C)
            C *= beta
            C += S
            Z += C
            # the candidate goes into the S_old, RS_old buffers.  Soft threshold
            # as z - clip(z, -th, th): equal to sign(z) * max(|z| - th, 0) bit
            # for bit except for the sign of zeros
            np.maximum(Z, neg_th, out=C)
            np.minimum(C, th, out=C)
            np.subtract(Z, C, out=S_old)
            np.matmul(A, S_old, out=AS)
            np.subtract(Y, AS, out=RS_old)
            if mask is not None:
                RS_old *= mask
            np.multiply(RS_old, RS_old, out=AS)
            np.abs(S_old, out=C)
            obj = 0.5 * np.sum(AS, dtype=float) + np.sum(w * C.sum(axis=0, dtype=float))
            if prev_obj is not None and obj > prev_obj:
                # reject: S and RS stay, and the next step restarts without momentum
                t, beta = 1.0, 0.0
                if obj_trace is not None:
                    obj_trace.append(float(prev_obj))
                continue
            S, S_old = S_old, S
            RS, RS_old = RS_old, RS
            t_next = (1.0 + sqrt(1.0 + 4.0 * t * t)) / 2.0
            t, beta = t_next, (t - 1.0) / t_next
            if obj_trace is not None:
                obj_trace.append(float(obj))
            if prev_obj is not None and abs(prev_obj - obj) <= _RESIDUAL_TOL * max(prev_obj, 1.0):
                break
            prev_obj = obj
    return S


# bytes of the support columns of A that one block of debias gathers
_DEBIAS_BLOCK_BYTES = 1 << 20


def debias(A, Y, S):
    """Least-squares refit of each column of S on its own support, in place.

    Column j of S is replaced by the least-squares fit of ``Y[:, j]`` on the
    columns of A that its nonzeros select, using only the rows where
    ``Y[:, j]`` is not NaN (a NaN marks a lost measurement).  A column with
    an empty support, or a support larger than half its surviving rows, is
    left as it is.  Returns S.

    The fit is always float64, whatever the dtype of A and Y, and is stored
    in the dtype of S.  It solves the normal equations of many columns at
    once: the columns of each support size go in chunks whose gathered
    support columns of A take about 1 MiB, and each chunk is solved by one
    stacked ``np.linalg.solve``.  So the memory the refit adds is a few
    chunks, never a buffer the size of S.  The skip rule keeps every support
    at most half of its rows, which bounds the conditioning of the normal
    equations.
    """
    A = np.asarray(A, dtype=float)
    Y = np.asarray(Y, dtype=float)
    K = A.shape[0]
    lost = np.isnan(Y)
    live = ~lost if lost.any() else None
    sizes = np.count_nonzero(S, axis=0)
    rows = np.full(S.shape[1], K) if live is None else np.count_nonzero(live, axis=0)
    refit = (sizes > 0) & (2 * sizes <= rows)
    for w in np.unique(sizes[refit]):
        cols = np.flatnonzero(refit & (sizes == w))
        # a chunk of b columns of support size w gathers b * w * K values
        b = max(_DEBIAS_BLOCK_BYTES // (8 * w * K), 1)
        for start in range(0, cols.size, b):
            block = cols[start:start + b]
            idx = np.nonzero(S[:, block].T)[1].reshape(block.size, w)
            X = A.T[idx]
            y = Y[:, block].T
            if live is not None:
                keep = live[:, block].T
                X *= keep[:, None, :]
                y = np.where(keep, y, 0.0)
            sol = np.linalg.solve(X @ X.transpose(0, 2, 1), X @ y[:, :, None])
            S[:, block] = 0.0
            S[idx, block[:, None]] = sol[:, :, 0]
    return S


def ista_bpdn(A, y):
    """Single-vector solve in float64: :func:`ista_bpdn_batch`, then
    :func:`debias`.  Returns the estimate vector."""
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float).ravel()[:, None]
    S = ista_bpdn_batch(A, y)
    return debias(A, y, S)[:, 0]


# ---------------------------------------------------------------------------
# the two-step decode of the bi-level cipher

def two_step_decode(A, y):
    """Step 1 of the two-step decode: solve min ||s||_1 s.t. y = A s.

    A square A is solved directly.  Otherwise greedy pursuit and subspace
    pursuit both run, and the equality-feasible candidate of least l1 norm
    is kept (the smallest residual when neither is feasible).  Real and
    complex systems are supported.  Returns the coefficient estimate; the
    caller maps it back through its own basis (step 2).
    """
    A = np.asarray(A)
    y = np.asarray(y).ravel()
    K, M = A.shape
    if K == M:
        return np.linalg.solve(A, y)
    cands = [omp_recover(A, y, K), subspace_pursuit(A, y, max(1, K // 4))]
    fits = [(s, float(np.linalg.norm(y - A @ s))) for s in cands]
    ynorm = max(float(np.linalg.norm(y)), 1e-300)
    feasible = [s for s, r in fits if r < 1e-6 * ynorm]
    if feasible:
        return min(feasible, key=lambda s: float(np.abs(s).sum()))
    return min(fits, key=lambda f: f[1])[0]
