"""Sparse recovery solvers.

Three routes with different regimes and guarantees:

* :func:`omp_recover` -- greedy orthogonal matching pursuit, the workhorse
  for exactly sparse synthetic signals;
* :func:`ista_bpdn` -- l1-regularized least squares by iterative soft
  thresholding with lambda continuation, used for compressible signals such
  as image columns (a batched variant solves many columns against one
  matrix, optionally with per-column measurement masks);
* :func:`l0_bruteforce` -- exhaustive support search, the desk-scale oracle
  the other solvers are verified against.

:func:`two_step_decode` chains a sensing-matrix solve with a basis apply,
which is the decoding pattern of the bi-level cipher.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import GuardError

__all__ = [
    "SolverConfig",
    "RecoveryReport",
    "omp_recover",
    "subspace_pursuit",
    "ista_bpdn",
    "ista_bpdn_batch",
    "l0_bruteforce",
    "two_step_decode",
]


@dataclass
class SolverConfig:
    max_iters: int = 400
    residual_tol: float = 1e-10
    lam: float = 1e-3          # relative lambda floor, scaled by ||A^T y||_inf
    continuation: bool = True  # sweep lambda from 0.1 down to the floor
    debias: bool = True        # least-squares refit on the final support

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")


@dataclass
class RecoveryReport:
    estimate: np.ndarray
    residual_l2: float
    iterations: int
    converged: bool
    notes: str = ""


def _spectral_norm_sq(A, iters=30):
    """Squared spectral norm by deterministic power iteration."""
    M = A.shape[1]
    v = np.ones(M) / np.sqrt(M)
    for _ in range(iters):
        w = A.conj().T @ (A @ v)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    # 1% headroom so the 1/L step stays a descent step even if the
    # iteration has not fully converged
    return float(np.linalg.norm(A @ v) ** 2) * 1.01


# ---------------------------------------------------------------------------
# orthogonal matching pursuit

def omp_recover(A, y, sparsity_budget, config=None):
    """Greedy pursuit: pick the column most correlated with the residual,
    least-squares refit on the active set, repeat.

    Stops when the relative residual drops below ``config.residual_tol`` or
    the budget is exhausted.  Works for real and complex systems.
    """
    config = config or SolverConfig()
    A = np.asarray(A)
    y = np.asarray(y).ravel()
    K, M = A.shape
    if sparsity_budget > K:
        raise ValueError("sparsity budget cannot exceed the number of rows")
    x = np.zeros(M, dtype=np.result_type(A.dtype, y.dtype, float))
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0:
        return RecoveryReport(estimate=x, residual_l2=0.0, iterations=0, converged=True)
    r = y.astype(x.dtype)
    support: list[int] = []
    sol = np.zeros(0, dtype=x.dtype)
    notes = ""
    it = 0
    for it in range(1, sparsity_budget + 1):
        if len(support) == M:
            break
        corr = np.abs(A.conj().T @ r)
        corr[support] = -1.0
        support.append(int(np.argmax(corr)))
        sol, _, rank, _ = np.linalg.lstsq(A[:, support], y, rcond=None)
        if rank < len(support) and not notes:
            notes = f"rank-deficient active set at iteration {it}"
        r = y - A[:, support] @ sol
        if np.linalg.norm(r) < config.residual_tol * ynorm:
            break
    x[support] = sol
    resid = float(np.linalg.norm(y - A @ x))
    return RecoveryReport(estimate=x, residual_l2=resid, iterations=it,
                          converged=resid < config.residual_tol * ynorm, notes=notes)


def subspace_pursuit(A, y, k, config=None, refine_iters=30):
    """Best k-sparse fit by iterative support refinement.

    Starts from the k columns most correlated with y, then repeatedly merges
    the current support with the k best residual correlations, least-squares
    fits, and prunes back to k.  Unlike greedy pursuit it can evict an early
    wrong pick, which matters when small coefficients hide behind large ones.
    """
    config = config or SolverConfig()
    A = np.asarray(A)
    y = np.asarray(y).ravel()
    K, M = A.shape
    if not 1 <= k <= min(K, M):
        raise ValueError("need 1 <= k <= min(rows, cols)")
    x = np.zeros(M, dtype=np.result_type(A.dtype, y.dtype, float))
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0:
        return RecoveryReport(estimate=x, residual_l2=0.0, iterations=0, converged=True)
    sup = np.argsort(-np.abs(A.conj().T @ y), kind="stable")[:k]
    sol, *_ = np.linalg.lstsq(A[:, sup], y, rcond=None)
    r = y - A[:, sup] @ sol
    best = (float(np.linalg.norm(r)), sup, sol)
    it = 0
    for it in range(1, refine_iters + 1):
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
        if rn < config.residual_tol * ynorm:
            break
    x[best[1]] = best[2]
    return RecoveryReport(estimate=x, residual_l2=best[0], iterations=it,
                          converged=best[0] < config.residual_tol * ynorm)


# ---------------------------------------------------------------------------
# iterative soft-thresholding for basis-pursuit denoising

_LAM_HI = 0.1
_STAGES = 8


def _lam_floor(ratio, requested):
    """Continuation floor adapted to the sampling ratio rows/cols.

    Heavily undersampled columns need a stronger l1 weight: driving lambda
    toward zero makes the iteration chase an equality solution that no
    longer matches the signal once the measurement count falls below the
    recovery threshold.  The floor never goes below the requested value.
    """
    adaptive = 10.0 ** (-1.0 - 3.45 * max(0.0, ratio - 0.12))
    return float(min(_LAM_HI, max(adaptive, requested)))


def ista_bpdn_batch(A, Y, config=None, mask=None, obj_trace=None, stop_trace=None):
    """Solve min 0.5||y - A s||^2 + lambda ||s||_1 for every column of Y.

    All columns share A, so the iteration runs as dense matrix products.
    ``mask`` (0/1, same shape as Y) marks surviving measurements; masked-out
    rows take no part in the fit, which is exactly the subsetted-rows
    problem of packet-loss decoding.  Returns the estimate matrix.

    At most ``config.max_iters`` iterations run, split evenly over the
    continuation stages.  When ``obj_trace`` is a list, the composite
    objective (summed over columns) is appended after every iteration; when
    ``stop_trace`` is a list, one flag per stage is appended, true when that
    stage's stopping test fired.
    """
    config = config or SolverConfig()
    A = np.asarray(A, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] != A.shape[0]:
        raise ValueError("Y must be K x n with K = rows(A)")
    K, M = A.shape
    ncol = Y.shape[1]
    L = _spectral_norm_sq(A)
    if L == 0.0:
        return np.zeros((M, ncol))
    if mask is not None:
        mask = np.asarray(mask, dtype=float)
        Y = Y * mask
        rows = mask.sum(axis=0)
    else:
        rows = np.full(ncol, float(K))
    corr = np.abs(A.T @ Y).max(axis=0)
    corr[corr == 0] = 1.0
    if config.continuation:
        lam_lo = np.array([_lam_floor(r / M, config.lam) for r in rows])
        stages = min(_STAGES, config.max_iters)
    else:
        lam_lo = np.full(ncol, config.lam)
        stages = 1
    S = np.zeros((M, ncol))
    R = Y.copy()  # the residual of S = 0; Y is already masked
    # work buffers, so that the iteration allocates nothing of matrix size
    Z = np.empty((M, ncol))
    C = np.empty((M, ncol))
    AS = np.empty((K, ncol))
    per_stage = config.max_iters // stages
    for st in range(stages):
        frac = st / (stages - 1) if stages > 1 else 1.0
        lam = _LAM_HI * (lam_lo / _LAM_HI) ** frac if stages > 1 else lam_lo
        w = lam * corr
        th = w / L
        neg_th = -th
        prev_obj = None
        stopped = False
        for _ in range(per_stage):
            # gradient step Z = S + A^T R / L
            np.matmul(A.T, R, out=Z)
            Z /= L
            Z += S
            # soft threshold as z - clip(z, -th, th): equal to
            # sign(z) * max(|z| - th, 0) bit for bit except for the sign of zeros
            np.maximum(Z, neg_th, out=C)
            np.minimum(C, th, out=C)
            np.subtract(Z, C, out=S)
            np.matmul(A, S, out=AS)
            np.subtract(Y, AS, out=R)
            if mask is not None:
                R *= mask
            np.multiply(R, R, out=AS)
            np.abs(S, out=C)
            obj = 0.5 * np.sum(AS) + np.sum(w * C.sum(axis=0))
            if obj_trace is not None:
                obj_trace.append(float(obj))
            if prev_obj is not None and abs(prev_obj - obj) <= config.residual_tol * max(prev_obj, 1.0):
                stopped = True
                break
            prev_obj = obj
        if stop_trace is not None:
            stop_trace.append(stopped)
    if config.debias:
        for j in range(ncol):
            sup = np.flatnonzero(S[:, j])
            if sup.size == 0 or sup.size > 0.5 * rows[j]:
                continue
            if mask is None:
                Aj, yj = A[:, sup], Y[:, j]
            else:
                live = mask[:, j] > 0
                Aj, yj = A[np.ix_(np.flatnonzero(live), sup)], Y[live, j]
            sol, *_ = np.linalg.lstsq(Aj, yj, rcond=None)
            S[:, j] = 0.0
            S[sup, j] = sol
    return S


def ista_bpdn(A, y, config=None, obj_trace=None):
    """Single-vector iterative-shrinkage solve; see :func:`ista_bpdn_batch`.

    The composite objective is non-increasing within each continuation
    stage (step size 1/L with L from power iteration guarantees descent).
    The report counts the iterations that ran, and it is converged only
    when the stopping test of the last continuation stage fired.
    """
    config = config or SolverConfig()
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    trace = [] if obj_trace is None else obj_trace
    before = len(trace)
    stops = []
    S = ista_bpdn_batch(A, y[:, None], config=config, obj_trace=trace, stop_trace=stops)
    x = S[:, 0]
    resid = float(np.linalg.norm(y - A @ x))
    return RecoveryReport(estimate=x, residual_l2=resid, iterations=len(trace) - before,
                          converged=bool(stops) and stops[-1])


# ---------------------------------------------------------------------------
# exhaustive l0 oracle

_L0_GUARD = 10**6


def l0_bruteforce(A, y, k):
    """Globally optimal fit over all supports of size <= k.

    Every candidate support gets a least-squares fit; the smallest residual
    wins, preferring smaller supports on ties.  Guarded to about 1e6
    candidate supports.  The report's ``iterations`` is the number of
    supports searched.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    M = A.shape[1]
    if not 0 <= k <= M:
        raise ValueError("need 0 <= k <= cols(A)")
    total = sum(comb(M, j) for j in range(1, k + 1))
    if total > _L0_GUARD:
        raise GuardError(f"l0 search over {total} supports exceeds the {_L0_GUARD} guard")
    x = np.zeros(M)
    best_resid = float(np.linalg.norm(y))
    for size in range(1, k + 1):
        for T in combinations(range(M), size):
            sol, *_ = np.linalg.lstsq(A[:, T], y, rcond=None)
            resid = float(np.linalg.norm(y - A[:, T] @ sol))
            if resid < best_resid - 1e-12:
                best_resid = resid
                x[:] = 0.0
                x[list(T)] = sol
    return RecoveryReport(estimate=x, residual_l2=best_resid, iterations=total,
                          converged=True)


# ---------------------------------------------------------------------------
# the two-step decode of the bi-level cipher

def two_step_decode(A, basis_apply, y, config=None, solver="bp", budget=None):
    """Solve min ||s||_1 s.t. y = A s, then map the coefficients back with
    ``basis_apply`` (the synthesis side of the secret basis).

    Solvers: ``bp`` (default) runs greedy pursuit and subspace pursuit and
    keeps the equality-feasible candidate of least l1 norm; ``omp`` and
    ``ista`` run a single route.  Complex systems are supported everywhere
    except ``ista``.  Returns (signal estimate, step-1 recovery report).
    A square A is solved directly.
    """
    config = config or SolverConfig()
    A = np.asarray(A)
    y = np.asarray(y).ravel()
    K, M = A.shape
    if K == M:
        s = np.linalg.solve(A, y)
        resid = float(np.linalg.norm(y - A @ s))
        report = RecoveryReport(estimate=s, residual_l2=resid, iterations=0,
                                converged=True, notes="square system, direct solve")
    elif solver == "omp":
        report = omp_recover(A, y, budget if budget is not None else K, config)
    elif solver == "ista":
        report = ista_bpdn(A, y, config)
    elif solver == "bp":
        cands = [omp_recover(A, y, budget if budget is not None else K, config),
                 subspace_pursuit(A, y, max(1, K // 4), config)]
        ynorm = max(float(np.linalg.norm(y)), 1e-300)
        feasible = [c for c in cands if c.residual_l2 < 1e-6 * ynorm]
        if feasible:
            report = min(feasible, key=lambda c: float(np.abs(c.estimate).sum()))
        else:
            report = min(cands, key=lambda c: c.residual_l2)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    return basis_apply(report.estimate), report
