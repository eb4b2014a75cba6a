"""Reference implementations and dense or exhaustive oracles, used only by the tests.

None of these runs in the program.  ``fisher_yates_reference`` is the
sequential shuffle that ``RandStream.permutation`` must reproduce bit for
bit, and ``blp_decode`` is the paper's keyed decode of one signal, the
inverse of ``blp_encode``.  Each other one checks a claim the tests make
about the paper (the phase-encoding transfer matrix, the factorisation
ambiguity, the single-query break of a +-1 matrix, the failure of the
isometry property under column scaling, the sparsity tail of uniform
scrambling, the exhaustive l0 optimum the pursuits are measured against).
The file is not collected by pytest; the test modules import it by name.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from blpcs.cipher import _dft_matrix
from blpcs.errors import GuardError
from blpcs.solvers import two_step_decode


def fisher_yates_reference(stream, n):
    """Map of the sequential Fisher-Yates shuffle, one uniform per swap.

    For i = n-1 down to 1, swap slots i and ``int(u_t * (i + 1))`` with
    t = n-1-i.  ``RandStream.permutation`` computes the same map without
    running the swaps.
    """
    perm = list(range(n))
    if n > 1:
        u = stream.uniform(n - 1)
        t = 0
        for i in range(n - 1, 0, -1):
            j = int(u[t] * (i + 1))
            t += 1
            perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)


_DRPE_GUARD = 32


def drpe_transfer_matrix(masks, m):
    """Dense transfer matrix T = Fbar* Qbar Fbar Pbar of the phase-encoding step.

    Fbar is the Kronecker product of the 2-D Fourier factors; T is unitary.
    Guarded to m <= 32 since T is m^2 x m^2 dense complex.
    """
    if m != masks.m:
        raise ValueError("mask size does not match m")
    if m > _DRPE_GUARD:
        raise GuardError(f"dense transfer matrix limited to m <= {_DRPE_GUARD}")
    F = _dft_matrix(m)
    Fbar = np.kron(F.conj(), F)
    return (Fbar.conj().T @ (masks.q_diag[:, None] * Fbar)) * masks.p_diag[None, :]


def decomposition_ambiguity_check(E, F, trials, stream, tol=1e-10):
    """Verify that factor pairs (E P, P^T F) reproduce E F for random P.

    Also checks that column-permuting E leaves each row's entry multiset
    unchanged, so a factor with prescribed entry statistics stays a valid
    candidate; this is why the factorization search space grows with the
    permutation count.  Returns True when every sampled permutation passes.
    """
    E = np.asarray(E, dtype=float)
    F = np.asarray(F, dtype=float)
    if E.shape[1] != F.shape[0]:
        raise ValueError("E and F do not compose")
    EF = E @ F
    rows_sorted = np.sort(E, axis=1)
    for _ in range(trials):
        P = np.eye(E.shape[1])[stream.permutation(E.shape[1]).map]
        EP = E @ P
        if np.max(np.abs(EF - EP @ (P.T @ F))) > tol:
            return False
        if not np.array_equal(np.sort(EP, axis=1), rows_sorted):
            return False
    return True


_BERNOULLI_GUARD = 50


def bernoulli_single_query_attack(oracle_int, M):
    """Recover a +-1 matrix from one plaintext of powers of two.

    The reply's i-th entry is sum_j B_ij 2^j; adding 2^M - 1 and halving
    exposes the +1 positions as binary digits.  Exact integer arithmetic
    only, hence the M <= 50 guard (doubles cannot carry 2^M beyond that).
    """
    if M > _BERNOULLI_GUARD:
        raise GuardError(f"single-query attack limited to M <= {_BERNOULLI_GUARD}")
    x = [2**j for j in range(M)]
    y = oracle_int(x)
    full = 2**M - 1
    rows = []
    for yi in y:
        ones = (int(yi) + full) // 2
        rows.append([1.0 if (ones >> j) & 1 else -1.0 for j in range(M)])
    return np.array(rows)


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


def blp_decode(key, y):
    """Two-step decode: l1-solve against A_K, then apply Psi_K.  Returns
    the signal estimate."""
    y = np.asarray(y, dtype=float).ravel()
    if y.size != key.K:
        raise ValueError(f"ciphertext length {y.size} does not match key K={key.K}")
    _, inverse = key.basis()
    return inverse(two_step_decode(key.sensing_matrix(), y))


@dataclass
class ScrambleStats:
    ts: np.ndarray          # deviation grid, as a fraction of the column length
    empirical: np.ndarray   # observed tail frequency at each t
    reference: np.ndarray   # n * exp(-2 n t^2)
    col_mean: np.ndarray    # per-column mean sparsity count over the trials
    expected: float         # nnz / n, the uniform per-column expectation


def acceptable_permutation_stats(X, trials, stream, ts=None):
    """Tail statistics of the max column sparsity under uniform scrambling.

    For each trial the flattened nonzero pattern is permuted uniformly and
    the worst column count recorded.  Deviations are measured from the
    uniform expectation nnz/n and normalized by the column length n, which
    is the scale on which the Hoeffding reference curve n*exp(-2 n t^2)
    lives.
    """
    X = np.asarray(X)
    n = X.shape[0]
    if X.shape != (n, n):
        raise ValueError("X must be square")
    mask = (np.abs(X) > 0).flatten(order="F")
    nnz = int(mask.sum())
    expected = nnz / n
    if ts is None:
        ts = np.linspace(0.0, 0.5, 11)
    ts = np.asarray(ts, dtype=float)
    devs = np.empty(trials)
    col_sum = np.zeros(n)
    for t in range(trials):
        perm = stream.permutation(n * n)
        counts = mask[perm.map].reshape((n, n), order="F").sum(axis=0)
        col_sum += counts
        devs[t] = (counts.max() - expected) / n
    empirical = np.array([(devs >= t).mean() for t in ts])
    reference = n * np.exp(-2.0 * n * ts ** 2)
    return ScrambleStats(ts=ts, empirical=empirical, reference=reference,
                         col_mean=col_sum / trials, expected=expected)


_L0_GUARD = 10**6


def l0_bruteforce(A, y, k):
    """Globally optimal fit over all supports of size <= k.

    Every candidate support gets a least-squares fit; the smallest residual
    wins, preferring smaller supports on ties.  Guarded to about 1e6
    candidate supports.  Returns the estimate.
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
    return x
