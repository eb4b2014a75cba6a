"""Reference implementations and dense or exhaustive oracles, used only by the tests.

None of these runs in the program.  ``fisher_yates_reference`` is the
sequential shuffle that ``RandStream.permutation`` must reproduce bit for
bit; each other one checks a claim the tests make about the paper (the
phase-encoding transfer matrix, the factorisation ambiguity, the single-query
break of a +-1 matrix, the failure of the isometry property under column
scaling).  The file is not collected by pytest; the test modules import it by
name.
"""

import numpy as np

from blpcs.cipher import _dft_matrix
from blpcs.errors import GuardError


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
