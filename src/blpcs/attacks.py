"""Cryptanalysis harness for linear sampling ciphers under matrix reuse.

Any cipher whose encode map is linear leaks its equivalent matrix to a
chosen-plaintext attacker in exactly M queries (one canonical basis vector
per column).  For the scrambling and phase-encoding baselines the recovered
matrix is as good as the key: a standard sparse decode then reads every
later ciphertext.  Against the bi-level cipher the same recovered matrix is
useless, because the required sample count for direct l1 decoding scales
with the coherence of the composed matrix; the demonstrations here exercise
both sides of that claim.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GuardError, LinearityError
from .keyrand import derive_stream
from .solvers import omp_recover, two_step_decode

__all__ = [
    "EncryptionOracle",
    "AttackReport",
    "cpa_recover_matrix",
    "cpa_break_and_decode",
    "wrong_key_recovery_demo",
    "decomposition_ambiguity_check",
    "proximity_scatter",
    "bernoulli_single_query_attack",
]


@dataclass
class EncryptionOracle:
    """Black-box encoder the attacker may query with arbitrary plaintexts."""

    encode: Callable[[np.ndarray], np.ndarray]
    M: int

    def __call__(self, x):
        return np.asarray(self.encode(np.asarray(x, dtype=float)))


@dataclass
class AttackReport:
    recovered_matrix: Optional[np.ndarray]
    queries_used: int
    break_success: Optional[bool] = None
    reconstruction_error: float = float("nan")
    estimate: Optional[np.ndarray] = None


def cpa_recover_matrix(oracle, spot_checks=2, stream=None):
    """Recover the equivalent matrix of a linear oracle column by column.

    Queries the canonical basis vectors e_1 .. e_M (M queries); each reply
    is one matrix column.  ``spot_checks`` extra random queries verify the
    oracle really is linear; a mismatch raises :class:`LinearityError`.
    """
    M = oracle.M
    e = np.zeros(M)
    cols = []
    for j in range(M):
        e[:] = 0.0
        e[j] = 1.0
        cols.append(oracle(e))
    R = np.stack(cols, axis=1)
    queries = M
    if spot_checks > 0:
        check_stream = stream if stream is not None else derive_stream(0, "cpa/spotcheck")
        for _ in range(spot_checks):
            x = check_stream.gaussian(M)
            ref = oracle(x)
            queries += 1
            err = np.linalg.norm(ref - R @ x)
            if err > 1e-9 * max(np.linalg.norm(ref), 1e-30):
                raise LinearityError(
                    f"oracle is not linear: superposition mismatch {err:.3e}")
    return AttackReport(recovered_matrix=R, queries_used=queries)


def cpa_break_and_decode(recovered, c, public_basis=None):
    """Decode a ciphertext with the attacker's recovered matrix.

    Solves the sparse fit against recovered @ public_basis (identity when no
    basis is given) and maps the coefficients back.  Succeeds whenever the
    recovered matrix composed with the public basis still behaves like a
    random near-isometry -- true for the scrambling and phase-encoding
    baselines, false for the bi-level cipher.
    """
    recovered = np.asarray(recovered)
    c = np.asarray(c).ravel()
    B = recovered if public_basis is None else recovered @ public_basis
    s, _ = two_step_decode(B, lambda v: v, c)
    return s if public_basis is None else public_basis @ s


def wrong_key_recovery_demo(A, A_wrong, y, x_true=None):
    """Fit y with a sensing matrix the encoder never used.

    A generic K x M Gaussian matrix fits any K measurements exactly with at
    most K nonzeros, so the decode "succeeds" numerically while bearing no
    relation to the plaintext; that consistency is what denies the
    brute-force attacker a stopping rule.
    """
    A_wrong = np.asarray(A_wrong, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    K = A_wrong.shape[0]
    report = omp_recover(A_wrong, y, K)
    x_prime = report.estimate
    rel = float("nan")
    success = None
    if x_true is not None:
        x_true = np.asarray(x_true, dtype=float).ravel()
        denom = np.linalg.norm(x_true)
        rel = float(np.linalg.norm(x_prime - x_true) / denom) if denom > 0 else 0.0
        success = bool(report.residual_l2 < 1e-6 and rel > 0.5)
    return AttackReport(recovered_matrix=None, queries_used=0,
                        break_success=success, reconstruction_error=rel,
                        estimate=x_prime)


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
        P = stream.permutation(E.shape[1]).to_matrix()
        EP = E @ P
        if np.max(np.abs(EF - EP @ (P.T @ F))) > tol:
            return False
        if not np.array_equal(np.sort(EP, axis=1), rows_sorted):
            return False
    return True


def proximity_scatter(oracle, stream, pairs=200, scale=1.0):
    """Plaintext versus ciphertext Euclidean distances under matrix reuse.

    With a fixed linear encoder, nearby plaintexts produce nearby
    ciphertexts, so an observer with a few known pairs learns when a new
    ciphertext is close to a known plaintext.  Returns an array of
    (plaintext_distance, ciphertext_distance) rows over random pairs at
    assorted separations; the relation is qualitative, no threshold is
    attached.
    """
    rows = []
    M = oracle.M
    for _ in range(pairs):
        x1 = stream.gaussian(M) * scale
        x2 = x1 + stream.gaussian(M) * scale * stream.uniform()
        d_plain = float(np.linalg.norm(x1 - x2))
        d_cipher = float(np.linalg.norm(oracle(x1) - oracle(x2)))
        rows.append((d_plain, d_cipher))
    return np.array(rows)


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
