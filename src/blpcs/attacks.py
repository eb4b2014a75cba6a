"""Cryptanalysis harness for linear sampling ciphers under matrix reuse.

Any cipher whose encode map is linear leaks its equivalent matrix to a
chosen-plaintext attacker in exactly M queries (one canonical basis vector
per column).  For the scrambling and phase-encoding baselines the recovered
matrix is as good as the key: a standard sparse decode then reads every
later ciphertext.  Against the bi-level cipher the same recovered matrix is
useless, because the required sample count for direct l1 decoding scales
with the coherence of the composed matrix.  The attack sweep of the command
line exercises both sides of that claim.

Guessing the key fails for a different reason: a generic K x M Gaussian
matrix fits any K measurements exactly with at most K nonzeros, so a decode
under a wrong key "succeeds" numerically while bearing no relation to the
plaintext, and the brute-force attacker gets no stopping rule.  Acceptance
criterion 5 checks that with :func:`blpcs.solvers.omp_recover`.  The
factorisation-ambiguity and single-query Bernoulli demonstrations live with
the tests that check those claims (``tests/oracles.py``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import LinearityError
from .solvers import two_step_decode

__all__ = [
    "AttackReport",
    "cpa_recover_matrix",
    "cpa_break_and_decode",
    "proximity_scatter",
]


@dataclass
class AttackReport:
    recovered_matrix: np.ndarray
    queries_used: int


# random queries that check the oracle's linearity after the M basis queries
_SPOT_CHECKS = 2


def cpa_recover_matrix(encode, M, stream):
    """Recover the equivalent matrix of a linear encoder column by column.

    ``encode`` is the black-box encoder the attacker may query with any
    length-M plaintext.  Queries the canonical basis vectors e_1 .. e_M
    (M queries); each reply is one matrix column.  Two extra random
    queries, drawn from ``stream``, verify the encoder really is linear; a
    mismatch raises :class:`LinearityError`.
    """
    e = np.zeros(M)
    cols = []
    for j in range(M):
        e[:] = 0.0
        e[j] = 1.0
        cols.append(encode(e))
    R = np.stack(cols, axis=1)
    for _ in range(_SPOT_CHECKS):
        x = stream.gaussian(M)
        ref = encode(x)
        err = np.linalg.norm(ref - R @ x)
        if err > 1e-9 * max(np.linalg.norm(ref), 1e-30):
            raise LinearityError(
                f"encoder is not linear: superposition mismatch {err:.3e}")
    return AttackReport(recovered_matrix=R, queries_used=M + _SPOT_CHECKS)


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
    s = two_step_decode(B, c)
    return s if public_basis is None else public_basis @ s


# random plaintext pairs of the proximity scatter
_SCATTER_PAIRS = 200


def proximity_scatter(encode, M, stream):
    """Plaintext versus ciphertext Euclidean distances under matrix reuse.

    ``encode`` maps length-M plaintexts to ciphertexts.  With a fixed
    linear encoder, nearby plaintexts produce nearby ciphertexts, so an
    observer with a few known pairs learns when a new ciphertext is close
    to a known plaintext.  Returns an array of
    (plaintext_distance, ciphertext_distance) rows over random pairs at
    assorted separations; the relation is qualitative, no threshold is
    attached.
    """
    rows = []
    for _ in range(_SCATTER_PAIRS):
        x1 = stream.gaussian(M)
        x2 = x1 + stream.gaussian(M) * stream.uniform()
        d_plain = float(np.linalg.norm(x1 - x2))
        d_cipher = float(np.linalg.norm(encode(x1) - encode(x2)))
        rows.append((d_plain, d_cipher))
    return np.array(rows)

