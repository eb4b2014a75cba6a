"""Deterministic, labeled random streams.

Every key-dependent object in the package (matrices, permutations, scalings,
phase masks) is drawn from a :class:`RandStream`, which is a pure function of
a 64-bit seed and a short text label.  The underlying generator is Philox
(counter based), keyed by ``[seed, sha256(label)[:8]]``, so streams with
distinct labels never overlap and results do not depend on the degree of
parallelism used by the caller.

Draw conventions (fixed, so derived objects are reproducible):

* uniforms come straight from the bit generator's double conversion;
* gaussians use Box-Muller on consecutive uniform pairs, one gaussian per
  pair: ``z = sqrt(-2 ln(1-u1)) * cos(2 pi u2)``;
* permutations use a Fisher-Yates shuffle driven by one uniform per step;
* integer draws use ``low + floor(u * (high - low))``.
"""

import hashlib

import numpy as np

__all__ = [
    "RandStream",
    "Permutation",
    "derive_stream",
]

_U64 = 2**64


class Permutation:
    """A permutation of {0..n-1} stored as an index map.

    As a matrix, row i has its single 1 in column ``map[i]``; applying the
    permutation gives ``(P x)[i] = x[map[i]]``.
    """

    def __init__(self, index_map):
        m = np.asarray(index_map, dtype=np.int64)
        if m.ndim != 1:
            raise ValueError("permutation map must be one-dimensional")
        self.map = m

    @property
    def n(self):
        return self.map.shape[0]

    def apply(self, x):
        """Return P x (gather)."""
        x = np.asarray(x)
        return x[self.map]

    def apply_transpose(self, x):
        """Return P^T x (scatter)."""
        x = np.asarray(x)
        out = np.empty_like(x)
        out[self.map] = x
        return out

    def __repr__(self):
        return f"Permutation({self.map.tolist()})"


class RandStream:
    """Single-consumer sequential stream of random draws.

    Not safe for concurrent use; derive one stream per task with distinct
    labels instead of sharing.
    """

    def __init__(self, bit_generator, label):
        self._gen = np.random.Generator(bit_generator)
        self.label = label

    def uniform(self, size=None):
        """Draw uniforms in [0, 1); scalar when size is None."""
        return self._gen.random() if size is None else self._gen.random(size)

    def gaussian(self, size=None):
        """Standard normal draws via Box-Muller on consecutive uniform pairs."""
        m = 1 if size is None else int(np.prod(size))
        u = self._gen.random(2 * m).reshape(m, 2)
        z = np.sqrt(-2.0 * np.log1p(-u[:, 0])) * np.cos(2.0 * np.pi * u[:, 1])
        if size is None:
            return float(z[0])
        return z.reshape(size)

    def integers(self, low, high, size=None):
        """Uniform integers in [low, high) via floor scaling of uniforms."""
        span = int(high) - int(low)
        if span <= 0:
            raise ValueError("empty integer range")
        u = self.uniform(size)
        return (low + np.floor(u * span)).astype(np.int64)

    def permutation(self, n):
        """Uniform permutation of {0..n-1} by an unbiased Fisher-Yates shuffle."""
        if n < 1:
            raise ValueError("permutation size must be >= 1")
        perm = list(range(n))
        if n > 1:
            u = self._gen.random(n - 1)
            t = 0
            for i in range(n - 1, 0, -1):
                j = int(u[t] * (i + 1))
                t += 1
                perm[i], perm[j] = perm[j], perm[i]
        return Permutation(np.array(perm, dtype=np.int64))

    def subset(self, n, k):
        """Uniform k-subset of {0..n-1} by a partial Fisher-Yates pass."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        pool = np.arange(n, dtype=np.int64)
        if k == 0:
            return pool[:0]
        u = self._gen.random(k)
        for i in range(k):
            j = i + int(u[i] * (n - i))
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def derive_stream(seed, label):
    """Derive the labeled stream for a 64-bit seed.

    The label hash fills the second Philox key word, the seed the first, so
    (seed, label) -> stream is a pure function and distinct labels give
    statistically independent streams.
    """
    seed = int(seed)
    if not 0 <= seed < _U64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if not label or not label.isascii():
        raise ValueError("label must be non-empty ASCII")
    word = int.from_bytes(hashlib.sha256(label.encode("ascii")).digest()[:8], "little")
    key = np.array([seed, word], dtype=np.uint64)
    return RandStream(np.random.Philox(key=key), label)

