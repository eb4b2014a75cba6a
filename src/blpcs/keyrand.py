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
* permutations are the map of a Fisher-Yates shuffle driven by one uniform
  per step: for i = n-1 down to 1, swap slots i and ``j = floor(u_t (i+1))``
  with t = n-1-i.  The map equals that sequential shuffle's bit for bit,
  though it is computed with whole-array sorting and pointer jumping rather
  than by running the swaps (see :meth:`RandStream.permutation`);
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
        """Uniform permutation of {0..n-1}: the map of a Fisher-Yates shuffle.

        The shuffle swaps slots i and ``j_i = floor(u_t (i+1))`` for i = n-1
        down to 1, one uniform u_t (t = n-1-i) per step.  Slot i is final
        after step i, so ``map[i]`` is the value in slot ``p = j_i`` just
        before step i.  Undoing the earlier steps i' = i+1, i+2, ... in turn
        moves that value from slot p back to slot i' whenever ``j_i' == p``.
        This chain of slots ends at ``map[i]``, the slot the value started in.

        All n chains are resolved at once.  Sorting the 3n keys (slot, id),
        with ids ``2i`` for step i (slot j_i), ``2m+1`` for "resume in slot m
        after step m" and ``2n+2m+1`` for "end of slot m", lines up each
        slot m as [step m if j_m = m] [resume m] [steps i > m with j_i = m,
        ascending] [end m].  So the key after step i, or after resume m, is
        the chain's next move: a step i' means resume in slot i', the end of
        slot m means the chain ends at m.  Pointer jumping then needs
        O(log chain length) whole-array rounds.
        """
        if not 1 <= n < 1 << 29:
            raise ValueError("permutation size must be in [1, 2**29)")
        b = (4 * n).bit_length()  # the low b bits of a key hold its id (< 4n)
        ar = np.arange(n + 1)
        keys = np.zeros(3 * n, dtype=np.int64)
        step, resume = keys[:n], keys[n:2 * n]
        # j_i for i = n-1..1; the float-to-int cast truncates like int()
        np.multiply(self._gen.random(n - 1), ar[n:1:-1], out=step[:0:-1], casting="unsafe")
        step <<= b
        step += ar[:n] << 1
        np.multiply(ar[:n], (1 << b) + 2, out=resume)
        resume += 1
        np.add(resume, 2 * n, out=keys[2 * n:])
        del ar, step, resume  # free each array once done: bounds the peak memory
        keys.sort()
        keys &= (1 << b) - 1
        succ = np.empty(4 * n, dtype=np.int32)  # by id: the next key's id (< 4n)
        succ[keys[:-1]] = keys[1:]
        del keys
        # nodes are ids >> 1: node m < n resumes slot m, node n + m ends
        # slot m and is a root of the pointer jumping
        target = succ[:2 * n:2] >> 1
        jump = np.arange(2 * n)
        np.right_shift(succ[1:2 * n:2], 1, out=jump[:n])
        del succ
        while jump.min() < n:
            jump = jump[jump]
        perm = jump[target]
        perm -= n
        return Permutation(perm)

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

