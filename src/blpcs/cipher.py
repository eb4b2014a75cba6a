"""The bi-level protected cipher and the baseline product ciphers it replaces.

A :class:`BlpKey` deterministically derives every secret object from its
seed: the Gaussian sensing matrix (stream label ``A``), the coefficient
permutation (``perm``), the column scaling (``scale``) and the column mixes
(``mix``).  Encoding is the composition measurement-matrix = sensing-matrix
x secret-basis-inverse, applied operator-style; the composed matrix is
energy-distorting (non-RIP) even though the sensing matrix alone is a
well-behaved Gaussian.  A receiver decodes with the same two objects: an
l1 solve against the sensing matrix, then the secret basis
(:func:`blpcs.imaging.columnwise_decode` for images).

The module also implements the two scrambling product ciphers (measurement
domain and frequency domain) and the double-random-phase-encoding
concatenation.  These are insecure against chosen-plaintext attacks under
matrix reuse -- they exist as attack targets for the attacks module.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .bases import SecretBasisSpec, build_secret_basis, corner_region_1d, corner_region_2d
from .errors import FormatError, GuardError
from .keyrand import derive_stream

__all__ = [
    "BlpKey",
    "DrpeMasks",
    "keygen",
    "blp_encode",
    "scramble_measurements_encode",
    "scramble_frequency_encode",
    "drpe_masks",
    "drpe_cs_encode",
    "write_key_file",
    "read_key_file",
    "save_measurements",
    "load_measurements",
]

_MEAS_MAGIC = b"BLPY"
# the fields of a key file, in file order, each with the type it parses to
_KEY_FIELDS = {"seed": int, "M": int, "sr": float, "alpha": float, "beta": float,
               "dmax": int, "mix_region": float, "mix_count": int}
# the largest M: 8 times the paper's 512-pixel side, where one M x M float64
# frame takes 128 MiB
_MAX_M = 4096
# the largest column scale: integer draws stay exact, and for M <= 4096 and
# 8-bit pixels |Y| <= sqrt(M) 255 M dmax (about 5e12) keeps the squares of
# the float32 decode far below float32's maximum
_MAX_DMAX = 2**16


@dataclass
class BlpKey:
    """Key parameters from which all secret matrices are derived.

    M is the signal length for 1-D use and the image side for the
    column-wise 2-D pipeline; both derive their objects from the same seed
    through labeled streams.
    """

    seed: int
    M: int
    sr: float
    alpha: float
    beta: float = 1.0
    dmax: int = 60
    mix_count: int = 0
    mix_region: float = 0.25
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def K(self):
        """Measurement count round(sr * M), ties to nearest even."""
        return max(1, int(round(self.sr * self.M)))

    def sensing_matrix(self):
        """The K x M Gaussian sensing matrix (shared by every image column)."""
        if "A" not in self._cache:
            stream = derive_stream(self.seed, "A")
            self._cache["A"] = stream.gaussian((self.K, self.M))
        return self._cache["A"]

    def _corner_side(self):
        half = self.M // 2
        return min(half, max(1, round(self.mix_region * half)))

    def basis_spec(self, two_d=False, scramble=True):
        """Derive the secret-basis recipe (permutation, scaling, mixes).

        ``two_d`` gives the image basis (order beta along the second axis)
        in place of the length-M one.  Both ends of every mix are drawn
        from the permuted corner region, so no mix joins a significant
        coefficient to an insignificant one.  With ``scramble=False`` the
        permutation is left out, which is the baseline model the scrambled
        pipeline is compared against; the other draws are unaffected because
        each comes from its own labeled stream.
        """
        ck = ("spec", two_d, scramble)
        if ck in self._cache:
            return self._cache[ck]
        size = self.M * self.M if two_d else self.M
        perm = derive_stream(self.seed, "perm").permutation(size) if scramble else None
        scale = derive_stream(self.seed, "scale").integers(1, self.dmax + 1, size).astype(float)
        side = self._corner_side()
        plain_region = (corner_region_2d(self.M, side) if two_d
                        else corner_region_1d(size, side))
        region = perm.map[plain_region] if perm is not None else plain_region
        mixes = []
        if self.mix_count > 0:
            if 2 * self.mix_count > region.size:
                raise ValueError("mix_count too large for the significant region")
            ms = derive_stream(self.seed, "mix")
            chosen = region[ms.subset(region.size, 2 * self.mix_count)]
            for t in range(self.mix_count):
                j, k = int(chosen[2 * t]), int(chosen[2 * t + 1])
                u = ms.uniform(4)
                a = (0.5 + 1.5 * u[0]) * (1.0 if u[1] < 0.5 else -1.0)
                b = (0.5 + 1.5 * u[2]) * (1.0 if u[3] < 0.5 else -1.0)
                mixes.append((j, k, a, b))
        spec = SecretBasisSpec(n=self.M, alpha=self.alpha, beta=self.beta if two_d else None,
                               perm=perm, scale=scale, mixes=mixes)
        self._cache[ck] = spec
        return spec

    def basis(self, two_d=False, scramble=True):
        """(forward, inverse) applies of the secret basis Psi_K."""
        ck = ("basis", two_d, scramble)
        if ck not in self._cache:
            self._cache[ck] = build_secret_basis(self.basis_spec(two_d, scramble))
        return self._cache[ck]


def keygen(seed, M, sr, alpha, beta=1.0, dmax=60, mix_count=0, mix_region=0.25):
    """Validate parameters and build a :class:`BlpKey`.

    M above 4096 raises :class:`GuardError`, before any caller sizes an
    M x M frame from the key; so does dmax above 2**16, before a scale
    draw or a float32 decode can overflow.
    """
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if M < 2 or M % 2 != 0:
        raise ValueError("signal length M must be even and >= 2")
    if M > _MAX_M:
        raise GuardError(f"M={M} exceeds the {_MAX_M} bound on the signal length "
                         f"and image side")
    if not 0.0 < sr <= 1.0:
        raise ValueError("sampling rate must be in (0, 1]")
    alpha, beta = float(alpha), float(beta)
    if not (np.isfinite(alpha) and np.isfinite(beta)):
        raise ValueError("fractional orders alpha and beta must be finite")
    if dmax < 1:
        raise ValueError("dmax must be a positive integer")
    if dmax > _MAX_DMAX:
        raise GuardError(f"dmax={dmax} exceeds the {_MAX_DMAX} bound on the column scale")
    if mix_count < 0:
        raise ValueError("mix_count must be >= 0")
    if not 0.0 < mix_region <= 1.0:
        raise ValueError("mix_region must be in (0, 1]")
    key = BlpKey(seed=seed, M=int(M), sr=float(sr), alpha=alpha, beta=beta,
                 dmax=int(dmax), mix_count=int(mix_count), mix_region=float(mix_region))
    # fail fast if even the image pipeline's (2 side)^2 corner region cannot
    # host the mixes; a 1-D use checks its 2 side entries in basis_spec
    if 2 * key.mix_count > (2 * key._corner_side()) ** 2:
        raise ValueError("mix_count too large for the significant region")
    return key


def blp_encode(key, x):
    """y = A_K Psi_K^{-1} x, applied as two operator applications."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != key.M:
        raise ValueError(f"plaintext length {x.size} does not match key M={key.M}")
    forward, _ = key.basis()
    return key.sensing_matrix() @ forward(x)


# ---------------------------------------------------------------------------
# baseline product ciphers (attack targets)

def scramble_measurements_encode(Phi, P_K, x):
    """Class I baseline: scramble the measurement vector, y' = P_K Phi x."""
    y = np.asarray(Phi) @ np.asarray(x, dtype=float).ravel()
    if P_K.n != y.size:
        raise ValueError("permutation size does not match the measurement count")
    return P_K.apply(y)

def scramble_frequency_encode(Phi, P_M, C, x):
    """Class II baseline: scramble the sparse coefficients, y' = Phi P_M C^T x.

    The columns of the orthogonal C are the sparsifying basis, x = C s.
    """
    s = np.asarray(C).T @ np.asarray(x, dtype=float).ravel()
    if P_M.n != s.size:
        raise ValueError("permutation size does not match the coefficient count")
    Phi = np.asarray(Phi)
    if Phi.shape[1] != s.size:
        raise ValueError("measurement matrix width does not match the coefficients")
    return Phi @ P_M.apply(s)


# ---------------------------------------------------------------------------
# double random phase encoding


@dataclass
class DrpeMasks:
    """Diagonal unit-modulus masks, stored as column-stacked m^2 vectors."""

    p_diag: np.ndarray
    q_diag: np.ndarray

    def __post_init__(self):
        for name, diag in (("p", self.p_diag), ("q", self.q_diag)):
            if np.max(np.abs(np.abs(diag) - 1.0)) > 1e-12:
                raise ValueError(f"{name} mask entries must have unit modulus")

    @property
    def m(self):
        return int(round(np.sqrt(self.p_diag.size)))


def drpe_masks(stream, m):
    """Random masks exp(2 pi i p), exp(2 pi i q) with p, q uniform in [0, 1)."""
    p = stream.uniform(m * m)
    q = stream.uniform(m * m)
    return DrpeMasks(np.exp(2j * np.pi * p), np.exp(2j * np.pi * q))


def _dft_matrix(m):
    j = np.arange(m)
    return np.exp(-2j * np.pi * np.outer(j, j) / m) / np.sqrt(m)


def drpe_cs_encode(Phi, masks, x):
    """Sample then phase-encode: the measurements pass through mask,
    2-D Fourier transform, mask, inverse transform (evaluated step by step,
    without forming the transfer matrix)."""
    Phi = np.asarray(Phi)
    v = Phi @ np.asarray(x, dtype=float).ravel()
    m = masks.m
    if v.size != m * m:
        raise ValueError("measurement count must equal the mask size m^2")
    F = _dft_matrix(m)
    Y = v.reshape((m, m), order="F").astype(complex)
    Y *= masks.p_diag.reshape((m, m), order="F")
    Z = F @ Y @ F.conj()
    Z *= masks.q_diag.reshape((m, m), order="F")
    C = F.conj() @ Z @ F
    return C.flatten(order="F")


# ---------------------------------------------------------------------------
# key and measurement files

def write_key_file(key, path):
    """Serialize the key parameters as text lines with LF endings."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(f"{name}={kind(getattr(key, name))!r}\n"
                      for name, kind in _KEY_FIELDS.items())


def read_key_file(path):
    """Parse a key file written by :func:`write_key_file`."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: key file is not UTF-8 text") from exc
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected name=value")
        name, _, val = line.partition("=")
        if name not in _KEY_FIELDS:
            raise FormatError(f"{path}:{lineno}: unknown key field {name!r}")
        if name in values:
            raise FormatError(f"{path}:{lineno}: duplicated key field {name!r}")
        values[name] = val
    missing = [f for f in _KEY_FIELDS if f not in values]
    if missing:
        raise FormatError(f"{path}: missing key fields: {', '.join(missing)}")
    try:
        return keygen(**{name: kind(values[name]) for name, kind in _KEY_FIELDS.items()})
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


_ENTRY_DTYPE = np.dtype([("idx", "<u4"), ("val", "<f8")])


def save_measurements(path, Y, K):
    """Write K x n measurements, NaN where one was not received, as BLPY.

    The file is the magic ``BLPY``, the packet count n and K as little-endian
    u4, then one packet per column: a u4 entry count and that many
    (u4 row, f8 value) entries, the column's received rows in ascending order.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] != K:
        raise ValueError(f"measurements of shape {Y.shape} do not have K={K} rows")
    if np.isinf(Y).any():
        raise ValueError("measurements must be finite or NaN (not received)")
    received = ~np.isnan(Y.T)  # packet by packet, rows ascending
    counts = received.sum(axis=1)
    entries = np.empty(int(counts.sum()), dtype=_ENTRY_DTYPE)
    entries["idx"] = np.nonzero(received)[1]
    entries["val"] = Y.T[received]
    with open(path, "wb") as fh:
        fh.write(_MEAS_MAGIC)
        fh.write(np.array([Y.shape[1], K], dtype="<u4").tobytes())
        for count, end in zip(counts, np.cumsum(counts)):
            fh.write(np.array([count], dtype="<u4").tobytes())
            fh.write(entries[end - count:end].tobytes())


def load_measurements(path, K, n):
    """Read a BLPY file of K x n measurements; NaN marks a row not received."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MEAS_MAGIC:
            raise FormatError(f"{path}: not a BLPY measurement file")
        head = fh.read(8)
        if len(head) != 8:
            raise FormatError(f"{path}: truncated BLPY header")
        count, K_file = (int(v) for v in np.frombuffer(head, dtype="<u4"))
        if K_file != K:
            raise FormatError(f"{path}: measurement count {K_file} does not match K={K}")
        if count != n:
            raise FormatError(f"{path}: {count} packets do not match {n} columns")
        # a header alone must not size the array: the file has to hold at
        # least the n packet headers before K x n values are allocated
        if os.fstat(fh.fileno()).st_size < 12 + 4 * n:
            raise FormatError(f"{path}: truncated packet header")
        Y = np.full((K, n), np.nan)
        for j in range(n):
            raw = fh.read(4)
            if len(raw) != 4:
                raise FormatError(f"{path}: truncated packet header")
            (cnt,) = np.frombuffer(raw, dtype="<u4")
            if cnt > K:
                raise FormatError(f"{path}: packet holds {cnt} entries, more than K={K}")
            blob = fh.read(int(cnt) * _ENTRY_DTYPE.itemsize)
            if len(blob) != int(cnt) * _ENTRY_DTYPE.itemsize:
                raise FormatError(f"{path}: truncated packet payload")
            entries = np.frombuffer(blob, dtype=_ENTRY_DTYPE)
            if cnt and entries["idx"].max() >= K:
                raise FormatError(f"{path}: row index out of range")
            if np.unique(entries["idx"]).size != entries.size:
                raise FormatError(f"{path}: row index repeated within a packet")
            if not np.isfinite(entries["val"]).all():
                raise FormatError(f"{path}: non-finite measurement value")
            Y[entries["idx"], j] = entries["val"]
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after the last packet")
    return Y
