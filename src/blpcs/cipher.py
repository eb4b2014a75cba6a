"""The bi-level protected cipher and the baseline product ciphers it replaces.

A :class:`BlpKey` deterministically derives every secret object from its
seed: the Gaussian sensing matrix (stream label ``A``), the coefficient
permutation (``perm``), the column scaling (``scale``) and the column mixes
(``mix``).  Encoding is the composition measurement-matrix = sensing-matrix
x secret-basis-inverse, applied operator-style; the composed matrix is
energy-distorting (non-RIP) even though the sensing matrix alone is a
well-behaved Gaussian.

The module also implements the two scrambling product ciphers (measurement
domain and frequency domain) and the double-random-phase-encoding
concatenation.  These are insecure against chosen-plaintext attacks under
matrix reuse -- they exist as attack targets for the attacks module.
"""

from dataclasses import dataclass, field

import numpy as np

from .bases import SecretBasisSpec, build_secret_basis, corner_region_1d, corner_region_2d
from .errors import FormatError, GuardError
from .keyrand import derive_stream
from .solvers import two_step_decode

__all__ = [
    "BlpKey",
    "MeasurementPacket",
    "DrpeMasks",
    "keygen",
    "blp_encode",
    "blp_decode",
    "scramble_measurements_encode",
    "scramble_frequency_encode",
    "drpe_masks",
    "drpe_transfer_matrix",
    "drpe_cs_encode",
    "write_key_file",
    "read_key_file",
    "save_measurements",
    "load_measurements",
]

_MEAS_MAGIC = b"BLPY"
_KEY_FIELDS = ("seed", "M", "sr", "alpha", "beta", "dmax", "mix_region", "mix_count")


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

        With ``scramble=False`` the permutation is left out, which is the
        baseline model the scrambled pipeline is compared against; the other
        draws are unaffected because each comes from its own labeled stream.
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
                               perm=perm, scale=scale, mixes=mixes,
                               region=region, two_d=two_d)
        self._cache[ck] = spec
        return spec

    def basis(self, two_d=False, scramble=True):
        """(forward, inverse) applies of the secret basis Psi_K."""
        ck = ("basis", two_d, scramble)
        if ck not in self._cache:
            self._cache[ck] = build_secret_basis(self.basis_spec(two_d, scramble))
        return self._cache[ck]


def keygen(seed, M, sr, alpha, beta=1.0, dmax=60, mix_count=0, mix_region=0.25):
    """Validate parameters and build a :class:`BlpKey`."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if M < 2 or M % 2 != 0:
        raise ValueError("signal length M must be even and >= 2")
    if not 0.0 < sr <= 1.0:
        raise ValueError("sampling rate must be in (0, 1]")
    alpha, beta = float(alpha), float(beta)
    if not (np.isfinite(alpha) and np.isfinite(beta)):
        raise ValueError("fractional orders alpha and beta must be finite")
    if dmax < 1:
        raise ValueError("dmax must be a positive integer")
    if mix_count < 0:
        raise ValueError("mix_count must be >= 0")
    if not 0.0 < mix_region <= 1.0:
        raise ValueError("mix_region must be in (0, 1]")
    key = BlpKey(seed=seed, M=int(M), sr=float(sr), alpha=alpha, beta=beta,
                 dmax=int(dmax), mix_count=int(mix_count), mix_region=float(mix_region))
    if key.mix_count > 0:
        key.basis_spec()  # fail fast if the region cannot host the mixes
    return key


def blp_encode(key, x):
    """y = A_K Psi_K^{-1} x, applied as two operator applications."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != key.M:
        raise ValueError(f"plaintext length {x.size} does not match key M={key.M}")
    forward, _ = key.basis()
    return key.sensing_matrix() @ forward(x)

def blp_decode(key, y, config=None, solver="bp"):
    """Two-step decode: l1-solve against A_K, then apply Psi_K.

    Returns (estimate, step-1 recovery report).
    """
    y = np.asarray(y, dtype=float).ravel()
    if y.size != key.K:
        raise ValueError(f"ciphertext length {y.size} does not match key K={key.K}")
    _, inverse = key.basis()
    return two_step_decode(key.sensing_matrix(), inverse, y, config=config, solver=solver)


# ---------------------------------------------------------------------------
# baseline product ciphers (attack targets)

def scramble_measurements_encode(Phi, P_K, x):
    """Class I baseline: scramble the measurement vector, y' = P_K Phi x."""
    y = np.asarray(Phi) @ np.asarray(x, dtype=float).ravel()
    if P_K.n != y.size:
        raise ValueError("permutation size does not match the measurement count")
    return P_K.apply(y)

def scramble_frequency_encode(Phi, P_M, basis_to_coeffs, x):
    """Class II baseline: scramble the sparse coefficients, y' = Phi P_M Psi^{-1} x."""
    s = basis_to_coeffs(np.asarray(x, dtype=float).ravel())
    if P_M.n != s.size:
        raise ValueError("permutation size does not match the coefficient count")
    Phi = np.asarray(Phi)
    if Phi.shape[1] != s.size:
        raise ValueError("measurement matrix width does not match the coefficients")
    return Phi @ P_M.apply(s)


# ---------------------------------------------------------------------------
# double random phase encoding

_DRPE_GUARD = 32


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
    lines = [
        f"seed={key.seed}",
        f"M={key.M}",
        f"sr={key.sr!r}",
        f"alpha={key.alpha!r}",
        f"beta={key.beta!r}",
        f"dmax={key.dmax}",
        f"mix_region={key.mix_region!r}",
        f"mix_count={key.mix_count}",
    ]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_key_file(path):
    """Parse a key file written by :func:`write_key_file`."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
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
        return keygen(seed=int(values["seed"]), M=int(values["M"]),
                      sr=float(values["sr"]), alpha=float(values["alpha"]),
                      beta=float(values["beta"]), dmax=int(values["dmax"]),
                      mix_count=int(values["mix_count"]),
                      mix_region=float(values["mix_region"]))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


@dataclass
class MeasurementPacket:
    """Measurements of one encoded block with their surviving row indices."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        if self.indices.shape != self.values.shape:
            raise ValueError("indices and values must align")


_ENTRY_DTYPE = np.dtype([("idx", "<u4"), ("val", "<f8")])


def save_measurements(path, packets, K):
    """Write measurement packets in the BLPY binary format."""
    with open(path, "wb") as fh:
        fh.write(_MEAS_MAGIC)
        fh.write(np.array([len(packets), K], dtype="<u4").tobytes())
        for pkt in packets:
            entries = np.empty(pkt.indices.size, dtype=_ENTRY_DTYPE)
            entries["idx"] = pkt.indices
            entries["val"] = pkt.values
            fh.write(np.array([pkt.indices.size], dtype="<u4").tobytes())
            fh.write(entries.tobytes())


def load_measurements(path):
    """Read a BLPY file; returns (packets, K)."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MEAS_MAGIC:
            raise FormatError(f"{path}: not a BLPY measurement file")
        head = fh.read(8)
        if len(head) != 8:
            raise FormatError(f"{path}: truncated BLPY header")
        count, K = np.frombuffer(head, dtype="<u4")
        packets = []
        for _ in range(int(count)):
            raw = fh.read(4)
            if len(raw) != 4:
                raise FormatError(f"{path}: truncated packet header")
            (cnt,) = np.frombuffer(raw, dtype="<u4")
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
            packets.append(MeasurementPacket(indices=entries["idx"].astype(np.int64),
                                             values=entries["val"].astype(float)))
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after the last packet")
    return packets, int(K)
