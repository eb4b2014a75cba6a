"""Column-parallel image sampling under the bi-level cipher.

An n x n image is mapped to transform coefficients, globally scrambled and
scaled (the secret basis), and each coefficient column is sampled by the
shared Gaussian sensing matrix -- so the whole-image sensing matrix is block
diagonal and reconstruction runs column by column.  The scrambling evens
out the per-column sparsity, which is what lets every column survive with
the same row budget; the unscrambled variant of the same pipeline is kept
as the comparison baseline.

Also here: PGM-P5 image I/O, the noise and packet-loss channel models, peak
signal-to-noise metrics, and a deterministic natural-image stand-in used by
the experiment suite.
"""

from dataclasses import dataclass

import numpy as np

from .cipher import MeasurementPacket
from .errors import FormatError, GuardError
from .keyrand import derive_stream
from .solvers import SolverConfig, ista_bpdn_batch

__all__ = [
    "ChannelModel",
    "ScrambleStats",
    "load_pgm",
    "save_pgm",
    "make_test_image",
    "column_sparsity",
    "acceptable_permutation_stats",
    "columnwise_encode",
    "columnwise_decode",
    "psnr",
    "apsnr_db",
    "apply_channel",
]


# ---------------------------------------------------------------------------
# PGM (binary P5, maxval 255) image files

def load_pgm(path):
    """Read a binary P5 image; must be square with even side and maxval 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise FormatError(f"{path}: not a binary P5 PGM file")
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # '#' comments allowed, then a single whitespace before the raster
    tokens = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(data):
            raise FormatError(f"{path}: truncated PGM header")
        ch = data[pos:pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos:pos + 1].isspace():
                pos += 1
            tokens.append(data[start:pos])
    pos += 1  # the single whitespace after maxval
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric PGM header field") from exc
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    if width != height or width % 2 != 0:
        raise FormatError(f"{path}: image must be square with even side, got {width}x{height}")
    raster = data[pos:pos + width * height]
    if len(raster) != width * height:
        raise FormatError(f"{path}: truncated PGM raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).astype(float)


def save_pgm(image, path):
    """Write an image as binary P5, clamping and rounding to 8-bit.

    A non-finite pixel raises :class:`GuardError` before the file is opened.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2 or image.shape[0] != image.shape[1] or image.shape[0] % 2 != 0:
        raise ValueError("image must be square with even side")
    if not np.isfinite(image).all():
        raise GuardError("image has non-finite pixels")
    n = image.shape[0]
    pixels = np.clip(np.round(image), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n} {n}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes(order="C"))


def make_test_image(n=512, seed=2026):
    """Deterministic natural-image stand-in (license-free).

    Smooth illumination plus a power-law texture field, a band-limited
    texture patch and a few hard-edged objects; statistics chosen to give
    natural-image-like transform-coefficient decay.
    """
    if n < 8 or n % 2 != 0:
        raise ValueError("side must be even and >= 8")
    stream = derive_stream(seed, "standin-image")
    fx = np.fft.fftfreq(n)[:, None]
    fy = np.fft.fftfreq(n)[None, :]
    f = np.sqrt(fx * fx + fy * fy)
    f[0, 0] = 1.0 / n
    tex = np.fft.ifft2((f ** -1.4) * np.exp(2j * np.pi * stream.uniform((n, n)))).real
    tex = (tex - tex.mean()) / tex.std()
    band = np.fft.ifft2(np.exp(-(((f - 0.12) / 0.05) ** 2))
                        * np.exp(2j * np.pi * stream.uniform((n, n)))).real
    band = (band - band.mean()) / band.std()
    yy, xx = np.mgrid[0:n, 0:n] / n
    img = 95 + 65 * np.exp(-((xx - 0.35) ** 2 + (yy - 0.3) ** 2) / 0.08) + 45 * (xx + 0.2 * yy)
    img += 26.0 * tex
    img += 30.0 * band * np.exp(-((xx - 0.72) ** 2 + (yy - 0.72) ** 2) / 0.05)
    img[int(0.60 * n):int(0.85 * n), int(0.55 * n):int(0.80 * n)] += 55.0
    img[(xx - 0.75) ** 2 + (yy - 0.25) ** 2 < 0.02] -= 55.0
    img[int(0.12 * n):int(0.18 * n), int(0.10 * n):int(0.90 * n)] += 38.5
    return np.round(np.clip(img, 0, 255)).astype(float)


# ---------------------------------------------------------------------------
# sparsity statistics of scrambled 2-D signals

def column_sparsity(X, tol=0.0):
    """Per-column count of entries with magnitude above tol."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    return (np.abs(np.asarray(X)) > tol).sum(axis=0)


@dataclass
class ScrambleStats:
    ts: np.ndarray          # deviation grid, as a fraction of the column length
    empirical: np.ndarray   # observed tail frequency at each t
    reference: np.ndarray   # n * exp(-2 n t^2)
    col_mean: np.ndarray    # per-column mean sparsity count over the trials
    expected: float         # nnz / n, the uniform per-column expectation


def acceptable_permutation_stats(X, trials, stream, ts=None, tol=0.0):
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
    mask = (np.abs(X) > tol).flatten(order="F")
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


# ---------------------------------------------------------------------------
# column-wise encode / decode

def _check_image(key, image):
    image = np.asarray(image, dtype=float)
    n = image.shape[0]
    if image.ndim != 2 or image.shape != (n, n) or n % 2 != 0:
        raise ValueError("image must be square with even side")
    if n != key.M:
        raise ValueError(f"image side {n} does not match key M={key.M}")
    return image, n


def columnwise_encode(key, image, scramble=True):
    """Encode an image into one measurement packet per column.

    Pipeline: 2-D fractional cosine coefficients, global scrambling, column
    scaling, then the shared K x n Gaussian matrix applied to every
    coefficient column (the block-diagonal sensing matrix, applied blockwise).
    ``scramble=False`` leaves the scrambling out: the unscrambled baseline
    (BCS-IN) the scrambled pipeline is compared against.
    """
    image, n = _check_image(key, image)
    forward, _ = key.basis(two_d=True, scramble=scramble)
    Sp = forward(image.flatten(order="F")).reshape((n, n), order="F")
    Y = key.sensing_matrix() @ Sp
    rows = np.arange(key.K, dtype=np.int64)
    return [MeasurementPacket(indices=rows.copy(), values=Y[:, j].copy())
            for j in range(n)]


def _packets_to_matrix(packets, K):
    n = len(packets)
    Y = np.zeros((K, n))
    mask = np.zeros((K, n))
    complete = True
    for j, pkt in enumerate(packets):
        if pkt.indices.size and (pkt.indices.min() < 0 or pkt.indices.max() >= K):
            raise ValueError("packet row index out of range")
        Y[pkt.indices, j] = pkt.values
        mask[pkt.indices, j] = 1.0
        complete = complete and pkt.indices.size == K
    return Y, (None if complete else mask)


def columnwise_decode(key, packets, config=None, scramble=True):
    """Parallel per-column sparse recovery, then the inverse secret basis.

    Columns are independent given the shared sensing matrix; packets with
    missing rows are solved against the surviving rows only.  The result is
    clamped to [0, 255].
    """
    if len(packets) != key.M:
        raise ValueError(f"expected {key.M} packets, got {len(packets)}")
    config = config or SolverConfig()
    Y, mask = _packets_to_matrix(packets, key.K)
    A = key.sensing_matrix()
    if key.K == key.M and mask is None:
        Shat = np.linalg.solve(A, Y)  # full-rate sampling is plainly invertible
    else:
        Shat = ista_bpdn_batch(A, Y, config=config, mask=mask)
    _, inverse = key.basis(two_d=True, scramble=scramble)
    n = key.M
    image = inverse(Shat.flatten(order="F")).reshape((n, n), order="F")
    return np.clip(image, 0.0, 255.0)


# ---------------------------------------------------------------------------
# metrics and channels

def psnr(reference, test):
    """Peak signal-to-noise ratio in dB against 8-bit full scale.

    Identical images return float('inf').
    """
    reference = np.asarray(reference, dtype=float)
    test = np.asarray(test, dtype=float)
    if reference.shape != test.shape:
        raise ValueError("image shapes differ")
    err = float(np.sum((reference - test) ** 2))
    if err == 0.0:
        return float("inf")
    return 10.0 * np.log10(reference.size * 255.0**2 / err)


def apsnr_db(ratios):
    """Average PSNR: the energy ratios are averaged before taking the log."""
    ratios = np.asarray(ratios, dtype=float)
    if np.any(np.isinf(ratios)):
        return float("inf")
    return 10.0 * np.log10(ratios.mean())


@dataclass
class ChannelModel:
    """Transmission model: ideal, additive white Gaussian noise, or packet loss."""

    kind: str = "ideal"
    noise_var: float = 0.0
    plr: float = 0.0

    def __post_init__(self):
        if self.kind not in ("ideal", "awgn", "packet_loss"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.noise_var < 0:
            raise ValueError("noise_var must be >= 0")
        if not 0.0 <= self.plr < 1.0:
            raise ValueError("plr must be in [0, 1)")


def apply_channel(packets, model, stream):
    """Pass measurement packets through the channel.

    AWGN adds i.i.d. noise of the configured variance to every surviving
    value; packet loss drops each measurement independently with probability
    plr, updating the surviving-index lists.  Packets are processed in
    order, one draw block per packet.
    """
    out = []
    for pkt in packets:
        if model.kind == "ideal" or pkt.indices.size == 0:
            out.append(MeasurementPacket(pkt.indices.copy(), pkt.values.copy()))
        elif model.kind == "awgn":
            noise = stream.gaussian(pkt.values.size) * np.sqrt(model.noise_var)
            out.append(MeasurementPacket(pkt.indices.copy(), pkt.values + noise))
        else:
            keep = stream.uniform(pkt.indices.size) >= model.plr
            out.append(MeasurementPacket(pkt.indices[keep], pkt.values[keep]))
    return out
