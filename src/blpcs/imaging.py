"""Column-parallel image sampling under the bi-level cipher.

An n x n image is mapped to transform coefficients, globally scrambled and
scaled (the secret basis), and each coefficient column is sampled by the
shared K x n Gaussian sensing matrix -- so the whole-image sensing matrix is
block diagonal, the measurements are one K x n array ``Y = A S'`` (NaN marks
a measurement that was not received), and reconstruction runs column by
column.  The scrambling evens out the per-column sparsity, which is what
lets every column survive with the same row budget; the unscrambled variant
of the same pipeline is kept as the comparison baseline.

Also here: PGM-P5 image I/O, the noise and packet-loss channel models, peak
signal-to-noise metrics, and a deterministic natural-image stand-in used by
the experiment suite.
"""

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, GuardError
from .keyrand import derive_stream
from .solvers import debias, ista_bpdn_batch

__all__ = [
    "ChannelModel",
    "load_pgm",
    "save_pgm",
    "make_test_image",
    "columnwise_encode",
    "columnwise_decode",
    "energy_ratio",
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
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: image sides must be positive, got {width}x{height}")
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


def make_test_image(n=512):
    """Deterministic natural-image stand-in (license-free).

    Smooth illumination plus a power-law texture field, a band-limited
    texture patch and a few hard-edged objects; statistics chosen to give
    natural-image-like transform-coefficient decay.
    """
    if n < 8 or n % 2 != 0:
        raise ValueError("side must be even and >= 8")
    stream = derive_stream(2026, "standin-image")
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
# column-wise encode / decode

def _check_image(key, image):
    image = np.asarray(image, dtype=float)
    if image.ndim != 2 or image.shape[0] != image.shape[1] or image.shape[0] % 2 != 0:
        raise ValueError("image must be square with even side")
    n = image.shape[0]
    if n != key.M:
        raise ValueError(f"image side {n} does not match key M={key.M}")
    if not np.isfinite(image).all():
        raise ValueError("image has non-finite pixels")
    return image, n


def columnwise_encode(key, image, scramble=True):
    """Encode an image into its K x n measurements ``Y = A S'``.

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
    if not np.isfinite(Y).all():  # NaN would read as a measurement not received
        raise GuardError("measurements overflow: image values too large")
    return Y


def columnwise_decode(key, Y, scramble=True):
    """Parallel per-column sparse recovery, then the inverse secret basis.

    Columns are independent given the shared sensing matrix.  The
    measurements go to the solvers as they are: a NaN entry (a measurement
    not received) keeps its row out of that column's fit.  The sparse solve
    runs float32 iterations and a float64 refit:
    :func:`~blpcs.solvers.ista_bpdn_batch` (the fixed FISTA schedule, no
    refit) on float32 copies of the sensing matrix and measurements, then
    :func:`~blpcs.solvers.debias` against the float64 ones: a float64
    least-squares refit of every column on its support, solved as stacked
    normal equations in blocks of about 1 MiB.  The result is clamped to
    [0, 255].
    """
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (key.K, key.M):
        raise ValueError(f"measurements of shape {Y.shape} do not match the key's "
                         f"{(key.K, key.M)}")
    A = key.sensing_matrix()
    if key.K == key.M and not np.isnan(Y).any():
        Shat = np.linalg.solve(A, Y)  # full-rate sampling is plainly invertible
    else:
        # the output is rounded to 8-bit pixels, far coarser than the float32
        # rounding of the iterations; the refit on the support stays float64
        S = ista_bpdn_batch(A.astype(np.float32), Y.astype(np.float32))
        Shat = debias(A, Y, S.astype(float))
    _, inverse = key.basis(two_d=True, scramble=scramble)
    n = key.M
    image = inverse(Shat.flatten(order="F")).reshape((n, n), order="F")
    return np.clip(image, 0.0, 255.0)


# ---------------------------------------------------------------------------
# metrics and channels

def energy_ratio(reference, test):
    """Full-scale energy over error energy, size * 255^2 / ||reference - test||^2.

    Identical images return float('inf').
    """
    reference = np.asarray(reference, dtype=float)
    test = np.asarray(test, dtype=float)
    if reference.shape != test.shape:
        raise ValueError("image shapes differ")
    err = float(np.sum((reference - test) ** 2))
    if err == 0.0:
        return float("inf")
    return reference.size * 255.0**2 / err


def psnr(reference, test):
    """Peak signal-to-noise ratio in dB against 8-bit full scale: the log of
    :func:`energy_ratio`, so identical images return float('inf')."""
    return 10.0 * np.log10(energy_ratio(reference, test))


def apsnr_db(ratios):
    """Average PSNR: the energy ratios are averaged before taking the log."""
    return 10.0 * np.log10(np.asarray(ratios, dtype=float).mean())


@dataclass
class ChannelModel:
    """Transmission model: ideal, additive white Gaussian noise, or packet loss."""

    kind: str = "ideal"
    noise_var: float = 0.0
    plr: float = 0.0

    def __post_init__(self):
        if self.kind not in ("ideal", "awgn", "packet_loss"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not 0.0 <= self.noise_var < np.inf:
            raise ValueError("noise_var must be finite and >= 0")
        if not 0.0 <= self.plr < 1.0:
            raise ValueError("plr must be in [0, 1)")


def apply_channel(Y, model, stream):
    """Pass K x n measurements through the channel; returns a new array.

    AWGN adds i.i.d. noise of the configured variance to every received
    value; packet loss drops each received value independently with
    probability plr, marking it NaN.  Each received value takes one draw,
    in column order with rows ascending (the packet order of the BLPY file).
    """
    Y = np.array(Y, dtype=float)
    if model.kind == "ideal":
        return Y
    received = ~np.isnan(Y.T)
    values = Y.T[received]
    if model.kind == "awgn":
        values += stream.gaussian(values.size) * np.sqrt(model.noise_var)
    else:
        values[stream.uniform(values.size) < model.plr] = np.nan
    Y.T[received] = values
    return Y
