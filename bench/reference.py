"""Computations made apart from the program, and the checks built on them.

Nothing here calls into ``blpcs`` except ``rpfrct_matrix``, whose
orthogonality the encoder check tests in the same step.  Key streams are
re-derived from the conventions documented in ``keyrand.py`` (Philox keyed
by ``[seed, sha256(label)[:8]]``, Box-Muller on consecutive uniform pairs,
Fisher-Yates with one uniform per step, integers by floor scaling), files
are parsed by readers of their own, and PSNR is computed here.  Every check
raises :class:`CheckFailed` with the measured numbers when it does not hold.
"""

import hashlib
import math
import struct

import numpy as np

# paper Table 1 (ideal channel) and Table 2 (30% packet loss) APSNR in dB,
# with the +-2 dB band of acceptance criteria 2 and 3
TABLE1_DB = {0.1: 21.6, 0.3: 27.5, 0.5: 31.4, 0.7: 35.7}
TABLE2_PLR30_DB = {0.1: 19.9, 0.3: 25.5, 0.5: 28.5, 0.7: 31.3}
BAND_DB = 2.0

# a wrong-key decode must land this far below the correct-key decode
WRONG_KEY_GAP_DB = 10.0

# rate checks flag an observed count more than this many binomial standard
# deviations below the criterion rate; sampling noise of a few hundred
# trials never gets there, a broken solver or cipher does at once
RATE_SIGMAS = 6.0

ORTHO_TOL = 1e-8
ENCODE_RTOL = 1e-9


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# key streams

def stream(seed, label):
    """The labeled Philox generator of the documented key-stream convention."""
    word = int.from_bytes(hashlib.sha256(label.encode("ascii")).digest()[:8], "little")
    return np.random.Generator(np.random.Philox(key=np.array([seed, word], dtype=np.uint64)))


def gaussian(gen, shape):
    """Box-Muller, one normal per consecutive uniform pair."""
    m = int(np.prod(shape))
    u = gen.random(2 * m)
    u1, u2 = u[0::2], u[1::2]
    return (np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)).reshape(shape)


def integers(gen, low, high, size):
    return (low + np.floor(gen.random(size) * (high - low))).astype(np.int64)


def fisher_yates(gen, n):
    """Index map of the shuffle: position i swaps with floor(u * (i + 1))."""
    out = list(range(n))
    if n > 1:
        draws = gen.random(n - 1).tolist()
        for t, i in enumerate(range(n - 1, 0, -1)):
            j = int(draws[t] * (i + 1))
            out[i], out[j] = out[j], out[i]
    return np.array(out, dtype=np.int64)


def key_measurement_count(sr, M):
    return max(1, int(round(sr * M)))


def key_pieces(seed, M, sr, dmax, two_d):
    """Sensing matrix, coefficient permutation and column scales of a key."""
    size = M * M if two_d else M
    K = key_measurement_count(sr, M)
    return {
        "A": gaussian(stream(seed, "A"), (K, M)),
        "perm": fisher_yates(stream(seed, "perm"), size),
        "scale": integers(stream(seed, "scale"), 1, dmax + 1, size).astype(float),
    }


def check_key_stream(pieces, A, perm_map, scale):
    """Bit-identity of the program's key objects with the re-derived ones."""
    for name, mine, theirs in (("sensing matrix", pieces["A"], A),
                               ("permutation", pieces["perm"], perm_map),
                               ("scale draws", pieces["scale"], scale)):
        theirs = np.asarray(theirs)
        require(mine.shape == theirs.shape,
                f"key stream: {name} shape {theirs.shape}, expected {mine.shape}")
        diff = int(np.count_nonzero(mine != theirs))
        require(diff == 0, f"key stream: {name} differs in {diff} entries")


# ---------------------------------------------------------------------------
# files

def parse_key_file(path):
    fields = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                name, sep, value = line.partition("=")
                require(sep == "=" and name not in fields, f"{path}: bad key line {line!r}")
                fields[name] = value
    return {"seed": int(fields["seed"]), "M": int(fields["M"]), "sr": float(fields["sr"]),
            "alpha": float(fields["alpha"]), "beta": float(fields["beta"]),
            "dmax": int(fields["dmax"])}


_ENTRY = np.dtype([("idx", "<u4"), ("val", "<f8")])


def read_blpy(path):
    """Parse a BLPY file into (K, list of (indices, values)); rejects any slack."""
    with open(path, "rb") as fh:
        data = fh.read()
    require(data[:4] == b"BLPY", f"{path}: bad BLPY magic")
    require(len(data) >= 12, f"{path}: truncated BLPY header")
    count, K = struct.unpack_from("<II", data, 4)
    pos = 12
    packets = []
    for _ in range(count):
        require(pos + 4 <= len(data), f"{path}: truncated packet header")
        (n,) = struct.unpack_from("<I", data, pos)
        pos += 4
        end = pos + n * _ENTRY.itemsize
        require(end <= len(data), f"{path}: truncated packet payload")
        entries = np.frombuffer(data[pos:end], dtype=_ENTRY)
        packets.append((entries["idx"].astype(np.int64), entries["val"].astype(float)))
        pos = end
    require(pos == len(data), f"{path}: {len(data) - pos} trailing bytes")
    return K, packets


def write_pgm(path, image):
    pixels = np.asarray(image, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (pixels.shape[1], pixels.shape[0]))
        fh.write(pixels.tobytes())


def read_pgm(path):
    """Reader for the exact header the program writes (P5, no comments)."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, w, h, maxval, raster = data.split(maxsplit=4)
    require(magic == b"P5" and maxval == b"255", f"{path}: not an 8-bit P5 image")
    w, h = int(w), int(h)
    require(len(raster) == w * h, f"{path}: raster holds {len(raster)} bytes, not {w * h}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w).astype(float)


# ---------------------------------------------------------------------------
# encoder, images, rates

def check_encoded_file(path, frame, key, pieces, rpfrct_matrix):
    """Compare a BLPY file with the measurements recomputed densely.

    The dense path is Y = A reshape(d * P^T vec(Ra^T X Rb)), from the
    re-derived pieces and the fractional cosine matrices, whose
    orthogonality is checked first.
    """
    n = key["M"]
    Ra, Rb = rpfrct_matrix(n, key["alpha"]), rpfrct_matrix(n, key["beta"])
    for name, R in (("alpha", Ra), ("beta", Rb)):
        resid = float(np.max(np.abs(R @ R.T - np.eye(n))))
        require(resid < ORTHO_TOL, f"rpfrct_matrix({name}) orthogonality residual {resid:.2e}")
    coeffs = (Ra.T @ frame @ Rb).flatten(order="F")
    scrambled = np.empty_like(coeffs)
    scrambled[pieces["perm"]] = coeffs
    scrambled *= pieces["scale"]
    Y_ref = pieces["A"] @ scrambled.reshape((n, n), order="F")

    K, packets = read_blpy(path)
    require(K == Y_ref.shape[0], f"{path}: K={K}, expected {Y_ref.shape[0]}")
    require(len(packets) == n, f"{path}: {len(packets)} packets, expected {n}")
    rows = np.arange(K)
    scale = float(np.max(np.abs(Y_ref)))
    for j, (idx, val) in enumerate(packets):
        require(np.array_equal(idx, rows), f"{path}: packet {j} row indices are not 0..K-1")
        err = float(np.max(np.abs(val - Y_ref[:, j])))
        require(err <= ENCODE_RTOL * scale,
                f"{path}: packet {j} differs from the dense encode by {err:.3e} "
                f"(allowed {ENCODE_RTOL * scale:.3e})")


def check_blpy_shape(path, n, K):
    """Structure of a BLPY file: n complete packets of K finite values."""
    got_K, packets = read_blpy(path)
    require(got_K == K and len(packets) == n,
            f"{path}: {len(packets)} packets of K={got_K}, expected {n} of K={K}")
    for j, (idx, val) in enumerate(packets):
        require(idx.size == K and np.all(np.isfinite(val)),
                f"{path}: packet {j} is incomplete or not finite")


def energy_ratio(reference, image):
    """Peak-to-error energy ratio against 8-bit full scale (PSNR before the log)."""
    err = float(np.sum((np.asarray(reference, float) - np.asarray(image, float)) ** 2))
    require(err > 0.0, "decoded image is bit-identical to the frame; PSNR undefined")
    return reference.size * 255.0 ** 2 / err


def psnr_db(reference, image):
    return 10.0 * math.log10(energy_ratio(reference, image))


def apsnr(ratios):
    """The paper's APSNR: energy ratios averaged, then taken to dB."""
    return 10.0 * math.log10(sum(ratios) / len(ratios))


def check_decoded(image, n):
    image = np.asarray(image)
    require(image.shape == (n, n), f"decoded image shape {image.shape}, expected {(n, n)}")
    require(bool(np.all(np.isfinite(image))), "decoded image has non-finite pixels")
    require(float(image.min()) >= 0.0 and float(image.max()) <= 255.0,
            "decoded image leaves [0, 255]")


def check_band(label, value_db, reported_db):
    require(abs(value_db - reported_db) <= BAND_DB,
            f"{label}: APSNR {value_db:.2f} dB outside {reported_db} +- {BAND_DB} dB")


def check_falling(label, values_db):
    """PSNR must fall strictly as the loss rate rises."""
    require(all(a > b for a, b in zip(values_db, values_db[1:])),
            f"{label}: PSNR over rising loss rates is not strictly falling: "
            + ", ".join(f"{v:.2f}" for v in values_db))


def check_wrong_key(label, wrong_db, right_db, reported_db):
    require(wrong_db < reported_db - BAND_DB and wrong_db <= right_db - WRONG_KEY_GAP_DB,
            f"{label}: wrong-key decode reaches {wrong_db:.2f} dB against "
            f"{right_db:.2f} dB with the right key")


def check_rate(label, hits, total, rate):
    """The observed hit count is consistent with a success rate of at least ``rate``."""
    require(total > 0, f"{label}: no trials")
    floor = total * rate - RATE_SIGMAS * math.sqrt(total * rate * (1.0 - rate))
    require(hits >= floor,
            f"{label}: {hits}/{total} ({hits / total:.1%}) is below the {rate:.0%} rate "
            f"by more than {RATE_SIGMAS:g} standard deviations")
