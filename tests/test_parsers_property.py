"""Property tests for the three file parsers: key files, BLPY measurement
files and PGM images.

Whatever bytes they are given, the parsers either return a value or raise
FormatError; and what the writers write, the readers read back unchanged.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from blpcs.cipher import (keygen, load_measurements, read_key_file,  # noqa: E402
                          save_measurements, write_key_file)
from blpcs.errors import FormatError  # noqa: E402
from blpcs.imaging import load_pgm, save_pgm  # noqa: E402

# bounded and reproducible, so the suite grows by seconds; derandomized runs
# keep no example database
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# one edit of a file: overwrite, insert or delete a byte, or overwrite a
# little-endian 32-bit word (the width of every BLPY header field)
EDITS = st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete", "word"]),
                           st.integers(0, 2**16), st.integers(0, 2**32 - 1)),
                 min_size=1, max_size=4)


def _mutate(data, edits):
    buf = bytearray(data)
    for kind, pos, value in edits:
        if kind == "insert":
            buf.insert(pos % (len(buf) + 1), value % 256)
        elif buf:
            pos %= len(buf)
            if kind == "replace":
                buf[pos] = value % 256
            elif kind == "delete":
                del buf[pos]
            else:
                buf[pos:pos + 4] = value.to_bytes(4, "little")
    return bytes(buf)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # one directory for every example; each example overwrites its file
    return tmp_path_factory.mktemp("parsers")


def _parses_or_rejects(load, path, data):
    path.write_bytes(data)
    try:
        return load(path)
    except FormatError:
        return None


@st.composite
def keys(draw):
    M = 2 * draw(st.integers(1, 64))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return keygen(seed=draw(st.integers(0, 2**64 - 1)), M=M,
                  sr=draw(st.floats(0.0, 1.0, exclude_min=True)),
                  alpha=draw(finite), beta=draw(finite), dmax=draw(st.integers(1, 1000)),
                  mix_count=draw(st.integers(0, 1)),
                  mix_region=draw(st.floats(0.0, 1.0, exclude_min=True)))


@st.composite
def measurement_arrays(draw):
    """K x n measurements with NaN holes (measurements not received)."""
    K, n = draw(st.integers(1, 40)), draw(st.integers(0, 4))
    values = st.floats(allow_nan=False, allow_infinity=False)
    Y = np.array(draw(st.lists(values, min_size=K * n, max_size=K * n)),
                 dtype=float).reshape(K, n)
    Y[np.array(draw(st.lists(st.booleans(), min_size=K * n, max_size=K * n)),
               dtype=bool).reshape(K, n)] = np.nan
    return Y


def _images(max_half_side=8):
    side = st.integers(1, max_half_side).map(lambda h: 2 * h)
    return side.flatmap(lambda n: st.lists(st.integers(0, 255), min_size=n * n,
                                           max_size=n * n)
                        .map(lambda px: np.array(px, dtype=float).reshape(n, n)))


@SETTINGS
@given(key=keys())
def test_key_file_roundtrip(workdir, key):
    path = workdir / "k.key"
    write_key_file(key, path)
    assert read_key_file(path) == key


@SETTINGS
@given(edits=EDITS)
def test_key_file_mutations_parse_or_reject(workdir, edits):
    path = workdir / "k.key"
    write_key_file(keygen(5, 64, 0.5, 0.99, beta=0.95, dmax=16, mix_count=2), path)
    _parses_or_rejects(read_key_file, path, _mutate(path.read_bytes(), edits))


@SETTINGS
@given(Y=measurement_arrays())
def test_measurement_file_roundtrip_property(workdir, Y):
    path = workdir / "m.blpy"
    save_measurements(path, Y, Y.shape[0])
    assert np.array_equal(load_measurements(path, *Y.shape), Y, equal_nan=True)


@SETTINGS
@given(edits=EDITS)
def test_measurement_file_mutations_parse_or_reject(workdir, edits):
    path = workdir / "m.blpy"
    Y = np.full((4, 2), np.nan)
    Y[[0, 2, 3], 0] = [1.5, -2.0, 0.25]
    Y[1, 1] = 7.0
    save_measurements(path, Y, K=4)
    loaded = _parses_or_rejects(lambda p: load_measurements(p, 4, 2), path,
                                _mutate(path.read_bytes(), edits))
    if loaded is not None:
        assert loaded.shape == (4, 2) and not np.isinf(loaded).any()


@SETTINGS
@given(image=_images())
def test_pgm_roundtrip_property(workdir, image):
    path = workdir / "i.pgm"
    save_pgm(image, path)
    assert np.array_equal(load_pgm(path), image)


@SETTINGS
@given(image=_images(max_half_side=2), edits=EDITS)
def test_pgm_mutations_parse_or_reject(workdir, image, edits):
    path = workdir / "i.pgm"
    save_pgm(image, path)
    loaded = _parses_or_rejects(load_pgm, path, _mutate(path.read_bytes(), edits))
    if loaded is not None:
        n = loaded.shape[0]
        assert loaded.shape == (n, n) and n > 0 and n % 2 == 0


@SETTINGS
@given(width=st.integers(-6, 6), height=st.one_of(st.none(), st.integers(-6, 6)),
       raster=st.integers(0, 40))
def test_pgm_header_sides_parse_or_reject(workdir, width, height, raster):
    height = width if height is None else height
    path = workdir / "i.pgm"
    data = f"P5\n{width} {height}\n255\n".encode("ascii") + bytes(raster)
    loaded = _parses_or_rejects(load_pgm, path, data)
    if loaded is not None:
        assert loaded.shape == (height, width) and width > 0 and width % 2 == 0
