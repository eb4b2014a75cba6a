"""Self-tests of the benchmark's checks: each must reject a corrupted output.

Run from the repository root (not part of the package's test suite):

    python3 -m pytest -q bench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from blpcs import bases, cipher, imaging  # noqa: E402

N = 16
SR = 0.5


@pytest.fixture
def encoded(tmp_path):
    """A small key, its frame, and the BLPY file the program wrote for them."""
    key = cipher.keygen(123, N, SR, 0.99, 0.95, dmax=16)
    frame = np.round(ref.stream(5, "test/frame").random((N, N)) * 255.0)
    path = tmp_path / "frame.blpy"
    cipher.save_measurements(path, imaging.columnwise_encode(key, frame), key.K)
    fields = {"M": N, "alpha": key.alpha, "beta": key.beta}
    pieces = ref.key_pieces(key.seed, N, SR, key.dmax, two_d=True)
    return key, frame, path, fields, pieces


def test_encoded_file_matches_dense_encode(encoded):
    key, frame, path, fields, pieces = encoded
    ref.check_encoded_file(path, frame, fields, pieces, bases.rpfrct_matrix)
    ref.check_blpy_shape(path, N, key.K)


def test_one_altered_measurement_is_caught(encoded):
    _, frame, path, fields, pieces = encoded
    data = bytearray(path.read_bytes())
    # 12-byte file header, the first packet's 4-byte entry count, then
    # 12-byte (u4 index, f8 value) entries: this alters entry 3's value
    offset = 12 + 4 + 3 * 12 + 4
    value = np.frombuffer(bytes(data[offset:offset + 8]), "<f8")[0]
    data[offset:offset + 8] = np.array([value * (1 + 1e-6)], "<f8").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(ref.CheckFailed, match="differs from the dense encode"):
        ref.check_encoded_file(path, frame, fields, pieces, bases.rpfrct_matrix)


def test_trailing_bytes_and_truncation_are_caught(encoded):
    key, _, path, _, _ = encoded
    data = path.read_bytes()
    path.write_bytes(data + b"\0")
    with pytest.raises(ref.CheckFailed, match="trailing"):
        ref.check_blpy_shape(path, N, key.K)
    path.write_bytes(data[:-1])
    with pytest.raises(ref.CheckFailed, match="truncated"):
        ref.check_blpy_shape(path, N, key.K)


def test_non_orthogonal_basis_is_caught(encoded):
    _, frame, path, fields, pieces = encoded

    def skewed(M, alpha):
        R = bases.rpfrct_matrix(M, alpha)
        R[0, 0] += 1e-6
        return R

    with pytest.raises(ref.CheckFailed, match="orthogonality"):
        ref.check_encoded_file(path, frame, fields, pieces, skewed)


@pytest.mark.parametrize("two_d", [False, True])
def test_key_stream_bit_identity(two_d):
    key = cipher.keygen(2**63 + 11, N, SR, 0.99, dmax=60)
    spec = key.basis_spec(two_d=two_d)
    pieces = ref.key_pieces(key.seed, N, SR, 60, two_d=two_d)
    A, perm, scale = key.sensing_matrix(), spec.perm.map, spec.scale
    ref.check_key_stream(pieces, A, perm, scale)

    A_bad = A.copy()
    A_bad[1, 2] = np.nextafter(A_bad[1, 2], np.inf)
    perm_bad = perm.copy()
    perm_bad[[0, 1]] = perm_bad[[1, 0]]
    scale_bad = scale.copy()
    scale_bad[-1] += 1.0
    cases = {"sensing matrix": (A_bad, perm, scale),
             "permutation": (A, perm_bad, scale),
             "scale draws": (A, perm, scale_bad)}
    for what, args in cases.items():
        with pytest.raises(ref.CheckFailed, match=what):
            ref.check_key_stream(pieces, *args)


def test_wrong_key_decode_fails_the_band():
    n, sr = workloads.N, 0.1
    frame = workloads.panned_frames(7, 1)[0]
    key = cipher.keygen(31, n, sr, 0.99, 0.95, dmax=16)
    packets = imaging.columnwise_encode(key, frame)
    right = ref.psnr_db(frame, imaging.columnwise_decode(key, packets))
    wrong_key = cipher.keygen(32, n, sr, 0.99, 0.95, dmax=16)
    wrong = ref.psnr_db(frame, imaging.columnwise_decode(wrong_key, packets))
    ref.check_band("right key", right, ref.TABLE1_DB[sr])
    ref.check_wrong_key("wrong key", wrong, right, ref.TABLE1_DB[sr])
    with pytest.raises(ref.CheckFailed, match="outside"):
        ref.check_band("wrong key", wrong, ref.TABLE1_DB[sr])
    with pytest.raises(ref.CheckFailed, match="wrong-key decode reaches"):
        ref.check_wrong_key("right key as wrong", right, right, ref.TABLE1_DB[sr])


def test_psnr_matches_the_definition():
    a = np.zeros((4, 4))
    b = a.copy()
    b[0, 0] = 255.0
    assert ref.psnr_db(a, b) == pytest.approx(10 * np.log10(16))
    assert ref.apsnr([10.0, 1000.0]) == pytest.approx(10 * np.log10(505.0))
    with pytest.raises(ref.CheckFailed):
        ref.energy_ratio(a, a)


def test_loss_rates_must_lower_psnr():
    ref.check_falling("ok", [22.0, 21.5, 21.0])
    for bad in ([22.0, 21.0, 21.5], [22.0, 22.0, 21.0]):
        with pytest.raises(ref.CheckFailed, match="not strictly falling"):
            ref.check_falling("bad", bad)


def test_decoded_image_range_is_checked():
    ref.check_decoded(np.full((N, N), 128.0), N)
    for bad in (np.full((N, N), np.nan), np.full((N, N), 256.0), np.zeros((N, N + 1))):
        with pytest.raises(ref.CheckFailed):
            ref.check_decoded(bad, N)


def test_pgm_roundtrip_and_truncation(tmp_path):
    image = np.arange(N * N, dtype=np.uint8).reshape(N, N)
    path = tmp_path / "x.pgm"
    ref.write_pgm(path, image)
    assert np.array_equal(ref.read_pgm(path), image.astype(float))
    assert np.array_equal(imaging.load_pgm(path), image.astype(float))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ref.CheckFailed, match="raster"):
        ref.read_pgm(path)


def test_rate_check_tolerates_noise_not_collapse():
    ref.check_rate("all", 40, 40, 0.95)
    ref.check_rate("a few misses", 36, 40, 0.95)
    with pytest.raises(ref.CheckFailed, match="below the 95% rate"):
        ref.check_rate("half", 20, 40, 0.95)
    with pytest.raises(ref.CheckFailed, match="no trials"):
        ref.check_rate("none", 0, 0, 0.95)


@pytest.fixture
def attack(tmp_path):
    work = workloads.Attack(3, str(tmp_path))
    work.setup()
    for _ in range(3):
        work.run_round()
    assert work.failed == 0
    return work


def test_attack_checks_pass_on_program_output(attack):
    attack.check()
    assert ref.TABLE1_DB[0.1] - ref.BAND_DB <= attack.apsnr_db


@pytest.mark.parametrize("target, rel", [("class1", "5.0e-01"), ("drpe", "1.0e-02"),
                                         ("blp-cs", "1.0e-12")])
def test_attack_left_unbroken_or_broken_is_caught(attack, target, rel):
    attack.attack_rows = [r[:7] + (rel,) if r[0] == target else r for r in attack.attack_rows]
    with pytest.raises(ref.CheckFailed, match=target):
        attack.check()


def test_fig1_and_query_count_are_checked(attack):
    rows = list(attack.attack_rows)
    attack.fig1_rows = [(t, "1.0e-01", d) for t, _, d in attack.fig1_rows]
    with pytest.raises(ref.CheckFailed, match="two-step exact"):
        attack.check()
    attack.attack_rows = [rows[0][:5] + (rows[0][5] - 1,) + rows[0][6:]] + rows[1:]
    with pytest.raises(ref.CheckFailed, match="queries"):
        attack.check()
