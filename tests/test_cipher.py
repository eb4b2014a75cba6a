"""Key derivation, encode/decode, baseline ciphers, and file formats."""

import numpy as np
import pytest

from blpcs.cipher import (BlpKey, DrpeMasks, blp_encode,
                          drpe_cs_encode, drpe_masks, keygen, load_measurements,
                          read_key_file, save_measurements, scramble_frequency_encode,
                          scramble_measurements_encode, write_key_file)
from blpcs.bases import corner_region_1d, corner_region_2d, dct_matrix
from blpcs.errors import FormatError, GuardError
from blpcs.keyrand import Permutation, derive_stream
from blpcs.solvers import two_step_decode

from oracles import blp_decode, drpe_transfer_matrix, rip_check_montecarlo


def test_keygen_validation():
    with pytest.raises(ValueError):
        keygen(1, 15, 0.5, 1.0)       # odd M
    with pytest.raises(ValueError):
        keygen(1, 16, 1.5, 1.0)       # sr out of range
    with pytest.raises(ValueError):
        keygen(1, 16, 0.5, 1.0, dmax=0)
    with pytest.raises(ValueError):
        keygen(1, 16, 0.5, 1.0, mix_count=200)  # region cannot host the mixes
    with pytest.raises(ValueError):
        keygen(2**64, 16, 0.5, 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_keygen_rejects_non_finite_orders(tmp_path, bad):
    with pytest.raises(ValueError):
        keygen(1, 16, 0.5, bad)
    with pytest.raises(ValueError):
        keygen(1, 16, 0.5, 1.0, beta=bad)
    p = tmp_path / "k.key"
    write_key_file(keygen(1, 16, 0.5, 1.0), p)
    p.write_text(p.read_text().replace("alpha=1.0", f"alpha={bad}"))
    with pytest.raises(FormatError):
        read_key_file(p)


def test_key_file_rejects_duplicated_field(tmp_path):
    p = tmp_path / "k.key"
    write_key_file(keygen(1, 16, 0.5, 1.0), p)
    text = p.read_text()
    read_key_file(p)
    p.write_text(text + "sr=0.25\n")
    with pytest.raises(FormatError, match="duplicated"):
        read_key_file(p)


def test_keygen_deterministic_and_seed_sensitive():
    k1 = keygen(1, 64, 0.5, 0.99, 0.95, dmax=8)
    k2 = keygen(1, 64, 0.5, 0.99, 0.95, dmax=8)
    assert np.array_equal(k1.sensing_matrix(), k2.sensing_matrix())
    assert np.array_equal(k1.basis_spec().perm.map, k2.basis_spec().perm.map)
    k3 = keygen(2, 64, 0.5, 0.99, 0.95, dmax=8)
    assert not np.array_equal(k1.sensing_matrix(), k3.sensing_matrix())


@pytest.mark.parametrize("scramble", [False, True])
@pytest.mark.parametrize("two_d", [False, True])
def test_basis_spec_mixes_stay_in_the_permuted_corner_region(two_d, scramble):
    # both ends of every mix lie in the corner region of the significant
    # coefficients, moved by the key's permutation when it scrambles, so a
    # mix never joins a significant coefficient to an insignificant one
    M, half = 16, 8
    for seed in range(1, 9):
        for mix_region, mix_count in ((0.25, 2), (0.5, 3)):
            key = keygen(seed, M, 0.5, 0.99, 0.95, mix_count=mix_count,
                         mix_region=mix_region)
            spec = key.basis_spec(two_d=two_d, scramble=scramble)
            side = round(mix_region * half)
            region = corner_region_2d(M, side) if two_d else corner_region_1d(M, side)
            if scramble:
                region = spec.perm.map[region]
            assert len(spec.mixes) == mix_count
            for j, k, _, _ in spec.mixes:
                assert j != k and j in region and k in region


def test_key_file_roundtrip_byte_identical(tmp_path):
    key = keygen(7, 512, 0.3, 0.99, 0.95, dmax=60, mix_count=4, mix_region=0.25)
    p1, p2 = tmp_path / "a.key", tmp_path / "b.key"
    write_key_file(key, p1)
    write_key_file(key, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"seed=7" in p1.read_bytes()
    loaded = read_key_file(p1)
    assert loaded == BlpKey(seed=7, M=512, sr=0.3, alpha=0.99, beta=0.95,
                            dmax=60, mix_count=4, mix_region=0.25)


def test_key_file_rejects_malformed(tmp_path):
    p = tmp_path / "bad.key"
    p.write_text("seed=1\nM=64\n")
    with pytest.raises(FormatError):
        read_key_file(p)
    p.write_text("seed=1\nwhat=2\n")
    with pytest.raises(FormatError):
        read_key_file(p)
    p.write_text("seed=1 M=64\n")
    with pytest.raises(FormatError):
        read_key_file(p)
    p.write_bytes(b"seed=1\xff\n")  # not UTF-8
    with pytest.raises(FormatError):
        read_key_file(p)


def test_encode_linearity_and_zero():
    key = keygen(3, 64, 0.5, 0.95, dmax=6, mix_count=2)
    s = derive_stream(3, "x")
    x1, x2 = s.gaussian(64), s.gaussian(64)
    assert np.allclose(blp_encode(key, np.zeros(64)), 0.0)
    lhs = blp_encode(key, 2.0 * x1 - 3.0 * x2)
    rhs = 2.0 * blp_encode(key, x1) - 3.0 * blp_encode(key, x2)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(lhs)))


def _materialize_measurement_matrix(key):
    cols = []
    e = np.zeros(key.M)
    for j in range(key.M):
        e[:] = 0.0
        e[j] = 1.0
        cols.append(blp_encode(key, e))
    return np.stack(cols, axis=1)


def test_encode_matches_materialized_matrix():
    key = keygen(4, 64, 0.5, 0.9, dmax=8, mix_count=2)
    Phi = _materialize_measurement_matrix(key)
    x = derive_stream(4, "x").gaussian(64)
    assert np.allclose(blp_encode(key, x), Phi @ x, atol=1e-9)


def test_effective_matrix_is_non_rip_but_sensing_matrix_is_fine():
    key = keygen(5, 256, 0.25, 0.99, dmax=60)
    Phi = _materialize_measurement_matrix(key)
    est = rip_check_montecarlo(Phi, 8, 200, derive_stream(5, "mc"))
    assert est >= 1.0
    A = key.sensing_matrix() / np.sqrt(key.K)
    est_a = rip_check_montecarlo(A, 8, 2000, derive_stream(5, "mc2"))
    assert est_a < 1.0


def test_blp_roundtrip_sparse_signal():
    key = keygen(6, 500, 0.4, 0.97, dmax=12)
    st = derive_stream(6, "s")
    s_prime = np.zeros(500)
    s_prime[st.subset(500, 20)] = st.gaussian(20)
    _, inverse = key.basis()
    x = inverse(s_prime)
    y = blp_encode(key, x)
    # by construction the measurements equal A_K applied to the coefficients
    assert np.allclose(y, key.sensing_matrix() @ s_prime, atol=1e-8)
    # the step-1 fit is equality-feasible
    A = key.sensing_matrix()
    assert np.linalg.norm(y - A @ two_step_decode(A, y)) < 1e-8
    xhat = blp_decode(key, y)
    assert np.linalg.norm(xhat - x) < 1e-4 * np.linalg.norm(x)


def test_blp_wrong_seed_decode_fails():
    key = keygen(7, 256, 0.25, 0.97, dmax=12)
    st = derive_stream(7, "s")
    s_prime = np.zeros(256)
    s_prime[st.subset(256, 8)] = st.gaussian(8)
    x = key.basis()[1](s_prime)
    y = blp_encode(key, x)
    wrong = keygen(8, 256, 0.25, 0.97, dmax=12)
    xhat = blp_decode(wrong, y)
    assert np.linalg.norm(xhat - x) > 0.5 * np.linalg.norm(x)


def test_blp_full_rate_is_invertible():
    key = keygen(9, 64, 1.0, 0.9, dmax=4)
    x = derive_stream(9, "x").gaussian(64)
    xhat = blp_decode(key, blp_encode(key, x))
    assert np.linalg.norm(xhat - x) < 1e-8 * np.linalg.norm(x)


def test_scramble_measurements_is_permuted_plain_encode():
    st = derive_stream(10, "s")
    Phi = st.gaussian((8, 16))
    x = st.gaussian(16)
    p = st.permutation(8)
    ident = Permutation(np.argsort(p.map)[p.map])  # inverse after p: the identity
    assert np.allclose(scramble_measurements_encode(Phi, ident, x), Phi @ x)
    P = st.permutation(8)
    yh = scramble_measurements_encode(Phi, P, x)
    assert sorted(yh.tolist()) == pytest.approx(sorted((Phi @ x).tolist()))
    assert np.allclose(yh, np.eye(8)[P.map] @ Phi @ x)


def test_scramble_frequency_matches_explicit_product():
    st = derive_stream(11, "s")
    Phi = st.gaussian((8, 16))
    C = dct_matrix(16)
    P = st.permutation(16)
    x = st.gaussian(16)
    got = scramble_frequency_encode(Phi, P, C, x)
    want = Phi @ np.eye(16)[P.map] @ C.T @ x
    assert np.allclose(got, want, atol=1e-10)
    x1, x2 = st.gaussian(16), st.gaussian(16)
    lhs = scramble_frequency_encode(Phi, P, C, x1 + x2)
    rhs = (scramble_frequency_encode(Phi, P, C, x1)
           + scramble_frequency_encode(Phi, P, C, x2))
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_drpe_trivial_masks_give_identity_transfer():
    m = 4
    masks = DrpeMasks(np.ones(m * m, dtype=complex), np.ones(m * m, dtype=complex))
    T = drpe_transfer_matrix(masks, m)
    assert np.max(np.abs(T - np.eye(m * m))) < 1e-10


def test_drpe_transfer_is_unitary():
    masks = drpe_masks(derive_stream(12, "m"), 4)
    T = drpe_transfer_matrix(masks, 4)
    assert np.max(np.abs(T.conj().T @ T - np.eye(16))) < 1e-8
    v = derive_stream(12, "v").gaussian(16)
    assert np.linalg.norm(T @ v) == pytest.approx(np.linalg.norm(v), abs=1e-10)


def test_drpe_encode_matches_transfer_matrix_route():
    # step-by-step pipeline versus the dense Kronecker-built matrix
    st = derive_stream(13, "d")
    masks = drpe_masks(st, 4)
    Phi = st.gaussian((16, 32))
    x = st.gaussian(32)
    got = drpe_cs_encode(Phi, masks, x)
    T = drpe_transfer_matrix(masks, 4)
    assert np.max(np.abs(got - T @ (Phi @ x))) < 1e-9


def test_drpe_trivial_masks_pass_measurements_through():
    st = derive_stream(14, "d")
    Phi = st.gaussian((16, 32))
    x = st.gaussian(32)
    masks = DrpeMasks(np.ones(16, dtype=complex), np.ones(16, dtype=complex))
    got = drpe_cs_encode(Phi, masks, x)
    assert np.max(np.abs(got - Phi @ x)) < 1e-9


def test_drpe_guard_and_mask_validation():
    with pytest.raises(GuardError):
        drpe_transfer_matrix(drpe_masks(derive_stream(15, "m"), 33), 33)
    with pytest.raises(ValueError):
        DrpeMasks(np.full(4, 2.0 + 0j), np.ones(4, dtype=complex))


def _measurements():
    """6 x 3 measurements: a column with holes, a full one and an empty one."""
    Y = np.full((6, 3), np.nan)
    Y[[0, 2, 5], 0] = [1.5, -2.0, 0.25]
    Y[:, 1] = np.linspace(0, 1, 6)
    return Y


def test_measurement_file_roundtrip(tmp_path):
    Y = _measurements()
    path = tmp_path / "m.blpy"
    save_measurements(path, Y, K=6)
    assert np.array_equal(load_measurements(path, 6, 3), Y, equal_nan=True)
    # the format, packet by packet: each column's received rows, ascending
    want = b"BLPY" + np.array([3, 6], dtype="<u4").tobytes()
    for column in Y.T:
        rows = np.flatnonzero(~np.isnan(column))
        want += np.array([rows.size], dtype="<u4").tobytes()
        for r in rows:
            want += (np.array([r], dtype="<u4").tobytes()
                     + np.array([column[r]], dtype="<f8").tobytes())
    assert path.read_bytes() == want


def test_measurement_file_save_checks_its_input(tmp_path):
    path = tmp_path / "m.blpy"
    with pytest.raises(ValueError, match="K=5"):
        save_measurements(path, _measurements(), K=5)
    Y = _measurements()
    Y[1, 1] = float("inf")
    with pytest.raises(ValueError, match="finite"):
        save_measurements(path, Y, K=6)
    assert not path.exists()


def test_measurement_file_rows_may_come_in_any_order(tmp_path):
    sorted_path, shuffled_path = tmp_path / "a.blpy", tmp_path / "b.blpy"
    save_measurements(sorted_path, _measurements(), K=6)
    data = bytearray(sorted_path.read_bytes())
    # swap the first and last (u4 row, f8 value) entries of packet 0
    first, last = slice(16, 28), slice(40, 52)
    data[first], data[last] = data[last], data[first]
    shuffled_path.write_bytes(bytes(data))
    assert np.array_equal(load_measurements(shuffled_path, 6, 3),
                          load_measurements(sorted_path, 6, 3), equal_nan=True)


def test_measurement_file_header_must_match_the_expected_shape(tmp_path):
    path = tmp_path / "m.blpy"
    save_measurements(path, _measurements(), K=6)
    with pytest.raises(FormatError, match="measurement count 6 does not match K=5"):
        load_measurements(path, 5, 3)
    with pytest.raises(FormatError, match="3 packets do not match 4 columns"):
        load_measurements(path, 6, 4)


def test_measurement_file_rejects_garbage(tmp_path):
    path = tmp_path / "m.blpy"
    path.write_bytes(b"NOPE")
    with pytest.raises(FormatError):
        load_measurements(path, 4, 1)
    path.write_bytes(b"BLPY" + np.array([1, 4], dtype="<u4").tobytes()
                     + np.array([2], dtype="<u4").tobytes() + b"\x00" * 5)
    with pytest.raises(FormatError):
        load_measurements(path, 4, 1)
    # row index beyond K
    path.write_bytes(b"BLPY" + np.array([1, 4, 1, 9], dtype="<u4").tobytes()
                     + np.array([1.0], dtype="<f8").tobytes())
    with pytest.raises(FormatError, match="out of range"):
        load_measurements(path, 4, 1)


@pytest.mark.parametrize("defect, match", [
    ("nan", "non-finite"), ("inf", "non-finite"),
    ("repeated", "repeated"), ("trailing", "trailing"), ("oversized", "more than K"),
])
def test_measurement_file_rejects_malformed_packets(tmp_path, defect, match):
    Y = np.full((4, 1), np.nan)
    Y[[0, 2, 3], 0] = [1.5, -2.0, 0.25]
    path = tmp_path / "m.blpy"
    save_measurements(path, Y, K=4)
    load_measurements(path, 4, 1)
    data = bytearray(path.read_bytes())
    # 12-byte file header, the packet's 4-byte entry count, then 12-byte
    # (u4 row, f8 value) entries: entry 1 starts at byte 28
    if defect in ("nan", "inf"):
        data[32:40] = np.array([float(defect)], dtype="<f8").tobytes()
    elif defect == "repeated":
        data[40:44] = np.array([0], dtype="<u4").tobytes()  # entry 2 names row 0
    elif defect == "trailing":
        data += b"\x00"
    else:  # a packet header claiming 2^32 - 1 entries
        data = data[:12] + b"\xff\xff\xff\xff"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match=match):
        load_measurements(path, 4, 1)
