"""Key derivation, encode/decode, baseline ciphers, and file formats."""

import numpy as np
import pytest

from blpcs.cipher import (BlpKey, DrpeMasks, MeasurementPacket, blp_decode, blp_encode,
                          drpe_cs_encode, drpe_masks, drpe_transfer_matrix, keygen,
                          load_measurements, read_key_file, save_measurements,
                          scramble_frequency_encode, scramble_measurements_encode,
                          write_key_file)
from blpcs.bases import dct_matrix
from blpcs.ensembles import rip_check_montecarlo
from blpcs.errors import FormatError, GuardError
from blpcs.keyrand import derive_stream


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
    xhat, rep = blp_decode(key, y)
    assert rep.residual_l2 < 1e-8
    assert np.linalg.norm(xhat - x) < 1e-4 * np.linalg.norm(x)


def test_blp_wrong_seed_decode_fails():
    key = keygen(7, 256, 0.25, 0.97, dmax=12)
    st = derive_stream(7, "s")
    s_prime = np.zeros(256)
    s_prime[st.subset(256, 8)] = st.gaussian(8)
    x = key.basis()[1](s_prime)
    y = blp_encode(key, x)
    wrong = keygen(8, 256, 0.25, 0.97, dmax=12)
    xhat, _ = blp_decode(wrong, y)
    assert np.linalg.norm(xhat - x) > 0.5 * np.linalg.norm(x)


def test_blp_full_rate_is_invertible():
    key = keygen(9, 64, 1.0, 0.9, dmax=4)
    x = derive_stream(9, "x").gaussian(64)
    xhat, _ = blp_decode(key, blp_encode(key, x))
    assert np.linalg.norm(xhat - x) < 1e-8 * np.linalg.norm(x)


def test_scramble_measurements_is_permuted_plain_encode():
    st = derive_stream(10, "s")
    Phi = st.gaussian((8, 16))
    x = st.gaussian(16)
    p = st.permutation(8)
    ident = p.compose(p.inverse())  # identity
    assert np.allclose(scramble_measurements_encode(Phi, ident, x), Phi @ x)
    P = st.permutation(8)
    yh = scramble_measurements_encode(Phi, P, x)
    assert sorted(yh.tolist()) == pytest.approx(sorted((Phi @ x).tolist()))
    assert np.allclose(yh, P.to_matrix() @ Phi @ x)


def test_scramble_frequency_matches_explicit_product():
    st = derive_stream(11, "s")
    Phi = st.gaussian((8, 16))
    C = dct_matrix(16)
    P = st.permutation(16)
    x = st.gaussian(16)
    got = scramble_frequency_encode(Phi, P, lambda v: C.T @ v, x)
    want = Phi @ P.to_matrix() @ C.T @ x
    assert np.allclose(got, want, atol=1e-10)
    x1, x2 = st.gaussian(16), st.gaussian(16)
    lhs = scramble_frequency_encode(Phi, P, lambda v: C.T @ v, x1 + x2)
    rhs = (scramble_frequency_encode(Phi, P, lambda v: C.T @ v, x1)
           + scramble_frequency_encode(Phi, P, lambda v: C.T @ v, x2))
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


def test_measurement_file_roundtrip(tmp_path):
    pkts = [
        MeasurementPacket(indices=np.array([0, 2, 5]), values=np.array([1.5, -2.0, 0.25])),
        MeasurementPacket(indices=np.arange(6), values=np.linspace(0, 1, 6)),
        MeasurementPacket(indices=np.array([], dtype=np.int64), values=np.array([])),
    ]
    path = tmp_path / "m.blpy"
    save_measurements(path, pkts, K=6)
    loaded, K = load_measurements(path)
    assert K == 6 and len(loaded) == 3
    for a, b in zip(pkts, loaded):
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)


def test_measurement_file_rejects_garbage(tmp_path):
    path = tmp_path / "m.blpy"
    path.write_bytes(b"NOPE")
    with pytest.raises(FormatError):
        load_measurements(path)
    path.write_bytes(b"BLPY" + np.array([1, 4], dtype="<u4").tobytes()
                     + np.array([2], dtype="<u4").tobytes() + b"\x00" * 5)
    with pytest.raises(FormatError):
        load_measurements(path)
    # row index beyond K
    bad = MeasurementPacket(indices=np.array([9]), values=np.array([1.0]))
    save_measurements(path, [bad], K=4)
    with pytest.raises(FormatError):
        load_measurements(path)


@pytest.mark.parametrize("defect, match", [
    ("nan", "non-finite"), ("inf", "non-finite"),
    ("repeated", "repeated"), ("trailing", "trailing"),
])
def test_measurement_file_rejects_malformed_packets(tmp_path, defect, match):
    indices, values = np.array([0, 2, 3]), np.array([1.5, -2.0, 0.25])
    if defect in ("nan", "inf"):
        values[1] = float(defect)
    elif defect == "repeated":
        indices[2] = 0
    path = tmp_path / "m.blpy"
    save_measurements(path, [MeasurementPacket(indices=indices, values=values)], K=4)
    if defect == "trailing":
        load_measurements(path)
        path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match=match):
        load_measurements(path)
