"""Image pipeline: PGM files, scramble statistics, encode/decode, channels."""

import numpy as np
import pytest

from blpcs.cipher import keygen
from blpcs.errors import FormatError, GuardError
from blpcs.imaging import (ChannelModel, acceptable_permutation_stats, apply_channel,
                           apsnr_db, column_sparsity, columnwise_decode,
                           columnwise_encode, load_pgm, make_test_image, psnr, save_pgm)
from blpcs.keyrand import derive_stream


def test_pgm_roundtrip(tmp_path):
    img = make_test_image(64)
    path = tmp_path / "img.pgm"
    save_pgm(img, path)
    back = load_pgm(path)
    assert np.array_equal(img, back)


def test_pgm_hand_built_layout(tmp_path):
    raw = b"P5\n2 2\n255\n" + bytes([0, 128, 7, 255])
    path = tmp_path / "tiny.pgm"
    path.write_bytes(raw)
    img = load_pgm(path)
    assert np.array_equal(img, np.array([[0.0, 128.0], [7.0, 255.0]]))
    out = tmp_path / "copy.pgm"
    save_pgm(img, out)
    assert out.read_bytes() == raw


def test_pgm_rejections(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n....")
    with pytest.raises(FormatError):
        load_pgm(path)
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(FormatError):
        load_pgm(path)
    path.write_bytes(b"P5\n3 3\n255\n" + bytes(9))  # odd side
    with pytest.raises(FormatError):
        load_pgm(path)
    path.write_bytes(b"P5\n2 4\n255\n" + bytes(8))  # not square
    with pytest.raises(FormatError):
        load_pgm(path)
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(3))  # truncated raster
    with pytest.raises(FormatError):
        load_pgm(path)


def test_pgm_refuses_non_finite_image(tmp_path):
    img = make_test_image(16)
    img[3, 7] = np.nan
    path = tmp_path / "nan.pgm"
    with pytest.raises(GuardError):
        save_pgm(img, path)
    assert not path.exists()


def test_pgm_comment_header(tmp_path):
    raw = b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4])
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    assert load_pgm(path).sum() == 10


def test_make_test_image_deterministic():
    a = make_test_image(64)
    b = make_test_image(64)
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() <= 255
    assert np.array_equal(a, np.round(a))


def test_column_sparsity():
    assert column_sparsity(np.zeros((4, 4))).tolist() == [0, 0, 0, 0]
    assert column_sparsity(np.eye(5)).tolist() == [1, 1, 1, 1, 1]
    X = np.zeros((6, 3))
    X[0, 0] = 2.0
    X[[1, 3], 2] = 0.5
    assert column_sparsity(X).tolist() == [1, 0, 2]
    assert column_sparsity(X, tol=1.0).tolist() == [1, 0, 0]


def test_scramble_stats_dense_signal_never_deviates():
    n = 16
    stats = acceptable_permutation_stats(np.ones((n, n)), 50, derive_stream(1, "s"),
                                         ts=[0.0, 0.1])
    assert stats.expected == n
    assert stats.empirical[0] == 1.0   # deviation >= 0 always
    assert stats.empirical[1] == 0.0   # max column count is exactly n


def test_scramble_stats_expectation():
    n = 32
    X = np.zeros((n, n))
    X[:, :4] = 1.0  # 128 nonzeros packed into 4 columns
    stats = acceptable_permutation_stats(X, 400, derive_stream(2, "s"))
    assert stats.expected == 128 / 32
    # scrambling spreads the mass: per-column means hug the expectation
    assert np.max(np.abs(stats.col_mean - stats.expected)) < 0.75
    assert stats.reference[0] == n  # t = 0 end of the reference curve


def _sparse_test_setup(n=64, seed=11):
    # image that is exactly sparse under the keyed basis and stays in range:
    # four quadrant-constant atoms of the order-1 transform plus small extras
    key = keygen(seed, n, 0.5, 1.0, 1.0, dmax=1)
    h = n // 2
    T = np.zeros((n, n))
    for r in (0, h):
        for c in (0, h):
            T[r, c] = 128.0 * h
    st = derive_stream(seed, "extras")
    rows = st.subset(h - 1, 10) + 1
    cols = st.subset(h - 1, 10) + 1
    for r, c in zip(rows, cols):
        T[r, c] = 100.0 * (st.uniform() - 0.5)
    from blpcs.bases import rpfrct2d_basis
    basis = rpfrct2d_basis(n, 1.0, 1.0)
    image = basis.from_coeffs(T.flatten(order="F")).reshape((n, n), order="F")
    assert image.min() >= 0 and image.max() <= 255
    return key, image


def test_columnwise_roundtrip_full_rate():
    n = 32
    key = keygen(3, n, 1.0, 0.9, 0.8, dmax=3)
    img = make_test_image(n)
    rec = columnwise_decode(key, columnwise_encode(key, img))
    assert np.max(np.abs(rec - img)) < 1e-8


def test_columnwise_encode_linearity():
    n = 16
    key = keygen(4, n, 0.5, 0.95, 0.9, dmax=4)
    st = derive_stream(4, "x")
    X1 = st.gaussian((n, n))
    X2 = st.gaussian((n, n))
    p1 = columnwise_encode(key, X1)
    p2 = columnwise_encode(key, X2)
    p12 = columnwise_encode(key, X1 + X2)
    for a, b, c in zip(p1, p2, p12):
        assert np.allclose(a.values + b.values, c.values, atol=1e-9)


def test_columnwise_encode_matches_explicit_block_matrix():
    n = 8
    key = keygen(5, n, 0.5, 0.9, 0.7, dmax=5)
    from blpcs.bases import rpfrct_matrix
    spec = key.basis_spec(two_d=True)
    Ra, Rb = rpfrct_matrix(n, key.alpha), rpfrct_matrix(n, key.beta)
    W = np.kron(Rb.T, Ra.T)
    P = spec.perm.to_matrix()
    full = np.kron(np.eye(n), key.sensing_matrix()) @ np.diag(spec.scale) @ P.T @ W
    img = make_test_image(n)
    got = np.concatenate([p.values for p in columnwise_encode(key, img)])
    assert np.allclose(got, full @ img.flatten(order="F"), atol=1e-8)


def test_columnwise_decode_exactly_sparse_image():
    key, image = _sparse_test_setup()
    pkts = columnwise_encode(key, image)
    rec = columnwise_decode(key, pkts)
    assert np.linalg.norm(rec - image) < 1e-3 * np.linalg.norm(image)


def test_bcs_in_matches_blp_when_sparsity_uniform():
    # one coefficient per column: the scrambling has nothing to even out, so
    # the baseline recovers essentially as well as the scrambled pipeline
    n = 32
    key = keygen(6, n, 0.75, 1.0, 1.0, dmax=1)
    st = derive_stream(6, "rows")
    T = np.zeros((n, n))
    T[st.integers(0, n, n), np.arange(n)] = 40.0 + 80.0 * st.uniform(n)
    from blpcs.bases import rpfrct2d_basis
    img = rpfrct2d_basis(n, 1.0, 1.0).from_coeffs(T.flatten(order="F"))
    img = img.reshape((n, n), order="F") + 128.0
    assert img.min() >= 0 and img.max() <= 255
    p_blp = psnr(img, columnwise_decode(key, columnwise_encode(key, img)))
    p_bcs = psnr(img, columnwise_decode(key, columnwise_encode(key, img, scramble=False),
                                        scramble=False))
    assert p_blp > 40.0 and p_bcs > 40.0
    assert abs(p_blp - p_bcs) < 5.0


def test_psnr_values():
    img = make_test_image(8)
    assert psnr(img, img) == float("inf")
    assert psnr(np.zeros((8, 8)), np.full((8, 8), 255.0)) == pytest.approx(0.0)
    ref = np.zeros((8, 8))
    test = np.zeros((8, 8))
    test[2, 3] = 16.0
    # direct formula: 10 log10(64 * 255^2 / 256)
    assert psnr(ref, test) == pytest.approx(42.110, abs=1e-3)
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4)), np.zeros((8, 8)))


def test_apsnr_averages_ratios_before_log():
    # energy ratios 100 and 10000: the ratio average gives 10*log10(5050)
    assert apsnr_db([100.0, 10000.0]) == pytest.approx(10 * np.log10(5050.0))
    assert apsnr_db([100.0, float("inf")]) == float("inf")


def test_channel_models():
    with pytest.raises(ValueError):
        ChannelModel(kind="fog")
    with pytest.raises(ValueError):
        ChannelModel(kind="packet_loss", plr=1.0)
    key = keygen(7, 16, 0.5, 0.9, dmax=2)
    pkts = columnwise_encode(key, make_test_image(16))
    same = apply_channel(pkts, ChannelModel(kind="ideal"), derive_stream(7, "c"))
    for a, b in zip(pkts, same):
        assert np.array_equal(a.values, b.values)


def test_awgn_channel_noise_variance():
    from blpcs.cipher import MeasurementPacket
    pkts = [MeasurementPacket(indices=np.arange(10**5), values=np.zeros(10**5))]
    noisy = apply_channel(pkts, ChannelModel(kind="awgn", noise_var=1.0),
                          derive_stream(8, "n"))
    assert abs(noisy[0].values.var() - 1.0) < 0.02
    assert abs(noisy[0].values.mean()) < 0.02


def test_packet_loss_channel_survival_rate():
    from blpcs.cipher import MeasurementPacket
    pkts = [MeasurementPacket(indices=np.arange(10**5), values=np.ones(10**5))]
    lost = apply_channel(pkts, ChannelModel(kind="packet_loss", plr=0.3),
                         derive_stream(9, "p"))
    frac = lost[0].indices.size / 10**5
    assert abs(frac - 0.7) < 0.01


def test_decode_with_packet_loss_stays_reasonable():
    n = 64
    key = keygen(10, n, 0.5, 0.99, 0.95, dmax=4)
    img = make_test_image(n)
    pkts = columnwise_encode(key, img)
    lossy = apply_channel(pkts, ChannelModel(kind="packet_loss", plr=0.2),
                          derive_stream(10, "c"))
    rec = columnwise_decode(key, lossy)
    assert rec.shape == (n, n)
    assert psnr(img, rec) > 15.0
    # losing measurements cannot help
    assert psnr(img, rec) <= psnr(img, columnwise_decode(key, pkts)) + 0.5


def test_image_side_must_match_key():
    key = keygen(11, 32, 0.5, 0.9, dmax=2)
    with pytest.raises(ValueError):
        columnwise_encode(key, make_test_image(16))


def test_decode_is_deterministic():
    # columns share no mutable state; repeated decodes are bit-identical
    key = keygen(12, 32, 0.5, 0.95, 0.9, dmax=4)
    pkts = columnwise_encode(key, make_test_image(32))
    a = columnwise_decode(key, pkts)
    b = columnwise_decode(key, pkts)
    assert np.array_equal(a, b)
