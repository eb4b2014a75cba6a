"""Image pipeline: PGM files, scramble statistics, encode/decode, channels."""

import numpy as np
import pytest

from blpcs.bases import SecretBasisSpec, build_secret_basis
from blpcs.cipher import keygen
from blpcs.errors import FormatError, GuardError
from blpcs.imaging import (ChannelModel, apply_channel, apsnr_db, columnwise_decode,
                           columnwise_encode, load_pgm, make_test_image, psnr, save_pgm)
from blpcs.keyrand import derive_stream

from oracles import acceptable_permutation_stats


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
    for side in (b"-4", b"0"):  # non-positive sides
        path.write_bytes(b"P5\n" + side + b" " + side + b"\n255\n" + bytes(16))
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
    _, inverse = build_secret_basis(SecretBasisSpec(n, 1.0, 1.0))
    image = inverse(T.flatten(order="F")).reshape((n, n), order="F")
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
    Y1 = columnwise_encode(key, X1)
    Y2 = columnwise_encode(key, X2)
    assert Y1.shape == (key.K, n)
    assert np.allclose(Y1 + Y2, columnwise_encode(key, X1 + X2), atol=1e-9)


def test_columnwise_encode_matches_explicit_block_matrix():
    n = 8
    key = keygen(5, n, 0.5, 0.9, 0.7, dmax=5)
    from blpcs.bases import rpfrct_matrix
    spec = key.basis_spec(two_d=True)
    Ra, Rb = rpfrct_matrix(n, key.alpha), rpfrct_matrix(n, key.beta)
    W = np.kron(Rb.T, Ra.T)
    P = np.eye(n * n)[spec.perm.map]
    full = np.kron(np.eye(n), key.sensing_matrix()) @ np.diag(spec.scale) @ P.T @ W
    img = make_test_image(n)
    got = columnwise_encode(key, img).flatten(order="F")
    assert np.allclose(got, full @ img.flatten(order="F"), atol=1e-8)


def test_columnwise_decode_exactly_sparse_image():
    key, image = _sparse_test_setup()
    rec = columnwise_decode(key, columnwise_encode(key, image))
    assert np.linalg.norm(rec - image) < 1e-3 * np.linalg.norm(image)


def test_bcs_in_matches_blp_when_sparsity_uniform():
    # one coefficient per column: the scrambling has nothing to even out, so
    # the baseline recovers essentially as well as the scrambled pipeline
    n = 32
    key = keygen(6, n, 0.75, 1.0, 1.0, dmax=1)
    st = derive_stream(6, "rows")
    T = np.zeros((n, n))
    T[st.integers(0, n, n), np.arange(n)] = 40.0 + 80.0 * st.uniform(n)
    _, inverse = build_secret_basis(SecretBasisSpec(n, 1.0, 1.0))
    img = inverse(T.flatten(order="F"))
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
    for var in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="noise_var"):
            ChannelModel(kind="awgn", noise_var=var)
    key = keygen(7, 16, 0.5, 0.9, dmax=2)
    Y = columnwise_encode(key, make_test_image(16))
    Y[[1, 5], [0, 3]] = np.nan  # two measurements already lost
    before = Y.copy()
    same = apply_channel(Y, ChannelModel(kind="ideal"), derive_stream(7, "c"))
    assert np.array_equal(same, Y, equal_nan=True) and same is not Y
    for model in (ChannelModel(kind="awgn", noise_var=1.0),
                  ChannelModel(kind="packet_loss", plr=0.5)):
        out = apply_channel(Y, model, derive_stream(7, "c"))
        assert np.array_equal(Y, before, equal_nan=True)  # the input is left unchanged
        assert np.isnan(out[1, 0]) and np.isnan(out[5, 3])  # lost stays lost


def test_channel_draws_follow_the_packet_order():
    # one draw per received value, column by column with rows ascending: the
    # same draws as taking each column's received rows in turn
    Y = derive_stream(6, "y").gaussian((8, 5))
    Y[[0, 3, 7], [1, 1, 4]] = np.nan
    for model in (ChannelModel(kind="awgn", noise_var=2.0),
                  ChannelModel(kind="packet_loss", plr=0.4)):
        got = apply_channel(Y, model, derive_stream(6, "c"))
        stream, want = derive_stream(6, "c"), Y.copy()
        for j in range(Y.shape[1]):
            rows = np.flatnonzero(~np.isnan(Y[:, j]))
            if model.kind == "awgn":
                want[rows, j] += stream.gaussian(rows.size) * np.sqrt(model.noise_var)
            else:
                want[rows[stream.uniform(rows.size) < model.plr], j] = np.nan
        assert np.array_equal(got, want, equal_nan=True)


def test_awgn_channel_noise_variance():
    noisy = apply_channel(np.zeros((10**5, 1)), ChannelModel(kind="awgn", noise_var=1.0),
                          derive_stream(8, "n"))
    assert abs(noisy.var() - 1.0) < 0.02
    assert abs(noisy.mean()) < 0.02


def test_packet_loss_channel_survival_rate():
    lost = apply_channel(np.ones((10**5, 1)), ChannelModel(kind="packet_loss", plr=0.3),
                         derive_stream(9, "p"))
    frac = np.count_nonzero(~np.isnan(lost)) / 10**5
    assert abs(frac - 0.7) < 0.01


def test_decode_with_packet_loss_stays_reasonable():
    n = 64
    key = keygen(10, n, 0.5, 0.99, 0.95, dmax=4)
    img = make_test_image(n)
    Y = columnwise_encode(key, img)
    lossy = apply_channel(Y, ChannelModel(kind="packet_loss", plr=0.2),
                          derive_stream(10, "c"))
    rec = columnwise_decode(key, lossy)
    assert rec.shape == (n, n)
    assert psnr(img, rec) > 15.0
    # losing measurements cannot help
    assert psnr(img, rec) <= psnr(img, columnwise_decode(key, Y)) + 0.5


def test_image_side_must_match_key():
    key = keygen(11, 32, 0.5, 0.9, dmax=2)
    with pytest.raises(ValueError):
        columnwise_encode(key, make_test_image(16))
    with pytest.raises(ValueError, match="shape"):
        columnwise_decode(key, np.zeros((key.K, 16)))


def test_encode_rejects_an_image_that_is_not_2d():
    key = keygen(11, 16, 0.5, 0.9, dmax=2)
    for image in (np.float64(3.0), np.zeros((16, 16, 3)), np.zeros(16)):
        with pytest.raises(ValueError, match="square"):
            columnwise_encode(key, image)


def test_encode_guards_against_overflow():
    # finite pixels so large that the measurements overflow to inf and NaN
    key = keygen(11, 16, 0.5, 0.9, dmax=2)
    image = np.full((16, 16), 1e308)
    image[::2] = -1e308
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(GuardError):
        columnwise_encode(key, image)


def test_decode_is_deterministic():
    # columns share no mutable state; repeated decodes are bit-identical
    key = keygen(12, 32, 0.5, 0.95, 0.9, dmax=4)
    Y = columnwise_encode(key, make_test_image(32))
    a = columnwise_decode(key, Y)
    b = columnwise_decode(key, Y)
    assert np.array_equal(a, b)
