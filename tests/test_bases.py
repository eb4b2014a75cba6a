"""Transform construction, fractional powers, and basis-equivalence operators."""

import math

import numpy as np
import pytest

from blpcs import bases
from blpcs.bases import (SecretBasisSpec, best_s_term, build_secret_basis, corner_region_1d,
                         corner_region_2d, dct_eigensystem, dct_matrix, mix_coefficients,
                         rpfrct_matrix, unmix_coefficients)
from blpcs.imaging import make_test_image
from blpcs.keyrand import derive_stream


def test_dct_n1():
    assert np.array_equal(dct_matrix(1), np.array([[1.0]]))


def test_dct_orthogonality_n8():
    C = dct_matrix(8)
    assert np.max(np.abs(C.T @ C - np.eye(8))) < 1e-12


def test_dct_entries_match_scalar_formula():
    # independent evaluation of the entry formula, one scalar at a time
    n = 4
    C = dct_matrix(n)
    for i in range(n):
        for l in range(n):
            eps = 1.0 if l == 0 else math.sqrt(2.0)
            want = eps / math.sqrt(n) * math.cos(2.0 * math.pi * (2 * i + 1) * l / (4.0 * n))
            assert C[i, l] == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("n", [4, 8, 64, 250])
def test_eigensystem_invariants(n):
    sys = dct_eigensystem(n)
    assert np.max(np.abs(sys.U.conj().T @ sys.U - np.eye(n))) < 1e-10
    assert np.max(np.abs(sys.fractional(1.0) - dct_matrix(n))) < 1e-10
    assert np.all(sys.phis > -np.pi - 1e-12) and np.all(sys.phis <= np.pi + 1e-9)


def test_eigensystem_rejects_near_equal_arguments(monkeypatch):
    # no size a key allows has two arguments within _CLUSTER_TOL, so widen
    # the tolerance past the smallest gap at n = 6 to reach the check
    monkeypatch.setattr(bases, "_EIG_CACHE", {})
    monkeypatch.setattr(bases, "_CLUSTER_TOL", 1.0)
    with pytest.raises(ArithmeticError, match="size-6"):
        dct_eigensystem(6)


def test_dfrct_order_zero_and_one():
    sys = dct_eigensystem(16)
    assert np.max(np.abs(sys.fractional(0.0) - np.eye(16))) < 1e-8
    assert np.max(np.abs(sys.fractional(1.0) - dct_matrix(16))) < 1e-8


def test_dfrct_order_additivity():
    sys = dct_eigensystem(12)
    C3, C7, C1 = sys.fractional(0.3), sys.fractional(0.7), sys.fractional(1.0)
    assert np.max(np.abs(C3 @ C7 - C1)) < 1e-6


def test_rpfrct_is_real_orthogonal_identity_cases():
    M = 20
    assert np.max(np.abs(rpfrct_matrix(M, 0.0) - np.eye(M))) < 1e-8
    R1 = rpfrct_matrix(M, 1.0)
    C = dct_matrix(M // 2)
    want = np.block([[C, np.zeros((M // 2, M // 2))], [np.zeros((M // 2, M // 2)), C]])
    assert np.max(np.abs(R1 - want)) < 1e-8


def test_rpfrct_rejects_odd_length():
    with pytest.raises(ValueError):
        rpfrct_matrix(9, 0.5)


@pytest.mark.parametrize("n", [4, 8, 16, 64, 256, 512])
def test_rpfrct_orthogonality(n):
    R = rpfrct_matrix(n, 0.97)
    assert np.max(np.abs(R @ R.T - np.eye(n))) < 1e-8


def test_rpfrct_matches_complex_packing_oracle():
    # apply the half-length complex transform by hand and unpack
    M, alpha = 8, 0.63
    x = derive_stream(1, "x").gaussian(M)
    B = dct_eigensystem(M // 2).fractional(alpha)
    xt = x[: M // 2] + 1j * x[M // 2:]
    yt = B @ xt
    want = np.concatenate([yt.real, yt.imag])
    assert np.allclose(rpfrct_matrix(M, alpha) @ x, want, atol=1e-10)


def _plain(n, alpha, beta=None):
    """(forward, inverse) of the fractional cosine basis with no secret steps."""
    return build_secret_basis(SecretBasisSpec(n, alpha, beta))


def test_rpfrct2d_identity_and_isometry():
    x = derive_stream(2, "X").gaussian((6, 6)).flatten(order="F")
    assert np.allclose(_plain(6, 0.0, 0.0)[0](x), x, atol=1e-8)
    fwd, inv = _plain(6, 0.9, 0.8)
    s = fwd(x)
    assert np.linalg.norm(s) == pytest.approx(np.linalg.norm(x), abs=1e-8)
    assert np.allclose(inv(s), x, atol=1e-8)


def test_rpfrct2d_matches_kronecker_oracle():
    x = derive_stream(3, "X").gaussian((4, 4)).flatten(order="F")
    a, b = 0.85, 0.75
    fwd, inv = _plain(4, a, b)
    big = np.kron(rpfrct_matrix(4, b), rpfrct_matrix(4, a))
    assert np.allclose(inv(x), big @ x, atol=1e-10)
    assert np.allclose(fwd(x), big.T @ x, atol=1e-10)


def test_f1_scale_identity_and_coefficients():
    n = 10
    x = derive_stream(4, "x").gaussian(n)
    plain, _ = _plain(n, 0.9)
    fwd, _ = build_secret_basis(SecretBasisSpec(n, 0.9, scale=np.ones(n)))
    assert np.array_equal(fwd(x), plain(x))
    d = np.arange(1, n + 1, dtype=float)
    fwd, inv = build_secret_basis(SecretBasisSpec(n, 0.9, scale=d))
    assert np.array_equal(fwd(x), plain(x) / (1.0 / d))  # coefficients scale by d_j
    assert np.allclose(inv(fwd(x)), x)
    for bad in (np.zeros(n), -d, np.full(n, np.inf), np.full(n, np.nan), np.ones(n + 1)):
        with pytest.raises(ValueError):
            build_secret_basis(SecretBasisSpec(n, 0.9, scale=bad))


def test_f1_preserves_sparsity_through_transform():
    M = 32
    _, plain_inv = _plain(M, 0.95)
    d = derive_stream(5, "d").integers(1, 9, M).astype(float)
    fwd, _ = build_secret_basis(SecretBasisSpec(M, 0.95, scale=d))
    s = np.zeros(M)
    s[derive_stream(5, "sup").subset(M, 10)] = 1.0 + derive_stream(5, "v").uniform(10)
    x = plain_inv(s)
    assert np.count_nonzero(np.abs(fwd(x)) > 1e-10) == 10


def test_f2_permute_support_mapping():
    n = 16
    perm = derive_stream(6, "p").permutation(n)
    plain, plain_inv = _plain(n, 0.9)
    fwd, inv = build_secret_basis(SecretBasisSpec(n, 0.9, perm=perm))
    x = derive_stream(6, "x").gaussian(n)
    assert np.array_equal(fwd(x), perm.apply_transpose(plain(x)))
    s = np.zeros(n)
    s[[2, 5, 11]] = (1.0, -2.0, 3.0)
    sp = fwd(plain_inv(s))
    assert set(np.flatnonzero(np.abs(sp) > 1e-9)) == {perm.map[2], perm.map[5], perm.map[11]}
    assert np.allclose(inv(sp), plain_inv(s))
    with pytest.raises(ValueError):
        build_secret_basis(SecretBasisSpec(n + 2, 0.9, perm=perm))


def test_f2_sparsity_preserved_over_trials():
    M = 24
    _, plain_inv = _plain(M, 0.9)
    st = derive_stream(7, "t")
    for _ in range(200):
        perm = st.permutation(M)
        fwd, _ = build_secret_basis(SecretBasisSpec(M, 0.9, perm=perm))
        s = np.zeros(M)
        s[st.subset(M, 5)] = st.gaussian(5)
        x = plain_inv(s)
        assert np.count_nonzero(np.abs(fwd(x)) > 1e-9) == np.count_nonzero(s)


def test_f3_mix_identity_and_eq8_update():
    n = 8
    # a=1, b=0 leaves everything unchanged
    x = derive_stream(8, "x").gaussian(n)
    assert np.array_equal(mix_coefficients(x, [(2, 5, 1.0, 0.0)]), x)
    # integer closed form: s_j=4, s_k=5, a=2, b=3 -> s'_j=2, s'_k=-1
    mixes = [(2, 5, 2.0, 3.0)]
    s = np.zeros(n)
    s[2], s[5] = 4.0, 5.0
    sp = mix_coefficients(s, mixes)
    assert sp[2] == 2.0 and sp[5] == -1.0
    assert np.array_equal(unmix_coefficients(sp, mixes), s)
    assert s[2] == 4.0  # the input is not modified
    # the builder's mix step is this update
    plain, _ = _plain(n, 0.9)
    fwd, inv = build_secret_basis(SecretBasisSpec(n, 0.9, mixes=mixes))
    assert np.array_equal(fwd(x), mix_coefficients(plain(x), mixes))
    assert np.allclose(inv(fwd(x)), x)


def test_f3_outside_support_pairs_do_nothing():
    s = np.zeros(12)
    s[[0, 2]] = (1.0, 4.0)
    assert np.array_equal(mix_coefficients(s, [(7, 9, 1.7, -0.4)]), s)


def test_f3_region_constraint_enforced():
    # build_secret_basis rejects a mix that is no basis change; that both ends of
    # a key's mixes lie in one region is the key's to keep, checked by
    # tests/test_cipher.py::test_basis_spec_mixes_stay_in_the_permuted_corner_region
    n = 12

    def build(mixes):
        return build_secret_basis(SecretBasisSpec(n, 0.9, mixes=mixes))

    build([(0, 3, 1.0, 1.0)])
    for bad in ([(0, 3, 0.0, 1.0)], [(3, 3, 1.0, 1.0)], [(0, n, 1.0, 1.0)]):
        with pytest.raises(ValueError):
            build(bad)


@pytest.mark.parametrize("beta", [None, 0.8])
def test_full_spec_is_the_composition_of_its_steps(beta):
    # forward = plain analysis, then P^T, then / (1 / d), then the mix update,
    # byte for byte; the inverse undoes it
    n = 8
    size = n * n if beta is not None else n
    st = derive_stream(12, f"full/{beta}")
    perm = st.permutation(size)
    d = st.integers(1, 9, size).astype(float)
    mixes = [(1, 4, 1.5, -0.5), (6, 2, -0.7, 1.2)]
    plain, _ = _plain(n, 0.9, beta)
    fwd, inv = build_secret_basis(SecretBasisSpec(n, 0.9, beta, perm=perm, scale=d,
                                                  mixes=mixes))
    x = st.gaussian(size)
    want = mix_coefficients(perm.apply_transpose(plain(x)) / (1.0 / d), mixes)
    assert np.array_equal(fwd(x), want)
    assert np.allclose(inv(fwd(x)), x, atol=1e-10)


def test_corner_regions():
    r1 = corner_region_1d(16, 2)
    assert r1.tolist() == [0, 1, 8, 9]
    r2 = corner_region_2d(4, 1)
    # rows/cols 0 and 2, column-stacked indices c*4+r
    assert sorted(r2.tolist()) == [0, 2, 8, 10]


def test_build_secret_basis_reduces_to_plain_dct_family():
    spec = SecretBasisSpec(n=16, alpha=1.0)
    fwd, inv = build_secret_basis(spec)
    x = derive_stream(9, "x").gaussian(16)
    assert np.allclose(fwd(x), rpfrct_matrix(16, 1.0).T @ x)
    assert np.allclose(inv(fwd(x)), x, atol=1e-8)


def test_build_secret_basis_roundtrip_and_sparsity():
    M = 64
    st = derive_stream(10, "k")
    region_plain = corner_region_1d(M, 8)
    perm = st.permutation(M)
    scale = st.integers(1, 7, M).astype(float)
    region = perm.map[region_plain]
    mixes = []
    chosen = region[st.subset(region.size, 8)]
    for t in range(4):
        mixes.append((int(chosen[2 * t]), int(chosen[2 * t + 1]),
                      0.5 + st.uniform(), 0.5 + st.uniform()))
    spec = SecretBasisSpec(n=M, alpha=0.97, perm=perm, scale=scale, mixes=mixes)
    fwd, inv = build_secret_basis(spec)
    x = st.gaussian(M)
    assert np.allclose(inv(fwd(x)), x, atol=1e-8)
    # signals whose plain support fills the significant region keep their count
    _, plain_inv = _plain(M, 0.97)
    s = np.zeros(M)
    s[region_plain] = 1.0 + st.uniform(region_plain.size)
    x_sig = plain_inv(s)
    assert np.count_nonzero(np.abs(fwd(x_sig)) > 1e-9) == region_plain.size


def test_best_s_term():
    c = np.array([3.0, -5.0, 1.0, 4.0])
    assert np.array_equal(best_s_term(c, 4), c)
    assert np.array_equal(best_s_term(c, 0), np.zeros(4))
    got = best_s_term(c, 2)
    # brute-force oracle over all 2-subsets
    from itertools import combinations
    best = None
    for T in combinations(range(4), 2):
        cand = np.zeros(4)
        cand[list(T)] = c[list(T)]
        err = np.linalg.norm(c - cand)
        if best is None or err < best[0]:
            best = (err, cand)
    assert np.array_equal(got, best[1])
    assert np.linalg.norm(c - got) == pytest.approx(best[0])


def test_energy_localizes_in_subblock_corners():
    # coefficients of a natural image concentrate in the four corner blocks
    img = make_test_image(512)
    fwd, _ = _plain(512, 0.99, 0.95)
    coeffs = fwd(img.flatten(order="F"))
    corners = corner_region_2d(512, 128)
    share = np.sum(coeffs[corners] ** 2) / np.sum(coeffs ** 2)
    assert share >= 0.70
