"""Transform construction, fractional powers, and basis-equivalence operators."""

import math

import numpy as np
import pytest

from blpcs.bases import (BasisPair, SecretBasisSpec, best_s_term, build_secret_basis,
                         corner_region_1d, corner_region_2d, dct_eigensystem, dct_matrix,
                         dfrct_matrix, f1_scale, f2_permute, f3_mix, rpfrct2d_basis,
                         rpfrct_basis, rpfrct_matrix)
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


def test_dfrct_order_zero_and_one():
    n = 16
    assert np.max(np.abs(dfrct_matrix(n, 0.0) - np.eye(n))) < 1e-8
    assert np.max(np.abs(dfrct_matrix(n, 1.0) - dct_matrix(n))) < 1e-8


def test_dfrct_order_additivity():
    n = 12
    C3, C7, C1 = dfrct_matrix(n, 0.3), dfrct_matrix(n, 0.7), dfrct_matrix(n, 1.0)
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
    B = dfrct_matrix(M // 2, alpha)
    xt = x[: M // 2] + 1j * x[M // 2:]
    yt = B @ xt
    want = np.concatenate([yt.real, yt.imag])
    assert np.allclose(rpfrct_matrix(M, alpha) @ x, want, atol=1e-10)


def test_rpfrct2d_identity_and_isometry():
    x = derive_stream(2, "X").gaussian((6, 6)).flatten(order="F")
    assert np.allclose(rpfrct2d_basis(6, 0.0, 0.0).to_coeffs(x), x, atol=1e-8)
    basis = rpfrct2d_basis(6, 0.9, 0.8)
    s = basis.to_coeffs(x)
    assert np.linalg.norm(s) == pytest.approx(np.linalg.norm(x), abs=1e-8)
    assert np.allclose(basis.from_coeffs(s), x, atol=1e-8)


def test_rpfrct2d_matches_kronecker_oracle():
    x = derive_stream(3, "X").gaussian((4, 4)).flatten(order="F")
    a, b = 0.85, 0.75
    basis = rpfrct2d_basis(4, a, b)
    big = np.kron(rpfrct_matrix(4, b), rpfrct_matrix(4, a))
    assert np.allclose(basis.from_coeffs(x), big @ x, atol=1e-10)
    assert np.allclose(basis.to_coeffs(x), big.T @ x, atol=1e-10)


def _identity_basis(n):
    return BasisPair(lambda x: np.array(x, dtype=float),
                     lambda s: np.array(s, dtype=float), n)


def test_f1_scale_identity_and_coefficients():
    n = 10
    base = _identity_basis(n)
    assert np.allclose(f1_scale(base, np.ones(n)).to_coeffs(np.arange(n, dtype=float)),
                       np.arange(n))
    d = np.arange(1, n + 1, dtype=float)
    scaled = f1_scale(base, d)
    x = derive_stream(4, "x").gaussian(n)
    assert np.allclose(scaled.to_coeffs(x), x / d)
    assert np.allclose(scaled.from_coeffs(scaled.to_coeffs(x)), x)
    with pytest.raises(ValueError):
        f1_scale(base, np.zeros(n))


def test_f1_preserves_sparsity_through_transform():
    M = 32
    base = rpfrct_basis(M, 0.95)
    d = derive_stream(5, "d").integers(1, 9, M).astype(float)
    scaled = f1_scale(base, d)
    s = np.zeros(M)
    s[derive_stream(5, "sup").subset(M, 10)] = 1.0 + derive_stream(5, "v").uniform(10)
    x = base.from_coeffs(s)
    assert np.count_nonzero(np.abs(scaled.to_coeffs(x)) > 1e-10) == 10


def test_f2_permute_support_mapping():
    n = 16
    base = _identity_basis(n)
    perm = derive_stream(6, "p").permutation(n)
    permuted = f2_permute(base, perm)
    s = np.zeros(n)
    s[[2, 5, 11]] = (1.0, -2.0, 3.0)
    sp = permuted.to_coeffs(s)
    assert np.count_nonzero(sp) == 3
    assert set(np.flatnonzero(sp)) == {perm.map[2], perm.map[5], perm.map[11]}
    assert np.allclose(permuted.from_coeffs(sp), s)


def test_f2_sparsity_preserved_over_trials():
    M = 24
    base = rpfrct_basis(M, 0.9)
    st = derive_stream(7, "t")
    for _ in range(200):
        perm = st.permutation(M)
        alt = f2_permute(base, perm)
        s = np.zeros(M)
        s[st.subset(M, 5)] = st.gaussian(5)
        x = base.from_coeffs(s)
        assert np.count_nonzero(np.abs(alt.to_coeffs(x)) > 1e-9) == np.count_nonzero(s)


def test_f3_mix_identity_and_eq8_update():
    n = 8
    base = _identity_basis(n)
    # a=1, b=0 leaves everything unchanged
    plain = f3_mix(base, [(2, 5, 1.0, 0.0)])
    x = derive_stream(8, "x").gaussian(n)
    assert np.allclose(plain.to_coeffs(x), x)
    # integer closed form: s_j=4, s_k=5, a=2, b=3 -> s'_j=2, s'_k=-1
    mixed = f3_mix(base, [(2, 5, 2.0, 3.0)])
    s = np.zeros(n)
    s[2], s[5] = 4.0, 5.0
    x = base.from_coeffs(s)  # x == s for the identity basis
    sp = mixed.to_coeffs(x)
    assert sp[2] == 2.0 and sp[5] == -1.0
    assert np.allclose(mixed.from_coeffs(sp), x)


def test_f3_outside_support_pairs_do_nothing():
    n = 12
    base = _identity_basis(n)
    mixed = f3_mix(base, [(7, 9, 1.7, -0.4)])
    s = np.zeros(n)
    s[[0, 2]] = (1.0, 4.0)
    assert np.allclose(mixed.to_coeffs(base.from_coeffs(s)), s)


def test_f3_region_constraint_enforced():
    n = 12
    base = _identity_basis(n)
    region = np.array([0, 1, 2, 3])
    f3_mix(base, [(0, 3, 1.0, 1.0)], region=region)  # inside: fine
    f3_mix(base, [(6, 9, 1.0, 1.0)], region=region)  # outside: fine
    with pytest.raises(ValueError):
        f3_mix(base, [(0, 9, 1.0, 1.0)], region=region)
    with pytest.raises(ValueError):
        f3_mix(base, [(0, 3, 0.0, 1.0)])


def test_corner_regions():
    r1 = corner_region_1d(16, 2)
    assert r1.tolist() == [0, 1, 8, 9]
    r2 = corner_region_2d(4, 1)
    # rows/cols 0 and 2, column-stacked indices c*4+r
    assert sorted(r2.tolist()) == [0, 2, 8, 10]


def test_build_secret_basis_reduces_to_plain_dct_family():
    spec = SecretBasisSpec(n=16, alpha=1.0)
    fwd, inv = build_secret_basis(spec)
    plain = rpfrct_basis(16, 1.0)
    x = derive_stream(9, "x").gaussian(16)
    assert np.allclose(fwd(x), plain.to_coeffs(x))
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
    spec = SecretBasisSpec(n=M, alpha=0.97, perm=perm, scale=scale,
                           mixes=mixes, region=region)
    fwd, inv = build_secret_basis(spec)
    x = st.gaussian(M)
    assert np.allclose(inv(fwd(x)), x, atol=1e-8)
    # signals whose plain support fills the significant region keep their count
    plain = rpfrct_basis(M, 0.97)
    s = np.zeros(M)
    s[region_plain] = 1.0 + st.uniform(region_plain.size)
    x_sig = plain.from_coeffs(s)
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
    basis = rpfrct2d_basis(512, 0.99, 0.95)
    coeffs = basis.to_coeffs(img.flatten(order="F"))
    corners = corner_region_2d(512, 128)
    share = np.sum(coeffs[corners] ** 2) / np.sum(coeffs ** 2)
    assert share >= 0.70
