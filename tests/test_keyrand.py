"""Determinism and distribution checks for the labeled stream generator."""

import hashlib
import math
from itertools import permutations

import numpy as np
import pytest

from blpcs.keyrand import Permutation, derive_stream
from oracles import fisher_yates_reference


def test_same_seed_same_label_replays():
    a = derive_stream(1, "A").uniform(100)
    b = derive_stream(1, "A").uniform(100)
    assert np.array_equal(a, b)


def test_labels_separate_streams():
    a = derive_stream(1, "A").uniform(8)
    b = derive_stream(1, "B").uniform(8)
    assert not np.array_equal(a, b)


def test_seeds_separate_streams():
    a = derive_stream(1, "A").uniform(8)
    b = derive_stream(2, "A").uniform(8)
    assert not np.array_equal(a, b)


def test_bad_labels_rejected():
    with pytest.raises(ValueError):
        derive_stream(1, "")
    with pytest.raises(ValueError):
        derive_stream(1, "café")
    with pytest.raises(ValueError):
        derive_stream(-1, "A")


def test_uniform_range_and_mean():
    u = derive_stream(10, "u").uniform(10**6)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.002


def test_next_uniform_matches_stream_order():
    s1 = derive_stream(4, "seq")
    s2 = derive_stream(4, "seq")
    singles = [s1.uniform() for _ in range(5)]
    assert np.allclose(singles, s2.uniform(5))


def test_gaussian_moments():
    z = derive_stream(11, "g").gaussian(10**6)
    assert abs(z.mean()) < 0.005
    assert abs(z.var() - 1.0) < 0.01


def test_gaussian_central_mass():
    # oracle: P(|z| < 1.96) = erf(1.96/sqrt(2)) = 0.9500042
    z = derive_stream(12, "g2").gaussian(10**6)
    target = math.erf(1.96 / math.sqrt(2.0))
    assert abs(np.mean(np.abs(z) < 1.96) - target) < 0.005


def test_next_gaussian_consumes_pairs():
    s1 = derive_stream(13, "pair")
    s2 = derive_stream(13, "pair")
    singles = [s1.gaussian() for _ in range(4)]
    assert np.allclose(singles, s2.gaussian(4))


def test_permutation_identity_for_n1():
    p = derive_stream(5, "p").permutation(1)
    assert p.map.tolist() == [0]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 64, 4096, 512 * 512])
def test_permutation_matches_sequential_shuffle(n):
    for seed, label in ((1, "perm"), (2, "perm"), (9, "attack/P_M"), (2**64 - 1, "chi/3")):
        s, r = derive_stream(seed, label), derive_stream(seed, label)
        assert np.array_equal(s.permutation(n).map, fisher_yates_reference(r, n))
        assert s.uniform() == r.uniform()  # both drew exactly n - 1 uniforms


# SHA-256 of permutation(512 * 512).map.tobytes() under label "perm" (the 2-D
# key scramble), recorded from the sequential swap loop: the key-stream
# convention that every key file depends on
_GOLDEN_PERM_SHA256 = {
    1: "ed82ff1121dd588e5b5833074ad88605691ce15d53b36045554d9dde9f304a5b",
    2: "1523a7c941e0fab80cba23a8a1e57f7b4d1d3812b1217af9c4dfde651b872944",
    3: "d6141b271ff0bf4a91c54b99b464f44d1d5c08e4cb536b088a1cf32435011092",
}


@pytest.mark.parametrize("seed", sorted(_GOLDEN_PERM_SHA256))
def test_key_scramble_golden_hash(seed):
    perm = derive_stream(seed, "perm").permutation(512 * 512)
    assert hashlib.sha256(perm.map.tobytes()).hexdigest() == _GOLDEN_PERM_SHA256[seed]


def test_permutation_inverse_composition():
    s = derive_stream(6, "p")
    p = s.permutation(50)
    assert np.argsort(p.map)[p.map].tolist() == list(range(50))  # inverse after p
    x = s.gaussian(50)
    assert np.allclose(p.apply_transpose(p.apply(x)), x)
    assert np.allclose(np.eye(50)[p.map] @ x, p.apply(x))


def test_permutation_three_element_frequencies():
    s = derive_stream(7, "freq")
    counts = {}
    trials = 60000
    for _ in range(trials):
        key = tuple(s.permutation(3).map.tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for c in counts.values():
        assert abs(c / trials - 1 / 6) < 0.01


# critical values of the chi-square distribution at significance 0.001
# (quantile 0.999), for df = n! - 1
_CHI2_999 = {1: 10.8276, 5: 20.5150, 23: 49.7282}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shuffle_unbiasedness_chi_square(n):
    s = derive_stream(8, f"chi/{n}")
    trials = 10**5
    counts = dict.fromkeys(permutations(range(n)), 0)
    for _ in range(trials):
        counts[tuple(s.permutation(n).map.tolist())] += 1
    expected = trials / math.factorial(n)
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    df = math.factorial(n) - 1
    assert stat < _CHI2_999[df]


def test_subset_uniform_and_distinct():
    s = derive_stream(9, "sub")
    sel = s.subset(100, 10)
    assert len(set(sel.tolist())) == 10
    assert sel.min() >= 0 and sel.max() < 100
    # each element appears with probability k/n
    hits = np.zeros(20)
    for _ in range(20000):
        hits[s.subset(20, 5)] += 1
    assert np.all(np.abs(hits / 20000 - 0.25) < 0.02)


def test_integers_range():
    v = derive_stream(14, "ints").integers(1, 61, 10**5)
    assert v.min() >= 1 and v.max() <= 60
    assert set(np.unique(v)) <= set(range(1, 61))
    with pytest.raises(ValueError):
        derive_stream(14, "ints").integers(3, 3)


def test_permutation_requires_valid_size():
    with pytest.raises(ValueError):
        derive_stream(1, "x").permutation(0)
    with pytest.raises(ValueError):
        Permutation(np.zeros((2, 2)))
