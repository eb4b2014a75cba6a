"""Ensemble construction and the isometry estimate."""

import math

import numpy as np

from blpcs.ensembles import antipodal_scaled_matrix, bernoulli_matrix, gaussian_matrix
from blpcs.keyrand import derive_stream
from blpcs.solvers import omp_recover

from oracles import rip_check_montecarlo


def test_gaussian_entry_statistics():
    A = gaussian_matrix(derive_stream(1, "g"), 1000, 1000)
    assert abs(A.var() - 1.0) < 0.01
    assert abs(A.mean()) < 0.005


def test_gaussian_determinism():
    A = gaussian_matrix(derive_stream(2, "g"), 10, 20)
    B = gaussian_matrix(derive_stream(2, "g"), 10, 20)
    assert np.array_equal(A, B)


def test_gaussian_supports_exact_omp_recovery():
    # K = 60 > 4k rows recover a random 10-sparse signal exactly
    hits = 0
    for t in range(10):
        s = derive_stream(100 + t, "rec")
        A = gaussian_matrix(s, 60, 500)
        x = np.zeros(500)
        x[s.subset(500, 10)] = s.gaussian(10)
        hits += np.linalg.norm(omp_recover(A, A @ x, 60) - x) < 1e-6 * np.linalg.norm(x)
    assert hits >= 9


def test_bernoulli_entries():
    B = bernoulli_matrix(derive_stream(4, "b"), 1000, 1000)
    assert set(np.unique(B)) == {-1.0, 1.0}
    assert abs(np.mean(B == 1.0) - 0.5) < 0.002


def test_bernoulli_supports_exact_omp_recovery():
    hits = 0
    for t in range(10):
        s = derive_stream(200 + t, "rec")
        B = bernoulli_matrix(s, 60, 500)
        x = np.zeros(500)
        x[s.subset(500, 10)] = s.gaussian(10)
        hits += np.linalg.norm(omp_recover(B, B @ x, 60) - x) < 1e-6 * np.linalg.norm(x)
    assert hits >= 9


def test_antipodal_column_magnitudes():
    s = derive_stream(5, "a")
    d = s.integers(1, 61, 40).astype(float)
    Phi = antipodal_scaled_matrix(s, 25, 40, d)
    assert np.allclose(np.abs(Phi), np.tile(d, (25, 1)))
    # dividing out the scales leaves a plain sign matrix
    assert set(np.unique(Phi / d[None, :])) == {-1.0, 1.0}


def test_antipodal_with_unit_scales_is_bernoulli():
    s = derive_stream(6, "a")
    Phi = antipodal_scaled_matrix(s, 10, 30, np.ones(30))
    assert set(np.unique(Phi)) == {-1.0, 1.0}


def test_rip_check_orthonormal_is_isometry():
    C = np.linalg.qr(derive_stream(8, "q").gaussian((32, 32)))[0]
    est = rip_check_montecarlo(C, 5, 200, derive_stream(8, "mc"))
    assert est < 1e-12


def test_rip_check_scaled_gaussian_below_one():
    A = gaussian_matrix(derive_stream(9, "g"), 60, 500) / np.sqrt(60)
    est = rip_check_montecarlo(A, 10, 10**4, derive_stream(9, "mc"))
    assert 0.0 < est < 1.0


def test_rip_check_antipodal_certifies_non_rip():
    s = derive_stream(10, "a")
    d = s.integers(1, 61, 500).astype(float)
    Phi = antipodal_scaled_matrix(s, 60, 500, d)
    est = rip_check_montecarlo(Phi, 10, 200, derive_stream(10, "mc"))
    assert est >= 1.0


def test_rip_check_normalized_gaussian_mostly_below_090():
    # K = 4 k ln M rows, column-normalized
    k, M = 5, 128
    K = int(4 * k * math.log(M))
    good = 0
    for t in range(20):
        A = gaussian_matrix(derive_stream(300 + t, "g"), K, M)
        A = A / np.linalg.norm(A, axis=0, keepdims=True)
        good += rip_check_montecarlo(A, k, 500, derive_stream(300 + t, "mc")) < 0.9
    assert good >= 19
