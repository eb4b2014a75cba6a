"""Chosen-plaintext attack harness and its demonstration properties."""

import numpy as np
import pytest

from blpcs.attacks import cpa_break_and_decode, cpa_recover_matrix
from blpcs.bases import dct_matrix
from blpcs.cipher import drpe_cs_encode, drpe_masks, keygen, blp_encode
from blpcs.errors import GuardError, LinearityError
from blpcs.keyrand import derive_stream
from blpcs.cli import run_attack
from blpcs.solvers import omp_recover

from oracles import (bernoulli_single_query_attack, decomposition_ambiguity_check,
                     drpe_transfer_matrix)


def test_cpa_recovers_plain_matrix_exactly():
    st = derive_stream(1, "p")
    Phi = st.gaussian((12, 30))
    rep = cpa_recover_matrix(lambda x: Phi @ x, 30, st)
    assert rep.queries_used == 30 + 2  # M basis queries and two linearity checks
    assert np.max(np.abs(rep.recovered_matrix - Phi)) < 1e-12


def test_cpa_recovers_scrambled_product():
    st = derive_stream(2, "p")
    Phi = st.gaussian((10, 24))
    P = st.permutation(10)
    rep = cpa_recover_matrix(lambda x: P.apply(Phi @ x), 24, stream=st)
    assert np.max(np.abs(rep.recovered_matrix - np.eye(10)[P.map] @ Phi)) < 1e-12


def test_cpa_recovers_drpe_transfer_product():
    st = derive_stream(3, "p")
    masks = drpe_masks(st, 4)
    Phi = st.gaussian((16, 32))
    rep = cpa_recover_matrix(lambda x: drpe_cs_encode(Phi, masks, x), 32, stream=st)
    want = drpe_transfer_matrix(masks, 4) @ Phi
    assert np.max(np.abs(rep.recovered_matrix - want)) < 1e-9


def test_cpa_rejects_nonlinear_oracle():
    with pytest.raises(LinearityError):
        cpa_recover_matrix(lambda x: x**2, 8, stream=derive_stream(4, "c"))


def test_cpa_break_decodes_baseline_plaintext():
    st = derive_stream(5, "b")
    M, K, k = 128, 40, 5
    Phi = st.gaussian((K, M))
    P = st.permutation(K)
    C = dct_matrix(M)
    def encode(x):
        return P.apply(Phi @ x)

    rep = cpa_recover_matrix(encode, M, stream=st)
    s = np.zeros(M)
    s[st.subset(M, k)] = st.gaussian(k)
    x_true = C @ s
    est = cpa_break_and_decode(rep.recovered_matrix, encode(x_true), public_basis=C)
    assert np.linalg.norm(est - x_true) < 1e-6 * np.linalg.norm(x_true)


def test_cpa_break_fails_against_blp():
    for t in range(3):
        st = derive_stream(60 + t, "blp")
        key = keygen(900 + t, 128, 0.25, 0.99, dmax=60, mix_count=4)
        rep = cpa_recover_matrix(lambda x: blp_encode(key, x), 128, stream=st)
        s = np.zeros(128)
        s[st.subset(128, 4)] = st.gaussian(4)
        x_true = key.basis()[1](s)
        est = cpa_break_and_decode(rep.recovered_matrix, blp_encode(key, x_true))
        assert np.linalg.norm(est - x_true) > 0.3 * np.linalg.norm(x_true)


def test_wrong_key_demo_consistent_but_wrong():
    st = derive_stream(6, "w")
    A = st.gaussian((60, 500))
    Aw = st.gaussian((60, 500))
    x = np.zeros(500)
    x[st.subset(500, 10)] = st.gaussian(10)
    y = A @ x
    x_wrong = omp_recover(Aw, y, 60)
    assert np.linalg.norm(y - Aw @ x_wrong) < 1e-6
    assert np.count_nonzero(x_wrong) <= 60
    assert np.linalg.norm(x_wrong - x) > 0.5 * np.linalg.norm(x)


def test_wrong_key_demo_control_cases():
    st = derive_stream(7, "w")
    A = st.gaussian((60, 500))
    x = np.zeros(500)
    x[st.subset(500, 10)] = st.gaussian(10)
    # the right key recovers
    assert np.linalg.norm(omp_recover(A, A @ x, 60) - x) < 1e-8 * np.linalg.norm(x)
    assert np.array_equal(omp_recover(A, np.zeros(60), 60), np.zeros(500))


def test_decomposition_ambiguity():
    st = derive_stream(8, "d")
    E = st.gaussian((8, 16))
    F = st.gaussian((16, 12))
    assert decomposition_ambiguity_check(E, F, 100, st)
    ident = np.arange(16)
    P = np.eye(16)
    assert np.max(np.abs(E @ F - (E @ P) @ (P.T @ F))) == 0.0


def test_bernoulli_single_query():
    st = derive_stream(9, "bq")
    M = 30
    B = np.where(st.uniform((12, M)) < 0.5, 1, -1)

    def oracle_int(x):
        return [sum(int(B[i, j]) * x[j] for j in range(M)) for i in range(12)]

    got = bernoulli_single_query_attack(oracle_int, M)
    assert np.array_equal(got, B.astype(float))
    with pytest.raises(GuardError):
        bernoulli_single_query_attack(oracle_int, 51)


def test_attack_experiment_rows_shape():
    header, rows = run_attack(seed=1, seeds=2)
    assert header[0] == "target" and header[-1] == "rel_error"
    assert len(rows) == 8
    by_target = {}
    for r in rows:
        by_target.setdefault(r[0], []).append(r)
    assert set(by_target) == {"class1", "class2", "drpe", "blp-cs"}
    for r in by_target["class1"] + by_target["class2"] + by_target["drpe"]:
        assert r[6] == "true"
    for r in by_target["blp-cs"]:
        assert r[6] == "false" and float(r[7]) > 0.3
