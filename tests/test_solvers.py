"""Solver behavior against closed forms and the exhaustive oracle."""

import numpy as np
import pytest

from blpcs.cipher import keygen
from blpcs.errors import GuardError
from blpcs.imaging import columnwise_encode, make_test_image
from blpcs.keyrand import derive_stream
from blpcs.solvers import (_LAM_HI, _STAGES, SolverConfig, _lam_floor, _spectral_norm_sq,
                           ista_bpdn, ista_bpdn_batch, l0_bruteforce, omp_recover,
                           subspace_pursuit, two_step_decode)


def test_omp_identity_single_spike():
    A = np.eye(5)
    y = np.zeros(5)
    y[3] = 5.0
    rep = omp_recover(A, y, 1)
    assert rep.converged and rep.iterations == 1
    assert np.array_equal(rep.estimate, y)


def test_omp_zero_rhs():
    rep = omp_recover(np.eye(4), np.zeros(4), 2)
    assert rep.converged and np.array_equal(rep.estimate, np.zeros(4))


def test_omp_exact_fit_after_full_budget():
    # on a generic system, rows(A) iterations drive the residual to zero
    s = derive_stream(1, "g")
    A = s.gaussian((12, 40))
    y = s.gaussian(12)
    rep = omp_recover(A, y, 12)
    assert rep.residual_l2 < 1e-8 * np.linalg.norm(y)


def test_omp_budget_guard():
    with pytest.raises(ValueError):
        omp_recover(np.eye(3), np.ones(3), 4)


def test_omp_gaussian_exact_recovery_rate():
    hits = 0
    for t in range(20):
        s = derive_stream(400 + t, "g")
        A = s.gaussian((60, 500))
        x = np.zeros(500)
        x[s.subset(500, 10)] = s.gaussian(10)
        rep = omp_recover(A, A @ x, 60)
        hits += np.linalg.norm(rep.estimate - x) < 1e-6 * np.linalg.norm(x)
    assert hits >= 19


def test_subspace_pursuit_recovers_and_can_evict():
    s = derive_stream(2, "sp")
    A = s.gaussian((20, 60))
    x = np.zeros(60)
    x[s.subset(60, 4)] = s.gaussian(4)
    rep = subspace_pursuit(A, A @ x, 6)
    assert np.linalg.norm(rep.estimate - x) < 1e-8 * np.linalg.norm(x)


def test_ista_zero_rhs():
    rep = ista_bpdn(np.eye(6), np.zeros(6))
    assert np.array_equal(rep.estimate, np.zeros(6))


def test_ista_orthonormal_small_lambda_limit():
    s = derive_stream(3, "q")
    Q = np.linalg.qr(s.gaussian((8, 8)))[0]
    y = s.gaussian(8)
    cfg = SolverConfig(max_iters=3000, lam=1e-9, continuation=False, debias=False)
    rep = ista_bpdn(Q, y, cfg)
    assert np.allclose(rep.estimate, Q.T @ y, atol=1e-6)


def test_ista_orthonormal_matches_soft_threshold_closed_form():
    s = derive_stream(4, "q")
    Q = np.linalg.qr(s.gaussian((10, 10)))[0]
    y = s.gaussian(10)
    lam_rel = 0.3
    cfg = SolverConfig(max_iters=3000, lam=lam_rel, continuation=False, debias=False)
    rep = ista_bpdn(Q, y, cfg)
    z = Q.T @ y
    th = lam_rel * np.abs(z).max()
    closed = np.sign(z) * np.maximum(np.abs(z) - th, 0.0)
    assert np.allclose(rep.estimate, closed, atol=1e-8)


def test_ista_objective_monotone():
    s = derive_stream(5, "m")
    A = s.gaussian((30, 80))
    y = s.gaussian(30)
    trace = []
    cfg = SolverConfig(max_iters=200, lam=0.05, continuation=False,
                       debias=False, residual_tol=1e-16)
    ista_bpdn(A, y, cfg, obj_trace=trace)
    trace = np.array(trace)
    assert len(trace) > 10
    assert np.all(np.diff(trace) <= 1e-10 * trace[0])


def test_ista_batch_matches_single():
    s = derive_stream(6, "b")
    A = s.gaussian((20, 50))
    Y = s.gaussian((20, 3))
    S = ista_bpdn_batch(A, Y)
    for j in range(3):
        rep = ista_bpdn(A, Y[:, j])
        assert np.allclose(S[:, j], rep.estimate)


def _ista_two_residual_reference(A, Y, config, mask, obj_trace):
    """The batched ISTA loop as first written, without debias: it computes
    the residual before and after every soft-threshold step, and soft
    thresholds as sign(z) * max(|z| - th, 0)."""
    K, M = A.shape
    ncol = Y.shape[1]
    L = _spectral_norm_sq(A)
    if mask is not None:
        Y = Y * mask
        rows = mask.sum(axis=0)
    else:
        rows = np.full(ncol, float(K))
    corr = np.abs(A.T @ Y).max(axis=0)
    corr[corr == 0] = 1.0
    if config.continuation:
        lam_lo = np.array([_lam_floor(r / M, config.lam) for r in rows])
        stages = _STAGES
    else:
        lam_lo = np.full(ncol, config.lam)
        stages = 1
    S = np.zeros((M, ncol))
    per_stage = max(1, config.max_iters // stages)
    for st in range(stages):
        frac = st / (stages - 1) if stages > 1 else 1.0
        lam = _LAM_HI * (lam_lo / _LAM_HI) ** frac if stages > 1 else lam_lo
        th = (lam * corr) / L
        prev_obj = None
        for _ in range(per_stage):
            R = Y - A @ S
            if mask is not None:
                R *= mask
            Z = S + (A.T @ R) / L
            S = np.sign(Z) * np.maximum(np.abs(Z) - th[None, :], 0.0)
            Rn = Y - A @ S
            if mask is not None:
                Rn *= mask
            obj = 0.5 * np.sum(Rn * Rn) + np.sum(lam * corr * np.abs(S).sum(axis=0))
            obj_trace.append(float(obj))
            if prev_obj is not None and abs(prev_obj - obj) <= config.residual_tol * max(prev_obj, 1.0):
                break
            prev_obj = obj
    return S


def _reference_problems(masked):
    """(A, Y, mask) triples: a small random system, one column of it (the
    shape ista_bpdn passes), and an image-shaped system from a real key;
    the masks drop about 30% of the measurements."""
    s = derive_stream(12, "ref")
    A = s.gaussian((30, 80))
    Y = s.gaussian((30, 6))
    mask = (s.uniform((30, 6)) >= 0.3).astype(float) if masked else None
    yield A, Y, mask
    yield A, Y[:, [0]], None if mask is None else mask[:, [0]]
    key = keygen(3, 128, 0.3, 1.0)
    Y = np.stack([p.values for p in columnwise_encode(key, make_test_image(128))], axis=1)
    mask = (s.uniform(Y.shape) >= 0.3).astype(float) if masked else None
    yield key.sensing_matrix(), Y, mask


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("cfg", [SolverConfig(debias=False),
                                 SolverConfig(debias=False, residual_tol=1e-4),
                                 SolverConfig(debias=False, continuation=False)])
def test_ista_batch_matches_two_residual_reference(masked, cfg):
    for A, Y, mask in _reference_problems(masked):
        want_trace, got_trace = [], []
        want = _ista_two_residual_reference(A, Y, cfg, mask=mask, obj_trace=want_trace)
        got = ista_bpdn_batch(A, Y, cfg, mask=mask, obj_trace=got_trace)
        assert np.array_equal(got, want)
        assert got_trace == want_trace


def test_ista_report_counts_executed_iterations():
    s = derive_stream(13, "it")
    A = s.gaussian((20, 50))
    y = s.gaussian(20)
    trace = []
    rep = ista_bpdn(A, y, SolverConfig(max_iters=7), obj_trace=trace)
    assert rep.iterations == len(trace) <= 7
    assert not rep.converged  # one iteration per stage leaves no room to stop
    rep = ista_bpdn(A, y, SolverConfig(max_iters=401))
    assert rep.iterations <= 401
    # a loose tolerance lets the last stage's stopping test fire early
    trace = []
    rep = ista_bpdn(A, y, SolverConfig(residual_tol=1e-3), obj_trace=trace)
    assert rep.converged and rep.iterations == len(trace) < 400


def test_ista_batch_mask_equals_row_subset():
    # masking rows must solve the same problem as keeping the surviving rows
    # only; run both to convergence at a fixed lambda and compare fixed points
    s = derive_stream(7, "mask")
    A = s.gaussian((24, 40))
    y = s.gaussian(24)
    keep = s.uniform(24) > 0.3
    mask = keep.astype(float)[:, None]
    cfg = SolverConfig(max_iters=4000, lam=0.05, continuation=False,
                       debias=False, residual_tol=1e-16)
    S_masked = ista_bpdn_batch(A, (y * keep)[:, None], cfg, mask=mask)
    rep_sub = ista_bpdn(A[keep], y[keep], cfg)
    assert np.allclose(S_masked[:, 0], rep_sub.estimate, atol=1e-5)


def test_l0_bruteforce_exact_and_edges():
    s = derive_stream(8, "l0")
    A = s.gaussian((6, 8))
    x = np.zeros(8)
    x[[1, 5]] = (2.0, -1.0)
    rep = l0_bruteforce(A, A @ x, 2)
    assert np.flatnonzero(rep.estimate).tolist() == [1, 5]
    assert np.linalg.norm(A @ rep.estimate - A @ x) < 1e-10
    empty = l0_bruteforce(A, A @ x, 0)
    assert np.count_nonzero(empty.estimate) == 0
    assert np.linalg.norm(A @ empty.estimate - A @ x) == pytest.approx(
        np.linalg.norm(A @ x))


def test_l0_guard():
    with pytest.raises(GuardError):
        l0_bruteforce(np.zeros((5, 200)), np.zeros(5), 4)


def test_l0_dominates_omp_on_random_instances():
    s = derive_stream(9, "dom")
    for _ in range(25):
        A = s.gaussian((6, 8))
        y = s.gaussian(6)
        best = l0_bruteforce(A, y, 2)
        rep = omp_recover(A, y, 2)
        assert np.count_nonzero(best.estimate) <= 2
        assert np.linalg.norm(y - A @ best.estimate) <= rep.residual_l2 + 1e-9


def test_two_step_decode_identity():
    y = np.array([1.0, -2.0, 3.0])
    x, rep = two_step_decode(np.eye(3), lambda s: s, y)
    assert np.allclose(x, y)
    assert rep.converged


def test_two_step_decode_toy_roundtrip():
    s = derive_stream(10, "toy")
    A = s.gaussian((8, 8))
    Psi = np.linalg.qr(s.gaussian((8, 8)))[0]
    x_true = s.gaussian(8)
    y = A @ (Psi.T @ x_true)
    x, _ = two_step_decode(A, lambda c: Psi @ c, y)
    assert np.linalg.norm(x - x_true) < 1e-6 * np.linalg.norm(x_true)


def test_two_step_decode_bp_route_sparse():
    s = derive_stream(11, "bp")
    A = s.gaussian((24, 80))
    x_true = np.zeros(80)
    x_true[s.subset(80, 4)] = s.gaussian(4)
    y = A @ x_true
    x, rep = two_step_decode(A, lambda c: c, y, solver="bp")
    assert np.linalg.norm(x - x_true) < 1e-6 * np.linalg.norm(x_true)
    assert rep.residual_l2 < 1e-8
    with pytest.raises(ValueError):
        two_step_decode(A, lambda c: c, y, solver="nope")


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(residual_tol=0.0)
