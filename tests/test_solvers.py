"""Solver behavior against closed forms and the exhaustive oracle."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import blpcs
from blpcs.cipher import keygen
from blpcs.cli import _FIG1_DMAX, _FIG1_K, _FIG1_M, _FIG1_SPARSITY
from blpcs.ensembles import antipodal_scaled_matrix
from blpcs.errors import GuardError
from blpcs.imaging import ChannelModel, apply_channel, columnwise_encode, make_test_image
from blpcs.keyrand import derive_stream
from blpcs.solvers import (_DEBIAS_BLOCK_BYTES, _LAM_HI, _RESIDUAL_TOL, _STAGE_ITERS, _STAGES,
                           _lam_floor, _spectral_norm_sq, debias, ista_bpdn, ista_bpdn_batch,
                           omp_recover, subspace_pursuit, two_step_decode)

from oracles import l0_bruteforce


def test_omp_identity_single_spike():
    A = np.eye(5)
    y = np.zeros(5)
    y[3] = 5.0
    assert np.array_equal(omp_recover(A, y, 1), y)


def test_omp_zero_rhs():
    assert np.array_equal(omp_recover(np.eye(4), np.zeros(4), 2), np.zeros(4))


def test_omp_exact_fit_after_full_budget():
    # on a generic system, rows(A) iterations drive the residual to zero
    s = derive_stream(1, "g")
    A = s.gaussian((12, 40))
    y = s.gaussian(12)
    x = omp_recover(A, y, 12)
    assert np.linalg.norm(y - A @ x) < 1e-8 * np.linalg.norm(y)


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
        hits += np.linalg.norm(omp_recover(A, A @ x, 60) - x) < 1e-6 * np.linalg.norm(x)
    assert hits >= 19


def test_subspace_pursuit_recovers_and_can_evict():
    s = derive_stream(2, "sp")
    A = s.gaussian((20, 60))
    x = np.zeros(60)
    x[s.subset(60, 4)] = s.gaussian(4)
    assert np.linalg.norm(subspace_pursuit(A, A @ x, 6) - x) < 1e-8 * np.linalg.norm(x)


def test_ista_zero_rhs():
    assert np.array_equal(ista_bpdn(np.eye(6), np.zeros(6)), np.zeros(6))


# the fixed-lambda properties below run on the plain reference loop, one
# stage at a fixed relative lambda; the shipped schedule is tied to that
# loop bit for bit by test_ista_batch_matches_two_residual_reference

def test_ista_orthonormal_small_lambda_limit():
    s = derive_stream(3, "q")
    Q = np.linalg.qr(s.gaussian((8, 8)))[0]
    y = s.gaussian(8)
    x = _monotone_fista_reference(Q, y[:, None], lam_lo=1e-9, stages=1, stage_iters=3000)
    assert np.allclose(x[:, 0], Q.T @ y, atol=1e-6)


def test_ista_orthonormal_matches_soft_threshold_closed_form():
    s = derive_stream(4, "q")
    Q = np.linalg.qr(s.gaussian((10, 10)))[0]
    y = s.gaussian(10)
    lam_rel = 0.3
    x = _monotone_fista_reference(Q, y[:, None], lam_lo=lam_rel, stages=1, stage_iters=3000)
    z = Q.T @ y
    th = lam_rel * np.abs(z).max()
    closed = np.sign(z) * np.maximum(np.abs(z) - th, 0.0)
    assert np.allclose(x[:, 0], closed, atol=1e-8)


def _shipped_trace_by_stage(A, y):
    """The objective trace of the shipped schedule, one row per stage; the
    problem must be one on which no stage stops early."""
    trace = []
    ista_bpdn_batch(A, y[:, None], obj_trace=trace)
    assert len(trace) == _STAGES * _STAGE_ITERS
    return np.array(trace).reshape(_STAGES, _STAGE_ITERS)


def test_ista_objective_monotone():
    s = derive_stream(5, "m")
    A = s.gaussian((30, 80))
    y = s.gaussian(30)
    trace = []
    _monotone_fista_reference(A, y[:, None], obj_trace=trace, lam_lo=0.05, stages=1,
                              stage_iters=200, tol=1e-16)
    trace = np.array(trace)
    assert len(trace) > 10
    assert np.all(np.diff(trace) <= 1e-10 * trace[0])
    # the shipped schedule: non-increasing within each stage
    assert np.all(np.diff(_shipped_trace_by_stage(A, y), axis=1) <= 0)


def test_ista_batch_objective_monotone_in_float32():
    # the float32 loop sums its objective in float64 and rejects by it, so
    # the kept objective is non-increasing within each stage as in float64
    s = derive_stream(5, "m")
    A = s.gaussian((30, 80)).astype(np.float32)
    y = s.gaussian(30).astype(np.float32)
    assert np.all(np.diff(_shipped_trace_by_stage(A, y), axis=1) <= 0)


@pytest.mark.parametrize("debiased", [False, True])
def test_ista_batch_dtype_follows_inputs(debiased):
    # the loop keeps the floating dtype of its inputs, and so does the refit
    # into its result
    def solve(A, Y):
        S = ista_bpdn_batch(A, Y)
        return debias(A, Y, S) if debiased else S

    s = derive_stream(14, "dtype")
    A = s.gaussian((20, 50))
    Y = s.gaussian((20, 3))
    assert solve(A.astype(np.float32), Y.astype(np.float32)).dtype == np.float32
    assert solve(A, Y).dtype == np.float64
    assert solve(A, Y.astype(np.float32)).dtype == np.float64
    A_int = np.round(10 * A).astype(np.int64)
    Y_int = np.round(10 * Y).astype(np.int64)
    got = solve(A_int, Y_int)
    assert got.dtype == np.float64
    assert np.array_equal(got, solve(A_int.astype(float), Y_int.astype(float)))


@pytest.mark.parametrize("plr", [0.0, 0.3])
@pytest.mark.parametrize("sr", [0.1, 0.3, 0.7])
def test_ista_batch_float32_agrees_with_float64_on_a_keyed_image(sr, plr):
    # the float32 loop of the image decode against the float64 one, before
    # and after the float64 refit that columnwise_decode runs
    key = keygen(3, 128, sr, 1.0)
    A = key.sensing_matrix()
    Y = columnwise_encode(key, make_test_image(128))
    if plr:
        Y = apply_channel(Y, ChannelModel("packet_loss", plr=plr), derive_stream(4, "loss"))
    S32 = ista_bpdn_batch(A.astype(np.float32), Y.astype(np.float32))
    S64 = ista_bpdn_batch(A, Y)
    assert S32.dtype == np.float32
    assert np.linalg.norm(S32 - S64) < 1e-5 * np.linalg.norm(S64)
    refit = debias(A, Y, S32.astype(float))
    want = debias(A, Y, S64)
    assert np.linalg.norm(refit - want) < 1e-5 * np.linalg.norm(want)


_FLOAT32_SOLVE = """
import hashlib
import numpy as np
from blpcs.keyrand import derive_stream
from blpcs.solvers import ista_bpdn_batch
s = derive_stream(21, "threads")
A = s.gaussian((154, 512)).astype(np.float32)
Y = s.gaussian((154, 512)).astype(np.float32)
S = ista_bpdn_batch(A, Y)
print(S.dtype, hashlib.sha256(S.tobytes()).hexdigest())
"""


def test_float32_solve_bytes_do_not_depend_on_blas_threads():
    # OpenBLAS reads its thread count once, at load, so each count needs
    # its own process
    src = str(Path(blpcs.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _FLOAT32_SOLVE], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        digests.append(done.stdout.split())
    assert digests[0][0] == "float32"
    assert digests[0] == digests[1]


def test_ista_batch_matches_single():
    s = derive_stream(6, "b")
    A = s.gaussian((20, 50))
    Y = s.gaussian((20, 3))
    S = debias(A, Y, ista_bpdn_batch(A, Y))
    for j in range(3):
        assert np.allclose(S[:, j], ista_bpdn(A, Y[:, j]))


def _monotone_fista_reference(A, Y, obj_trace=None, *, lam_lo=None,
                              stages=_STAGES, stage_iters=_STAGE_ITERS, tol=_RESIDUAL_TOL):
    """The batched monotone FISTA loop written plainly, with fresh arrays
    each step.  It keeps two residuals, those of the last two kept iterates,
    and forms the momentum point V and its residual R_V from them; it soft
    thresholds as sign(z) * max(|z| - th, 0); a step that raises the summed
    objective is thrown away, and so is the momentum.  A NaN in Y marks a
    lost row of its column, which the 0/1 mask of the surviving rows keeps
    out of the fit.

    The defaults are the shipped schedule.  ``lam_lo`` replaces the adaptive
    floor of every column by one relative lambda; with ``stages=1`` the
    single stage runs at that lambda."""
    obj_trace = [] if obj_trace is None else obj_trace
    K, M = A.shape
    ncol = Y.shape[1]
    L = _spectral_norm_sq(A)
    mask = None
    rows = np.full(ncol, float(K))
    if np.isnan(Y).any():
        mask = (~np.isnan(Y)).astype(float)
        Y = np.nan_to_num(Y)
        rows = mask.sum(axis=0)
    corr = np.abs(A.T @ Y).max(axis=0)
    corr[corr == 0] = 1.0
    if lam_lo is None:
        lam_lo = np.array([_lam_floor(r / M) for r in rows])
    else:
        lam_lo = np.full(ncol, lam_lo)
    S = S_old = np.zeros((M, ncol))
    R = R_old = Y.copy()
    for st in range(stages):
        frac = st / (stages - 1) if stages > 1 else 1.0
        lam = _LAM_HI * (lam_lo / _LAM_HI) ** frac if stages > 1 else lam_lo
        th = (lam * corr) / L
        t, beta = 1.0, 0.0
        prev_obj = None
        for _ in range(stage_iters):
            V = S + beta * (S - S_old)
            R_V = R + beta * (R - R_old)
            Z = V + (A.T @ R_V) / L
            S_new = np.sign(Z) * np.maximum(np.abs(Z) - th[None, :], 0.0)
            R_new = Y - A @ S_new
            if mask is not None:
                R_new *= mask
            obj = 0.5 * np.sum(R_new * R_new) + np.sum(lam * corr * np.abs(S_new).sum(axis=0))
            if prev_obj is not None and obj > prev_obj:
                t, beta = 1.0, 0.0
                obj_trace.append(float(prev_obj))
                continue
            S_old, S, R_old, R = S, S_new, R, R_new
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            t, beta = t_next, (t - 1.0) / t_next
            obj_trace.append(float(obj))
            if prev_obj is not None and abs(prev_obj - obj) <= tol * max(prev_obj, 1.0):
                break
            prev_obj = obj
    return S


def _lose(Y, s, masked):
    """Y with about 30% of its entries set to NaN (lost) when ``masked``."""
    return np.where(s.uniform(Y.shape) >= 0.3, Y, np.nan) if masked else Y


def _reference_problems(masked):
    """(A, Y) pairs: a small random system, one column of it (the shape
    ista_bpdn passes), an image-shaped system from a real key, and one
    direct-l1 problem of the fig1 experiment (seed 1, trial 5); NaN marks
    about 30% of the measurements lost, except on the fig1 problem, which
    like fig1 itself keeps every row (its stopping test fires at iteration
    77)."""
    s = derive_stream(12, "ref")
    A = s.gaussian((30, 80))
    Y = _lose(s.gaussian((30, 6)), s, masked)
    yield A, Y
    yield A, Y[:, [0]]
    key = keygen(3, 128, 0.3, 1.0)
    yield key.sensing_matrix(), _lose(columnwise_encode(key, make_test_image(128)), s, masked)
    yield _fig1_problem(1, 5)


def _fig1_problem(seed, trial):
    """(Phi, y) of the direct-l1 solve of the fig1 experiment, y as a column."""
    st = derive_stream(seed, f"fig1/{trial}")
    d = st.integers(1, _FIG1_DMAX + 1, _FIG1_M).astype(float)
    Phi = antipodal_scaled_matrix(st, _FIG1_K, _FIG1_M, d)
    x = np.zeros(_FIG1_M)
    x[st.subset(_FIG1_M, _FIG1_SPARSITY)] = 1.0
    return Phi, (Phi @ x)[:, None]


@pytest.mark.parametrize("masked", [False, True])
def test_ista_batch_matches_two_residual_reference(masked):
    # the problems cover both early exits of a stage: a stopping test that
    # fires, and a rejected step (the trace repeats the kept objective)
    stopped = rejected = False
    for A, Y in _reference_problems(masked):
        want_trace, got_trace = [], []
        want = _monotone_fista_reference(A, Y, obj_trace=want_trace)
        got = ista_bpdn_batch(A, Y, obj_trace=got_trace)
        assert np.array_equal(got, want)
        assert got_trace == want_trace
        assert len(got_trace) <= _STAGES * _STAGE_ITERS
        stopped |= len(got_trace) < _STAGES * _STAGE_ITERS
        rejected |= any(a == b for a, b in zip(got_trace, got_trace[1:]))
    assert stopped and rejected


def test_ista_rejected_step_keeps_the_iterate_and_does_not_stop():
    # a momentum step that would raise the objective is thrown away: the
    # trace repeats the kept objective, the estimate is that of one step
    # fewer, and the equal objective does not count as convergence
    s = derive_stream(8, "rej")
    A = s.gaussian((20, 50))
    y = s.gaussian(20)

    def run(iters):
        trace = []
        S = _monotone_fista_reference(A, y[:, None], obj_trace=trace, lam_lo=0.01, stages=1,
                                      stage_iters=iters, tol=1e-16)
        return S, trace

    _, trace = run(200)
    rejected = [i for i in range(1, len(trace)) if trace[i] == trace[i - 1]]
    assert rejected, "no step of this problem was rejected"
    i = rejected[0]
    S_before, _ = run(i)
    S_after, trace = run(i + 1)
    assert np.array_equal(S_after, S_before)
    assert trace[i] == trace[i - 1]
    _, trace = run(i + 2)
    assert len(trace) == i + 2


def test_ista_batch_mask_equals_row_subset():
    # masking rows must solve the same problem as keeping the surviving rows
    # only; run both to convergence at a fixed lambda and compare fixed points
    s = derive_stream(7, "mask")
    A = s.gaussian((24, 40))
    y = s.gaussian(24)
    keep = s.uniform(24) > 0.3
    fixed = dict(lam_lo=0.05, stages=1, stage_iters=4000, tol=1e-16)
    S_masked = _monotone_fista_reference(A, np.where(keep, y, np.nan)[:, None], **fixed)
    S_sub = _monotone_fista_reference(A[keep], y[keep][:, None], **fixed)
    assert np.allclose(S_masked[:, 0], S_sub[:, 0], atol=1e-5)


def _lstsq_debias_reference(A, Y, S):
    """The refit one column at a time, each by an SVD least-squares solve
    on the rows where Y is not NaN."""
    A = np.asarray(A)
    Y = np.asarray(Y)
    for j in range(S.shape[1]):
        sup = np.flatnonzero(S[:, j])
        live = np.flatnonzero(~np.isnan(Y[:, j]))
        if sup.size == 0 or sup.size > 0.5 * live.size:
            continue
        sol, *_ = np.linalg.lstsq(A[np.ix_(live, sup)], Y[live, j], rcond=None)
        S[:, j] = 0.0
        S[sup, j] = sol
    return S


def _assert_debias_matches_reference(A, Y, S):
    want = _lstsq_debias_reference(A, Y, S.copy())
    got = debias(A, Y, S.copy())
    assert got.dtype == S.dtype
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    return got


def _keyed_image_problem(n, sr, plr):
    """(A, Y) of a keyed n x n frame, 30% of it lost (NaN) when plr is set."""
    key = keygen(3, n, sr, 1.0)
    Y = columnwise_encode(key, make_test_image(n))
    if plr:
        Y = apply_channel(Y, ChannelModel("packet_loss", plr=plr), derive_stream(4, "loss"))
    return key.sensing_matrix(), Y


@pytest.mark.parametrize("plr", [0.0, 0.3])
@pytest.mark.parametrize("sr", [0.3, 0.7])
def test_debias_matches_lstsq_on_a_keyed_image(sr, plr):
    # the supports of the float32 loop, as columnwise_decode refits them
    A, Y = _keyed_image_problem(128, sr, plr)
    S = ista_bpdn_batch(A.astype(np.float32), Y.astype(np.float32)).astype(float)
    got = _assert_debias_matches_reference(A, Y, S)
    assert not np.array_equal(got, S)


def test_debias_matches_lstsq_on_fig1_problems():
    refit = 0
    for trial in range(6):
        Phi, y = _fig1_problem(1, trial)
        S = ista_bpdn_batch(Phi, y)
        refit += not np.array_equal(_assert_debias_matches_reference(Phi, y, S), S)
    assert refit > 0


def test_debias_skip_rule_edges():
    # 8 rows; columns 1-3 lose rows 0 and 1, column 4 loses every row: a
    # lost row holds NaN, which marks it and which the fit must not read
    s = derive_stream(15, "debias")
    A = s.gaussian((8, 12))
    Y = s.gaussian((8, 6))
    mask = np.ones((8, 6), dtype=bool)
    mask[:2, 1:4] = False
    mask[:, 4] = False
    Y[~mask] = np.nan
    S = np.zeros((12, 6))     # column 0 keeps an empty support: left as it is
    S[[2, 5, 9], 1] = 1.0     # 3 of 6 live rows, exactly half: refit
    S[[0, 4, 7, 11], 2] = 1.0  # 4 of 6 live rows, one more than half: left
    S[[3], 3] = 1.0           # 1 of 6: refit
    S[[6], 4] = 1.0           # every row lost: left
    S[[1, 3, 8, 10], 5] = 1.0  # 4 of 8 with no row lost: refit
    got = _assert_debias_matches_reference(A, Y, S)
    for j in (0, 2, 4):
        assert np.array_equal(got[:, j], S[:, j])
    for j in (1, 3, 5):
        assert not np.array_equal(got[:, j], S[:, j])


@pytest.mark.parametrize("masked", [False, True])
def test_debias_refits_one_support_size_over_several_chunks(masked):
    # every column has support size 64, so a chunk holds
    # _DEBIAS_BLOCK_BYTES // (8 * 64 * K) of them and 3 chunks and one
    # more column make four chunks of one size
    K, M, w = 512, 1024, 64
    chunk = _DEBIAS_BLOCK_BYTES // (8 * w * K)
    assert chunk >= 1
    s = derive_stream(16, "debias")
    A = s.gaussian((K, M))
    Y = _lose(s.gaussian((K, 3 * chunk + 1)), s, masked)
    S = np.zeros((M, Y.shape[1]))
    for j in range(Y.shape[1]):
        S[s.subset(M, w), j] = 1.0
    got = _assert_debias_matches_reference(A, Y, S)
    assert not np.any(np.all(got == S, axis=0))


def test_debias_memory_stays_below_three_frames():
    # the refit gathers support columns in blocks of about 1 MiB, so a
    # 512x512 frame at sr 0.7 with 30% loss needs far less than 3 frames
    A, Y = _keyed_image_problem(512, 0.7, 0.3)
    S = ista_bpdn_batch(A.astype(np.float32), Y.astype(np.float32)).astype(float)
    limit = 3 * S.nbytes
    tracemalloc.start()
    try:
        debias(A, Y, S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit


def test_l0_bruteforce_exact_and_edges():
    s = derive_stream(8, "l0")
    A = s.gaussian((6, 8))
    x = np.zeros(8)
    x[[1, 5]] = (2.0, -1.0)
    best = l0_bruteforce(A, A @ x, 2)
    assert np.flatnonzero(best).tolist() == [1, 5]
    assert np.linalg.norm(A @ best - A @ x) < 1e-10
    empty = l0_bruteforce(A, A @ x, 0)
    assert np.count_nonzero(empty) == 0
    assert np.linalg.norm(A @ empty - A @ x) == pytest.approx(
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
        greedy = omp_recover(A, y, 2)
        assert np.count_nonzero(best) <= 2
        assert np.linalg.norm(y - A @ best) <= np.linalg.norm(y - A @ greedy) + 1e-9


def test_two_step_decode_identity():
    y = np.array([1.0, -2.0, 3.0])
    assert np.allclose(two_step_decode(np.eye(3), y), y)


def test_two_step_decode_toy_roundtrip():
    s = derive_stream(10, "toy")
    A = s.gaussian((8, 8))
    Psi = np.linalg.qr(s.gaussian((8, 8)))[0]
    x_true = s.gaussian(8)
    y = A @ (Psi.T @ x_true)
    x = Psi @ two_step_decode(A, y)
    assert np.linalg.norm(x - x_true) < 1e-6 * np.linalg.norm(x_true)


def test_two_step_decode_bp_route_sparse():
    s = derive_stream(11, "bp")
    A = s.gaussian((24, 80))
    x_true = np.zeros(80)
    x_true[s.subset(80, 4)] = s.gaussian(4)
    y = A @ x_true
    s = two_step_decode(A, y)
    assert np.linalg.norm(s - x_true) < 1e-6 * np.linalg.norm(x_true)
    assert np.linalg.norm(y - A @ s) < 1e-8

