"""Command-line front door: key management, file encode/decode, attack and
experiment runners that emit CSV.

Exit codes: 0 success, 2 argument error, 3 file-format error, 4 numeric
guard violation.  Every subcommand is deterministic for a fixed --seed;
wall-clock columns are written as 0.000 unless --timings is given so that
reruns produce byte-identical CSV.
"""

import argparse
import math
import os
import sys
import time

import numpy as np

from .attacks import cpa_break_and_decode, cpa_recover_matrix, proximity_scatter
from .bases import (SecretBasisSpec, best_s_term, build_secret_basis, dct_matrix,
                    rpfrct_matrix)
from .cipher import (blp_encode, drpe_cs_encode, drpe_masks, keygen, read_key_file,
                     load_measurements, save_measurements, scramble_frequency_encode,
                     scramble_measurements_encode, write_key_file)
from .ensembles import antipodal_scaled_matrix, gaussian_matrix
from .errors import FormatError, GuardError
from .imaging import (ChannelModel, apply_channel, apsnr_db, columnwise_decode,
                      columnwise_encode, energy_ratio, load_pgm, make_test_image, psnr,
                      save_pgm)
from .keyrand import derive_stream
from .solvers import ista_bpdn, two_step_decode

__all__ = ["main", "run_fig1", "run_sterm", "run_table", "run_attack"]


def max_workers():
    """Worker cap from BLPCS_THREADS (0 or unset = auto)."""
    raw = os.environ.get("BLPCS_THREADS", "0")
    try:
        val = int(raw)
    except ValueError:
        val = -1
    if val < 0:
        raise ValueError(f"BLPCS_THREADS must be an integer >= 0, got {raw!r}")
    return val or (os.cpu_count() or 1)


def _write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


def _rel_error(estimate, truth):
    truth = np.asarray(truth)
    denom = np.linalg.norm(truth)
    if denom == 0:
        return float(np.linalg.norm(estimate))
    return float(np.linalg.norm(np.asarray(estimate) - truth) / denom)


# ---------------------------------------------------------------------------
# experiment: the antipodal non-RIP example

# signal length, sparsity, rows and largest column scale of the example
_FIG1_M, _FIG1_SPARSITY, _FIG1_K, _FIG1_DMAX = 500, 10, 60, 60


def run_fig1(seed, trials=100):
    """Two-step versus direct recovery for the antipodal-scaled ensemble.

    Column j of the measurement matrix takes values +-d_j; dividing out the
    scales turns the matrix into a Bernoulli one, so recovery after the
    rescale is exact while direct l1 on the raw matrix is not.
    """
    if trials < 0:
        raise ValueError(f"the trial count must be >= 0, got {trials}")
    M, k = _FIG1_M, _FIG1_SPARSITY
    rows = []
    for t in range(trials):
        st = derive_stream(seed, f"fig1/{t}")
        d = st.integers(1, _FIG1_DMAX + 1, M).astype(float)
        Phi = antipodal_scaled_matrix(st, _FIG1_K, M, d)
        x = np.zeros(M)
        x[st.subset(M, k)] = 1.0
        y = Phi @ x
        A = Phi / d[None, :]
        xbar = two_step_decode(A, y) / d
        two_step = _rel_error(xbar, x)
        direct = _rel_error(ista_bpdn(Phi, y), x)
        rows.append((t, f"{two_step:.6e}", f"{direct:.6e}"))
    return ["trial", "two_step_rel_error", "direct_l1_rel_error"], rows


# ---------------------------------------------------------------------------
# experiment: best s-term quality versus fractional order

# crop side, kept coefficient share and fractional orders of the sweep
_STERM_N, _STERM_S_FRACTION = 128, 0.10
_STERM_ORDERS = (0.92, 0.95, 0.99, 1.0)


def run_sterm():
    """Best s-term reconstruction quality relative to the order-1 transform.

    The reference is the same pipeline at orders (1, 1), where the transform
    reduces to blockwise cosine transforms.
    """
    n = _STERM_N
    full = make_test_image(512)
    off = 288
    image = full[off:off + n, off:off + n]
    s = int(round(_STERM_S_FRACTION * n * n))
    vec = image.flatten(order="F")

    def s_term_psnr(alpha, beta):
        forward, inverse = build_secret_basis(SecretBasisSpec(n, alpha, beta))
        rec = inverse(best_s_term(forward(vec), s)).reshape((n, n), order="F")
        return psnr(image, np.clip(rec, 0, 255))

    ref = s_term_psnr(1.0, 1.0)
    rows = []
    for a in _STERM_ORDERS:
        for b in _STERM_ORDERS:
            val = s_term_psnr(a, b)
            rows.append((f"{a:g}", f"{b:g}", s, f"{val:.3f}", f"{ref:.3f}",
                         f"{val / ref:.6f}"))
    return ["alpha", "beta", "s", "psnr_db", "ref_psnr_db", "ratio"], rows


# ---------------------------------------------------------------------------
# experiments: image sampling tables

_TABLE_SRS = (0.1, 0.3, 0.5, 0.7)
# the paper's fractional orders of the column and row transforms
_TABLE_ALPHA, _TABLE_BETA = 0.99, 0.95


def run_table(seed, which, trials=10, n=512, dmax=16, timings=False):
    """APSNR of the scrambled pipeline (and its unscrambled baseline or the
    noisy/lossy channels) on the stand-in image."""
    if trials < 1:
        raise ValueError(f"a table needs at least one trial, got {trials}")
    # the keys check the side before the image of that side is drawn
    keys = {sr: [keygen(seed + t, n, sr, _TABLE_ALPHA, _TABLE_BETA, dmax=dmax)
                 for t in range(trials)]
            for sr in _TABLE_SRS}
    img = make_test_image(n)
    if which == "table1":
        variants = [("blp-cs", "ideal", 0.0), ("bcs-in", "ideal", 0.0)]
    else:
        variants = [("blp-cs", "ideal", 0.0), ("blp-cs", "awgn", 0.0),
                    ("blp-cs", "packet_loss", 0.1), ("blp-cs", "packet_loss", 0.2),
                    ("blp-cs", "packet_loss", 0.3)]
    rows = []
    for sr in _TABLE_SRS:
        sr_keys = keys.pop(sr)  # a finished rate's keys free their derived matrices
        encoded = {}
        for model, channel, plr in variants:
            t0 = time.monotonic()
            ratios = []
            for t, key in enumerate(sr_keys):
                ck = (t, model)
                if ck not in encoded:
                    encoded[ck] = columnwise_encode(key, img, scramble=model == "blp-cs")
                Y = encoded[ck]
                if channel != "ideal":
                    cm = ChannelModel(kind=channel, noise_var=1.0 if channel == "awgn" else 0.0,
                                      plr=plr)
                    cs = derive_stream(seed, f"{which}/chan/{sr}/{channel}/{plr}/{t}")
                    Y = apply_channel(Y, cm, cs)
                rec = columnwise_decode(key, Y, scramble=model == "blp-cs")
                ratios.append(energy_ratio(img, rec))
            seconds = time.monotonic() - t0 if timings else 0.0
            rows.append(("standin", f"{sr:g}", model, channel, f"{plr:g}",
                         f"{apsnr_db(ratios):.3f}", f"{seconds:.3f}"))
    return ["image", "sr", "model", "channel", "plr", "apsnr_db", "seconds"], rows


# ---------------------------------------------------------------------------
# experiment: chosen-plaintext attacks

# (M, K, k) of each target, in output row order; the phase-encoding target
# samples onto a square m x m grid, so its K is a square
_ATTACK_SIZES = {"class1": (256, 64, 8), "class2": (256, 64, 8),
                 "drpe": (32, 16, 3), "blp-cs": (256, 64, 8)}
_ATTACK_DMAX = 60


def _attack_key(seed):
    """The bi-level key under attack, sized by ``_ATTACK_SIZES["blp-cs"]``."""
    M, K, _ = _ATTACK_SIZES["blp-cs"]
    return keygen(seed, M, K / M, 0.99, dmax=_ATTACK_DMAX, mix_count=8)


def _attack_target(name, st, key_seed):
    """The encoder of one target, the map from sparse coefficients to a
    plaintext, and the attacker's public basis (None for the identity).

    The baselines draw their secrets from ``st``; the bi-level key is
    derived from ``key_seed``.
    """
    M, K, _ = _ATTACK_SIZES[name]
    if name == "blp-cs":
        key = _attack_key(key_seed)
        _, inverse = key.basis()
        public_basis = rpfrct_matrix(M, 1.0)  # order-1 family guess, no key
        return lambda x: blp_encode(key, x), inverse, public_basis
    Phi = gaussian_matrix(st, K, M)
    if name == "drpe":
        masks = drpe_masks(st, math.isqrt(K))
        return lambda x: drpe_cs_encode(Phi, masks, x), lambda s: s, None
    C = dct_matrix(M)
    if name == "class1":
        P_K = st.permutation(K)
        return lambda x: scramble_measurements_encode(Phi, P_K, x), lambda s: C @ s, C
    P_M = st.permutation(M)
    return lambda x: scramble_frequency_encode(Phi, P_M, C, x), lambda s: C @ s, C


def _attack_row(seed, name, t):
    """Recover the target's matrix, encrypt a sparse plaintext, break it."""
    M, K, k = _ATTACK_SIZES[name]
    st = derive_stream(seed, f"attack/{name}/{t}")
    encode, synthesize, public_basis = _attack_target(name, st, seed + 7000 + t)
    report = cpa_recover_matrix(encode, M, stream=st)
    s_true = np.zeros(M)
    s_true[st.subset(M, k)] = st.gaussian(k)
    x_true = synthesize(s_true)
    est = cpa_break_and_decode(report.recovered_matrix, encode(x_true),
                               public_basis=public_basis)
    rel = _rel_error(est, x_true)
    return (name, t, M, K, k, report.queries_used, str(rel < 1e-3).lower(), f"{rel:.6e}")


def run_attack(seed, seeds=20):
    """Chosen-plaintext recovery and single-step decode against each target.

    Seeds run independently across BLPCS_THREADS workers; output order is
    fixed by the configuration, not completion order.
    """
    # imported here: every other subcommand would pay for it at start-up
    from concurrent.futures import ThreadPoolExecutor

    if seeds < 0:
        raise ValueError(f"the seed count must be >= 0, got {seeds}")
    jobs = [(name, t) for name in _ATTACK_SIZES for t in range(seeds)]
    with ThreadPoolExecutor(max_workers=max(1, min(max_workers(), len(jobs)))) as pool:
        rows = list(pool.map(lambda job: _attack_row(seed, *job), jobs))
    return ["target", "seed", "M", "K", "k", "queries", "break_success", "rel_error"], rows


# ---------------------------------------------------------------------------
# subcommand drivers

def _cmd_keygen(args):
    key = keygen(seed=args.seed, M=args.n, sr=args.sr, alpha=args.alpha, beta=args.beta,
                 dmax=args.dmax, mix_count=args.mix_count, mix_region=args.mix_region)
    write_key_file(key, args.out)
    return 0

def _cmd_encode(args):
    key = read_key_file(args.key)
    image = load_pgm(args.input)
    Y = columnwise_encode(key, image, scramble=not args.baseline)
    save_measurements(args.out, Y, key.K)
    return 0

def _cmd_decode(args):
    key = read_key_file(args.key)
    Y = load_measurements(args.input, key.K, key.M)
    rec = columnwise_decode(key, Y, scramble=not args.baseline)
    save_pgm(rec, args.out)
    if args.reference:
        ref = load_pgm(args.reference)
        value = psnr(ref, load_pgm(args.out))  # score the 8-bit artifact
        print(f"apsnr_db={'inf' if value == float('inf') else f'{value:.3f}'}")
    return 0

def _cmd_attack(args):
    header, rows = run_attack(args.seed, seeds=args.seeds)
    _write_csv(args.out, header, rows)
    if args.scatter:
        key = _attack_key(args.seed)
        pts = proximity_scatter(lambda x: blp_encode(key, x), key.M,
                                derive_stream(args.seed, "attack/scatter"))
        _write_csv(args.scatter, ["plain_dist", "cipher_dist"],
                   [(f"{a:.6e}", f"{b:.6e}") for a, b in pts])
    return 0

def _cmd_exp(args):
    if args.name == "fig1":
        header, rows = run_fig1(args.seed, trials=args.trials)
    elif args.name == "sterm":
        header, rows = run_sterm()
    elif args.name in ("table1", "table2"):
        header, rows = run_table(args.seed, args.name, trials=args.trials, n=args.n,
                                 dmax=args.dmax, timings=args.timings)
    else:  # unreachable behind argparse choices
        raise ValueError(f"unknown experiment {args.name!r}")
    _write_csv(args.out, header, rows)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(prog="blpcs",
                                     description="bi-level protected compressive sampling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="derive and write a key file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="signal length / image side (even)")
    p.add_argument("--sr", type=float, required=True, help="sampling rate K/M in (0,1]")
    p.add_argument("--alpha", type=float, default=0.99)
    p.add_argument("--beta", type=float, default=0.95)
    p.add_argument("--dmax", type=int, default=16,
                   help="column-scale spread; 16 suits image quality studies, "
                        "60 the security demonstrations; image decodes degrade "
                        "past about 60 and are near garbage from about 1000")
    p.add_argument("--mix-count", type=int, default=0)
    p.add_argument("--mix-region", type=float, default=0.25)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_keygen)

    p = sub.add_parser("encode", help="encode a PGM image to measurements")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--baseline", action="store_true", help="unscrambled baseline pipeline")
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("decode", help="decode measurements to a PGM image")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--reference", help="print the PSNR against this image")
    p.add_argument("--baseline", action="store_true")
    p.set_defaults(fn=_cmd_decode)

    p = sub.add_parser("attack", help="run the chosen-plaintext attack demos")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--out", required=True)
    p.add_argument("--scatter", help="also write plaintext/ciphertext distance pairs "
                                     "observed under matrix reuse (CSV)")
    p.set_defaults(fn=_cmd_attack)

    p = sub.add_parser("exp", help="write an experiment's results as CSV")
    p.add_argument("name", choices=["fig1", "sterm", "table1", "table2"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--dmax", type=int, default=16)
    p.add_argument("--timings", action="store_true",
                   help="record wall time (breaks byte-for-byte determinism)")
    p.set_defaults(fn=_cmd_exp)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 3


if __name__ == "__main__":
    sys.exit(main())
