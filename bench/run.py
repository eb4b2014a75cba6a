"""Benchmark of the blpcs sensor encode, keyed image decode and attack sweep.

Run from the repository root:

    python3 bench/run.py --workload decode-ideal --seed 1 --seconds 10 --trace 0

One process runs one workload: set-up, then whole rounds of work items
until ``--seconds`` have passed, then checks of the outputs against the
benchmark's own computations.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run first runs the same arguments untraced in a
child process, so that it can report the tracing overhead.  See README.md.
"""

import time

# Interpreter start-up before this line is single-threaded and CPU-bound, so
# its CPU time stands for its wall time; perf_counter spans the rest.
_STARTUP_S = time.process_time()
_T0 = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("encode-rotate", "decode-ideal", "decode-lossy", "attack")


def thread_settings(workload):
    """BLAS threads x pool threads stays within the usable CPUs.

    The attack sweep is many small problems, so it spends the CPUs on
    run_attack's worker pool; the image workloads are large dense products,
    so they give them to BLAS.
    """
    nproc = len(os.sched_getaffinity(0))
    if workload == "attack":
        return {"OPENBLAS_NUM_THREADS": "1", "BLPCS_THREADS": str(nproc)}
    return {"OPENBLAS_NUM_THREADS": str(nproc), "BLPCS_THREADS": "1"}


def untraced_items_per_s(args):
    """items_per_s of the same run without tracing, from a child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"untraced run exited {done.returncode}")
    return json.loads(lines[-1])["metrics"]["items_per_s"]["value"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "blpcs" / "__init__.py").is_file():
        print(f"error: no blpcs sources under {SRC}", file=sys.stderr)
        return 2

    threads = thread_settings(args.workload)
    os.environ.update(threads)   # before numpy loads OpenBLAS
    baseline_rate = untraced_items_per_s(args) if args.trace else None

    sys.path.insert(0, str(SRC))
    import reference
    import tracing
    import workloads

    tracer = tracing.install(tracing.Tracer()) if args.trace else None
    outdir = HERE / "out"
    workdir = outdir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        work.setup()
        setup_s = _STARTUP_S + (time.perf_counter() - _T0)

        rates = []
        start = time.perf_counter()
        while True:
            before, t = work.attempted, time.perf_counter()
            work.run_round()
            now = time.perf_counter()
            rates.append((work.attempted - before) / (now - t))
            if now - start >= args.seconds:
                break
        elapsed = now - start
        if tracer:
            tracer.enabled = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        items_per_s = statistics.median(rates)

        correct = True
        try:
            reference.require(not work.wrong_outputs, "; ".join(work.wrong_outputs[:3]))
            work.check()
        except reference.CheckFailed as exc:
            correct = False
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {work.attempted} items "
          f"({work.failed} failed) in {len(rates)} rounds, {elapsed:.2f} s timed")
    print("threads: " + " ".join(f"{k}={v}" for k, v in threads.items())
          + f" nproc={len(os.sched_getaffinity(0))}")
    if tracer:
        metrics = tracer.metrics()
        metrics["trace.items"] = {"value": work.attempted, "unit": "count"}
        metrics["trace.items_per_s"] = {"value": items_per_s, "unit": "items/s"}
        metrics["trace.untraced_items_per_s"] = {"value": baseline_rate, "unit": "items/s"}
        metrics["trace.overhead"] = {"value": 1.0 - items_per_s / baseline_rate,
                                     "unit": "fraction"}
        report = {"workload": args.workload, "seed": args.seed, "threads": threads,
                  "spans": tracer.spans(), "metrics": metrics}
        path = outdir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(report, indent=1) + "\n")
        print(f"trace written to {path.relative_to(HERE.parent)}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": items_per_s, "unit": "items/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "apsnr_db": {"value": getattr(work, "apsnr_db", None), "unit": "dB"},
        }
    print(json.dumps({"correct": correct, "attempted": work.attempted,
                      "failed": work.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
