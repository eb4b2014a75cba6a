"""Plain numpy GEMM rate at the image decoder's shapes.

    python3 bench/gemm_rate.py

For each Table 1 rate, times K x 512 @ 512 x 512 (A @ S) and
512 x K @ K x 512 (A.T @ R) with the decode workloads' thread setting, and
prints the rate and the floor that three such products put under one
iteration of ``ista_bpdn_batch``.
"""

import os
import time

os.environ["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))

import numpy as np  # noqa: E402

N = 512
SRS = (0.1, 0.3, 0.5, 0.7)


def median_seconds(fn, repeats=30):
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def main():
    rng = np.random.default_rng(0)
    S = rng.standard_normal((N, N))
    print(f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, median of 30")
    print("sr    K    A@S ms  GFLOP/s  A.T@R ms  GFLOP/s  3-product floor ms/iter")
    for sr in SRS:
        K = max(1, int(round(sr * N)))
        A = rng.standard_normal((K, N))
        R = rng.standard_normal((K, N))
        flops = 2.0 * K * N * N
        fwd = median_seconds(lambda: A @ S)
        adj = median_seconds(lambda: A.T @ R)
        floor = 2 * fwd + adj
        print(f"{sr:<4g} {K:4d}  {fwd * 1e3:7.3f}  {flops / fwd / 1e9:7.2f}  "
              f"{adj * 1e3:8.3f}  {flops / adj / 1e9:7.2f}  {floor * 1e3:10.3f}")


if __name__ == "__main__":
    main()
