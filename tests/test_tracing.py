"""The benchmark tracer still reaches the solvers it times.

``bench/tracing.py`` wraps the program's functions by name and counts ISTA
iterations from the ``obj_trace`` keyword it passes to ``ista_bpdn_batch``,
so a change to those names or that keyword silently zeroes its metrics.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import blpcs

ROOT = Path(__file__).resolve().parent.parent

# install patches modules process-wide, so the traced run gets its own process
_TRACED_RUN = """
import json
from tracing import Tracer, install
from blpcs import cli, imaging
from blpcs.cipher import keygen
tracer = install(Tracer())
cli.run_fig1(1, 1)
key = keygen(3, 32, 0.3, 1.0)
imaging.columnwise_decode(key, imaging.columnwise_encode(key, imaging.make_test_image(32)))
print(json.dumps({name: m["value"] for name, m in tracer.metrics().items()}))
"""


def test_tracer_counts_the_direct_and_batched_solves():
    path = os.pathsep.join([str(Path(blpcs.__file__).resolve().parents[1]), str(ROOT / "bench")])
    done = subprocess.run([sys.executable, "-c", _TRACED_RUN], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    metrics = json.loads(done.stdout)
    for name in ("solvers.ista_iterations", "solvers.ista_bpdn_s", "solvers.ista_bpdn_batch_s"):
        assert metrics[name] > 0, name
