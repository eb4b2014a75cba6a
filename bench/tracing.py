"""Per-layer timing by wrapping the program's public functions from outside.

:func:`install` replaces each traced function with a timing wrapper in
every ``blpcs`` module that holds it (methods are replaced on their class),
so calls made between the program's own modules are timed too.  Spans stay
in memory as per-layer totals: calls, inclusive seconds and self seconds
(inclusive minus the time of traced calls made inside it), plus the counts
named in :data:`PER_LAYER`.  A call nested inside another call of the same
layer metric is not counted twice.  Under the attack sweep's thread pool
the seconds are busy time summed over threads.
"""

import os
import sys
import threading
import time

# metric name -> unit; the order is the order of the traced-run output
PER_LAYER = {
    "keyrand.permutation_s": "s",
    "keyrand.permutation_items": "count",
    "keyrand.gaussian_s": "s",
    "cipher.key_derive_s": "s",
    "cipher.read_key_file_s": "s",
    "cipher.save_measurements_s": "s",
    "cipher.save_measurements_bytes": "bytes",
    "cipher.blp_encode_s": "s",
    "cipher.blp_encode_calls": "count",
    "bases.dct_eigensystem_s": "s",
    "bases.build_secret_basis_s": "s",
    "bases.forward_s": "s",
    "bases.inverse_s": "s",
    "imaging.load_pgm_s": "s",
    "imaging.columnwise_encode_s": "s",
    "imaging.apply_channel_s": "s",
    "imaging.columnwise_decode_s": "s",
    "solvers.ista_bpdn_batch_s": "s",
    "solvers.ista_iterations": "count",
    "solvers.ista_s_per_iteration": "s",
    "solvers.ista_bpdn_s": "s",
    "solvers.omp_recover_s": "s",
    "solvers.subspace_pursuit_s": "s",
    "solvers.two_step_decode_s": "s",
    "attacks.cpa_recover_matrix_s": "s",
    "attacks.queries": "count",
    "attacks.cpa_break_and_decode_s": "s",
    "ensembles.matrix_draw_s": "s",
    "cli.keygen_s": "s",
    "cli.encode_s": "s",
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.layers = {}   # layer -> [calls, inclusive s, self s]
        self.counts = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def count(self, name, amount):
        if self.enabled:
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + amount

    def timed(self, layer, fn):
        """Wrap ``fn`` so each outermost call is recorded under ``layer``."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            if not tracer.enabled or any(f[0] == layer for f in stack):
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                with tracer._lock:
                    rec = tracer.layers.setdefault(layer, [0, 0.0, 0.0])
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[1]

        wrapper.__wrapped__ = fn
        return wrapper

    def seconds(self, layer):
        return self.layers.get(layer, [0, 0.0, 0.0])[1]

    def metrics(self):
        """Every per-layer metric, zero where the workload never reached the layer."""
        out = {}
        for name, unit in PER_LAYER.items():
            if name == "solvers.ista_s_per_iteration":
                iters = self.counts.get("solvers.ista_iterations", 0)
                value = self.seconds("solvers.ista_bpdn_batch") / iters if iters else 0.0
            elif name.endswith("_s"):
                value = self.seconds(name[:-2])
            else:
                value = self.counts.get(name, 0)
            out[name] = {"value": value, "unit": unit}
        return out

    def spans(self):
        return {layer: {"calls": c, "inclusive_s": inc, "self_s": own}
                for layer, (c, inc, own) in sorted(self.layers.items())}


def _replace(original, wrapper):
    """Point every blpcs module attribute that holds ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if name == "blpcs" or name.startswith("blpcs."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer):
    """Wrap the traced functions of an imported ``blpcs``; returns ``tracer``."""
    from blpcs import attacks, bases, cipher, cli, ensembles, imaging, keyrand, solvers

    def method(cls, name, layer, after=None):
        setattr(cls, name, _counting(tracer, layer, getattr(cls, name), after))

    def function(module, name, layer, after=None):
        original = getattr(module, name)
        _replace(original, _counting(tracer, layer, original, after))

    method(keyrand.RandStream, "permutation", "keyrand.permutation",
           lambda args, kw, res: tracer.count("keyrand.permutation_items", res.n))
    method(keyrand.RandStream, "gaussian", "keyrand.gaussian")
    for name in ("sensing_matrix", "basis_spec", "basis"):
        method(cipher.BlpKey, name, "cipher.key_derive")
    function(cipher, "read_key_file", "cipher.read_key_file")
    function(cipher, "save_measurements", "cipher.save_measurements",
             lambda args, kw, res: tracer.count("cipher.save_measurements_bytes",
                                                os.path.getsize(args[0])))
    function(cipher, "blp_encode", "cipher.blp_encode",
             lambda args, kw, res: tracer.count("cipher.blp_encode_calls", 1))
    function(bases, "dct_eigensystem", "bases.dct_eigensystem")

    build = tracer.timed("bases.build_secret_basis", bases.build_secret_basis)

    def build_secret_basis(spec):
        forward, inverse = build(spec)
        return tracer.timed("bases.forward", forward), tracer.timed("bases.inverse", inverse)

    _replace(bases.build_secret_basis, build_secret_basis)

    for name in ("load_pgm", "columnwise_encode", "apply_channel", "columnwise_decode"):
        function(imaging, name, f"imaging.{name}")

    batch = tracer.timed("solvers.ista_bpdn_batch", solvers.ista_bpdn_batch)

    def ista_bpdn_batch(*args, **kwargs):
        # iterations are counted from the objective trace, one entry per
        # executed iteration, not from what the solver reports
        trace = kwargs.get("obj_trace")
        if trace is None:
            trace = kwargs["obj_trace"] = []
        before = len(trace)
        result = batch(*args, **kwargs)
        tracer.count("solvers.ista_iterations", len(trace) - before)
        return result

    _replace(solvers.ista_bpdn_batch, ista_bpdn_batch)
    for name in ("ista_bpdn", "omp_recover", "subspace_pursuit", "two_step_decode"):
        function(solvers, name, f"solvers.{name}")

    function(attacks, "cpa_recover_matrix", "attacks.cpa_recover_matrix",
             lambda args, kw, res: tracer.count("attacks.queries", res.queries_used))
    function(attacks, "cpa_break_and_decode", "attacks.cpa_break_and_decode")
    for name in ("gaussian_matrix", "antipodal_scaled_matrix"):
        function(ensembles, name, "ensembles.matrix_draw")

    main = cli.main
    keygen = tracer.timed("cli.keygen", main)
    encode = tracer.timed("cli.encode", main)

    def cli_main(argv=None):
        command = argv[0] if argv else None
        return {"keygen": keygen, "encode": encode}.get(command, main)(argv)

    _replace(main, cli_main)
    tracer.enabled = True
    return tracer


def _counting(tracer, layer, fn, after):
    timed = tracer.timed(layer, fn)
    if after is None:
        return timed

    def wrapper(*args, **kwargs):
        result = timed(*args, **kwargs)
        after(args, kwargs, result)
        return result

    return wrapper
