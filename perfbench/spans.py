"""In-memory span recorder and the per-layer metrics derived from it.

A traced run wraps every public function of the treeshift modules at each
place the function is bound, because modules bind imported names at import
time: ``psi`` is wrapped in ``treeshift.transfer_op`` (for ``apply_l``) and
again in ``rate_function``, ``oracle`` and ``dimension``.  Each call records
one span (name, start, end, parent id); spans stay in memory until the run
writes them out.  Self time is a span's duration minus the union of the
intervals its child spans cover.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import math
import statistics
import sys
import time
from contextlib import contextmanager

LAYERS = (
    "alphabet_graph",
    "tree_core",
    "transfer_op",
    "dimension",
    "rate_function",
    "stochastic",
    "oracle",
)

CLI_COMMANDS = ("dimension", "rate", "lln", "simulate", "oracle", "measure")

# counts taken from a call's arguments or return value, keyed by span name
EXTRACTORS = {
    "transfer_op.principal_eigenpair": lambda args, kwargs, out: out.iterations,
    "rate_function.pressure": lambda args, kwargs, out: out.iterations,
    "oracle.enumerate_type_classes": lambda args, kwargs, out: len(out),
    # nodes one trial visits: lattice_size(d, depth) of (chain, config, trial)
    "stochastic.running_means": lambda args, kwargs, out: _nodes(args[0].arity, args[1].depth),
}

# counts that must repeat exactly between traced passes of one seed
EXACT_COUNTS = (
    "transfer_op.psi.calls",
    "transfer_op.principal_eigenpair.iterations",
    "dimension.dim_objective.calls",
    "rate_function.pressure.calls",
    "rate_function.pressure.iterations",
    "oracle.enumerate_type_classes.classes",
)

# metric unit by the suffix of its last name component, first match wins
UNITS = (
    ("calls", "count"),
    ("iterations", "count"),
    ("classes", "count"),
    ("_bytes", "bytes"),
    ("_us", "us"),
    ("us_per_call", "us"),
    ("_ms", "ms"),
    ("per_s", "1/s"),
    ("s", "s"),
)


def _nodes(d: int, depth: int) -> int:
    """``lattice_size`` without calling the wrapped function from inside a span."""
    return (d ** (depth + 1) - 1) // (d - 1)


class SpanRecorder:
    """Spans of one traced pass, stored column-wise to keep the overhead low."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[int, int] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield sid
        finally:
            self.end(sid)

    def wrap(self, name: str, fn):
        extract = EXTRACTORS.get(name)
        begin, end, counts = self.begin, self.end, self.counts

        def traced(*args, **kwargs):
            sid = begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(sid)
            if extract is not None:
                counts[sid] = extract(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def write(self, path) -> None:
        """Spans as gzipped CSV: id, name, parent, start_s, end_s, count."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,parent,start_s,end_s,count\n")
            for sid, name in enumerate(self.names):
                fh.write(
                    f"{sid},{name},{self.parents[sid]},{self.starts[sid] - t0:.9f},"
                    f"{self.ends[sid] - t0:.9f},{self.counts.get(sid, '')}\n"
                )


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != module.__name__ or inspect.isgeneratorfunction(obj):
            continue
        yield attr, obj


@contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every public layer function at every treeshift binding site."""
    wrappers: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"treeshift.{layer}")
        for attr, fn in _public_functions(module):
            wrappers[id(fn)] = (fn, recorder.wrap(f"{layer}.{attr}", fn))
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "treeshift" and not mod_name.startswith("treeshift."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
                patched.append((module, attr, obj))
    try:
        yield
    finally:
        for module, attr, obj in reversed(patched):
            setattr(module, attr, obj)


def _self_times(rec: SpanRecorder) -> list[float]:
    """Duration minus the union of child intervals (children arrive in start order)."""
    n = len(rec.names)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # end of the child coverage so far, per parent
    for sid in range(n):
        p = rec.parents[sid]
        if p < 0:
            continue
        lo = max(rec.starts[sid], reach[p], rec.starts[p])
        hi = min(rec.ends[sid], rec.ends[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], rec.ends[sid])
    return [rec.ends[i] - rec.starts[i] - covered[i] for i in range(n)]


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def _under(rec: SpanRecorder, sid: int, ancestor: str) -> bool:
    p = rec.parents[sid]
    while p >= 0:
        if rec.names[p] == ancestor:
            return True
        p = rec.parents[p]
    return False


def unit_of(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    for suffix, unit in UNITS:
        if leaf.endswith(suffix):
            return unit
    return "ratio"


def layer_metrics(rec: SpanRecorder, output_bytes: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; layers the workload never calls read 0."""
    self_t = _self_times(rec)
    by_name: dict[str, list[int]] = {}
    for sid, name in enumerate(rec.names):
        by_name.setdefault(name, []).append(sid)

    def ids(name):
        return by_name.get(name, [])

    def calls(name):
        return len(ids(name))

    def incl(name):
        return sum(rec.ends[i] - rec.starts[i] for i in ids(name))

    def excl(name):
        return sum(self_t[i] for i in ids(name))

    def count(name):
        return sum(rec.counts.get(i, 0) for i in ids(name))

    def durations(name):
        return [rec.ends[i] - rec.starts[i] for i in ids(name)]

    def ratio(num, den):
        return num / den if den else 0.0

    pressures = ids("rate_function.pressure")
    m = {}
    m["transfer_op.psi.calls"] = calls("transfer_op.psi")
    m["transfer_op.psi.s"] = incl("transfer_op.psi")
    m["transfer_op.psi.us_per_call"] = 1e6 * ratio(incl("transfer_op.psi"), calls("transfer_op.psi"))
    eig = "transfer_op.principal_eigenpair"
    m[f"{eig}.calls"] = calls(eig)
    m[f"{eig}.iterations"] = count(eig)
    m[f"{eig}.self_s"] = excl(eig)
    m[f"{eig}.p50_us"] = 1e6 * _percentile(durations(eig), 0.50)
    m[f"{eig}.p99_us"] = 1e6 * _percentile(durations(eig), 0.99)
    m["transfer_op.entropy_iterate.s"] = incl("transfer_op.entropy_iterate")

    m["dimension.dim_objective.calls"] = calls("dimension.dim_objective")
    m["dimension.hausdorff_dimension.s"] = incl("dimension.hausdorff_dimension")
    m["dimension.hausdorff_dimension.self_s"] = excl("dimension.hausdorff_dimension")
    m["dimension.optimal_markov_measure.s"] = incl("dimension.optimal_markov_measure")

    rwa = "rate_function.rate_with_argmax"
    m["rate_function.pressure.calls"] = len(pressures)
    m["rate_function.pressure.iterations"] = count("rate_function.pressure")
    m["rate_function.pressure.self_s"] = excl("rate_function.pressure")
    m["rate_function.pressure_per_rate_point"] = ratio(
        sum(_under(rec, i, rwa) for i in pressures), calls(rwa)
    )
    m[f"{rwa}.calls"] = calls(rwa)
    m[f"{rwa}.p50_ms"] = 1e3 * _percentile(durations(rwa), 0.50)
    m[f"{rwa}.p95_ms"] = 1e3 * _percentile(durations(rwa), 0.95)
    m["rate_function.domain_endpoints.s"] = incl("rate_function.domain_endpoints")
    m["rate_function.domain_endpoints.pressure_calls"] = sum(
        _under(rec, i, "rate_function.domain_endpoints") for i in pressures
    )
    m["rate_function.lln_limit.s"] = incl("rate_function.lln_limit")

    rm = "stochastic.running_means"
    m[f"{rm}.calls"] = calls(rm)
    m[f"{rm}.s"] = incl(rm)
    m["stochastic.nodes_per_s"] = ratio(count(rm), incl(rm))
    m["stochastic.lln_experiment.self_s"] = excl("stochastic.lln_experiment")

    etc = "oracle.enumerate_type_classes"
    m[f"{etc}.calls"] = calls(etc)
    m[f"{etc}.classes"] = count(etc)
    m[f"{etc}.s"] = incl(etc)
    m["oracle.classes_per_s"] = ratio(count(etc), incl(etc))
    m["oracle.enumerations_per_command"] = ratio(calls(etc), calls("cli.oracle"))
    m["oracle.exact_mean_distribution.self_s"] = excl("oracle.exact_mean_distribution")

    m["alphabet_graph.find_a0_and_period.calls"] = calls("alphabet_graph.find_a0_and_period")
    m["alphabet_graph.find_a0_and_period.s"] = incl("alphabet_graph.find_a0_and_period")
    m["alphabet_graph.linear_spectral_radius.s"] = incl("alphabet_graph.linear_spectral_radius")
    m["alphabet_graph.load_model.s"] = incl("alphabet_graph.load_model")

    for command in CLI_COMMANDS:
        m[f"cli.{command}.self_s"] = excl(f"cli.{command}")
        m[f"cli.{command}.output_bytes"] = output_bytes.get(command, 0)
    return m


def exact_counts(metrics: dict[str, float]) -> dict[str, float]:
    return {name: metrics[name] for name in EXACT_COUNTS}


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
