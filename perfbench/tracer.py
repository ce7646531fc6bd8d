"""Span tracer that wraps corrlab's layers from outside the package.

``Tracer.install()`` replaces every public function of each layer module
with a timing wrapper, at every place a caller looks the name up: the
defining module, every module that imported it with ``from ... import``,
and the package namespace.  A few methods (``Network.forward``/
``backward``, ``Adam.step``, ``SurrogateModel.predict``) and
``mc._simulate_one`` (one simulation, the unit of ``mc.run``'s pool) are
wrapped on their class or module.  ``uninstall()`` restores the originals.

Each call records a span ``(id, parent, name, start, end, round)`` in
memory.  A span opened in a worker thread with no open span of its own is
parented to the innermost open span of the main thread, which is the
``mc.run`` call that started the pool.  Rounds are the benchmark's own
root spans (one per group of ops).  Spans are written out by ``dump`` once
the run has ended.

Some wrappers also count what the call did (solver iterations, failures,
bytes written, distinct matrices seen); see ``_OBSERVERS``.
"""

from __future__ import annotations

import gzip
import hashlib
import importlib
import inspect
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from corrlab.exceptions import ConvergenceFailure, CorrlabError

LAYERS = (
    "core", "geometry", "samplers", "facts", "corpus", "neural", "gan",
    "evaluation", "portfolio", "mc", "cli",
)
# called tens of times per layer call; their time stays with the caller
_UNWRAPPED = {"core.as_symmetric", "core.symmetrize"}
_METHODS = (
    ("neural", "Network", "forward"),
    ("neural", "Network", "backward"),
    ("neural", "Adam", "step"),
    ("mc", "SurrogateModel", "predict"),
)
_PRIVATE = (("mc", "_simulate_one"),)
SPD_FNS = ("spd_sqrt", "spd_inv_sqrt", "spd_log", "spd_exp", "spd_power")
# the call that builds each of the corpus, train and generate stages
REPRO_STAGES = ("corpus.build_surrogate", "gan.train", "gan.sample")


def _matrix_key(m) -> bytes:
    return hashlib.sha1(np.ascontiguousarray(m, dtype="<f8").tobytes()).digest()


class Tracer:
    """Records spans and per-function counters while installed."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(float))
        self.distinct = defaultdict(set)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._main_stack = []
        self._tls.stack = self._main_stack
        self._round = None
        self._patches = []

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _begin(self):
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else 0
        )
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent, perf_counter()

    def _end(self, token, name):
        t1 = perf_counter()
        stack, sid, parent, t0 = token
        stack.pop()
        self.spans.append((sid, parent, name, t0, t1, self._round))

    @contextmanager
    def round(self, index):
        """Root span around one group of ops; its index tags every span."""
        self._round = index
        token = self._begin()
        try:
            yield
        finally:
            self._end(token, "round")

    def count(self, name, key, value=1.0):
        with self._lock:
            self.counters[name][key] += value

    # -- installation ----------------------------------------------------------

    def _wrap(self, name, fn):
        observer = _OBSERVERS.get(name)
        tracer = self

        begin, end = self._begin, self._end
        if name == "portfolio.backtest":
            # one span name per allocator, so each gets its own self time
            def wrapper(*args, **kwargs):
                method = args[2] if len(args) > 2 else kwargs["method"]
                token = begin()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(token, f"{name}.{method}")
        elif observer is None:
            def wrapper(*args, **kwargs):
                token = begin()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(token, name)
        else:
            def wrapper(*args, **kwargs):
                token = begin()
                try:
                    return observer(tracer, name, fn, args, kwargs)
                finally:
                    end(token, name)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = {
            layer: importlib.import_module(f"corrlab.{layer}") for layer in LAYERS
        }
        package = importlib.import_module("corrlab")
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or f"{layer}.{attr}" in _UNWRAPPED
                ):
                    continue
                wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for layer, attr in _PRIVATE:
            obj = getattr(modules[layer], attr)
            wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        # rebind at every lookup site: defining module, importers, package
        for mod in (*modules.values(), package):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        for layer, cls_name, meth in _METHODS:
            cls = getattr(modules[layer], cls_name)
            self._set(cls, meth, self._wrap(
                f"{layer}.{cls_name}.{meth}", cls.__dict__[meth]
            ))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    def dump(self, path):
        """Write every span as one JSON line (gzip) once the run has ended."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for sid, parent, name, t0, t1, rnd in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": t0, "end": t1, "round": rnd,
                }) + "\n")


class NullTracer:
    """Stand-in for untraced runs: rounds cost nothing."""

    @contextmanager
    def round(self, index):
        yield


# ---------------------------------------------------------------------------
# observers: call the wrapped function and count what it did


def _obs_nearest_correlation(tracer, name, fn, args, kwargs):
    args = list(args)
    want_info = args.pop(3) if len(args) > 3 else kwargs.pop("return_info", False)
    try:
        out, residuals = fn(*args, return_info=True, **kwargs)
    except CorrlabError:
        tracer.count(name, "failures")
        raise
    tracer.count(name, "iterations", len(residuals))
    tracer.count(name, "solved")
    return (out, residuals) if want_info else out


def _obs_mean(tracer, name, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.count(name, "converged", float(result.converged))
    return result


def _obs_karcher(tracer, name, fn, args, kwargs):
    try:
        result = fn(*args, **kwargs)
    except ConvergenceFailure:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.count(name, "failures")
        tracer.count(name, "iterations", bound.arguments["max_iter"])
        raise
    tracer.count(name, "iterations", result[1])
    return result


def _obs_wasserstein2(tracer, name, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.count(name, "exact", float(result.exact))
    return result


def _obs_write_corpus(tracer, name, fn, args, kwargs):
    result = fn(*args, **kwargs)
    directory = Path(args[1] if len(args) > 1 else kwargs["directory"])
    tracer.count(name, "bytes", sum(
        (directory / f).stat().st_size
        for f in ("matrices.f64le", "manifest.json")
    ))
    return result


def _obs_mc_run(tracer, name, fn, args, kwargs):
    config = args[0] if args else kwargs["config"]
    threads = args[2] if len(args) > 2 else kwargs.get("threads", 1)
    records = fn(*args, **kwargs)
    tracer.count(name, "records", len(records))
    tracer.count(name, "skipped",
                 config.count_per_regime * len(config.regimes) - len(records))
    tracer.count(name, "threads", threads)
    return records


def _obs_distinct(tracer, name, fn, args, kwargs):
    key = _matrix_key(args[0] if args else kwargs["c"])
    with tracer._lock:
        tracer.distinct[name].add(key)
    return fn(*args, **kwargs)


_OBSERVERS = {
    "core.nearest_correlation": _obs_nearest_correlation,
    "geometry.mean": _obs_mean,
    "geometry.karcher_mean": _obs_karcher,
    "evaluation.wasserstein2": _obs_wasserstein2,
    "corpus.write_corpus": _obs_write_corpus,
    "mc.run": _obs_mc_run,
    "facts.feature_vector": _obs_distinct,
    "facts.stylized_report": _obs_distinct,
}


# ---------------------------------------------------------------------------
# analysis


def _union(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Map span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for sid, parent, _name, t0, t1, _rnd in spans:
        children[parent].append((t0, t1))
    out = {}
    for sid, _parent, _name, t0, t1, _rnd in spans:
        kids = [(max(s, t0), min(e, t1)) for s, e in children.get(sid, ())]
        out[sid] = (t1 - t0) - _union([k for k in kids if k[1] > k[0]])
    return out


def layer_metrics(tracer, ops):
    """Per-layer metrics, normalised per attempted op where they are sums.

    ``ops`` is the number of ops attempted inside traced rounds.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    busy = defaultdict(float)
    by_round_calls = defaultdict(lambda: defaultdict(int))
    round_total = round_self = 0.0
    for sid, _parent, name, t0, t1, rnd in spans:
        if name == "round":
            round_total += t1 - t0
            round_self += selfs[sid]
            continue
        calls[name] += 1
        self_s[name] += selfs[sid]
        busy[name] += t1 - t0
        by_round_calls[rnd][name] += 1
    ops = max(ops, 1)
    c = tracer.counters

    def per_op(x):
        return x / ops

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_op(sum(
            v for k, v in self_s.items() if k.split(".")[0] == layer
        ))
    for name in (
        "facts.cluster_separation", "facts.feature_vector", "facts.mst",
        "facts.cophenetic_coeff", "facts.stylized_report",
        "portfolio.hrp_weights", "samplers.sample_regime", "mc.run",
        "mc.shapley", "neural.Network.forward", "neural.Network.backward",
        "neural.Adam.step", "gan.train", "gan.sample",
        "core.nearest_correlation", "geometry.mean", "geometry.karcher_mean",
        "evaluation.pca_project", "evaluation.wasserstein2",
        "evaluation.classifier_fidelity",
        "evaluation.train_feature_classifier", "corpus.build_surrogate",
        "corpus.write_corpus", "corpus.read_corpus",
    ):
        m[f"{name}.self_s"] = per_op(self_s[name])
        m[f"{name}.calls"] = per_op(calls[name])
    for method in ("hrp", "ivp", "ew"):
        name = f"portfolio.backtest.{method}"
        m[f"{name}.self_s"] = per_op(self_s[name])
    m["mc.SurrogateModel.predict.calls"] = per_op(calls["mc.SurrogateModel.predict"])
    m["geometry.spd_fn.calls"] = per_op(
        sum(calls[f"geometry.{f}"] for f in SPD_FNS)
    )
    m["geometry.airm_distance.calls"] = per_op(calls["geometry.airm_distance"])

    for name in ("facts.feature_vector", "facts.stylized_report"):
        m[f"{name}.calls_per_matrix"] = ratio(
            calls[name], len(tracer.distinct[name])
        )
    nc = c["core.nearest_correlation"]
    m["core.nearest_correlation.iterations"] = ratio(nc["iterations"], nc["solved"])
    m["core.nearest_correlation.failures"] = per_op(nc["failures"])
    m["geometry.mean.converged_ratio"] = ratio(
        c["geometry.mean"]["converged"], calls["geometry.mean"]
    )
    km = c["geometry.karcher_mean"]
    m["geometry.karcher_mean.iterations"] = ratio(
        km["iterations"], calls["geometry.karcher_mean"]
    )
    m["geometry.karcher_mean.failures"] = per_op(km["failures"])
    m["evaluation.wasserstein2.exact_ratio"] = ratio(
        c["evaluation.wasserstein2"]["exact"], calls["evaluation.wasserstein2"]
    )
    m["corpus.write_corpus.bytes"] = per_op(c["corpus.write_corpus"]["bytes"])
    run = c["mc.run"]
    m["mc.run.records"] = per_op(run["records"])
    m["mc.run.skipped"] = per_op(run["skipped"])
    # busy time of the simulations over the wall time the pool could use
    pool_wall = sum(
        (t1 - t0) for _s, _p, name, t0, t1, _r in spans if name == "mc.run"
    )
    mean_threads = ratio(run["threads"], calls["mc.run"])
    m["mc.run.parallel_efficiency"] = ratio(
        busy["mc._simulate_one"], pool_wall * mean_threads
    )
    m["trace.coverage"] = ratio(round_total - round_self, round_total)
    return m, by_round_calls


def repro_stage_metrics(by_round_calls, rerun_rounds):
    """Stages rebuilt per rerun, from the calls that build each stage."""
    rebuilt = [
        sum(1 for name in REPRO_STAGES if by_round_calls[r][name])
        for r in rerun_rounds
    ]
    n = len(REPRO_STAGES)
    mean_rebuilt = sum(rebuilt) / len(rebuilt) if rebuilt else 0.0
    return {
        "cli.repro.stages_rebuilt": mean_rebuilt,
        "cli.repro.cache_hit_ratio": (n - mean_rebuilt) / n if rebuilt else 0.0,
    }
