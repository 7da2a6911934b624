"""Out-of-program tracing for the diamrisk benchmark.

Tracer wraps the public functions of the diamrisk layer modules from the
outside and records one span per call: (id, parent id, name, thread id,
start, end, items). A function object is wrapped once and every module
attribute that holds it is rebound to that one wrapper, so a function
imported into several modules (sample_sphere, landscape_histogram, ...)
gives exactly one span per call, whichever name the caller used. Spans stay
in memory until the traced run ends.

A call that starts on a thread with no open span (a pool worker) takes the
innermost open fan-out span (landscape_histogram) as its parent, so worker
spans attach to the histogram that scheduled them.

layer_totals and worker_idle_frac turn a span list into per-layer numbers. Self time is a
span's duration minus the durations of its child spans on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict

PACKAGE = "diamrisk"
LAYERS = ("params", "losses", "mlp", "risk", "optimizer", "analysis", "data", "harness", "cli")

# Methods traced besides the module-level functions: (module, class, method).
METHODS = (
    ("params", "ParamVector", "__init__"),
    ("losses", "TentLoss", "eval_scalar"),
    ("losses", "ReciprocalLoss", "eval_scalar"),
)

FANOUT = "analysis.landscape_histogram"
# The two calls each landscape_histogram evaluation makes: w + u, then the risk.
EVALUATION = ("params.axpy", "mlp.batch_nll")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _label_risk_items(args, kwargs, result):
    import numpy as np

    w_points = _arg(args, kwargs, 1, "w_points")
    labels = _arg(args, kwargs, 2, "labels")
    return int(np.size(w_points)) * int(np.unique(np.asarray(labels)).size)


def _artifact_bytes(args, kwargs, result):
    out = result.out_dir
    return sum(os.path.getsize(os.path.join(out, f)) for f in sorted(os.listdir(out)))


# name -> items(args, kwargs, result); items are what the call processed.
ITEMS = {
    "mlp.loss_and_grad": lambda a, k, r: len(_arg(a, k, 2, "batch")),
    "mlp.batch_nll": lambda a, k, r: len(_arg(a, k, 2, "batch")),
    "optimizer.select_worst": lambda a, k, r: len(_arg(a, k, 3, "candidates")),
    "risk.diametrical_risk_sampled": lambda a, k, r: int(_arg(a, k, 4, "r")),
    "risk.label_risk_curves": _label_risk_items,
    "analysis.landscape_histogram": lambda a, k, r: int(_arg(a, k, 4, "n_samples")),
    "harness.run_label_noise_experiment": _artifact_bytes,
}


class Tracer:
    """Wraps the diamrisk layer functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.workers: dict[int, int] = {}  # fan-out span id -> max_workers
        self._local = threading.local()
        self._ids = itertools.count()
        self._fanout = None
        self._restore: list[tuple[object, str, object]] = []

    # -- install / uninstall ------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        items = ITEMS.get(name)
        fanout = name == FANOUT

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._fanout
            sid = next(tracer._ids)
            stack.append(sid)
            if fanout:
                outer, tracer._fanout = tracer._fanout, sid
                tracer.workers[sid] = int(kwargs.get("max_workers", 1))
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if fanout:
                    tracer._fanout = outer
                n = items(args, kwargs, result) if items is not None and result is not None else None
                tracer.spans.append((sid, parent, name, threading.get_ident(), t0, t1, n))

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__ and id(obj) not in wrappers:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        namespaces = [importlib.import_module(PACKAGE)]
        namespaces += [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(ns, attr, hit[1])
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
            self._rebind(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", cls.__dict__[method]))

    def _rebind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every rebound attribute back; raises if one is not restored."""
        restore, self._restore = self._restore, []
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
        for owner, attr, original in restore:
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"binding {attr!r} was not restored")

    def dump(self) -> dict:
        return {"spans": self.spans, "workers": {str(k): v for k, v in self.workers.items()}}


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------


def span_key(name: str, items, batch_rows: int) -> str:
    """batch_nll calls are split by size: a training batch or a whole set."""
    if name == "mlp.batch_nll" and items is not None:
        return "mlp.batch_nll.batch" if items <= batch_rows else "mlp.batch_nll.full"
    return name


def layer_totals(spans, batch_rows: int) -> dict[str, dict[str, float]]:
    """Per span key: calls, self_s (exclusive), incl_s (inclusive), items."""
    by_id = {s[0]: s for s in spans}
    covered = defaultdict(float)
    for sid, parent, _, tid, t0, t1, _ in spans:
        if parent is not None and parent in by_id and by_id[parent][3] == tid:
            covered[parent] += t1 - t0
    totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "items": 0})
    for sid, _, name, _, t0, t1, items in spans:
        entry = totals[span_key(name, items, batch_rows)]
        entry["calls"] += 1
        entry["incl_s"] += t1 - t0
        entry["self_s"] += (t1 - t0) - covered[sid]
        entry["items"] += items or 0
    return dict(totals)


def worker_idle_frac(spans, workers: dict) -> float:
    """1 - evaluation busy time / (workers x fan-out span time), over all
    fan-out spans; 0 when there were none."""
    capacity = {}
    for sid, _, name, _, t0, t1, _ in spans:
        if name == FANOUT:
            capacity[sid] = workers.get(sid, 1) * (t1 - t0)
    if not capacity:
        return 0.0
    busy = sum(s[5] - s[4] for s in spans if s[1] in capacity and s[2] in EVALUATION)
    return 1.0 - busy / sum(capacity.values())
