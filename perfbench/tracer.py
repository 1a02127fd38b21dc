"""Span tracer that times dppoison's layers from outside.

The tracer rebinds the public functions that the harness and the attack
code call (for example ``train_mechanism`` as seen from
``dppoison.attacks`` and ``dppoison.harness.montecarlo``) to wrappers
that record one span per call. The library itself is not modified; every
rebinding is undone by :meth:`Tracer.uninstall`.

A span is ``(name, layer, start, end, parent)`` with ``parent`` the index
of the enclosing span (or -1). Spans stay in memory until the benchmark
writes them out. A layer's self time is the duration of its spans minus
the part of each span that its child spans cover (:func:`self_times`).
"""

import contextlib
import importlib
import time

__all__ = ["Tracer", "self_times", "layer_metrics", "LAYERS"]

# Layer of every span name prefix, in the order the metrics are printed.
LAYERS = (
    "experiment",
    "datasets",
    "montecarlo",
    "attacks",
    "gradients",
    "learners",
    "core",
    "rng",
    "bounds",
)


def _solve_kind(args, kwargs):
    """Classify a train_mechanism(victim, data, b, settings, warm_start) call."""
    b = args[2] if len(args) > 2 else kwargs["b"]
    warm = args[4] if len(args) > 4 else kwargs.get("warm_start")
    if not b.any():
        return "learners.solve_surrogate"
    return "learners.solve_cold" if warm is None else "learners.solve_warm"


def _batch_items(args, kwargs, result, seconds):
    indices = args[5] if len(args) > 5 else kwargs["indices"]
    data = args[1] if len(args) > 1 else kwargs["data"]
    counts = {"gradients.batch_item_gradients.items": len(indices)}
    if len(indices) == data.n:
        counts["gradients.all_items.calls"] = 1
        counts["gradients.all_items.s"] = seconds
    return counts


def _mc_draws(args, kwargs, result, seconds):
    return {"montecarlo.draws": int(result.samples)}


def _attack_counts(args, kwargs, result, seconds):
    snapshot = result.features.nbytes + result.labels.nbytes + result.surrogate_costs.nbytes
    return {
        "attacks.sgd_steps": max(len(result.iterations) - 1, 0),
        "attacks.surrogate_costs": len(result.surrogate_costs),
        "attacks.snapshot_bytes_max": snapshot,
    }


# (module, attribute, span name or classifier, counter hook). A function
# is wrapped in every module that calls it through its own namespace.
_TARGETS = (
    ("dppoison.harness.experiment", "build_dataset", "datasets.build_dataset", None),
    ("dppoison.harness.experiment", "build_eval_set", "datasets.build_eval_set", None),
    ("dppoison.harness.experiment", "build_cost", "datasets.build_cost", None),
    ("dppoison.harness.experiment", "estimate_attack_cost", "montecarlo.estimate_attack_cost", _mc_draws),
    ("dppoison.harness.experiment", "run_attack", "attacks.run_attack", _attack_counts),
    ("dppoison.harness.experiment", "deep_scores", "attacks.selection", None),
    ("dppoison.harness.experiment", "shallow_scores", "attacks.selection", None),
    ("dppoison.harness.experiment", "bound_for", "bounds.bound_for", None),
    ("dppoison.harness.experiment", "train_mechanism", _solve_kind, None),
    ("dppoison.harness.experiment", "train_base_logistic", "learners.solve_base", None),
    ("dppoison.harness.experiment", "train_base_ridge_constrained", "learners.solve_base", None),
    ("dppoison.harness.experiment", "substream", "rng.substream", None),
    ("dppoison.harness.experiment", "subseed", "rng.subseed", None),
    ("dppoison.harness.montecarlo", "train_mechanism", _solve_kind, None),
    ("dppoison.harness.montecarlo", "sample_noise", "learners.sample_noise", None),
    ("dppoison.harness.montecarlo", "eval_cost", "core.eval_cost", None),
    ("dppoison.harness.montecarlo", "substream", "rng.substream", None),
    ("dppoison.attacks", "deep_scores", "attacks.selection", None),
    ("dppoison.attacks", "shallow_scores", "attacks.selection", None),
    ("dppoison.attacks", "relaxed_attack", "attacks.relaxed_attack", None),
    ("dppoison.attacks", "train_mechanism", _solve_kind, None),
    ("dppoison.attacks", "sample_noise", "learners.sample_noise", None),
    ("dppoison.attacks", "batch_item_gradients", "gradients.batch_item_gradients", _batch_items),
    ("dppoison.attacks", "cost_gradient", "gradients.cost_gradient", None),
    ("dppoison.attacks", "eval_cost", "core.eval_cost", None),
    ("dppoison.attacks", "project_rows_inplace", "core.project", None),
    ("dppoison.attacks", "modification_distances", "core.modification_distances", None),
    ("dppoison.attacks", "substream", "rng.substream", None),
)

# Counters that combine by maximum instead of by sum.
_MAX_COUNTERS = {"attacks.snapshot_bytes_max"}


class Tracer:
    """Records spans around dppoison's public functions while installed."""

    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []  # [name, layer, start, end, parent]
        self.counters = {}
        self._stack = []
        self._saved = []

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block; yields the span's index."""
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append([name, name.split(".", 1)[0], self.clock(), None, parent])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][3] = self.clock()
        self._stack.pop()

    def count(self, values):
        for key, v in values.items():
            if key in _MAX_COUNTERS:
                self.counters[key] = max(self.counters.get(key, 0), v)
            else:
                self.counters[key] = self.counters.get(key, 0) + v

    def wrap(self, fn, name, hook=None):
        """Return fn wrapped to record a span; name may be a classifier
        called with (args, kwargs). hook(args, kwargs, result, seconds)
        returns counters to add."""
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if hook is not None:
                span = tracer.spans[sid]
                tracer.count(hook(args, kwargs, result, span[3] - span[2]))
            return result

        return traced

    def install(self):
        for module_name, attr, name, hook in _TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, hook))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def records(self):
        """Spans as JSON-ready dicts, each tagged with the run id."""
        return [
            {"run": self.run_id, "id": i, "name": n, "layer": layer, "start": s, "end": e, "parent": p}
            for i, (n, layer, s, e, p) in enumerate(self.spans)
        ]


def self_times(spans):
    """Self time of every span: its duration minus the length of the union
    of its children's intervals, clipped to the span.

    ``spans`` is a list of (name, layer, start, end, parent) sequences.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[4] >= 0:
            children[s[4]].append(i)
    out = []
    for i, (_, _, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[i], key=lambda c: spans[c][2]):
            lo = max(spans[c][2], reach)
            hi = min(spans[c][3], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _within(spans, i, ancestor):
    while i >= 0:
        if i == ancestor:
            return True
        i = spans[i][4]
    return False


def layer_metrics(spans, counters, root):
    """Per-layer metrics of the spans under (and including) span ``root``.

    Returns a dict of metric name -> value. Per-call means of functions
    that were never called read 0.
    """
    selfs = self_times(spans)
    inside = [i for i in range(len(spans)) if _within(spans, i, root)]
    dur = {}
    calls = {}
    selfs_by_name = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i in inside:
        name, layer = spans[i][0], spans[i][1]
        dur[name] = dur.get(name, 0.0) + spans[i][3] - spans[i][2]
        calls[name] = calls.get(name, 0) + 1
        selfs_by_name[name] = selfs_by_name.get(name, 0.0) + selfs[i]
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[i]

    def per_call_us(name):
        return 1e6 * dur.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    m = {}
    for kind in ("solve_cold", "solve_warm", "solve_surrogate"):
        name = f"learners.{kind}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.us_per_call"] = per_call_us(name)
    m["learners.sample_noise.self_s"] = selfs_by_name.get("learners.sample_noise", 0.0)

    mc = "montecarlo.estimate_attack_cost"
    m["montecarlo.estimates"] = calls.get(mc, 0)
    m["montecarlo.draws"] = counters.get("montecarlo.draws", 0)
    m["montecarlo.total_s"] = dur.get(mc, 0.0)
    m["montecarlo.draws_per_s"] = m["montecarlo.draws"] / m["montecarlo.total_s"] if m["montecarlo.total_s"] else 0.0
    m["montecarlo.per_estimate_s"] = m["montecarlo.total_s"] / calls[mc] if calls.get(mc) else 0.0

    # run_attack's own span also covers the selection it triggers in
    # curve mode; the SGD loop's time excludes it.
    selection_in_attack = sum((
        spans[i][3] - spans[i][2]
        for i in inside
        if spans[i][0] == "attacks.selection" and _has_ancestor_named(spans, i, "attacks.run_attack")
    ), 0.0)
    sgd_s = dur.get("attacks.run_attack", 0.0) - selection_in_attack
    m["attacks.run_attack.total_s"] = sgd_s
    m["attacks.run_attack.self_s"] = selfs_by_name.get("attacks.run_attack", 0.0)
    m["attacks.sgd_steps"] = counters.get("attacks.sgd_steps", 0)
    m["attacks.sgd_steps_per_s"] = m["attacks.sgd_steps"] / sgd_s if sgd_s > 0 else 0.0
    m["attacks.selection.total_s"] = sum((
        spans[i][3] - spans[i][2]
        for i in inside
        if spans[i][0] == "attacks.selection" and not _has_ancestor_named(spans, i, "attacks.selection")
    ), 0.0)
    m["attacks.relaxed_attack.self_s"] = selfs_by_name.get("attacks.relaxed_attack", 0.0)
    # Only the last surrogate cost of a curve run reaches an output
    # (summary.json's final_surrogate_cost); the worker reports how many did.
    solves = calls.get("learners.solve_surrogate", 0)
    useful = counters.get("attacks.surrogate_useful", 0)
    m["attacks.surrogate_solves"] = solves
    m["attacks.surrogate_useful"] = useful
    m["attacks.surrogate_useful_ratio"] = useful / solves if solves else 0.0
    m["attacks.snapshot_mb"] = counters.get("attacks.snapshot_bytes_max", 0) / 2**20

    bg = "gradients.batch_item_gradients"
    m[f"{bg}.calls"] = calls.get(bg, 0)
    m[f"{bg}.items"] = counters.get(f"{bg}.items", 0)
    m[f"{bg}.us_per_call"] = per_call_us(bg)
    m[f"{bg}.self_s"] = selfs_by_name.get(bg, 0.0)
    all_calls = counters.get("gradients.all_items.calls", 0)
    m["gradients.all_items.calls"] = all_calls
    m["gradients.all_items.us_per_call"] = (
        1e6 * counters["gradients.all_items.s"] / all_calls if all_calls else 0.0
    )
    m["gradients.cost_gradient.self_s"] = selfs_by_name.get("gradients.cost_gradient", 0.0)

    m["core.eval_cost.calls"] = calls.get("core.eval_cost", 0)
    m["core.eval_cost.self_s"] = selfs_by_name.get("core.eval_cost", 0.0)
    m["rng.substream.calls"] = calls.get("rng.substream", 0)
    m["rng.substream.us_per_call"] = per_call_us("rng.substream")
    m["rng.substream.self_s"] = selfs_by_name.get("rng.substream", 0.0)
    m["bounds.calls"] = calls.get("bounds.bound_for", 0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.self_sum_s"] = sum(layer_self.values())
    return m


def _has_ancestor_named(spans, i, name):
    """Whether a strict ancestor of span i is named name."""
    i = spans[i][4]
    while i >= 0:
        if spans[i][0] == name:
            return True
        i = spans[i][4]
    return False
