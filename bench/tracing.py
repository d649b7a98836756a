"""Outside-in layer tracing for the benchmark.

The tracer wraps, from outside the package, every public function of each
regtail module and every public method of the classes those modules define.
It then rebinds each module attribute that refers to a wrapped object, so a
name imported elsewhere (``tails.count_copies``, ``tails.sample_gnp_with``,
``cores.planted_edge_delta``) is traced wherever it is called from. Private
helpers are not wrapped: their time counts as self time of the nearest
public caller.

Spans are kept in memory as ``(name, start, end, parent, op, ok)`` and
written out when the process ends. A span's self time is its duration minus
the time its child spans cover; children of one span never overlap, since
the benchmark runs one op at a time on one thread.

Layers are the package modules, with ``counting`` split into its three
engines. A public name that a later change removes simply gets no span, and
its counters read zero.

This module must not import regtail: the benchmark driver imports it for the
metric names without loading the package.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import sys
import time
from collections import Counter

MODULES = ("graphs", "counting", "spanned", "cores", "bounds", "tails", "verify", "cli")
LAYERS = (
    "graphs", "counting.kernel", "counting.planted", "counting.exact",
    "spanned", "cores", "bounds", "tails", "verify", "cli",
)

_PLANTED = re.compile(r"planted|rooted", re.IGNORECASE)
_EXACT = re.compile(r"exact|probabilit|array|mask", re.IGNORECASE)

# Per-layer metrics besides <layer>.calls, .self_s and .errors, with units.
# "computed_count" marks counts derived from the arguments (C(n,2) slots per
# G(n, p) draw, 2^C(n,2) graphs per exact sweep), not counted by the program.
EXTRA_METRICS = (
    ("graphs.edges_out", "count"),
    ("graphs.slots_drawn", "computed_count"),
    ("graphs.edge_yield", "ratio"),
    ("counting.kernel.copies_out", "count"),
    ("counting.planted.delta_calls", "count"),
    ("cores.edges_peeled", "count"),
    ("cores.delta_calls_per_peeled_edge", "ratio"),
    ("counting.exact.graphs_enumerated", "computed_count"),
    ("trace.overhead_ratio", "ratio"),
    ("fail_ratio", "ratio"),
)


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s"),
                (f"{layer}.errors", "count")]
    return out + list(EXTRA_METRICS)


def layer_of(module: str, qualname: str) -> str:
    """Layer of a wrapped name. ``counting`` is split by what the name does:
    planted-model expectations, exact enumeration (including the event
    classes' methods), and the copy kernel for everything else."""
    if module != "counting":
        return module
    if _PLANTED.search(qualname):
        return "counting.planted"
    if "." in qualname or _EXACT.search(qualname):
        return "counting.exact"
    return "counting.kernel"


def _slots(n: int) -> int:
    return n * (n - 1) // 2


def _hook_sample(counts, tracer, args, result):
    counts["graphs.slots_drawn"] += _slots(args["n"])
    counts["graphs.edges_out"] += result.m


def _hook_copies(counts, tracer, args, result):
    counts["counting.kernel.copies_out"] += result


def _hook_iter_copies(counts, tracer, args, result):
    counts["counting.kernel.copies_out"] += len(result)


def _hook_delta(counts, tracer, args, result):
    counts["counting.planted.delta_calls"] += 1
    if "cores" in tracer.open_layers:
        counts["cores.delta_calls"] += 1


def _hook_peel(counts, tracer, args, result):
    counts["cores.edges_peeled"] += len(result.peeled_edges)


def _hook_exact_model(counts, tracer, args, result):
    counts["counting.exact.graphs_enumerated"] += 1 << _slots(args["model"].n)


def _hook_exact_n(counts, tracer, args, result):
    counts["counting.exact.graphs_enumerated"] += 1 << _slots(args["n"])


# Span name -> counter hook, called with the bound arguments after the call
# returns. The names are listed in every report, with 0 calls if absent.
HOOKS = {
    "graphs.sample_gnp_with": _hook_sample,
    "counting.count_copies": _hook_copies,
    "counting.count_copies_through_edge": _hook_copies,
    "counting.iter_copies": _hook_iter_copies,
    "counting.planted_edge_delta": _hook_delta,
    "cores.peel_to_core": _hook_peel,
    "counting.exact_probability": _hook_exact_model,
    "counting.tail_probability_table": _hook_exact_n,
}


class Tracer:
    """Span recorder for one process. Create, ``install()``, set ``op``
    before each op, then read ``summary()`` and ``write_spans()``."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent, op, ok); None while open
        self.open_layers = []  # layers of the open spans, innermost last
        self._open = []  # span indices of the open spans
        self.op = -1
        self.counts = Counter()
        self.hook_errors = 0
        self.layer_by_name = {}

    def install(self):
        """Wrap regtail's public names in place."""
        wrapped = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            try:
                mod = importlib.import_module(f"regtail.{short}")
            except ImportError:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(short, f"{attr}.{meth}", fn))
                elif callable(obj):
                    wrapped[id(obj)] = (obj, self._wrap(short, attr, obj))
        for name, mod in list(sys.modules.items()):
            if not name.startswith("regtail."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap(self, module, qualname, fn):
        name = f"{module}.{qualname}"
        layer = layer_of(module, qualname)
        self.layer_by_name[name] = layer
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, open_spans, open_layers = self.spans, self._open, self.open_layers
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(idx)
            open_layers.append(layer)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                open_spans.pop()
                open_layers.pop()
                spans[idx] = (name, start, end, parent, tracer.op, ok)
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    hook(tracer.counts, tracer, bound, result)
                except Exception:  # a changed signature must not stop the run
                    tracer.hook_errors += 1
            return result

        return traced

    def summary(self) -> dict:
        """Calls, self time and errors per layer and per name, plus counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers = {layer: {"calls": 0, "self_s": 0.0, "errors": 0} for layer in LAYERS}
        by_name = {name: {"calls": 0, "self_s": 0.0} for name in HOOKS}
        for i, (name, start, end, _, _, ok) in enumerate(self.spans):
            own = end - start - child[i]
            entry = layers.setdefault(self.layer_by_name[name],
                                      {"calls": 0, "self_s": 0.0, "errors": 0})
            entry["calls"] += 1
            entry["self_s"] += own
            entry["errors"] += not ok
            row = by_name.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own
        return {
            "layers": layers,
            "by_name": by_name,
            "counts": dict(self.counts),
            "hook_errors": self.hook_errors,
            "spans": len(self.spans),
        }

    def write_spans(self, path):
        """One tab-separated line per span: name, start, end, parent, op, ok."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\tok\n")
            for name, start, end, parent, op, ok in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op}\t{int(ok)}\n")


def layer_metrics(summaries, fail_ratio: float, overhead_ratio: float) -> dict:
    """Per-layer metric values, averaged over the traced op lists."""
    reps = len(summaries)
    totals = Counter()
    for s in summaries:
        for layer, entry in s["layers"].items():
            for key, value in entry.items():
                totals[f"{layer}.{key}"] += value
        totals.update(s["counts"])
    values = {name: totals[name] / reps for name, _ in per_layer_metrics()}
    slots = totals["graphs.slots_drawn"]
    values["graphs.edge_yield"] = totals["graphs.edges_out"] / slots if slots else 0.0
    peeled = totals["cores.edges_peeled"]
    values["cores.delta_calls_per_peeled_edge"] = (
        totals["cores.delta_calls"] / peeled if peeled else 0.0
    )
    values["trace.overhead_ratio"] = overhead_ratio
    values["fail_ratio"] = fail_ratio
    return values
