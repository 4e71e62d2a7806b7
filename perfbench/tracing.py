"""Layer spans and call counters, installed from outside the library.

A traced pass wraps each layer's entry points: every public function defined
in the layer's module, every private function that another chibound module
imports by name, and the methods listed in ``METHODS``. The wrapper replaces
every ``chibound.*`` module attribute bound to the same function object, so
call sites written as ``from .x import f`` are caught too.

A call from outside the layer is an entry and opens a span (name, start,
end, parent, run id); a call made while the innermost open span already
belongs to the same layer is counted but opens no span. A generator opens a
span on each resume, and its first resume is its entry. Errors are counted
when they leave a span. Self time is a span's duration minus the time its
child spans cover, both rescaled to reference host speed by the
pass's ``HostSpeed``. Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import monotonic

LAYERS = (
    "graphs",
    "codec",
    "generators",
    "corpus",
    "invariants",
    "treedepth",
    "coloring",
    "minors",
    "holes",
    "homomorphism",
    "suites",
)

# Methods that are layer entry points. Other public classes of the library
# are records or accessors whose calls would only add wrapper cost.
METHODS = {
    "graphs": (("Graph", "__init__"), ("Digraph", "__init__")),
    "treedepth": (
        ("TreedepthSolver", "td_at_most"),
        ("TreedepthSolver", "treedepth"),
        ("TreedepthSolver", "forest"),
    ),
}

# Layer errors counted when they leave a span.
ERROR_NAMES = ("SizeCapError", "BudgetError")

# Entry points whose non-None results are counted, for a hit ratio.
HIT_RATIO = ("minors.find_topo_embedding",)

# Entry points whose every call is reported as "<name>.calls".
NAMED_CALLS = (
    "graphs.Graph",
    "codec.graph_from_graph6",
    "corpus.canonical_form",
    "treedepth.td_at_most",
    "treedepth.tree_depth",
    "coloring.chromatic_number_value",
    "coloring.star_chromatic_number",
    "coloring.chi_p",
    "minors.find_topo_embedding",
    "holes.count_holes",
    "homomorphism.homomorphism",
)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.calls = Counter()  # "layer.function" -> every call
        self.found = Counter()  # HIT_RATIO name -> calls that returned non-None
        self.errors = Counter()  # layer -> errors leaving a span
        self.entries = Counter()  # layer -> calls into the layer from outside it
        self.loads = []  # (start, end) of every corpus._load_cached call
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []  # indices of open spans
        self._layer_of_open = []  # layer of each open span, innermost last

    def open(self, name, layer, entry=True):
        """Open a span; ``entry`` is False for a later resume of a generator."""
        if entry:
            self.entries[layer] += 1
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self._layer_of_open.append(layer)
        self.starts.append(monotonic())
        return idx

    def close(self, idx):
        self.ends[idx] = monotonic()
        self._stack.pop()
        self._layer_of_open.pop()

    def in_layer(self, layer):
        return bool(self._layer_of_open) and self._layer_of_open[-1] == layer

    def self_times(self, speed):
        """Self time per span name: duration minus child-span coverage."""
        n = len(self.names)
        dur = [speed.scaled(self.starts[i], self.ends[i])[1] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        out = Counter()
        for i in range(n):
            out[self.names[i]] += dur[i] - child[i]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\trun_id\n")
            for i in range(len(self.names)):
                fh.write(
                    f"{self.names[i]}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}"
                    f"\t{self.parents[i]}\t{self.run_id}\n"
                )


def _wrap(tracer, fn, layer, name, errors):
    if inspect.isgeneratorfunction(fn):
        # the work of a generator runs while it is resumed, so span each resume;
        # the first resume from outside the layer is the layer entry
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            it = fn(*args, **kwargs)
            entry = True
            while True:
                nested = tracer.in_layer(layer)
                idx = None if nested else tracer.open(name, layer, entry)
                entry = False
                try:
                    item = next(it)
                except StopIteration:
                    return
                except errors:
                    if idx is not None:
                        tracer.errors[layer] += 1
                    raise
                finally:
                    if idx is not None:
                        tracer.close(idx)
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        if tracer.in_layer(layer):
            return fn(*args, **kwargs)
        idx = tracer.open(name, layer)
        try:
            return fn(*args, **kwargs)
        except errors:
            tracer.errors[layer] += 1
            raise
        finally:
            tracer.close(idx)

    if name not in HIT_RATIO:
        return wrapper

    @functools.wraps(fn)
    def counting_wrapper(*args, **kwargs):
        out = wrapper(*args, **kwargs)
        if out is not None:
            tracer.found[name] += 1
        return out

    return counting_wrapper


def _chibound_modules():
    return [m for key, m in sys.modules.items()
            if m is not None and (key == "chibound" or key.startswith("chibound."))]


def install(tracer):
    """Wrap every layer's entry points; call once per process after import."""
    import chibound.corpus
    from chibound import errors as err

    errors = tuple(getattr(err, n) for n in ERROR_NAMES)
    modules = _chibound_modules()
    replaced = {}  # id(original function) -> (original, wrapper)
    for layer in LAYERS:
        mod = sys.modules[f"chibound.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            imported_elsewhere = any(
                other is not mod and any(v is obj for v in vars(other).values())
                for other in modules
            )
            if attr.startswith("_") and not imported_elsewhere:
                continue
            replaced[id(obj)] = (obj, _wrap(tracer, obj, layer, f"{layer}.{attr}", errors))
        for cls_name, meth in METHODS.get(layer, ()):
            cls = getattr(mod, cls_name)
            fn = cls.__dict__[meth]
            label = f"{layer}.{cls_name}" if meth == "__init__" else f"{layer}.{meth}"
            setattr(cls, meth, _wrap(tracer, fn, layer, label, errors))

    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])

    original_load = chibound.corpus._load_cached

    def timed_load(name):
        t0 = monotonic()
        try:
            return original_load(name)
        finally:
            tracer.loads.append((t0, monotonic()))

    chibound.corpus._load_cached = timed_load


def layer_metrics(tracer, speed):
    """Per-layer and named metrics of one traced pass, keyed by metric name."""
    self_by_name = tracer.self_times(speed)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = tracer.entries.get(layer, 0)
        out[f"{layer}.self_s"] = sum(
            v for k, v in self_by_name.items() if k.split(".", 1)[0] == layer
        )
        out[f"{layer}.errors"] = tracer.errors.get(layer, 0)
    for name in NAMED_CALLS:
        out[f"{name}.calls"] = tracer.calls.get(name, 0)
    out["coloring.validate_coloring.self_s"] = self_by_name.get(
        "coloring.validate_coloring", 0.0
    )
    tried = tracer.calls.get("minors.find_topo_embedding", 0)
    found = tracer.found.get("minors.find_topo_embedding", 0)
    out["minors.find_topo_embedding.hit_ratio"] = found / tried if tried else 0.0
    out["corpus.load_s"] = sum(speed.scaled(a, b)[1] for a, b in tracer.loads)
    return out
