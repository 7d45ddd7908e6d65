"""Outside-in tracer for the iseki layers.

``install`` rebinds every public function of each layer module in every
``iseki.*`` namespace that holds it, so calls through a module's own
``from .x import f`` bindings are traced as well as calls through the
defining module.  Each call opens a span (name, start, end, parent) kept
in memory; nothing is written until ``summary`` runs after the traced
work.  Generator functions get one span per resumption.

Layers are the modules on the sweep path; ``_kernels`` is reported under
the layer name ``kernels``.
"""

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = {
    "iseki._kernels": "kernels",
    "iseki.semiring": "semiring",
    "iseki.enumeration": "enumeration",
    "iseki.ideals": "ideals",
    "iseki.topology": "topology",
    "iseki.morphisms": "morphisms",
    "iseki.sweep": "sweep",
    "iseki.serialize": "serialize",
}
ROOT = "root"


class Tracer:
    def __init__(self):
        self.names = []  # span name, one entry per span
        self.parents = []  # index of the enclosing span, -1 for none
        self.starts = []
        self.ends = []
        self.stack = [-1]
        self.counts = Counter()  # extra counters, e.g. generator yields

    def open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index):
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                self.counts[name + ".calls"] += 1
                gen = fn(*args, **kwargs)
                while True:
                    index = self.open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.close(index)
                    self.counts[name + ".yields"] += 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def install(self):
        """Rebind the public functions of every layer."""
        wrappers = {}
        for module_name, layer in LAYERS.items():
            module = sys.modules[module_name]
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module_name
                ):
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "iseki" and not module_name.startswith("iseki."):
                continue
            # Each wrapper holds its original, so no id is reused here.
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])

    def summary(self):
        """Per-span-name calls, inclusive and self seconds, per-layer self
        seconds, and call counts per (caller, callee) span-name pair.  Self
        time is a span's duration minus the time its child spans cover."""
        if len(self.stack) != 1:
            still_open = [self.names[i] for i in self.stack[1:]]
            raise RuntimeError(f"spans still open: {still_open}")
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        spans = {}
        layers = Counter()
        edges = Counter()
        for i, name in enumerate(self.names):
            parent = self.parents[i]
            edges[f"{self.names[parent] if parent >= 0 else ''}>{name}"] += 1
            total = self.ends[i] - self.starts[i]
            entry = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += total
            entry["self_s"] += total - child[i]
            layers[name.split(".", 1)[0]] += total - child[i]
        for name, count in self.counts.items():
            base, _, key = name.rpartition(".")
            spans.setdefault(base, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            if key == "calls":
                spans[base]["calls"] = count
            else:
                spans[base][key] = count
        return {
            "spans": spans,
            "layers": dict(layers),
            "edges": dict(edges),
            "span_count": len(self.names),
        }
