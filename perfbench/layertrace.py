"""Per-layer call counts and self times, recorded from outside the package.

While installed, every public function of each ``uav_twoway`` module (for
``cli``, only the entry point ``main``) is replaced, in every module
namespace that binds it, by a wrapper. Names bound by ``from ... import``
are replaced too, so a call through any of them is counted. The wrappers
aggregate in memory as (name, parent) -> [calls, total s, child s] rather
than keeping one span per call: the closed form makes about a million
calls per sweep. A function's self time is its total minus the time spent
in traced functions it called.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("params", "channel", "sinr", "rates", "pairing", "throughput",
          "montecarlo", "cli")


def public_functions(layer: str) -> dict:
    """Name -> function for the functions a layer defines and exports."""
    module = importlib.import_module(f"uav_twoway.{layer}")
    if layer == "cli":
        # the subcommand handlers only run under main; their time is the
        # cli layer's own (parsing, row building, CSV)
        return {"main": module.main}
    return {name: fn for name, fn in inspect.getmembers(module, inspect.isfunction)
            if fn.__module__ == module.__name__ and not name.startswith("_")}


class LayerTrace:
    """Aggregated spans of one traced program call."""

    def __init__(self):
        self.edges: dict = {}           # (name, parent) -> [calls, total, child]
        self._stack: list = []          # [name, child seconds] per open call
        self.average_keys: set = set()  # distinct (cfg, lambda1, lambda2) averaged
        self.frame_slots = 0            # slots summed over run_frame results

    def _wrap(self, name: str, fn):
        edges, stack = self.edges, self._stack
        observe = {"throughput.average_throughput": self._observe_average,
                   "montecarlo.run_frame": self._observe_frame}.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                edge = edges.get((name, parent))
                if edge is None:
                    edges[(name, parent)] = [1, elapsed, frame[1]]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
                    edge[2] += frame[1]
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_average(self, args, result):
        cfg, loads = args[0], args[1]
        self.average_keys.add((cfg, loads.lambda1, loads.lambda2))

    def _observe_frame(self, args, result):
        self.frame_slots += result.slot_count

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            for name, fn in public_functions(layer).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        modules = [m for n, m in list(sys.modules.items())
                   if n == "uav_twoway" or n.startswith("uav_twoway.")]
        replaced = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    replaced.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in replaced:
                setattr(module, attr, value)

    def per_function(self) -> dict:
        """Name -> (calls, total s, self s), summed over parents."""
        totals: dict = {}
        for (name, _parent), (calls, total, child) in self.edges.items():
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += total - child
        return {name: tuple(entry) for name, entry in totals.items()}

    def tree(self) -> list:
        """[name, parent, calls, total s, self s] for every call edge."""
        return [[name, parent, calls, total, total - child]
                for (name, parent), (calls, total, child) in sorted(
                    self.edges.items(), key=lambda item: -item[1][1])]
