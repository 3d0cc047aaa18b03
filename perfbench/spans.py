"""Outside-in tracer: spans around the public functions of each pdcmodes layer.

The tracer never edits the package. ``Tracer.install`` replaces each public
function (every function named in a layer module's ``__all__``, plus the
extras in ``EXTRA``) by a wrapper, and rebinds that wrapper under every name
in every ``pdcmodes`` module that held the original by value, so calls made
through ``from .x import f`` imports are traced too. ``uninstall`` restores
the originals. A span records its name, layer, start, end and parent index;
spans stay in memory until the caller writes them out. A call counts toward
``<layer>.calls`` when it enters the layer from outside it.

A few functions also feed counters, taken from their arguments and return
values only: the λ/ω sample count of every entry into ``dispersion``, the
grid cells and array bytes of ``compute_jsa`` and ``schmidt_decompose``, the
share of useful Schmidt modes, and the tracemalloc peak of every outermost
``jsa`` span.

The module imports nothing from pdcmodes or numpy, so the benchmark's parent
process can use the aggregation helpers without loading the package.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("config", "dispersion", "phasematch", "jsa", "squeezing", "cli")
EXTRA = {"config": ("load_run_config",)}
PACKAGE = "pdcmodes"

USEFUL_MODE_THRESHOLD = 1e-12   # s² above this counts as a useful mode
MB = 1e6


def _nbytes(value) -> int:
    """Bytes of every array-valued attribute of a returned record."""
    total = 0
    for attr in getattr(value, "__dataclass_fields__", ()):
        total += getattr(getattr(value, attr, None), "nbytes", 0) or 0
    return total


class Tracer:
    """Span recorder for one process; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []          # [name, layer, start, end, parent]
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    def enter(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _parent_layer(self) -> str | None:
        return self.spans[self._stack[-1]][1] if self._stack else None

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        params = list(inspect.signature(fn).parameters)
        samples_arg = (2 if layer == "dispersion" and len(params) > 2
                       and params[2] in ("wavelength_um", "omega_rad_s") else None)
        tracer = self

        def traced(*args, **kwargs):
            entry = tracer._parent_layer() != layer
            if entry:
                tracer.counters[f"{layer}.calls"] += 1
                if samples_arg is not None:
                    arg = (args[samples_arg] if len(args) > samples_arg
                           else kwargs.get(params[samples_arg]))
                    tracer.counters["dispersion.points"] += getattr(arg, "size", 1)
            alloc = entry and layer == "jsa" and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            index = tracer.enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(index)
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
                    key = "jsa.peak_alloc_mb"
                    tracer.counters[key] = max(tracer.counters[key], peak)
            tracer._observe(name, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _observe(self, name: str, result) -> None:
        if name == "jsa.compute_jsa":
            grid = getattr(result, "grid", None)
            self.counters["jsa.grid_cells"] += getattr(grid, "n", 0) ** 2
            self.counters["jsa.array_bytes"] += _nbytes(result)
        elif name == "jsa.schmidt_decompose":
            self.counters["jsa.array_bytes"] += _nbytes(result)
            s = getattr(result, "s", None)
            if s is not None and s.size:
                useful = int((s * s > USEFUL_MODE_THRESHOLD).sum())
                self.counters["jsa.useful_modes"] += useful
                self.counters["jsa.computed_modes"] += s.size

    def install(self) -> None:
        """Wrap the public functions of every layer; names that are gone are
        recorded in ``missing`` instead of failing."""
        if self._bindings:
            return
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr in (*getattr(module, "__all__", ()), *EXTRA.get(layer, ())):
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{layer}.{attr}")
                elif inspect.isfunction(fn) and id(fn) not in wrappers:
                    home = fn.__module__.rpartition(".")[2]
                    wrappers[id(fn)] = (fn, self._wrap(fn, home if home in LAYERS else layer))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE
                                      or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    self._bindings.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings = []

    # -- output ------------------------------------------------------------

    def export(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "counters": dict(self.counters),
                "missing": list(self.missing)}


# ---------------------------------------------------------------------------
# aggregation (pure functions on exported spans)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest without overlap, so the children's durations
    are the part of the parent's interval they cover.
    """
    own = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def aggregate(spans) -> dict:
    """Self time per layer and per span name, and root span durations."""
    own = self_times(spans)
    by_layer: dict[str, float] = defaultdict(float)
    by_name: dict[str, float] = defaultdict(float)
    roots: dict[str, float] = defaultdict(float)
    for (name, layer, start, end, parent), t in zip(spans, own):
        by_layer[layer] += t
        by_name[name] += t
        if parent is None:
            roots[name] += end - start
    return {"layer_self_s": dict(by_layer), "name_self_s": dict(by_name),
            "root_s": dict(roots)}
