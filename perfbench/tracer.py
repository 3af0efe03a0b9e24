"""Span tracer that times the library's layers from outside the library.

`Tracer.install` replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent) and re-binds that
wrapper in every loaded `circleops` namespace that imported the function, so a
call such as `repsim`'s use of `real_sph_harm_matrix` is attributed to
`sphere` no matter which module made it.  Nothing under `src/` is edited;
`uninstall` puts every original object back.

Spans are kept in memory.  A layer's self time is the time inside its spans
minus the time covered by their child spans, so `sphere.circle_average_operator`
self time excludes the harmonic evaluations it calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "circleops"
LAYERS = ("legendre", "spectral", "sphere", "schatten", "sl3", "zigzag", "repsim")

# Functions whose per-function calls and self time are reported (layer.function).
HOT_FUNCTIONS = (
    "sphere.real_sph_harm_matrix",
    "sphere.circle_average_operator",
    "sphere.circle_average",
    "sphere.markov_steps",
    "sphere.grid_build",
    "schatten.mixed_norm_lower_bound",
    "spectral.diff_power_sums",
    "sl3.kak",
    "sl3.solve_delta_for_top",
    "sl3.embedding2_solve",
    "zigzag.annulus_diameter_bound",
    "repsim.matrix_coefficient",
)

# Methods called tens of thousands of times per job: counted, not spanned, so
# that tracing them costs a counter increment instead of a span.
COUNTED_METHODS = {
    "schatten.norm": ("schatten", "MixedNormSpace", "norm"),
    "schatten.norming_dual": ("schatten", "MixedNormSpace", "norming_dual"),
}


def _harmonic_values(arguments) -> int:
    npts = np.atleast_2d(arguments["points"]).shape[0]
    return npts * (int(arguments["band_limit"]) + 1) ** 2


def _table_cells(arguments) -> int:
    return (int(arguments["max_degree"]) + 1) * int(np.size(arguments["x"]))


def _recurrence_cells(arguments) -> int:
    nmax = max(int(c) for c in arguments["checkpoints"])
    return nmax * int(np.size(arguments["deltas"])) * int(np.size(arguments["ps"]))


# Kernel work counted from call arguments: function -> (count name, counter).
KERNEL_COUNTS = {
    "sphere.real_sph_harm_matrix": ("sphere.harmonic_values", _harmonic_values),
    "legendre.legendre_table": ("legendre.table_cells", _table_cells),
    "spectral.diff_power_sums": ("spectral.recurrence_cells", _recurrence_cells),
}


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()  # calls of COUNTED_METHODS
        self.kernel: Counter = Counter()  # KERNEL_COUNTS totals
        self.errors: Counter = Counter()  # raising calls per span name
        self.wrapped: dict[str, object] = {}  # traced name -> wrapper
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`; a raising call counts as an error."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            self.close(index)

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn):
        kernel = KERNEL_COUNTS.get(name)
        signature = inspect.signature(fn) if kernel else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if kernel is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.kernel[kernel[0]] += kernel[1](bound.arguments)
            return tracer.span(name, fn, *args, **kwargs)

        self.wrapped[name] = traced
        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self.wrapped[name] = counted
        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public layer function in every namespace that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])

        sphere = sys.modules[f"{PACKAGE}.sphere"]
        build = sphere.SphereGrid.__dict__["build"].__func__
        self._patch(sphere.SphereGrid, "build", classmethod(self._wrap("sphere.grid_build", build)))
        for name, (layer, cls_name, method) in COUNTED_METHODS.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            self._patch(cls, method, self._count(name, cls.__dict__[method]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> tuple[dict, Counter]:
        """Per span name: total self time (s) and number of spans."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for index, (name, start, end, _parent) in enumerate(self.spans):
            self_s[name] += (end - start) - child[index]
            calls[name] += 1
        return self_s, calls

    def children(self, parent_name: str, child_name: str) -> int:
        """Number of `child_name` spans whose direct parent is a `parent_name` span."""
        return sum(
            1
            for name, _s, _e, parent in self.spans
            if name == child_name and parent >= 0 and self.spans[parent][0] == parent_name
        )

    def dump(self) -> list:
        """Spans with times relative to the tracer's creation, for writing at exit."""
        return [
            [name, round(start - self.origin, 9), round(end - self.origin, 9), parent]
            for name, start, end, parent in self.spans
        ]
