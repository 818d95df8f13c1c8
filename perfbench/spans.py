"""In-memory span tracer that instruments jointpref functions from outside.

A span is (name, start, end, parent, units). Spans are appended to plain
lists while the traced code runs and are reduced to per-name totals only
after the run, so the per-call cost stays at two clock reads and a few list
operations.

Instrumentation rebinds a function's name in every loaded ``jointpref``
module whose global of that name *is* the original function object: the
defining module (so intra-module calls are traced too) and every module that
imported it with ``from ... import``. Nothing in the program is edited, and
``Instrumentation.restore`` puts every original back.

`heartbeat` uses the same rebinding with a much lighter wrapper: it only
calls a tick whenever a jointpref function returns, which the end-to-end
run uses to cut stages into segments.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT = -1   # parent index of a span opened with no enclosing span
PACKAGE = "jointpref"


class Tracer:
    """Records nested spans; each span knows its parent span's index."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.units: list[float] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else ROOT)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.units.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        self.starts[idx] = time.perf_counter()
        try:
            yield idx
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, units=None):
        """Return fn traced as span `name`; units(args, result) sizes the work."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self.starts[idx] = start
                self._stack.pop()
            if units is not None:
                try:
                    self.units[idx] = units(args, result)
                except (TypeError, IndexError, AttributeError, KeyError):
                    # the signature or result changed shape: size unknown
                    self.units[idx] = math.nan
            return result
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        selfs = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent != ROOT:
                selfs[parent] -= self.ends[idx] - self.starts[idx]
        return selfs


@dataclass
class FunctionStats:
    """Totals over the spans of one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: float = 0.0


def summarize(tracer: Tracer, within: set[int] | None = None
              ) -> dict[str, FunctionStats]:
    """Per-name call counts, inclusive and self time, and summed units.

    With `within`, only spans whose root-level ancestor index is in the set
    are counted (used to restrict totals to some pipeline stages).
    """
    selfs = tracer.self_times()
    roots = _root_indices(tracer)
    stats: dict[str, FunctionStats] = {}
    for idx, name in enumerate(tracer.names):
        if within is not None and roots[idx] not in within:
            continue
        st = stats.setdefault(name, FunctionStats())
        st.calls += 1
        st.total_s += tracer.ends[idx] - tracer.starts[idx]
        st.self_s += selfs[idx]
        st.units += tracer.units[idx]
    return stats


def _root_indices(tracer: Tracer) -> list[int]:
    # parents always precede children, so one forward pass resolves roots
    roots = []
    for idx, parent in enumerate(tracer.parents):
        roots.append(idx if parent == ROOT else roots[parent])
    return roots


@dataclass
class Instrumentation:
    """Which targets were missing, and how to undo the wrapping."""

    missing: list[str] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    def restore(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def _rebind(inst: Instrumentation, modules: list, original, wrapped) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                inst._undo.append((module, attr, original))
                setattr(module, attr, wrapped)


def instrument(tracer: Tracer, targets) -> Instrumentation:
    """Wrap each (module, function, units) target in every module that binds it.

    A target whose module or function no longer exists is listed in
    `missing` and skipped; the rest of the run is unaffected.
    """
    modules = _package_modules()
    inst = Instrumentation()
    for module_name, func_name, units in targets:
        name = f"{module_name}.{func_name}"
        home = sys.modules.get(f"{PACKAGE}.{module_name}")
        original = getattr(home, func_name, None) if home is not None else None
        if not callable(original):
            inst.missing.append(name)
            continue
        _rebind(inst, modules, original, tracer.wrap(name, original, units))
    return inst


def heartbeat(tick) -> Instrumentation:
    """Call `tick()` whenever a jointpref function returns.

    Every function defined in a loaded jointpref module is wrapped, so no
    list of names is needed and renames cannot break it. The program is
    deterministic, so a stage makes the same ticks in every pass, and tick
    i comes at the same point of its work in each pass.
    """
    modules = _package_modules()
    inst = Instrumentation()
    for module in modules:
        for fn in list(vars(module).values()):
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ \
                    and not getattr(fn, "_perfbench_beat", False):
                _rebind(inst, modules, fn, _beating(fn, tick))
    return inst


def _beating(fn, tick):
    @functools.wraps(fn)
    def beating(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            tick()
    beating._perfbench_beat = True
    return beating
