"""Span tracing of sgipair's public functions, from outside the program.

``install`` wraps every public function and the constructor of every public
class in each loaded ``sgipair`` module namespace that binds it, so a call
through ``from .phase_space import propagator`` in ``dynamics`` is traced
exactly like a call to ``phase_space.propagator``.  One wrapper is shared by
all bindings of a function.  Spans (name, start, end, parent) are kept in
flat in-memory arrays and written once, when the traced pass ends.  The
wrappers also time their own bookkeeping, which is the tracing overhead.

The program is single-threaded and has no queue, so a span's time is busy
time; no layer waits on another and there is no wait time to record.

``summarize`` runs in the benchmark process and needs neither numpy nor
sgipair.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path


class Tracer:
    """In-memory span store with a parent stack (single thread)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.events: list[dict] = []
        self.overhead_ns = array("q", [0])
        self._stack = [-1]

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` recording one span per call; ``hook`` adds an event."""
        name_id = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, events, clock = self._stack, self.events, time.perf_counter_ns
        overhead = self.overhead_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            index = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if hook is not None:
                events.append(dict(hook(args, kwargs, result), span=index))
            overhead[0] += clock() - entered - (end[index] - start[index])
            return result

        return traced

    def write(self, path: Path) -> None:
        origin = self.start[0] if self.start else 0
        doc = {
            "names": self.names,
            "name": list(self.name_of),
            "parent": list(self.parent),
            "start_ns": [t - origin for t in self.start],
            "end_ns": [t - origin for t in self.end],
            "events": self.events,
            "overhead_ns": self.overhead_ns[0],
        }
        Path(path).write_text(json.dumps(doc, separators=(",", ":")))


def _span_name(obj) -> str:
    module = obj.__module__.removeprefix("sgipair.")
    return f"{module}.{obj.__qualname__}"


def _bound(fn):
    signature = inspect.signature(fn)

    def bind(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _moments_hook(fn):
    """Inputs of the step count of one integrate_moments call (computed later)."""
    bind = _bound(fn)

    def hook(args, kwargs, result):
        arguments = bind(args, kwargs)
        return {
            "kind": "moments",
            "dt": float(arguments["dt"]),
            "step": float(result.step),
            "grid": [float(t) for t in arguments["problem"].tau_grid],
        }

    return hook


def _fock_hook(fn):
    """Path taken by one fock_propagate call, its RK4 inputs and diagnostics."""
    bind = _bound(fn)

    def hook(args, kwargs, result):
        problem = bind(args, kwargs)["problem"]
        p = problem.params
        # The same test fock_propagate uses to pick the exact pure path.
        pure = p.gamma_x == 0.0 and p.s == 1.0 and p.n_p == 0.0
        return {
            "kind": "fock",
            "pure": pure,
            "dt": float(problem.dt),
            "grid": [float(t) for t in problem.tau_grid],
            "leakage": float(result.leakage),
            "trace_error": float(result.trace_error),
        }

    return hook


_HOOKS = {"oracle.integrate_moments": _moments_hook, "oracle.fock_propagate": _fock_hook}


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every loaded sgipair module."""
    wrapped: dict = {}
    for module_name, module in sorted(sys.modules.items()):
        if module_name != "sgipair" and not module_name.startswith("sgipair."):
            continue
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not getattr(obj, "__module__", "").startswith("sgipair"):
                continue
            if inspect.isfunction(obj):
                if obj not in wrapped:
                    name = _span_name(obj)
                    hook = _HOOKS[name](obj) if name in _HOOKS else None
                    wrapped[obj] = tracer.wrap(name, obj, hook)
                setattr(module, attr, wrapped[obj])
            elif inspect.isclass(obj) and "__init__" in vars(obj) and obj not in wrapped:
                wrapped[obj] = True
                obj.__init__ = tracer.wrap(_span_name(obj), obj.__init__)


def summarize(doc: dict) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, inclusive seconds, self seconds) from a written span file.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the program is single-threaded.
    """
    names, name_of, parent = doc["names"], doc["name"], doc["parent"]
    duration = [e - s for s, e in zip(doc["start_ns"], doc["end_ns"])]
    children = [0] * len(duration)
    for index, up in enumerate(parent):
        if up >= 0:
            children[up] += duration[index]
    totals: dict[str, list] = {}
    for index, name_id in enumerate(name_of):
        entry = totals.setdefault(names[name_id], [0, 0, 0])
        entry[0] += 1
        entry[1] += duration[index]
        entry[2] += duration[index] - children[index]
    return {name: (c, t / 1e9, s / 1e9) for name, (c, t, s) in totals.items()}
