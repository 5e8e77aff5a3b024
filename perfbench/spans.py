"""Traced-run instrumentation: span recording and layer wrappers.

The traced run times each layer from outside the program: it replaces
the public callables the runner and the substrates call with timing
wrappers, at every module binding they are imported under, and puts
the originals back afterwards.  Spans (name, start, end, parent) are
kept in memory and written out by the worker when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: (module, function) pairs wrapped at every binding in ``repro.*``.
FUNCTION_LAYERS = (
    ("repro.routing.link_state", "link_state_routes", "routing.tables"),
    ("repro.routing.validate", "assert_acyclic", "routing.validate"),
    ("repro.topology.cliques", "maximal_cliques", "topology.cliques"),
    ("repro.mac.fluid", "_waterfill_core", "mac.fluid.solve"),
    ("repro.faults.invariants", "audit_run", "faults.audit"),
)

#: (module, class, method) triples wrapped on the class itself, which
#: every binding of the class shares.
METHOD_LAYERS = (
    ("repro.topology.contention", "ContentionGraph", "__init__", "topology.contention"),
    ("repro.mac.fluid", "FluidMac", "start", "mac.fluid.start"),
    ("repro.mac.fluid", "FluidMac", "_round", "mac.fluid.round"),
    ("repro.mac.dcf", "DcfMac", "start", "mac.dcf.start"),
    ("repro.core.protocol", "GmpProtocol", "__init__", "core.gmp.init"),
    ("repro.core.protocol", "GmpProtocol", "_on_boundary", "core.gmp.boundary"),
    ("repro.churn.engine", "ChurnEngine", "inject_arrival", "churn.inject"),
    ("repro.churn.engine", "ChurnEngine", "inject_departure", "churn.inject"),
)


class SpanRecorder:
    """In-memory span log; each span is ``[name, start, end, parent]``
    with ``parent`` the index of the enclosing span (or None)."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._open: list[int] = []
        #: First object each wrapped layer was called on or returned.
        self.captured: dict[str, Any] = {}
        self.calls: dict[str, int] = defaultdict(int)

    def wrap(
        self, name: str, fn: Callable[..., Any], *, capture_self: bool = False
    ) -> Callable[..., Any]:
        spans = self.spans
        stack = self._open
        calls = self.calls
        captured = self.captured
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            calls[name] += 1
            if name not in captured:
                captured[name] = args[0] if capture_self else result
            return result

        return wrapper

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the part covered by its
        direct children."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            totals[name] += end - start
            if parent is not None:
                totals[self.spans[parent][0]] -= end - start
        return dict(totals)


def _module_bindings(original: Any) -> list[tuple[Any, Any]]:
    """Every (namespace, key) in loaded ``repro`` modules that holds
    ``original``: module globals and module-level dicts (such as the
    runner's routing-protocol table)."""
    found = []
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                found.append((namespace, key))
            elif type(value) is dict:
                found.extend((value, k) for k, v in value.items() if v is original)
    return found


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer callable; returns the function that restores
    the originals."""
    import importlib

    # Load every module that binds a layer callable before scanning.
    for module_name in ("repro.scenarios.runner", "repro.analysis.resilience"):
        importlib.import_module(module_name)
    restore: list[tuple[Any, Any, Any]] = []
    for module_name, attr, name in FUNCTION_LAYERS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = recorder.wrap(name, original)
        for namespace, key in _module_bindings(original):
            restore.append((namespace, key, original))
            namespace[key] = wrapper
    for module_name, class_name, method, name in METHOD_LAYERS:
        cls = getattr(importlib.import_module(module_name), class_name)
        original = cls.__dict__[method]
        restore.append((cls, method, original))
        setattr(cls, method, recorder.wrap(name, original, capture_self=True))

    def uninstall() -> None:
        for target, key, original in reversed(restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    return uninstall
