"""Layer spans for the traced run, wrapped from outside the program.

:class:`LayerTracer` replaces the public entry points of each layer with a
wrapper that counts calls and records a span: wall time from entry to
exit, and its self time (the span minus the spans of wrapped calls into
other layers made inside it).  A call into a layer that is already active
(``ServerEngine.dispatch`` calling ``ProtocolMixin.dispatch``,
``transfer_latency`` calling ``remote_latency``) is counted but stays part
of the enclosing span.  Spans are aggregated in memory per layer.

Wrappers return exactly what the wrapped function returns and touch no
simulator state, so tracing cannot change simulated physics; the benchmark
checks that by comparing traced and untraced result digests.  Install the
tracer before any ``NDPSystem`` is built and :meth:`LayerTracer.uninstall`
it afterwards.
"""

from __future__ import annotations

import importlib
import time
from typing import Dict, List, Tuple

#: layer -> (module, class, method names).  A method is wrapped on the
#: class and on every subclass that overrides it, so overrides are traced
#: too (``ServerEngine.dispatch`` counts as ``ProtocolMixin.dispatch``).
ENTRY_POINTS: Dict[str, Tuple[Tuple[str, str, Tuple[str, ...]], ...]] = {
    "store": (("repro.harness.store", "ResultStore", ("put",)),),
    "workloads.build": (
        ("repro.harness.specs", "RunSpec", ("build_workload",)),
        ("repro.workloads.base", "Workload", ("build",)),
    ),
    "workloads.verify": (("repro.workloads.base", "Workload", ("verify",)),),
    "system": (("repro.sim.system", "NDPSystem", ("__init__",)),),
    "engine": (("repro.sim.engine", "Simulator", ("run",)),),
    "se": (("repro.core.protocol", "ProtocolMixin", ("dispatch",)),),
    "sync": (
        ("repro.sync.bakery", "BakeryMechanism", ("request", "request_async")),
        ("repro.sync.remote_atomics", "RemoteAtomicsMechanism",
         ("request", "request_async")),
    ),
    "memsys": (("repro.sim.memsys", "MemorySystem",
                ("access", "device_access")),),
    "dram": (("repro.sim.dram", "DramDevice", ("access",)),),
    "net": (
        ("repro.sim.network", "Interconnect",
         ("transfer_latency", "remote_latency", "local_latency")),
        ("repro.sim.network", "Link", ("reserve",)),
    ),
}

#: modules whose import registers every subclass the hierarchies above
#: can meet (mechanism and workload modules are otherwise imported lazily).
SUBCLASS_MODULES = (
    "repro.harness.specs", "repro.workloads.corun", "repro.sync.bakery",
    "repro.sync.central", "repro.sync.flat", "repro.sync.hier",
    "repro.sync.ideal", "repro.sync.overflow_alt", "repro.sync.remote_atomics",
)

#: the net-layer entry points whose return value is simulated latency in
#: cycles (``Link.reserve`` is part of such a transfer, not one of its own).
LATENCY_ENTRIES = frozenset({
    "Interconnect.transfer_latency", "Interconnect.remote_latency",
    "Interconnect.local_latency",
})


def _subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


class LayerTracer:
    """Counts and spans at layer entry points (see the module docstring)."""

    def __init__(self) -> None:
        #: calls per entry point (``Class.method``), re-entrant ones too.
        self.calls: Dict[str, int] = {}
        #: spans opened per layer: calls from outside the layer.
        self.spans: Dict[str, int] = {}
        self.span_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        #: summed return values of outermost net-layer calls (cycles).
        self.latency_cycles = 0
        self._active: Dict[str, bool] = {}
        self._child = 0.0
        self._patched: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        for module in SUBCLASS_MODULES:
            importlib.import_module(module)
        for layer, targets in ENTRY_POINTS.items():
            self.spans[layer] = 0
            self.span_s[layer] = 0.0
            self.self_s[layer] = 0.0
            self._active[layer] = False
            for module, class_name, methods in targets:
                base = getattr(importlib.import_module(module), class_name)
                classes = [base] + _subclasses(base)
                for method in methods:
                    name = f"{class_name}.{method}"
                    self.calls[name] = 0
                    for cls in classes:
                        if method in cls.__dict__:
                            original = cls.__dict__[method]
                            self._patched.append((cls, method, original))
                            setattr(cls, method,
                                    self._wrap(original, layer, name))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._patched):
            setattr(cls, method, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    def _wrap(self, fn, layer: str, name: str):
        calls = self.calls
        spans = self.spans
        active = self._active
        span_s = self.span_s
        self_s = self.self_s
        clock = time.perf_counter
        sums_latency = name in LATENCY_ENTRIES
        tracer = self

        def traced(*args, **kwargs):
            calls[name] += 1
            if active[layer]:
                return fn(*args, **kwargs)
            active[layer] = True
            spans[layer] += 1
            outer_child = tracer._child
            tracer._child = 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span_s[layer] += elapsed
                self_s[layer] += elapsed - tracer._child
                tracer._child = outer_child + elapsed
                active[layer] = False
            if sums_latency:
                tracer.latency_cycles += result
            return result

        traced.__wrapped__ = fn
        return traced
