"""One cold drain of a spec set, in a fresh process (the benchmark's child).

``run.py`` starts this program once per measurement, so every drain pays
its own imports and starts from an empty result store, and its peak memory
is its own.  It prints one JSON object as its last line of output.

    python3 perfbench/drain.py --workload apps --store-dir DIR \\
        --spawned-at T [--seed N] [--traced | --setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process; setup time runs from there to the first simulation.
``--setup-only`` exits at that point instead of simulating.  Every
process also gauges the host's speed (:mod:`reference`) and reports the
gauges' times; a drain's own times exclude them.  ``--traced``
wraps every layer's entry points (:mod:`layers`) before any system is
built and reports per-layer counts and spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

import reference
import specsets
from layers import LayerTracer
from repro.harness import runner
from repro.harness.specs import RunSpec
from repro.telemetry import get_telemetry
from repro.workloads import base as workloads_base
from repro.workloads.base import RunMetrics

#: a drain gauges the host (:mod:`reference`) before a spec when this many
#: seconds have passed since its last gauge, and once more at its end.
GAUGE_EVERY_S = 0.5
#: gauges a setup-only process takes after it stops.
SETUP_GAUGES = 3

#: stats keys that describe host effort, not simulated physics.
VOLATILE_PREFIXES = ("kernel.", "telemetry.")

#: entry point -> the workloads that must call it (checked when traced).
EXERCISED_BY = {
    "ResultStore.put": ("apps", "primitives", "spin"),
    "RunSpec.build_workload": ("apps", "primitives", "spin"),
    "Workload.build": ("apps", "primitives", "spin"),
    "Workload.verify": ("apps", "primitives", "spin"),
    "NDPSystem.__init__": ("apps", "primitives", "spin"),
    "Simulator.run": ("apps", "primitives", "spin"),
    "ProtocolMixin.dispatch": ("apps", "primitives"),
    "BakeryMechanism.request": ("spin",),
    "BakeryMechanism.request_async": ("spin",),
    "RemoteAtomicsMechanism.request": ("spin",),
    "RemoteAtomicsMechanism.request_async": ("spin",),
    "MemorySystem.access": ("apps", "primitives", "spin"),
    "MemorySystem.device_access": ("primitives",),
    "DramDevice.access": ("apps", "primitives", "spin"),
    "Interconnect.transfer_latency": ("apps", "primitives", "spin"),
    "Interconnect.remote_latency": ("apps", "primitives", "spin"),
    "Interconnect.local_latency": ("apps", "primitives", "spin"),
    "Link.reserve": ("apps", "primitives", "spin"),
}


class StopAtFirstSimulation(Exception):
    """Raised by a setup-only probe where the first simulation would start."""


def digest(metrics: RunMetrics) -> str:
    """Fingerprint of one spec's simulated result: cycles, operations,
    energy, bytes and every stats counter except host-effort keys."""
    data = metrics.as_dict()
    data["stats"] = {key: value for key, value in data["stats"].items()
                     if not key.startswith(VOLATILE_PREFIXES)}
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Probes:
    """Per-spec hooks on ``runner.execute_spec`` and
    ``RunSpec.build_workload``, installed on traced and untraced drains.

    They note when the first simulation starts, time each spec, keep each
    spec's result body and workload instance, and cost O(1) per spec.
    Before a spec they may also gauge the host's speed (``GAUGE_EVERY_S``);
    ``gauge_s`` sums the wall and CPU time those gauges took.
    """

    def __init__(self, stop_at_first: bool = False):
        self.stop_at_first = stop_at_first
        self.first_simulation: Optional[float] = None
        self.current: Optional[RunSpec] = None
        self.spec_s: List[float] = []
        #: (wall s, CPU s) of every gauge of the host, in order.
        self.gauges: List[Tuple[float, float]] = []
        self.gauge_s = [0.0, 0.0]
        self._last_gauge = float("-inf")
        self.bodies: Dict[RunSpec, Dict] = {}
        self.workloads: Dict[RunSpec, object] = {}
        self._execute = runner.execute_spec
        self._build = RunSpec.build_workload

    def install(self) -> None:
        runner.execute_spec = self.execute
        probes = self

        def build_workload(spec):
            workload = probes._build(spec)
            probes.workloads[spec] = workload
            return workload

        RunSpec.build_workload = build_workload

    def uninstall(self) -> None:
        runner.execute_spec = self._execute
        RunSpec.build_workload = self._build

    def gauge(self) -> None:
        wall, cpu = reference.gauge()
        self.gauges.append((wall, cpu))
        self.gauge_s[0] += wall
        self.gauge_s[1] += cpu
        self._last_gauge = time.monotonic()

    def execute(self, spec: RunSpec) -> Dict:
        if self.first_simulation is None:
            self.first_simulation = time.monotonic()
            if self.stop_at_first:
                for _ in range(SETUP_GAUGES):
                    self.gauge()
                raise StopAtFirstSimulation()
        if time.monotonic() - self._last_gauge >= GAUGE_EVERY_S:
            self.gauge()
        self.current = spec
        start = time.perf_counter()
        body = self._execute(spec)
        self.spec_s.append(time.perf_counter() - start)
        self.bodies[spec] = body
        return body


def drain(specs: List[RunSpec], store_url: str, probes: Probes):
    """Run ``specs`` through ``run_specs`` (one worker, ``store_url``).

    A spec that raises ends that ``run_specs`` call; it is recorded as
    failed and the drain continues with the specs after it.  A spec whose
    reported ``operations`` differs from its workload's ``operations()``
    also fails.  Returns ``(results, errors)``: metrics per successful spec
    and a message per failed one.
    """
    results: Dict[RunSpec, RunMetrics] = {}
    errors: Dict[RunSpec, str] = {}
    pending = list(specs)
    while pending:
        probes.current = None
        try:
            batch = runner.run_specs(pending, workers=1, cache=True,
                                     store=store_url)
        except StopAtFirstSimulation:
            raise
        except Exception as exc:  # one failing spec must not end the drain
            failed = probes.current
            if failed is None:
                raise  # failed before any spec ran: not a spec's fault
            errors[failed] = f"{type(exc).__name__}: {exc}"
            done = pending.index(failed)
            for spec in pending[:done]:
                results[spec] = RunMetrics.from_dict(
                    probes.bodies[spec]["result"])
            pending = pending[done + 1:]
        else:
            results.update(zip(pending, batch))
            pending = []
    for spec, metrics in list(results.items()):
        expected = probes.workloads[spec].operations()
        if metrics.operations != expected:
            errors[spec] = (f"operations {metrics.operations} != workload's "
                            f"operations() {expected}")
            del results[spec]
    return results, errors


def layer_metrics(tracer: LayerTracer, results: Dict[RunSpec, RunMetrics],
                  spin_waste: int, spec_s: List[float],
                  wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced drain (host spans + sim counters)."""
    def total(key: str) -> float:
        return sum(m.stats.get(key, 0) for m in results.values())

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    execute_s = sum(spec_s)
    events = total("kernel.events_processed")
    elided = total("kernel.elided_events")
    spin_requests = sum(m.sync_requests for s, m in results.items()
                        if s.mechanism in specsets.SPIN_MECHANISMS)
    hits, misses = total("cache_hits"), total("cache_misses")
    row_hits, row_misses = total("dram_row_hits"), total("dram_row_misses")
    spans, span_s, self_s = tracer.spans, tracer.span_s, tracer.self_s
    return {
        "runner.execute_s": execute_s,
        "runner.overhead_s": wall_s - execute_s,
        "runner.spec_p50_s": statistics.median(spec_s) if spec_s else 0.0,
        "runner.spec_max_s": max(spec_s, default=0.0),
        "store.puts": spans["store"],
        "store.put_s": span_s["store"],
        "workloads.build_s": span_s["workloads.build"],
        "workloads.verify_s": span_s["workloads.verify"],
        "system.init_s": span_s["system"],
        "engine.run_s": span_s["engine"],
        "engine.self_s": self_s["engine"],
        "engine.events": events,
        "engine.elided": elided,
        "engine.us_per_event": ratio(self_s["engine"] * 1e6, events + elided),
        "se.dispatches": spans["se"],
        "se.self_s": self_s["se"],
        "se.msgs_global": total("sync_messages_global"),
        "se.overflow_pct": 100.0 * ratio(total("st_overflow_requests"),
                                         total("sync_requests_total")),
        "sync.requests": spans["sync"],
        "sync.self_s": self_s["sync"],
        "sync.spin_retries": spin_waste,
        "sync.success_ratio": ratio(spin_requests, spin_requests + spin_waste),
        "memsys.accesses": spans["memsys"],
        "memsys.self_s": self_s["memsys"],
        "dram.accesses": spans["dram"],
        "dram.self_s": self_s["dram"],
        "cache.hit_ratio": ratio(hits, hits + misses),
        "dram.row_hit_ratio": ratio(row_hits, row_hits + row_misses),
        "net.transfers": spans["net"],
        "net.remote_share": ratio(tracer.calls["Interconnect.remote_latency"],
                                  spans["net"]),
        "net.self_s": self_s["net"],
        "net.link_reserves": tracer.calls["Link.reserve"],
        "net.latency_cycles": tracer.latency_cycles,
        "net.link_bit_hops": total("link_bit_hops"),
        "sim.cycles_total": sum(m.cycles for m in results.values()),
    }


def measure(workload: str, seed: Optional[int], store_dir: str,
            spawned_at: float, probes: Probes,
            tracer: Optional[LayerTracer]) -> Dict:
    """Drain ``workload`` once and describe the drain as plain data."""
    spin_waste = 0
    collect = workloads_base.collect_metrics

    def collect_metrics(system, cycles, operations):
        nonlocal spin_waste
        extra = system.stats.extra
        spin_waste += extra["spin_retries"] + extra["bakery_polls"]
        return collect(system, cycles, operations)

    specs = specsets.SPEC_SETS[workload](seed)
    runner.STATS.reset()
    if tracer is not None:
        workloads_base.collect_metrics = collect_metrics
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        results, errors = drain(specs, f"dir:{store_dir}", probes)
    except StopAtFirstSimulation:
        return {"setup_s": probes.first_simulation - spawned_at,
                "gauges": probes.gauges}
    finally:
        workloads_base.collect_metrics = collect
    # the drain's own time, without the gauges taken inside it
    wall_s = time.perf_counter() - wall0 - probes.gauge_s[0]
    cpu_s = time.process_time() - cpu0 - probes.gauge_s[1]
    probes.gauge()

    raised = sum(1 for spec in errors if spec not in probes.bodies)
    out = {
        "setup_s": probes.first_simulation - spawned_at,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": len(specs),
        "failed": len(errors),
        "errors": {specsets.label(s): e for s, e in errors.items()},
        # cold-run hygiene: every spec simulated here, none from a cache.
        "executed_ok": (runner.STATS.executed == len(specs) - raised
                        and runner.STATS.cache_hits == 0
                        and runner.STATS.deduplicated == 0),
        "digests": {specsets.label(s): digest(m) for s, m in results.items()},
        "gauges": probes.gauges,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, results, spin_waste,
                                      probes.spec_s, wall_s)
        out["unexercised"] = sorted(
            name for name, workloads in EXERCISED_BY.items()
            if workload in workloads and not tracer.calls.get(name))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(specsets.SPEC_SETS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--store-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--traced", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if get_telemetry().enabled:
        raise SystemExit("the telemetry bus must be off in a timed drain")
    probes = Probes(stop_at_first=args.setup_only)
    tracer = LayerTracer() if args.traced else None
    probes.install()
    if tracer is not None:
        tracer.install()  # before the first NDPSystem is built
    try:
        out = measure(args.workload, args.seed, args.store_dir,
                      args.spawned_at, probes, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        probes.uninstall()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
