"""The benchmark's three named spec sets, built from the paper's sweeps.

Each set is a list of :class:`repro.harness.specs.RunSpec`, the plain-data
input that ``repro run`` hands to :func:`repro.harness.runner.run_specs`.
Every spec builds a fresh ``NDPSystem``, so simulated L1s and DRAM row
buffers start empty in every spec.

``seed`` is forwarded only to the seedable builders (``app``,
``structure``); ``None`` leaves their seed unset, as the figure code does.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.harness.experiments import FIG10_INTERVALS, MECHANISMS
from repro.harness.specs import RunSpec

#: the six graph kernels of Fig. 12, each on the ``co`` input.
GRAPH_KERNELS = ("bfs", "cc", "sssp", "pr", "tf", "tc")

#: the Sec. 2.2.1 spinning baselines' contended lock (ablations.spin_baselines).
SPIN_LOCK = {"primitive": "lock", "interval": 200, "rounds": 15}

#: mechanisms whose synchronization is shared-memory spinning (the ``sync``
#: layer); every other mechanism synchronizes through SE messages.
SPIN_MECHANISMS = ("bakery", "rmw_spin")


def apps(seed: Optional[int]) -> List[RunSpec]:
    """Fig. 12: graph kernels on ``co`` plus ``ts.air``, x 4 mechanisms."""
    combos = [f"{kernel}.co" for kernel in GRAPH_KERNELS] + ["ts.air"]
    return [
        RunSpec.make("app", mech, args={"combo": combo}, seed=seed)
        for combo in combos
        for mech in MECHANISMS
    ]


def primitives(seed: Optional[int]) -> List[RunSpec]:
    """Fig. 10 (4 primitives x their intervals x 4 mechanisms, 25 rounds as
    at ``REPRO_SCALE=small``) plus a SynCron ST-overflow slice: three
    structures at 4 units with a 16-entry ST."""
    specs = [
        RunSpec.make("primitive", mech,
                     args={"primitive": primitive, "interval": interval,
                           "rounds": 25})
        for primitive, intervals in FIG10_INTERVALS.items()
        for interval in intervals
        for mech in MECHANISMS
    ]
    specs += [
        RunSpec.make("structure", "syncron", args={"structure": structure},
                     overrides={"num_units": 4, "st_entries": 16}, seed=seed)
        for structure in ("hashtable", "bst_fg", "linkedlist")
    ]
    return specs


def spin(seed: Optional[int]) -> List[RunSpec]:
    """Sec. 2.2.1: bakery at 1-2 units, rmw_spin at 1-4 units on the
    all-to-all fabric, and rmw_spin at 8 units on a ring (multi-hop routes).
    None of these specs is seedable; ``seed`` is accepted for uniformity."""
    del seed
    specs = [
        RunSpec.make("primitive", "bakery", args=SPIN_LOCK,
                     overrides={"num_units": units})
        for units in (1, 2)
    ]
    specs += [
        RunSpec.make("primitive", "rmw_spin", args=SPIN_LOCK,
                     overrides={"num_units": units})
        for units in (1, 2, 3, 4)
    ]
    specs.append(RunSpec.make("primitive", "rmw_spin", args=SPIN_LOCK,
                              overrides={"num_units": 8, "topology": "ring"}))
    return specs


SPEC_SETS: Dict[str, Callable[[Optional[int]], List[RunSpec]]] = {
    "apps": apps,
    "primitives": primitives,
    "spin": spin,
}


def label(spec: RunSpec) -> str:
    """Fingerprint key of one spec: its description plus any seed."""
    text = spec.describe()
    return text if spec.seed is None else f"{text}@seed={spec.seed}"
