"""End-to-end benchmark of the SynCron reproduction's figure sweeps.

    python3 perfbench/run.py --workload {apps,primitives,spin} \\
        [--seed N] [--seconds S] [--trace 0|1]

Each measurement is one cold drain of the workload's spec set (see
``specsets.py``) through ``repro.harness.runner.run_specs`` with one
worker and a fresh ``dir:`` store, in a fresh process (``drain.py``) that
runs alone while this one waits.  The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` makes as many drains as fill ``--seconds`` and reports
medians of the end-to-end metrics: ``wall_s``, ``cpu_s``, ``peak_rss_mb``
and ``setup_s`` (also sampled by extra processes that stop at the first
simulation).  The three times are scaled to a nominal host speed, gauged
in the same process by ``reference.py``.  ``--trace 1`` makes one
untraced and one traced drain and reports the per-layer metrics of the
traced one.  See README.md.

``--record-fingerprints`` re-records ``fingerprints.json`` from one
untraced drain per workload at the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FINGERPRINTS = HERE / "fingerprints.json"
WORKLOADS = ("apps", "primitives", "spin")

#: a run must end within this many seconds, whatever the drains cost.
RUN_LIMIT_S = 170.0
#: setup-only processes per --trace 0 run (drain processes add theirs).
SETUP_SAMPLES = 10


def declared_units(section: str) -> Dict[str, str]:
    """Metric name -> unit of one BENCHMARK.json section, in its order."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[section]}


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (as opposed to a failing spec)."""


class Launcher:
    """Starts drain processes one at a time inside a run's time limit."""

    def __init__(self, workload: str, seed: Optional[int], scratch: Path):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        # cold-run hygiene: pinned scale, no user cache dir, default kernel
        # validation, stable hashing; nothing inherited can warm a drain.
        for name in ("REPRO_CACHE_DIR", "REPRO_SIM_VALIDATE"):
            self.env.pop(name, None)
        self.env["REPRO_SCALE"] = "small"
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONPATH"] = str(SRC)

    def drain(self, *flags: str) -> Dict:
        store = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        command = [sys.executable, str(HERE / "drain.py"),
                   "--workload", self.workload, "--store-dir", store]
        if self.seed is not None:
            command += ["--seed", str(self.seed)]
        command += list(flags)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchmarkError("run time limit reached")
        try:
            spawned_at = time.monotonic()
            proc = subprocess.run(
                command + ["--spawned-at", repr(spawned_at)], env=self.env,
                stdout=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchmarkError("a drain exceeded the run time limit")
        finally:
            shutil.rmtree(store, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchmarkError(
                f"drain {' '.join(flags) or 'untraced'} exited with "
                f"{proc.returncode}")
        return json.loads(lines[-1])


def _report_errors(drain: Dict) -> None:
    for label, error in drain["errors"].items():
        print(f"FAILED {label}: {error}", file=sys.stderr)


def speed(process: Dict, index: int) -> float:
    """How fast the host ran ``process`` (a drain or a setup probe): the
    reference gauge's nominal time over its median time in that process
    (``index`` 0 is wall and 1 is CPU seconds)."""
    return reference.NOMINAL_S / statistics.median(
        g[index] for g in process["gauges"])


def scaled_median(processes: List[Dict], key: str, index: int) -> float:
    """Median over ``processes`` of ``key`` seconds scaled to the gauge's
    nominal host speed (README.md, "Run-to-run noise")."""
    return statistics.median(p[key] * speed(p, index) for p in processes)


def measure(launcher: Launcher, seconds: float):
    """--trace 0: end-to-end medians over as many drains as fit."""
    launcher.drain("--setup-only")  # untimed: compiles bytecode once
    setups = [launcher.drain("--setup-only")
              for _ in range(SETUP_SAMPLES)]
    drains = [launcher.drain()]
    # as many drains as fill --seconds, judged by the first one's length
    count = max(1, round(seconds / drains[0]["wall_s"]))
    drains += [launcher.drain() for _ in range(count - 1)]
    for d in drains:
        print(f"drain: wall {d['wall_s']:.3f} s, cpu {d['cpu_s']:.3f} s")
    setups += drains
    correct = all(d["executed_ok"] for d in drains)
    # the simulator is deterministic: every drain must agree exactly.
    correct = correct and all(d["digests"] == drains[0]["digests"]
                              for d in drains)
    for d in drains:
        _report_errors(d)
    print(f"{len(drains)} cold drains, {len(setups)} setup samples")
    print(f"host speed in the drains: "
          f"{min(speed(d, 0) for d in drains):.2f}-"
          f"{max(speed(d, 0) for d in drains):.2f} of nominal")
    return drains, correct, {
        "wall_s": scaled_median(drains, "wall_s", 0),
        "cpu_s": scaled_median(drains, "cpu_s", 1),
        "setup_s": scaled_median(setups, "setup_s", 0),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in drains),
    }


def fingerprint_mismatches(workload: str, digests: Dict[str, str]):
    """(checked, mismatched labels) against the recorded fingerprints."""
    recorded = json.loads(FINGERPRINTS.read_text())[workload]
    checked = [label for label in digests if label in recorded]
    return len(checked), [label for label in checked
                          if digests[label] != recorded[label]]


def trace(launcher: Launcher):
    """--trace 1: per-layer metrics of one traced drain."""
    plain = launcher.drain()
    traced = launcher.drain("--traced")
    drains = [plain, traced]
    for d in drains:
        _report_errors(d)
    correct = all(d["executed_ok"] for d in drains)
    if traced["digests"] != plain["digests"]:
        print("traced and untraced physics digests differ", file=sys.stderr)
        correct = False
    if traced["unexercised"]:
        print(f"entry points never called: {traced['unexercised']}",
              file=sys.stderr)
        correct = False
    checked, mismatched = fingerprint_mismatches(launcher.workload,
                                                 plain["digests"])
    for label in mismatched:
        print(f"physics changed: {label}", file=sys.stderr)
    layers = dict(traced["layers"])
    layers["sim.digest_mismatches"] = len(mismatched)
    layers["sim.digest_checked"] = checked
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    layers["failed_frac"] = (sum(d["failed"] for d in drains)
                             / sum(d["attempted"] for d in drains))
    return drains, correct, layers


def record_fingerprints(scratch: Path) -> int:
    table = {}
    for workload in WORKLOADS:
        drain = Launcher(workload, None, scratch).drain()
        if drain["failed"] or not drain["executed_ok"]:
            raise BenchmarkError(f"{workload}: cannot record a failing drain")
        table[workload] = drain["digests"]
    FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {FINGERPRINTS}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for the seedable specs (app, structure); "
                             "default: unset, as the figure code leaves it")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="drain time to measure with --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_fingerprints and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2

    scratch_base = ROOT / ".perfbench-tmp"
    scratch_base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_base))
    try:
        if args.record_fingerprints:
            return record_fingerprints(scratch)
        launcher = Launcher(args.workload, args.seed, scratch)
        if args.trace:
            drains, correct, values = trace(launcher)
        else:
            drains, correct, values = measure(launcher, args.seconds)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_base.rmdir()
        except OSError:
            pass  # another run is using it
    attempted = sum(d["attempted"] for d in drains)
    failed = sum(d["failed"] for d in drains)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared_units(section).items()}
    print("simulated L1s and DRAM row buffers start empty in every spec "
          "(each spec builds a fresh NDPSystem)")
    for name, metric in metrics.items():
        print(f"{name:24s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": correct and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
