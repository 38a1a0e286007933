"""Failure accounting of the benchmark's drain, and its host-speed scaling.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import drain  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import specsets  # noqa: E402
from repro.harness.specs import WORKLOAD_BUILDERS, RunSpec  # noqa: E402
from repro.workloads.microbench import PrimitiveMicrobench  # noqa: E402


def _lock(interval: int) -> RunSpec:
    return RunSpec.make("primitive", "ideal", args={
        "primitive": "lock", "interval": interval, "rounds": 2})


def _run_child(monkeypatch, capsys, tmp_path, specs):
    monkeypatch.setitem(specsets.SPEC_SETS, "spin", lambda seed: specs)
    assert drain.main(["--workload", "spin", "--spawned-at", "0",
                       "--store-dir", str(tmp_path / "store")]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_raising_spec_is_counted_and_the_drain_goes_on(
        monkeypatch, capsys, tmp_path):
    bad = RunSpec.make("app", "syncron", args={"combo": "bfs.nosuch"})
    specs = [_lock(100), bad, _lock(200)]
    out = _run_child(monkeypatch, capsys, tmp_path, specs)
    assert out["attempted"] == 3
    assert out["failed"] == 1
    assert list(out["errors"]) == [specsets.label(bad)]
    assert "ValueError" in out["errors"][specsets.label(bad)]
    assert sorted(out["digests"]) == sorted(
        specsets.label(s) for s in (specs[0], specs[2]))
    assert out["executed_ok"]


class _DriftingOperations(PrimitiveMicrobench):
    """Reports one more operation each time it is asked again."""

    asked = 0

    def operations(self) -> int:
        self.asked += 1
        return super().operations() + self.asked - 1


def test_operations_mismatch_fails_the_spec(monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(
        WORKLOAD_BUILDERS, "primitive",
        lambda primitive, interval, rounds: _DriftingOperations(
            primitive, interval, rounds=rounds))
    specs = [_lock(100)]
    out = _run_child(monkeypatch, capsys, tmp_path, specs)
    assert out["failed"] == 1
    assert "operations" in out["errors"][specsets.label(specs[0])]
    assert out["digests"] == {}


def test_times_are_scaled_by_each_process_gauge():
    nominal = reference.NOMINAL_S
    drains = [
        # a drain on a host at half speed: its gauges took twice as long
        {"wall_s": 8.0, "gauges": [[2 * nominal, 0.0]] * 3},
        {"wall_s": 4.0, "gauges": [[nominal, 0.0]] * 2},
        {"wall_s": 5.0, "gauges": [[nominal, 0.0], [2 * nominal, 0.0],
                                   [nominal, 0.0]]},
    ]
    assert run.scaled_median(drains, "wall_s", 0) == 4.0


def test_reference_kernel_result_is_fixed():
    assert reference.kernel() == reference.EXPECTED
