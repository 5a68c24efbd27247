"""Smoke test of the pipeline benchmark on a tiny config.

Runs every workload untraced and traced, and checks that each run is correct
and prints every metric that BENCHMARK.json names, with its unit.  Run from
the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "datagen": workloads.DatagenConfig(episodes=2, episode_s=5.0),
    "train": workloads.TrainConfig(episodes=2, episode_s=6.0, epochs=2),
    "closedloop": workloads.ClosedloopConfig(tasks=1, ticks=200),
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.UNITS
    for cls in workloads.WORKLOADS.values():
        assert tuple(cls.common) == workloads.COMMON
        assert set(cls.common.values()) <= set(harness.NAMED_UNITS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_runs_untraced_and_traced(workload, tmp_path, capsys):
    for trace, spec_key in ((False, "end_to_end"), (True, "per_layer")):
        report = harness.run(
            workload, seed=0, seconds=0.01, trace=trace,
            config=TINY[workload], out_root=str(tmp_path),
        )
        assert report["correct"], report["correctness"]["checks_failed"]
        assert report["ops"]["attempted"] >= 1 and report["ops"]["failed"] == 0
        assert report["correctness"]["digests"]
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {k: m["unit"] for k, m in report["metrics"].items()}
        assert got == expected
        for m in report["metrics"].values():
            assert isinstance(m["value"], float)
        if trace:
            assert report["traced_functions_missing"] == []
            assert report["metrics"]["trace.spans"]["value"] > 0
            assert report["metrics"]["trace.samples_per_s_untraced"]["value"] > 0
        else:
            assert all(m["value"] > 0 for m in report["metrics"].values())

        harness.print_report(report)
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert set(json.loads(last)) == {"correct", "attempted", "failed", "metrics"}
