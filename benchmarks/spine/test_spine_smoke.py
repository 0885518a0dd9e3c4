"""Tier-1 smoke test of the measurement spine.

Tiny counts, timing ignored: every named end-to-end and per-layer
metric is present and finite on every workload, every output check
passes, count metrics repeat exactly across in-process repetitions
(``harness.check`` fails the run otherwise), and ``BENCHMARK.json``
names exactly the metrics and workloads the runner emits.
"""

import json
import math

import pytest

from spine import harness, run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_runner_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == harness.PER_LAYER
    assert BENCHMARK["paths"] == ["benchmarks/spine"]
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke(name, trace):
    record = run.run_workload(
        name, seed=3, seconds=0, trace=trace, smoke=True, import_s=0.0
    )
    result = record["result"]
    assert record["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for metric_name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), metric_name
        assert metric["unit"] == expected[metric_name]
    repetitions = record["repetitions"]
    assert len(repetitions) >= 2
    assert all(rep["counts"] == repetitions[0]["counts"] for rep in repetitions)
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
