"""Checks of the benchmark itself, on tiny workloads run through the same code path."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import spgs_bench
from layer_trace import COUNT_METRICS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int, seed: int = 3) -> dict:
    rc = spgs_bench.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # every metric is also printed as a text line `name = value unit`
    for name, metric in result["metrics"].items():
        assert f"{name} = {metric['value']!r} {metric['unit']}" in lines
    return result


@pytest.fixture(scope="module")
def traced_runs():
    """Traced results by workload, shared between the two tests."""
    return {}


@pytest.mark.parametrize("workload", ["smoke-solve", "smoke-radial"])
def test_every_metric_printed_with_its_unit(capsys, workload, traced_runs):
    for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        result = _run(capsys, workload, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in declared} == {
            name: metric["unit"] for name, metric in result["metrics"].items()
        }
        if trace:
            traced_runs[workload] = result


@pytest.mark.parametrize("workload", ["smoke-solve", "smoke-radial"])
def test_traced_counts_repeat_exactly(capsys, workload, traced_runs):
    first = traced_runs.get(workload) or _run(capsys, workload, 1)
    second = _run(capsys, workload, 1)
    counts = {name: first["metrics"][name]["value"] for name in COUNT_METRICS}
    assert counts == {name: second["metrics"][name]["value"] for name in COUNT_METRICS}
    assert counts["poisson.solve_phi.raw.calls" if workload == "smoke-solve" else "radial.radial_solve_phi.calls"] > 0
