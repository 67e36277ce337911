"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_bench.py -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = bench.Sizes(
    market_rounds=300, heldout_rounds=400, audit_states=10, per_rounds=10,
    isic_rounds=300, setup_reps=1,
    train_overrides={"train_iters": 2, "pretrain_epochs": 3,
                     "pretrain_rounds": 20, "benchmark_rounds": 100,
                     "eval_rounds": 100, "eval_every": 1})


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, record = bench.run(workload, seed=5, seconds=0.0, trace=trace,
                               import_s=0.0, sizes=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= TINY.min_ops
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in specs)
    assert record["environment"]["workload_seed"] == 5
    assert len(record["actor_sha256"]) == 64


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, 0, 0, None]


def test_self_time_of_nested_spans():
    spans = [
        _span("trainer.warm_start_actor", 0.0, 10.0, -1),
        _span("nets.Mlp.forward", 1.0, 4.0, 0),
        _span("nets.Adam.step", 2.0, 3.0, 1),
        _span("nets.Adam.step", 5.0, 7.0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    got = tracer.layer_metrics(
        spans, ["trainer.warm_start_actor.self_s", "nets.Adam.step.self_s",
                "nets.Adam.step.calls", "trainer.warm_start_actor.adam_steps"],
        n_ops=2)
    assert got == pytest.approx({
        "trainer.warm_start_actor.self_s": 2.5, "nets.Adam.step.self_s": 1.5,
        "nets.Adam.step.calls": 1.0, "trainer.warm_start_actor.adam_steps": 2.0})


def test_failed_check_counts_as_failed_operation(monkeypatch):
    import gsplab.simulator

    original = gsplab.simulator.price_batch

    def overcharge(*args, **kwargs):
        return original(*args, **kwargs) * 10.0 + 1.0

    monkeypatch.setattr(gsplab.simulator, "price_batch", overcharge)
    result, record = bench.run("market", seed=5, seconds=0.0, trace=False,
                               import_s=0.0, sizes=TINY)
    assert result["attempted"] >= TINY.min_ops
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert any("pay above their bid" in f for f in record["failures"])


def test_raising_operation_counts_as_failed():
    calls = []

    def timed(i):
        calls.append(i)
        if i == 1:
            raise ValueError("boom")
        return np.zeros(1)

    results = bench.run_ops(bench.Op(timed, lambda out: []), seconds=0.0,
                            min_ops=3)
    assert calls == [0, 1, 2]
    assert [bool(r.failures) for r in results] == [False, True, False]
    assert all(r.seconds >= 0 for r in results)
