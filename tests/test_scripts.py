"""The scripts under scripts/, loaded by path (they are not a package)."""

import importlib.util
import json
import resource
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPTS = Path(__file__).parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_train_six_configs_imports():
    # main() trains six full configurations, so only its setup is checked
    module = _load("train_six_configs")
    assert callable(module.main)
    assert len(module.WEIGHT_CONFIGS) == 6
    assert all(abs(sum(w) - 1.0) < 1e-12 for w in module.WEIGHT_CONFIGS)


def _canned_stdout(op_ref, rss, heldout=1.01, sha="ab" * 32,
                   op_s=(0.7, 0.5, 0.6), op_cpu_s=(0.7, 0.5, 0.6),
                   op_traced=(False, False, False), ref_s=(0.3, 0.2, 0.25),
                   failed=0, attempted=3, cpus_usable=2):
    """The two lines perfbench/run.py prints last, with given metric values."""
    op_s_min = min(t for t, traced in zip(op_s, op_traced) if not traced)
    record = {"record": {"actor_sha256": sha, "heldout_F": 0.25,
                         "op_s": list(op_s), "op_s_min": op_s_min,
                         "op_cpu_s": list(op_cpu_s),
                         "op_traced": list(op_traced), "ref_s": list(ref_s),
                         "environment": {"git_commit": None,
                                         "src_sha256": "cd" * 32,
                                         "cpus_usable": cpus_usable}}}
    values = {"setup_s": 20.0, "peak_rss_mb": rss, "op_ref_ratio": op_ref,
              "heldout_F_ratio": heldout}
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": "x"}
                          for k, v in values.items()}}
    return f"progress\n{json.dumps(record)}\n{json.dumps(result)}\n"


def test_bench_pairs_aggregation():
    module = _load("bench_pairs")
    specs = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    # three market pairs; the change is faster in two and uses less memory
    canned = {"parent": [(2.3, 500.0), (2.2, 510.0), (2.4, 505.0)],
              "change": [(1.2, 250.0), (2.5, 240.0), (1.3, 245.0)]}
    runs = []
    for side, values in canned.items():
        for pair, (op_ref, rss) in enumerate(values):
            entry = module.run_entry(
                *module.parse_run(_canned_stdout(op_ref, rss)))
            entry.update(workload="market", seed=7, pair=pair, side=side)
            runs.append(entry)
    assert runs[0]["metrics"]["op_ref_ratio"] == 2.3
    assert runs[0]["actor_sha256"] == "ab" * 32
    summary = module.summarize(runs, specs["end_to_end"])["market"]
    op_ref = summary["op_ref_ratio"]
    assert op_ref["pairs"] == 3
    assert op_ref["change_wins"] == 2
    assert op_ref["parent"] == pytest.approx(
        {"median": 2.3, "q1": 2.25, "q3": 2.35})
    assert op_ref["change"]["median"] == 1.3
    assert op_ref["median_change"] == pytest.approx(1.3 / 2.3 - 1.0)
    assert op_ref["beyond_parent_iqr"]
    assert summary["peak_rss_mb"]["change_wins"] == 3
    # equal values are not a win, in either direction of "better"
    assert summary["heldout_F_ratio"]["change_wins"] == 0
    assert not summary["heldout_F_ratio"]["beyond_parent_iqr"]
    assert summary["setup_s"]["change_wins"] == 0


def test_bench_pairs_keeps_both_factors_of_the_ratio():
    # op_ref_ratio = fastest operation / fastest host reference pass; the
    # traced operation is faster here but does not count
    module = _load("bench_pairs")
    entry = module.run_entry(*module.parse_run(_canned_stdout(
        0.173 / 0.18, 128.0, op_s=(0.21, 0.173, 0.19, 0.15),
        op_cpu_s=(0.2, 0.31, 0.19, 0.29), op_traced=(False, False, False, True),
        ref_s=(0.21, 0.18, 0.19), cpus_usable=2)))
    assert entry["op_s_min"] == 0.173
    assert entry["ref_s_min"] == 0.18
    assert entry["metrics"]["op_ref_ratio"] == (entry["op_s_min"]
                                                / entry["ref_s_min"])
    # the fastest operation's CPU time, above its wall time on two CPUs
    assert entry["op_cpu_s_at_min"] == 0.31
    assert entry["cpus_usable"] == 2


def test_bench_pairs_totals_failed_operations_per_side():
    module = _load("bench_pairs")
    specs = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    # (workload, pair, side, failed, attempted); the last run has no pair
    canned = [("audit", 0, "parent", 0, 40), ("audit", 0, "change", 1, 52),
              ("audit", 1, "parent", 2, 41), ("audit", 1, "change", 0, 50),
              ("train", 0, "parent", 0, 3), ("train", 0, "change", 0, 4),
              ("train", 1, "parent", 5, 5)]
    runs = []
    for workload, pair, side, failed, attempted in canned:
        entry = module.run_entry(*module.parse_run(_canned_stdout(
            2.0, 100.0, failed=failed, attempted=attempted)))
        entry.update(workload=workload, seed=7, pair=pair, side=side)
        runs.append(entry)
    summary = module.summarize(runs, specs["end_to_end"])
    assert summary["audit"]["operations"] == {
        "parent": {"failed": 2, "attempted": 81},
        "change": {"failed": 1, "attempted": 102}}
    assert summary["train"]["operations"] == {
        "parent": {"failed": 0, "attempted": 3},
        "change": {"failed": 0, "attempted": 4}}
    assert summary["train"]["op_ref_ratio"]["pairs"] == 1


def test_bench_pairs_skips_unpaired_runs():
    module = _load("bench_pairs")
    specs = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    entry = module.run_entry(*module.parse_run(_canned_stdout(2.0, 300.0)))
    entry.update(workload="audit", seed=1, pair=0, side="parent")
    assert module.summarize([entry], specs["end_to_end"]) == {}
    with pytest.raises(ValueError, match="record and a result"):
        module.parse_run("only one line\n")


def test_bench_pairs_keeps_each_runs_faults_and_system_time(monkeypatch):
    module = _load("bench_pairs")
    # the children's rusage totals before and after each of two runs
    totals = iter([(100, 1.5), (4_100, 2.0), (4_100, 2.0), (4_600, 2.25)])
    calls = []

    def getrusage(who):
        assert who == resource.RUSAGE_CHILDREN
        minflt, stime = next(totals)
        return SimpleNamespace(ru_minflt=minflt, ru_stime=stime,
                               ru_maxrss=10**9)

    def run(cmd, cwd, **kwargs):
        calls.append((cmd, cwd))
        return SimpleNamespace(returncode=0, stderr="",
                               stdout=_canned_stdout(2.0, 100.0))

    monkeypatch.setattr(module, "resource", SimpleNamespace(
        getrusage=getrusage, RUSAGE_CHILDREN=resource.RUSAGE_CHILDREN))
    monkeypatch.setattr(module, "subprocess", SimpleNamespace(run=run))
    first = module.run_once("parent", "market", 7, 20)
    second = module.run_once("change", "market", 7, 20)
    assert (first["minor_faults"], first["sys_s"]) == (4_000, 0.5)
    assert (second["minor_faults"], second["sys_s"]) == (500, 0.25)
    assert not any("maxrss" in key for key in first)
    assert first["metrics"]["peak_rss_mb"] == 100.0
    assert [cwd for _, cwd in calls] == ["parent", "change"]
    assert calls[0][0][-2:] == ["--trace", "0"]


def test_bench_pairs_runs_ten_pairs_without_a_flag():
    module = _load("bench_pairs")
    assert module.PAIRS == 10
    with pytest.raises(SystemExit):
        module.main(["parent", "change", "--seeds", "7", "--pairs", "3",
                     "--out", "unused.json"])


def test_bench_pairs_summarizes_both_factors_of_the_ratio():
    module = _load("bench_pairs")
    specs = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    # (pair, side, fastest operation, fastest reference, faults, sys_s);
    # the change's operation is faster, its reference as fast
    canned = [(0, "parent", 3.0, 0.20, 1_400_000, 3.0),
              (0, "change", 2.6, 0.21, 500_000, 1.1),
              (1, "parent", 3.2, 0.19, 1_500_000, 3.4),
              (1, "change", 2.7, 0.19, 460_000, 1.2),
              (2, "parent", 3.1, 0.22, 1_380_000, 2.9),
              (2, "change", 2.8, 0.20, 540_000, 1.0)]
    runs = []
    for pair, side, op_s, ref_s, faults, sys_s in canned:
        entry = module.run_entry(*module.parse_run(_canned_stdout(
            op_s / ref_s, 53.0, op_s=(op_s,), op_cpu_s=(op_s,),
            op_traced=(False,), ref_s=(ref_s, ref_s + 0.05))))
        entry.update(workload="train", seed=7, pair=pair, side=side,
                     minor_faults=faults, sys_s=sys_s)
        runs.append(entry)
    factors = module.summarize(runs, specs["end_to_end"])["train"]["factors"]
    assert list(factors) == list(module.FACTORS)
    assert factors["op_s_min"]["parent"] == pytest.approx(
        {"median": 3.1, "q1": 3.05, "q3": 3.15})
    assert factors["op_s_min"]["change"]["median"] == 2.7
    assert factors["ref_s_min"]["parent"]["median"] == 0.20
    assert factors["ref_s_min"]["change"]["median"] == 0.20
    assert factors["minor_faults"]["parent"]["median"] == 1_400_000
    assert factors["minor_faults"]["change"] == pytest.approx(
        {"median": 500_000, "q1": 480_000, "q3": 520_000})
    assert factors["sys_s"]["change"]["median"] == 1.1
    # runs without the rusage counts (as run_entry alone makes them) still
    # give the ratio's two factors
    for run in runs:
        del run["minor_faults"], run["sys_s"]
    factors = module.summarize(runs, specs["end_to_end"])["train"]["factors"]
    assert list(factors) == ["op_s_min", "ref_s_min"]
