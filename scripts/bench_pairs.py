"""Paired before/after runs of the benchmark on two checkouts.

Usage:
    python scripts/bench_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --seeds 7 --out BENCH_<pr>.json

For every workload of BENCHMARK.json and every seed, each of ``PAIRS``
pairs runs ``perfbench/run.py --trace 0`` once in each checkout, one run
at a time; which side goes first alternates from pair to pair, so a slow
phase of a shared host falls on both sides alike.  The output file holds
every run's end-to-end metrics, with the two factors of ``op_ref_ratio``
in seconds (the fastest operation ``op_s_min`` and the fastest host
reference pass ``ref_s_min``), the CPU seconds of that fastest operation
(``op_cpu_s_at_min``) and their ratio to its wall time (``cpu_per_wall``),
the run's usable CPUs (``cpus_usable``), and the run's minor page faults
and system CPU seconds (``minor_faults``, ``sys_s``), and, per workload
and metric, each side's median and quartiles, the number of pairs the
change wins, and whether the medians differ by more than the
interquartile range of the parent's runs, each side's total failed and
attempted operations, and each side's median and quartiles of
``FACTORS``, so a change of ``op_ref_ratio`` shows whether the operation
or the host reference moved, and a change of ``peak_rss_mb`` whether the
two sides ran as many operations.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# per-run values whose quartiles each workload's summary holds per side:
# the two factors of op_ref_ratio, the fastest operation's CPU seconds per
# wall second (above 1 where the inference worker overlapped the calling
# thread on another CPU), the operations the run attempted (a run's peak
# RSS climbs with its operation count, so a faster side reads a higher
# peak), and the run's faults and system time
FACTORS = ("op_s_min", "ref_s_min", "cpu_per_wall", "attempted",
           "minor_faults", "sys_s")
# pairs per workload and seed: the fewest that can back a claimed gain
PAIRS = 10


def parse_run(stdout):
    """(result, record) from the last two lines run.py prints."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError(f"expected a record and a result line, got "
                         f"{len(lines)} line(s)")
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def run_once(checkout, workload, seed, seconds):
    """One ``run.py --trace 0`` in ``checkout``; returns the run's entry.

    The minor page faults and system CPU seconds are deltas of the
    children's rusage totals around the run: runs are sequential, so a
    delta is this child's own.  ``ru_maxrss`` is a maximum over all
    children, not a total, so it is not kept.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: run.py {workload} seed {seed} "
                           f"exited {proc.returncode}:\n{proc.stderr}")
    entry = run_entry(*parse_run(proc.stdout))
    entry.update(minor_faults=after.ru_minflt - before.ru_minflt,
                 sys_s=after.ru_stime - before.ru_stime)
    return entry


def run_entry(result, record):
    """The stored form of one run: its metric values, the two factors of
    ``op_ref_ratio`` in seconds, the CPU seconds of the fastest untraced
    operation and their ratio to its wall seconds, the CPUs the run could
    use (CPU time above wall time shows work on more than one CPU), and
    identifying keys."""
    untraced = [i for i, traced in enumerate(record["op_traced"])
                if not traced]
    fastest = min(untraced, key=record["op_s"].__getitem__)
    environment = record.get("environment", {})
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "op_s_min": record["op_s_min"],
        "ref_s_min": min(record["ref_s"]),
        "op_cpu_s_at_min": record["op_cpu_s"][fastest],
        "cpu_per_wall": record["op_cpu_s"][fastest] / record["op_s_min"],
        "cpus_usable": environment.get("cpus_usable"),
        "actor_sha256": record.get("actor_sha256"),
        "heldout_F": record.get("heldout_F"),
        "git_commit": environment.get("git_commit"),
        "src_sha256": environment.get("src_sha256"),
    }


def quartiles(xs):
    """{"median", "q1", "q3"} of xs, by inclusive interpolation."""
    if len(xs) == 1:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0]}
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(runs, specs):
    """Per workload and metric: each side's quartiles and the change's wins.

    ``runs`` are entries with ``workload``, ``seed``, ``pair``, ``side``,
    ``metrics``, ``failed`` and ``attempted``; ``specs`` are
    BENCHMARK.json's end-to-end metrics.  A pair counts as won when the
    change's value is strictly better.  Under ``operations``, each
    workload also holds each side's total failed and attempted operations,
    and under ``factors`` the quartiles of each of ``FACTORS`` per side,
    over the paired runs that carry it.
    """
    better = {m["name"]: m["better"] for m in specs}
    by_pair = {}
    for run in runs:
        key = (run["workload"], run["seed"], run["pair"])
        by_pair.setdefault(key, {})[run["side"]] = run
    summary, operations, factors = {}, {}, {}
    for (workload, _, _), sides in sorted(by_pair.items()):
        if set(sides) != set(SIDES):
            continue
        totals = operations.setdefault(workload, {
            side: {"failed": 0, "attempted": 0} for side in SIDES})
        values = factors.setdefault(workload, {
            name: {side: [] for side in SIDES} for name in FACTORS})
        for side in SIDES:
            for count in ("failed", "attempted"):
                totals[side][count] += sides[side][count]
            for name in FACTORS:
                if name in sides[side]:
                    values[name][side].append(sides[side][name])
        for name, direction in better.items():
            entry = summary.setdefault(workload, {}).setdefault(
                name, {"parent": [], "change": [], "change_wins": 0,
                       "pairs": 0})
            before = sides["parent"]["metrics"][name]
            after = sides["change"]["metrics"][name]
            entry["parent"].append(before)
            entry["change"].append(after)
            entry["pairs"] += 1
            if (after < before) if direction == "lower" else (after > before):
                entry["change_wins"] += 1
    for metrics in summary.values():
        for entry in metrics.values():
            for side in SIDES:
                entry[side] = quartiles(entry[side])
            parent, change = entry["parent"], entry["change"]
            entry["median_change"] = change["median"] / parent["median"] - 1.0
            # a gain counts only beyond the spread of the parent's own runs
            entry["beyond_parent_iqr"] = (abs(change["median"]
                                              - parent["median"])
                                          > parent["q3"] - parent["q1"])
    for workload, totals in operations.items():
        summary[workload]["operations"] = totals
        summary[workload]["factors"] = {
            name: {side: quartiles(xs) for side, xs in sides.items()}
            for name, sides in factors[workload].items()
            if all(sides.values())}
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}
    runs, n = [], 0
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in args.seeds:
            for pair in range(PAIRS):
                order = SIDES if n % 2 == 0 else SIDES[::-1]
                n += 1
                for position, side in enumerate(order):
                    entry = run_once(checkouts[side], workload, seed, seconds)
                    entry.update(workload=workload, seed=seed, pair=pair,
                                 side=side, position=position)
                    runs.append(entry)
                    print(json.dumps(entry), flush=True)
    out = {"seconds": seconds, "seeds": args.seeds, "pairs": PAIRS,
           "runs": runs, "summary": summarize(runs, spec["end_to_end"])}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
