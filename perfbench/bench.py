"""The gsplab benchmark: ``market``, ``train`` and ``audit`` workloads.

Every workload is one closed loop in one process: each operation starts
after the previous one finished, for at least ``--seconds``.  The set-up
is the same everywhere: one ``gsplab train`` of the default experiment
(repeated ``Sizes.setup_reps`` times for a median), whose actor the
``market`` and ``audit`` operations then use.

- ``market``: one operation is a GSP(sigma=1) episode followed by a Deep
  GSP episode, each ``World.sample_rounds`` then ``World.play``.  It
  stresses the simulator/auction batch path and large-batch inference.
- ``train``: one operation is ``gsplab.cli.main(["train", ...])``.  It
  stresses backward passes, Adam and the trainer phases on small batches.
- ``audit``: one operation is T_m, PER, i-SIC and the GSP i-SIC
  calibration at the acceptance sizes.  It stresses one-row forward calls
  (PER) and repeated score matrices (i-SIC).

With ``trace`` off the run reports the end-to-end metrics; with it on,
every other operation runs under the tracer and the run reports the
per-layer metrics plus the tracing overhead.  Operation time is reported
as the fastest operation over the fastest pass of a fixed host reference
timed in the same run (``reference_seconds``), which cancels most of the
slow phases of a shared host.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# modules, not their functions: the tracer rebinds module attributes
from gsplab import audit, cli
from gsplab.auction import DeepGspMechanism, GspMechanism
from gsplab.nets import BidMultiplierNet
from gsplab.simulator import World, load_world_config, scalarize

from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# The values of configs/default.ini, frozen here so that the workload input
# does not follow later edits of that file.  Both seeds are replaced by the
# seed derived from the workload seed.
DEFAULT_SPEC = {
    "world": {"n_advertisers": "8", "slots": "3",
              "slot_ctr_factors": "1.0,0.65,0.45",
              "prediction_noise": "0.15", "calibration_rounds": "500"},
    "train": {"weights": "1,0,0,0,0", "eps": "1.0", "eta": "10.0",
              "gamma_mono": "2.0", "train_iters": "150",
              "eval_rounds": "2000"},
}

PRICE_SLACK = 1e-9
GATES = {"t_m": 0.96, "per_lo": 0.95, "per_hi": 1.05, "isic": 0.95,
         "calibration_tol": 0.02}


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one run; the defaults are the benchmark's."""

    market_rounds: int = 20_000
    heldout_rounds: int = 20_000
    audit_states: int = 200
    per_rounds: int = 200
    isic_rounds: int = 12_500   # x 8 advertisers = 1e5 paired samples
    setup_reps: int = 3
    min_ops: int = 2
    train_overrides: dict = field(default_factory=dict)


@dataclass
class Op:
    """One workload: ``timed`` is measured, ``check`` validates its output."""

    timed: object
    check: object


def derived_seed(seed, tag):
    """A 31-bit seed for one input stream of the workload."""
    return int(np.random.SeedSequence((seed, tag)).generate_state(1)[0]
               % 2**31)


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_spec(path, seed, sizes):
    parser = configparser.ConfigParser()
    for section, values in DEFAULT_SPEC.items():
        parser[section] = dict(values, seed=str(seed))
    parser["train"].update({k: str(v) for k, v in sizes.train_overrides.items()})
    with open(path, "w") as fh:
        parser.write(fh)


def train_cli(spec, seed, out):
    """One ``gsplab train`` in this process.

    ``--seed`` is passed explicitly: the CLI's default ``--seed 0``
    replaces both seeds of the experiment file.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["train", "--config", str(spec), "--seed", str(seed),
                         "--out", str(out), "--workers", "1"])


# The static baselines the held-out objective is compared with: the GSP
# sigma grid the trainer's warm start also searches.
BASELINE_SIGMAS = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)


def heldout_ratio(world, actor, seed, n_rounds, weights):
    """(F of the actor, its ratio to the best GSP's F) on one held-out episode.

    The base is the best GSP(sigma) of ``BASELINE_SIGMAS`` on the same
    episode; how far the learned actor beats GSP(1) alone varies with the
    world far more.  The seed is at least 2**31, so it never equals the
    trainer's ``eval_seed``, which is below 2**31.
    """
    ep_seed = 2**31 + seed
    deep, _ = world.evaluate(DeepGspMechanism(actor), n_rounds, ep_seed)
    f_deep = scalarize(deep, weights)
    f_gsp = max(scalarize(world.evaluate(GspMechanism(sigma=s), n_rounds,
                                         ep_seed)[0], weights)
                for s in BASELINE_SIGMAS)
    return f_deep, f_deep / f_gsp


class Setup:
    """Train the default model ``reps`` times and keep the last one."""

    def __init__(self, seed, sizes, work):
        self.seed = derived_seed(seed, 0x5E7)
        self.spec = work / "spec.ini"
        write_spec(self.spec, self.seed, sizes)
        self.times, self.shas = [], []
        for rep in range(sizes.setup_reps):
            out = work / f"setup{rep}"
            t0 = time.perf_counter()
            code = train_cli(self.spec, self.seed, out)
            if code != 0:
                raise RuntimeError(f"set-up training exited with {code}")
            self.actor = BidMultiplierNet.load(out / "actor.ckpt")
            self.world = World(load_world_config(out / "world.ini"))
            self.times.append(time.perf_counter() - t0)
            self.shas.append(sha256_file(out / "actor.ckpt"))
            shutil.rmtree(out)
        self.actor_sha = self.shas[-1]


# ---------------------------------------------------------------------------
# Workloads


def market_op(setup, seed, sizes, record):
    world = setup.world
    mechanisms = (("gsp", GspMechanism(sigma=1.0)),
                  ("deepgsp", DeepGspMechanism(setup.actor)))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x3A4)))
    episode_s = record.setdefault("episode_s", {"gsp": [], "deepgsp": []})

    def timed(i):
        out = []
        for name, mech in mechanisms:
            t0 = time.perf_counter()
            rounds = world.sample_rounds(sizes.market_rounds, rng)
            played = world.play(rounds, mech, rng)
            episode_s[name].append(time.perf_counter() - t0)
            out.append((name, rounds, played))
        return out

    def check(out):
        failures = []
        for name, rounds, played in out:
            winners = played["order"][:, :world.slots]
            bids = np.take_along_axis(rounds.bids, winners, axis=1)
            prices = played["prices"]
            if not np.all(np.isfinite(prices)):
                failures.append(f"{name}: non-finite price")
            over = int(np.sum(prices > bids + PRICE_SLACK))
            if over:
                failures.append(f"{name}: {over} winners pay above their bid")
        return failures

    return Op(timed, check)


def train_op(setup, work):
    def timed(i):
        out = work / f"train{i}"
        return out, train_cli(setup.spec, setup.seed, out)

    def check(result):
        out, code = result
        try:
            if code != 0:
                return [f"gsplab train exited with {code}"]
            ckpt = out / "actor.ckpt"
            BidMultiplierNet.load(ckpt)
            sha = sha256_file(ckpt)
            failures = []
            if sha != setup.actor_sha:
                failures.append(f"actor sha256 {sha} differs from the "
                                f"same-seed set-up training {setup.actor_sha}")
            manifest = (out / "manifest.txt").read_text().splitlines()
            if f"{sha}  actor.ckpt" not in manifest:
                failures.append("manifest does not hash actor.ckpt")
            return failures
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return Op(timed, check)


def audit_op(setup, sizes, record):
    world, actor = setup.world, setup.actor
    mech = DeepGspMechanism(actor)
    config = audit.AuditConfig(alpha=0.01, n_states=sizes.audit_states,
                         per_rounds=sizes.per_rounds,
                         isic_rounds=sizes.isic_rounds, seed=setup.seed)

    def timed(i):
        # the same audit as `gsplab audit`, plus the i-SIC calibration
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0xA0D)))
        rounds = world.sample_rounds(config.n_states, rng)
        n = world.n_advertisers
        states = [(rounds.bids[j, j % n], rounds.feats[j, j % n])
                  for j in range(config.n_states)]
        mono = audit.monotonicity_metric(actor, states, config)
        per = audit.payment_error_rate(world, mech, config)
        one_slot = audit.single_slot_world(world)
        isic = audit.i_sic(mech, one_slot, config)
        calibration = audit.i_sic(GspMechanism(1.0), one_slot, config)
        return {"t_m": mono.t_m, "per": per.mean, "isic": isic.value,
                "calibration": calibration.value}

    def check(gates):
        record["gates"] = gates
        failures = []
        if not gates["t_m"] >= GATES["t_m"]:
            failures.append(f"T_m {gates['t_m']:.4f} < {GATES['t_m']}")
        if not GATES["per_lo"] <= gates["per"] <= GATES["per_hi"]:
            failures.append(f"mean PER {gates['per']:.4f} outside "
                            f"[{GATES['per_lo']}, {GATES['per_hi']}]")
        if not gates["isic"] >= GATES["isic"]:
            failures.append(f"i-SIC {gates['isic']:.4f} < {GATES['isic']}")
        if not abs(gates["calibration"] - 1.0) <= GATES["calibration_tol"]:
            failures.append(f"GSP i-SIC calibration {gates['calibration']:.4f}"
                            f" not within {GATES['calibration_tol']} of 1")
        return failures

    return Op(timed, check)


WORKLOADS = ("market", "train", "audit")


def make_op(workload, setup, seed, sizes, record, work):
    if workload == "market":
        return market_op(setup, seed, sizes, record)
    if workload == "train":
        return train_op(setup, work)
    if workload == "audit":
        return audit_op(setup, sizes, record)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# The closed loop


@dataclass
class OpResult:
    seconds: float
    cpu_seconds: float
    traced: bool
    failures: list
    ref_seconds: list


# The host reference: fixed numpy work that uses no gsplab code, timed
# after every operation.  Other tenants of a shared host slow the core and
# its memory for minutes at a time; dividing by this kernel's time in the
# same run cancels most of that, and a change to gsplab cannot move it.
_REF_RNG = np.random.default_rng(0)
_REF_LAYERS = [(0.3 * _REF_RNG.standard_normal((10, 64)), np.zeros(64)),
               (0.2 * _REF_RNG.standard_normal((64, 32)), np.zeros(32)),
               (0.2 * _REF_RNG.standard_normal((32, 1)), np.zeros(1))]
_REF_ROW = _REF_RNG.standard_normal((1, 10))
_REF_BATCH = _REF_RNG.standard_normal((5_000, 10))


def _ref_forward(x):
    cache = []  # derivative arrays, as Mlp.forward keeps them
    for w, b in _REF_LAYERS:
        x = np.tanh(x @ w + b)
        cache.append((x, 1.0 - x * x))
    return x


def reference_seconds():
    """Wall time of one pass of the host reference.

    One-row MLP forwards (per-call overhead, as in PER's bisection),
    batch forwards (as in Deep GSP episodes and i-SIC), and fresh
    12,500 x 32 arrays (allocation and memory bandwidth).  Every array is
    at most a few MB, so the reference never sets the peak RSS.
    """
    t0 = time.perf_counter()
    for _ in range(200):
        _ref_forward(_REF_ROW)
    for _ in range(8):
        _ref_forward(_REF_BATCH)
    w = _REF_LAYERS[1][0][:32]
    gen = np.random.default_rng(1)
    for _ in range(16):
        a = gen.standard_normal((12_500, 32))
        np.maximum(a @ w, 0.0).sum(axis=1)
    return time.perf_counter() - t0


def reference_passes(op_seconds):
    """Reference passes after one operation: at least one, and together at
    least a tenth of the operation's time, so that long operations get as
    many reference samples per second as short ones."""
    times = [reference_seconds()]
    while sum(times) < 0.1 * op_seconds:
        times.append(reference_seconds())
    return times


def run_ops(op, seconds, min_ops, tracer=None):
    """Run ``op`` back to back for ``seconds`` and at least ``min_ops`` times.

    The host reference is timed after every operation.  With a tracer,
    odd-numbered operations run traced.  An exception or
    a failed check marks the operation failed; the loop goes on.  A
    failed operation keeps its time, up to the point where it failed.
    """
    results = []
    start = time.perf_counter()
    while len(results) < min_ops or time.perf_counter() - start < seconds:
        i = len(results)
        traced = tracer is not None and i % 2 == 1
        elapsed = cpu = None
        try:
            with tracer.patched() if traced else contextlib.nullcontext():
                tracer_span = tracer.span("bench.op") if traced \
                    else contextlib.nullcontext()
                if traced:
                    tracer.op = i
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    with tracer_span:
                        out = op.timed(i)
                finally:
                    elapsed = time.perf_counter() - t0
                    cpu = time.process_time() - c0
            failures = op.check(out)
        except Exception as exc:  # noqa: BLE001 - one failed operation
            failures = [f"{type(exc).__name__}: {exc}"]
        results.append(OpResult(elapsed, cpu, traced, failures,
                                reference_passes(elapsed or 0.0)))
    return results


# ---------------------------------------------------------------------------
# Reporting


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_sha256():
    h = hashlib.sha256()
    src = ROOT / "src"
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def environment(seed):
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "src_sha256": _source_sha256(),
        "workload_seed": seed,
    }


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _fastest(xs):
    """The fastest of repeated operations.

    Every operation of a run does the same work, and on a shared host
    other tenants only ever add time to it (CPU time rises with wall
    time), so the fastest is the steadiest estimate of the program's own
    cost; the median follows the host's slow phases.
    """
    return min(xs) if xs else float("nan")


def run(workload, seed, seconds, trace, import_s, sizes=Sizes()):
    """Run one workload; returns (result, record) as printed by run.py."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        setup = Setup(seed, sizes, work)
        record = {"environment": environment(seed), "workload": workload,
                  "trace": trace, "program_seed": setup.seed,
                  "actor_sha256": setup.actor_sha,
                  "setup_reps_s": setup.times}
        op = make_op(workload, setup, seed, sizes, record, work)
        tracer = Tracer() if trace else None
        results = run_ops(op, seconds, sizes.min_ops, tracer)
        rss = peak_rss_mb()
        heldout_f, ratio = heldout_ratio(
            setup.world, setup.actor, derived_seed(seed, 0x4E1D),
            sizes.heldout_rounds, [float(w) for w in
                                   DEFAULT_SPEC["train"]["weights"].split(",")])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run_failures = []
    if len(set(setup.shas)) != 1:
        run_failures.append("set-up trainings of one seed gave different "
                            "actors")
    if not (math.isfinite(heldout_f) and math.isfinite(ratio)):
        run_failures.append(f"held-out objective not finite: {heldout_f}")
    failed = sum(1 for r in results if r.failures or run_failures)
    untraced = [r.seconds for r in results if not r.traced]
    record.update({
        "op_s": [r.seconds for r in results],
        "op_s_p50": _median(untraced),
        "op_s_min": _fastest(untraced),
        "ref_s": [t for r in results for t in r.ref_seconds],
        "op_cpu_s": [r.cpu_seconds for r in results],
        "op_traced": [r.traced for r in results],
        "failures": [f for r in results for f in r.failures] + run_failures,
        "heldout_F": heldout_f,
    })

    if trace:
        traced = [r.seconds for r in results if r.traced]
        values = layer_metrics(
            tracer.spans,
            [m["name"] for m in bench_spec["per_layer"]
             if not m["name"].startswith("bench.")],
            max(len(traced), 1))
        values["bench.op.s_min"] = _fastest(untraced)
        values["bench.op.traced_s_min"] = _fastest(traced)
        values["bench.trace.overhead_frac"] = (
            _fastest(traced) / _fastest(untraced) - 1.0)
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
        specs = bench_spec["per_layer"]
    else:
        values = {
            "setup_s": import_s + _median(setup.times),
            "peak_rss_mb": rss,
            "op_ref_ratio": (_fastest(untraced)
                             / _fastest(record["ref_s"])),
            "heldout_F_ratio": ratio,
        }
        specs = bench_spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs}
    result = {"correct": failed == 0, "attempted": len(results),
              "failed": failed, "metrics": metrics}
    return result, record
