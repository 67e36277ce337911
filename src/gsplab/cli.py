"""Command-line front end.

Subcommands: golden, train, evaluate, pareto, transition, audit.  Every
command echoes its fully-resolved configuration and seed before running,
and drops its outputs plus a manifest of file hashes under --out.

Exit codes: 0 success, 1 validation error, 2 runtime failure,
3 golden-test mismatch, 4 audited model fails an acceptance gate.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import dataclasses
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from gsplab.audit import (
    AuditConfig,
    audit_states,
    failed_gates,
    i_sic,
    monotonicity_metric,
    payment_error_rate,
    single_slot_world,
)
from gsplab.auction import (
    F_PCTR,
    FEATURE_DIM,
    DeepGspMechanism,
    DegenerateMultiplierError,
    FixedScoreMechanism,
    GspMechanism,
    UgspMechanism,
    allocate_batch,
    price_batch,
)
from gsplab.nets import BidMultiplierNet
from gsplab.simulator import (
    METRICS,
    NORMALIZER_FLOOR,
    World,
    WorldConfig,
    check_bounds,
    config_from_section,
    save_world_config,
    scalarize,
)
from gsplab.trainer import TrainConfig, train, write_report_csv

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_GOLDEN_MISMATCH = 3
EXIT_GATES = 4


class ValidationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config plumbing


@dataclasses.dataclass
class SweepConfig:
    """The optional [sweep] section of the pareto and transition sweeps."""

    lambda_grid: tuple = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    sigma_grid: tuple = (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    ugsp_grid: tuple = (0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
    trade_metric: str = "ctr"
    eps_grid: tuple = (0.0, 0.1, 0.2, 0.3, 0.4)
    compare_rounds: int = 6000

    def __post_init__(self):
        for name in ("lambda_grid", "sigma_grid", "ugsp_grid", "eps_grid"):
            grid = getattr(self, name)
            if not grid or not all(0.0 <= x < math.inf for x in grid):
                raise ValueError(f"{name} must be non-empty, finite and >= 0")
        for name in ("lambda_grid", "eps_grid"):
            grid = list(getattr(self, name))
            if grid != sorted(grid) or grid[-1] > 1.0:
                raise ValueError(f"{name} must be sorted and lie in [0, 1]")
        if self.trade_metric not in METRICS[1:]:
            raise ValueError(f"trade_metric must be one of {METRICS[1:]}")
        check_bounds(self, 1, "compare_rounds")


def _load_spec(path, seed_override=None):
    """(WorldConfig, TrainConfig, SweepConfig) from one experiment file.

    A missing [sweep] section gives the SweepConfig defaults.
    ``seed_override``, when given, replaces both seeds of the file.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        found = parser.read(path)
    except configparser.Error as exc:
        raise ValidationError(f"unreadable config file: {exc}") from exc
    if not found:
        raise ValidationError(f"config file not found: {path}")
    problems = [f"missing [{name}] section" for name in ("world", "train")
                if name not in parser]
    if "train" in parser and "weights" not in parser["train"]:
        problems.append("missing field: [train] weights")
    if problems:
        raise ValidationError("; ".join(problems))
    configs = []
    for name, cls in (("world", WorldConfig), ("train", TrainConfig),
                      ("sweep", SweepConfig)):
        try:
            cfg = config_from_section(cls, parser[name] if name in parser
                                      else {})
            if seed_override is not None and name != "sweep":
                cfg = dataclasses.replace(cfg, seed=seed_override)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad [{name}] section: {exc}") from exc
        configs.append(cfg)
    return tuple(configs)


def _build_world(world_cfg):
    """World(world_cfg), refusing metrics its calibration episode reads as 0.

    Such a metric would be divided by the normalizer floor, so every
    mechanism would score it as exactly 0 or 1.
    """
    world = World(world_cfg)
    zero = [name for name, norm in zip(METRICS, world.normalizers)
            if norm <= NORMALIZER_FLOOR]
    if zero:
        raise ValidationError(
            f"bad [world] section: the calibration episode "
            f"(calibration_rounds = {world_cfg.calibration_rounds}) gave "
            f"{', '.join(zero)} = 0, which cannot be normalized")
    return world


def _echo_config(name, world_cfg, train_cfg, extra):
    print(f"# gsplab {name}: resolved configuration")
    print(f"world = {world_cfg}")
    print(f"train = {train_cfg}")
    for k, v in extra.items():
        print(f"{k} = {v}")


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _model_echo(path):
    """The echoed identity of a --model actor: its path and file sha256."""
    return {"model": path, "model_sha256": _sha256(path)}


def _write_manifest(out_dir):
    out_dir = Path(out_dir)
    lines = []
    for p in sorted(out_dir.rglob("*")):
        if p.is_file() and p.name != "manifest.txt":
            lines.append(f"{_sha256(p)}  {p.relative_to(out_dir)}")
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# golden: worked three-ad example


# The worked example: three ads in one auction for two equal slots.  Per
# mechanism: the expected {ad: (slot, price per click)}, the price
# tolerance, the expected revenue (sum of PPC * pCTR over the winners)
# with its tolerance, and the expected CTR (sum of the winners' pCTR).
_GOLDEN_ADS = ("Ad1", "Ad2", "Ad3")
_GOLDEN_BIDS = (10.0, 2.4, 1.3)
_GOLDEN_PCTR = (0.1, 0.2, 0.3)
_GOLDEN_CASES = (
    ("gsp", GspMechanism(sigma=1.0), {"Ad1": (1, 4.8), "Ad2": (2, 1.95)},
     1e-9, (0.87, 1e-9), 0.3),
    ("deep", FixedScoreMechanism(), {"Ad1": (1, 9.54), "Ad3": (2, 1.25)},
     0.02, (1.329, 0.005), 0.4),
)


def golden_example():
    """Both halves of the worked three-ad example, on the auction engine.

    The ads are the columns of one (1, 3) row run through score_batch,
    allocate_batch and price_batch.  Returns (checks, failures).
    """
    bids = np.array([_GOLDEN_BIDS])
    feats = np.zeros((1, len(_GOLDEN_ADS), FEATURE_DIM))
    feats[0, :, F_PCTR] = _GOLDEN_PCTR
    checks = []
    for label, mech, expected, ppc_tol, revenue, ctr in _GOLDEN_CASES:
        scores, pi, off = mech.score_batch(bids, feats)
        order = allocate_batch(scores, bids)
        prices = price_batch(order, scores, pi, off, 2)[0].tolist()
        won = order[0, :2].tolist()
        names = [_GOLDEN_ADS[i] for i in won]
        checks.append((f"{label} winners", sorted(names), sorted(expected), 0))
        for slot, (name, price) in enumerate(zip(names, prices), 1):
            exp_slot, exp_price = expected[name]
            checks.append((f"{label} {name} slot", slot, exp_slot, 0))
            checks.append((f"{label} {name} ppc", price, exp_price, ppc_tol))
        checks.append((f"{label} revenue",
                       sum(p * _GOLDEN_PCTR[i] for i, p in zip(won, prices)),
                       *revenue))
        checks.append((f"{label} ctr", sum(_GOLDEN_PCTR[i] for i in won),
                       ctr, 1e-9))

    failures = []
    for name, got, want, tol in checks:
        if tol == 0:
            ok = got == want
        else:
            ok = abs(got - want) <= tol
        if not ok:
            failures.append((name, got, want))
    return checks, failures


def cmd_golden(args):
    checks, failures = golden_example()
    for name, got, want, tol in checks:
        status = "FAIL" if any(f[0] == name for f in failures) else "ok"
        print(f"{status:4s} {name}: computed {got} expected {want} (tol {tol})")
    if failures:
        return EXIT_GOLDEN_MISMATCH
    print("golden worked-example check passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train / evaluate


def cmd_train(args):
    world_cfg, train_cfg, _ = _load_spec(args.config, args.seed)
    out = _out_dir(args)
    _echo_config("train", world_cfg, train_cfg, {"seed": train_cfg.seed})
    world = _build_world(world_cfg)
    result = train(world, train_cfg)
    result.actor.save(out / "actor.ckpt")
    result.critic.save(out / "critic.ckpt")
    write_report_csv(out / "report.csv", result.report)
    save_world_config(world_cfg, out / "world.ini")
    print(f"final objective F = {result.final_objective:.6f}")
    _write_manifest(out)
    return EXIT_OK


def _load_actor(path):
    """The --model actor; a file that is not one is a validation error."""
    try:
        actor = BidMultiplierNet.load(path)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"bad --model: {exc}") from exc
    if actor.feature_dim != FEATURE_DIM:
        raise ValidationError(f"bad --model: {path}: {actor.feature_dim} "
                              f"features, the market has {FEATURE_DIM}")
    return actor


def _mechanism_from_args(args):
    """The evaluated mechanism; an unused --sigma/--lambdas is checked too."""
    try:
        gsp = GspMechanism(sigma=args.sigma)
    except ValueError as exc:
        raise ValidationError(f"bad --sigma: {exc}") from exc
    try:
        ugsp = UgspMechanism(tuple(float(x) for x in args.lambdas.split(",")))
    except ValueError as exc:
        raise ValidationError(f"bad --lambdas: {exc}") from exc
    if args.model:
        return DeepGspMechanism(_load_actor(args.model))
    return gsp if args.mechanism == "gsp" else ugsp


def cmd_evaluate(args):
    world_cfg, train_cfg, _ = _load_spec(args.config, args.seed)
    mech = _mechanism_from_args(args)
    shown = _model_echo(args.model) if args.model else {"mechanism": mech}
    _echo_config("evaluate", world_cfg, train_cfg,
                 {**shown, "seed": train_cfg.seed})
    world = _build_world(world_cfg)
    try:
        metrics, utility = world.evaluate(mech, train_cfg.eval_rounds,
                                          train_cfg.seed)
    except DegenerateMultiplierError as exc:
        # the flag that chose the mechanism gives it no price
        flag = (f"--model: {args.model}" if args.model
                else "--sigma" if args.mechanism == "gsp" else "--lambdas")
        raise ValidationError(f"bad {flag}: {exc}") from exc
    # made only now, so an episode that cannot be priced leaves no --out
    out = _out_dir(args)
    f = scalarize(metrics, train_cfg.weights)
    print("metrics (normalized): " + " ".join(
        f"{name}={m:.4f}" for name, m in zip(METRICS, metrics)))
    print(f"objective F = {f:.6f}; total advertiser utility = {utility.sum():.4f}")
    with open(out / "metrics.csv", "w") as fh:
        fh.write(",".join(METRICS) + ",objective\n")
        fh.write(",".join(str(m) for m in (*metrics, f)) + "\n")
    _write_manifest(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# pareto / transition sweeps


def _sweep_point(task):
    """Worker: train one sweep configuration and evaluate the trained actor.

    The actor and its report are written under ``models_dir`` as outputs;
    every run trains afresh.  Returns world.evaluate's (metrics, utility).
    """
    world_cfg, train_cfg, name, models_dir, eval_seed, n_eval = task
    world = World(world_cfg)
    result = train(world, train_cfg)
    result.actor.save(Path(models_dir) / f"actor_{name}.ckpt")
    write_report_csv(Path(models_dir) / f"report_{name}.csv", result.report)
    return world.evaluate(DeepGspMechanism(result.actor), n_eval, eval_seed)


def _run_sweep(args, out, world_cfg, named_cfgs, eval_seed, n_eval):
    """_sweep_point for each (name, TrainConfig); models go to out/models."""
    models = out / "models"
    models.mkdir(exist_ok=True)
    tasks = [(world_cfg, cfg, name, str(models), eval_seed, n_eval)
             for name, cfg in named_cfgs]
    # a fork-context pool starts all its processes at once, so ask for no
    # more than there are points
    workers = min(args.workers, len(tasks))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            return list(pool.map(_sweep_point, tasks))
    return [_sweep_point(t) for t in tasks]


def cmd_pareto(args):
    world_cfg, base_train, sweep = _load_spec(args.config, args.seed)
    out = _out_dir(args)
    metric_name = sweep.trade_metric
    mi = METRICS.index(metric_name)
    n_eval = sweep.compare_rounds
    _echo_config("pareto", world_cfg, base_train,
                 {"sweep": sweep, "seed": base_train.seed})
    world = _build_world(world_cfg)
    eval_seed = base_train.seed + 0x5EED

    named_cfgs = []
    for lam in sweep.lambda_grid:
        weights = [0.0] * 5
        weights[0] = lam
        weights[mi] = 1.0 - lam
        named_cfgs.append((f"lambda_{lam}", dataclasses.replace(
            base_train, weights=tuple(weights))))
    results = _run_sweep(args, out, world_cfg, named_cfgs, eval_seed, n_eval)

    rows = []
    for lam, (vec, _) in zip(sweep.lambda_grid, results):
        rows.append(("deepgsp", f"lambda={lam}", lam, vec[mi], vec[0]))
    baselines = {}
    for sig in sweep.sigma_grid:
        m, _ = world.evaluate(GspMechanism(sigma=sig), n_eval, eval_seed)
        baselines.setdefault("gsp", []).append((f"sigma={sig}", m))
    for c in sweep.ugsp_grid:
        lambdas = (1.0, c * world.bid_scale, 0.0) \
            if metric_name in ("ctr", "acr") else (1.0, 0.0, c * world.bid_scale)
        m, _ = world.evaluate(UgspMechanism(lambdas), n_eval, eval_seed)
        baselines.setdefault("ugsp", []).append((f"c={c}", m))
    for name, pts in baselines.items():
        for label, vec in pts:
            rows.append((name, label, "", vec[mi], vec[0]))

    # a lambda point counts as weakly dominating when its scalarized
    # objective reaches every baseline's within 1% slack
    dominated = 0
    for (_name, cfg), (vec, _) in zip(named_cfgs, results):
        f_deep = scalarize(vec, cfg.weights)
        f_base = max(scalarize(v, cfg.weights)
                     for pts in baselines.values() for _lbl, v in pts)
        if f_deep >= 0.99 * f_base:
            dominated += 1
    frac = dominated / len(results)

    with open(out / "pareto.csv", "w") as fh:
        fh.write(f"mechanism,param,lambda,{metric_name},rpm\n")
        for r in rows:
            fh.write(",".join(str(x) for x in r) + "\n")
    print(f"deep gsp weakly dominates both baselines on "
          f"{dominated}/{len(results)} lambda points ({frac:.0%})")
    _write_manifest(out)
    return EXIT_OK


def cmd_transition(args):
    world_cfg, base_train, sweep = _load_spec(args.config, args.seed)
    out = _out_dir(args)
    n_eval = sweep.compare_rounds
    _echo_config("transition", world_cfg, base_train,
                 {"sweep": sweep, "seed": base_train.seed})
    world = _build_world(world_cfg)
    eval_seed = base_train.seed + 0x5EED
    m0 = GspMechanism(sigma=1.0)
    m0_metrics, m0_utility = world.evaluate(m0, n_eval, eval_seed)
    m0_f = scalarize(m0_metrics, base_train.weights)
    m0_u = float(m0_utility.sum()) / n_eval

    named_cfgs = [(f"eps_{eps}", dataclasses.replace(base_train, eps=eps))
                  for eps in sweep.eps_grid]
    results = _run_sweep(args, out, world_cfg, named_cfgs, eval_seed, n_eval)

    with open(out / "transition.csv", "w") as fh:
        fh.write("eps,adv_utility_pct,platform_objective_pct\n")
        for eps, (metrics, utility) in zip(sweep.eps_grid, results):
            f = scalarize(metrics, base_train.weights)
            u = float(utility.sum()) / n_eval
            adv_pct = 100.0 * u / m0_u if m0_u > 0 else float("nan")
            plat_pct = 100.0 * f / m0_f if m0_f > 0 else float("nan")
            fh.write(f"{eps},{adv_pct},{plat_pct}\n")
            print(f"eps={eps}: advertiser utility {adv_pct:.2f}% of benchmark, "
                  f"platform objective {plat_pct:.2f}% of benchmark")
    _write_manifest(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit


def cmd_audit(args):
    world_cfg, train_cfg, _ = _load_spec(args.config, args.seed)
    actor = _load_actor(args.model)
    out = _out_dir(args)
    _echo_config("audit", world_cfg, train_cfg,
                 {**_model_echo(args.model), "seed": train_cfg.seed})
    world = _build_world(world_cfg)
    cfg = AuditConfig(seed=train_cfg.seed)
    mech = DeepGspMechanism(actor)
    mono = monotonicity_metric(actor, audit_states(world, cfg), cfg)
    per = payment_error_rate(world, mech, cfg)
    try:
        isic = i_sic(mech, single_slot_world(world), cfg).value
    except DegenerateMultiplierError:
        isic = math.nan                     # fails its gate
    failed = failed_gates(mono.t_m, per.mean, isic)
    gates = " ".join(failed) if failed else "pass"
    weights = ",".join(str(w) for w in train_cfg.weights)
    print("metrics_configuration  T_m      PER      IC")
    print(f"({weights})  {mono.t_m:.4f}  {per.mean:.4f}  {isic:.4f}")
    print(f"gates  {gates}")
    with open(out / "audit.csv", "w") as fh:
        fh.write("weights,t_m,per_mean,per_p05,per_p95,isic,gates\n")
        fh.write(f"\"{weights}\",{mono.t_m},{per.mean},{per.p05},{per.p95},"
                 f"{isic},{gates}\n")
    _write_manifest(out)
    return EXIT_GATES if failed else EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(prog="gsplab",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workers=False):
        p.add_argument("--config", required=True, help="experiment file")
        p.add_argument("--seed", type=int, default=None,
                       help="replaces both seeds of the config file "
                            "(default: keep them)")
        p.add_argument("--out", default="out", help="output directory")
        if workers:
            p.add_argument("--workers", type=int, default=1,
                           help="processes that train the sweep points")

    p = sub.add_parser("golden", help="run the golden worked-example check")
    p.set_defaults(func=cmd_golden)

    p = sub.add_parser("train", help="train a rank-score model")
    # train reads no --workers; it accepts the flag because the benchmark's
    # train_cli (perfbench/bench.py) passes --workers 1
    common(p, workers=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a mechanism on a world")
    common(p)
    p.add_argument("--model", default=None, help="actor checkpoint")
    p.add_argument("--mechanism", default="gsp", choices=["gsp", "ugsp"])
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--lambdas", default="1,0,0")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pareto", help="lambda-sweep Pareto curves")
    common(p, workers=True)
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("transition", help="epsilon-sweep smooth transition")
    common(p, workers=True)
    p.set_defaults(func=cmd_transition)

    p = sub.add_parser("audit", help="monotonicity / PER / i-SIC report")
    common(p)
    p.add_argument("--model", required=True, help="actor checkpoint")
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # sweeps alone run workers, but train refuses a bad count too
        if getattr(args, "workers", 1) < 1:
            raise ValidationError(f"bad --workers: {args.workers} is below 1")
        code = args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_RUNTIME
    return code


if __name__ == "__main__":
    sys.exit(main())
