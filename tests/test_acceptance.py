"""End-to-end acceptance gate.

Seven criteria, one printed pass/fail line each (run with ``pytest -s``):
  1. golden three-ad worked example (allocations, prices, totals)
  2. trained-model monotonicity T_m >= 0.96 on six weight configurations
  3. mean payment error ratio in [0.95, 1.05] per configuration
  4. single-slot i-SIC >= 0.95 at alpha = 0.01 with 1e5 paired samples,
     plus a truthful-auction calibration of the estimator
  5. scalarized-objective competitiveness against GSP and uGSP grids,
     with the PER and i-SIC gates of 3 and 4 on every lambda model
  6. smooth-transition trend across the tolerance sweep
  7. gradient checks, payment dominance on 1e6 auctions, determinism

Trainings run sequentially; the full module takes a few minutes.
"""

import hashlib
import time

import numpy as np
import pytest

from gsplab.audit import (
    AuditConfig,
    audit_states,
    i_sic,
    monotonicity_metric,
    payment_error_rate,
    single_slot_world,
    spearman_rho,
)
from gsplab.auction import (
    FEATURE_DIM,
    DeepGspMechanism,
    GspMechanism,
    UgspMechanism,
    allocate_batch,
    price_batch,
)
from gsplab.cli import golden_example
from gsplab.nets import BidMultiplierNet, CriticNet
from gsplab.simulator import World, WorldConfig, scalarize
from gsplab.trainer import TrainConfig, train

WORLD_SEED = 1
TRAIN_SEED = 3

WEIGHT_CONFIGS = (
    (1.0, 0.0, 0.0, 0.0, 0.0),
    (0.5, 0.5, 0.0, 0.0, 0.0),
    (0.5, 0.0, 0.5, 0.0, 0.0),
    (0.5, 0.0, 0.0, 0.5, 0.0),
    (0.5, 0.0, 0.0, 0.0, 0.5),
    (0.6, 0.1, 0.1, 0.1, 0.1),
)

# criteria 2, 3 and 5 audit with AUDIT; criteria 4 and 5 estimate i-SIC
# with ISIC_AUDIT: 12500 rounds x 8 advertisers = 1e5 paired samples
AUDIT = AuditConfig(seed=TRAIN_SEED)
ISIC_AUDIT = AuditConfig(alpha=0.01, isic_rounds=12_500, seed=TRAIN_SEED)

_MODEL_CACHE = {}


@pytest.fixture(scope="module")
def world():
    return World(WorldConfig(seed=WORLD_SEED))


def _trained(world, **overrides):
    key = tuple(sorted(overrides.items()))
    if key not in _MODEL_CACHE:
        cfg = TrainConfig(seed=TRAIN_SEED, **overrides)
        _MODEL_CACHE[key] = train(world, cfg)
    return _MODEL_CACHE[key]


def _per(world, actor):
    return payment_error_rate(world, DeepGspMechanism(actor), AUDIT)


def _isic(one_slot, actor):
    return i_sic(DeepGspMechanism(actor), one_slot, ISIC_AUDIT).value


def _report(num, name, ok, detail):
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")


# ---------------------------------------------------------------------------


def test_criterion_1_golden_example():
    t0 = time.perf_counter()
    checks, failures = golden_example()
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    _report(1, "golden worked example", ok,
            f"{len(checks)} checks, {len(failures)} failures, {elapsed:.3f}s")
    assert ok, failures


def test_criterion_2_monotonicity(world):
    states = audit_states(world, AUDIT)
    tms = {}
    for weights in WEIGHT_CONFIGS:
        result = _trained(world, weights=weights)
        tms[weights] = monotonicity_metric(result.actor, states, AUDIT).t_m
    ok = all(tm >= 0.96 for tm in tms.values())
    _report(2, "monotonicity T_m >= 0.96 on six configurations", ok,
            "min T_m = %.4f" % min(tms.values()))
    assert ok, tms


def test_criterion_3_payment_error(world):
    pers = {weights: _per(world, _trained(world, weights=weights).actor)
            for weights in WEIGHT_CONFIGS}
    means = [p.mean for p in pers.values()]
    ok = all(0.95 <= m <= 1.05 for m in means)
    # the per-auction spread is printed only; the gate is on the means
    _report(3, "mean PER in [0.95, 1.05] on six configurations", ok,
            "PER range [%.4f, %.4f], min p05 %.4f, max p95 %.4f"
            % (min(means), max(means), min(p.p05 for p in pers.values()),
               max(p.p95 for p in pers.values())))
    assert ok, pers


def test_criterion_4_incentive_compatibility(world):
    one_slot = single_slot_world(world)
    calibration = i_sic(GspMechanism(1.0), one_slot, ISIC_AUDIT).value
    scores = {weights: _isic(one_slot, _trained(world, weights=weights).actor)
              for weights in WEIGHT_CONFIGS}
    ok = (abs(calibration - 1.0) <= 0.02
          and all(s >= 0.95 for s in scores.values()))
    _report(4, "i-SIC >= 0.95 with calibrated estimator", ok,
            "calibration %.4f, min i-SIC %.4f" % (calibration,
                                                  min(scores.values())))
    assert ok, (calibration, scores)


def test_criterion_5_objective_competitiveness(world):
    eval_seed = 12345
    n_eval = 6000
    lam_grid = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

    baselines = []
    for sigma in np.arange(0.5, 2.01, 0.25):
        m, _ = world.evaluate(GspMechanism(sigma=sigma), n_eval, eval_seed)
        baselines.append(("gsp", m))
    for c in (0.2, 0.5, 1.0, 2.0, 5.0, 10.0):
        m, _ = world.evaluate(UgspMechanism((1.0, c * world.bid_scale, 0.0)),
                              n_eval, eval_seed)
        baselines.append(("ugsp", m))
    best_gsp_rpm = max(v[0] for name, v in baselines if name == "gsp")

    one_slot = single_slot_world(world)
    wins = 0
    pure_rpm = None
    pers, scores = [], []
    for lam in lam_grid:
        weights = (lam, 1.0 - lam, 0.0, 0.0, 0.0)
        result = _trained(world, weights=weights)
        # a model only counts if it passes the gates of criteria 3 and 4
        pers.append(_per(world, result.actor).mean)
        scores.append(_isic(one_slot, result.actor))
        vec, _ = world.evaluate(DeepGspMechanism(result.actor), n_eval,
                                eval_seed)
        f_deep = lam * vec[0] + (1.0 - lam) * vec[1]
        f_base = max(lam * v[0] + (1.0 - lam) * v[1] for _n, v in baselines)
        if f_deep >= 0.99 * f_base:
            wins += 1
        if lam == 1.0:
            pure_rpm = vec[0]

    frac = wins / len(lam_grid)
    audits_ok = (all(0.95 <= p <= 1.05 for p in pers)
                 and all(s >= 0.95 for s in scores))
    ok = frac >= 0.70 and pure_rpm >= 0.99 * best_gsp_rpm and audits_ok
    _report(5, "objective competitiveness on the lambda grid", ok,
            "wins %d/%d, pure-RPM ratio %.4f, lambda models: min i-SIC "
            "%.4f, PER range [%.4f, %.4f]"
            % (wins, len(lam_grid), pure_rpm / best_gsp_rpm, min(scores),
               min(pers), max(pers)))
    assert ok, (wins, pure_rpm, best_gsp_rpm, pers, scores)


def test_criterion_6_smooth_transition(world):
    eval_seed = 54321
    n_eval = 4000
    eps_grid = (0.0, 0.1, 0.2, 0.3, 0.4)
    weights = (1.0, 0.0, 0.0, 0.0, 0.0)

    _, u_bench = world.evaluate(GspMechanism(1.0), n_eval, eval_seed)
    bench_utility = float(u_bench.sum()) / n_eval

    utilities, objectives = [], []
    for eps in eps_grid:
        result = _trained(world, weights=weights, eps=eps)
        m, u = world.evaluate(DeepGspMechanism(result.actor), n_eval,
                              eval_seed)
        utilities.append(float(u.sum()) / n_eval)
        objectives.append(scalarize(m, weights))

    rho_u = spearman_rho(eps_grid, utilities)
    rho_f = spearman_rho(eps_grid, objectives)
    ratio0 = utilities[0] / bench_utility
    ok = rho_u <= -0.8 and rho_f >= 0.8 and ratio0 >= 0.95
    _report(6, "smooth transition trend across the tolerance sweep", ok,
            "rho_utility %.2f, rho_objective %.2f, eps=0 utility %.1f%% "
            "of benchmark" % (rho_u, rho_f, 100.0 * ratio0))
    assert ok, (rho_u, rho_f, ratio0)


# ---------------------------------------------------------------------------
# criterion 7 helpers


def _rel_err(analytic, numeric):
    return (np.linalg.norm(analytic - numeric)
            / max(np.linalg.norm(numeric), 1e-12))


def _check_actor_gradients(rng, n_instances=128, h=1e-5):
    actor = BidMultiplierNet(FEATURE_DIM, hidden=(16, 8), rng=rng)
    bids = rng.uniform(0.2, 3.0, n_instances)
    feats = rng.uniform(0.0, 1.0, (n_instances, FEATURE_DIM))
    actor.fit_normalizer(bids, feats)

    # parameter gradient of sum(pi) over the batch
    _pi, _dpi, (cache, jcache) = actor.forward_with_grad(
        *actor.grad_inputs(bids, feats))
    analytic = actor.net.backward_jvp(cache, jcache,
                                      np.ones((n_instances, 1)),
                                      np.zeros((n_instances, 1)))
    flat0 = actor.net.flat.copy()
    fd = np.empty_like(flat0)
    for i in range(flat0.size):
        up, dn = flat0.copy(), flat0.copy()
        up[i] += h
        dn[i] -= h
        actor.net.set_flat(up)
        lu = float(actor.multiplier_batch(bids, feats).sum())
        actor.net.set_flat(dn)
        ld = float(actor.multiplier_batch(bids, feats).sum())
        fd[i] = (lu - ld) / (2 * h)
    actor.net.set_flat(flat0)
    param_err = _rel_err(analytic, fd)

    # input-bid gradient, checked per instance
    _pi, dpi_db, _ = actor.forward_with_grad(
        *actor.grad_inputs(bids, feats))
    fd_bid = (actor.multiplier_batch(bids + h, feats)
              - actor.multiplier_batch(bids - h, feats)) / (2 * h)
    scale = np.maximum(np.abs(fd_bid), 1e-6)
    bid_err = float(np.max(np.abs(dpi_db - fd_bid) / scale))
    return param_err, bid_err


def _check_critic_gradients(rng, n_instances=128, h=1e-5):
    critic = CriticNet(FEATURE_DIM, hidden=(16, 8), rng=rng)
    states = rng.uniform(0.1, 2.0, (n_instances, 1 + FEATURE_DIM))
    actions = rng.uniform(0.1, 3.0, n_instances)
    targets = rng.normal(0.0, 0.5, n_instances)
    critic.fit_normalizer(states, actions)

    _loss, analytic = critic.mse_and_grads(critic.inputs(states, actions),
                                           targets)
    flat0 = critic.net.flat.copy()

    def mse(flat):
        critic.net.set_flat(flat)
        q = critic.q_batch(states, actions)
        return float(np.mean((q - targets) ** 2))

    fd = np.empty_like(flat0)
    for i in range(flat0.size):
        up, dn = flat0.copy(), flat0.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (mse(up) - mse(dn)) / (2 * h)
    critic.net.set_flat(flat0)
    return _rel_err(analytic, fd)


def _payment_violations(world, mechanism, n_rounds=1_000_000,
                        chunk=50_000, seed=17):
    rng = np.random.default_rng(seed)
    violations = 0
    done = 0
    while done < n_rounds:
        r = min(chunk, n_rounds - done)
        rounds = world.sample_rounds(r, rng)
        scores, pi, off = mechanism.score_batch(rounds.bids, rounds.feats)
        order = allocate_batch(scores, rounds.bids)
        prices = price_batch(order, scores, pi, off, world.slots)
        win_bids = rounds.bids[np.arange(r)[:, None],
                               order[:, :world.slots]]
        violations += int(np.sum(prices > win_bids + 1e-9))
        done += r
    return violations


def test_criterion_7_numerical_soundness(world, tmp_path):
    rng = np.random.default_rng(0xF00D)
    actor_param_err, actor_bid_err = _check_actor_gradients(rng)
    critic_param_err = _check_critic_gradients(rng)
    grads_ok = max(actor_param_err, actor_bid_err, critic_param_err) <= 1e-4

    result = _trained(world, weights=(1.0, 0.0, 0.0, 0.0, 0.0))
    violations = _payment_violations(world, DeepGspMechanism(result.actor))
    dominance_ok = violations == 0

    cfg = TrainConfig(weights=(1.0, 0.0, 0.0, 0.0, 0.0), seed=TRAIN_SEED,
                      train_iters=30, eval_rounds=500, benchmark_rounds=500,
                      eval_every=5)
    digests = []
    for _run in range(2):
        run = train(world, cfg)
        h = hashlib.sha256()
        h.update(run.actor.net.flat.tobytes())
        h.update(repr(run.report).encode())
        digests.append(h.hexdigest())
    determinism_ok = digests[0] == digests[1]

    ok = grads_ok and dominance_ok and determinism_ok
    _report(7, "gradients, payment dominance, determinism", ok,
            "max grad rel err %.2e, %d payment violations in 1e6 auctions, "
            "checksums %s" % (max(actor_param_err, actor_bid_err,
                                  critic_param_err), violations,
                              "identical" if determinism_ok else "DIFFER"))
    assert ok, (actor_param_err, actor_bid_err, critic_param_err,
                violations, digests)
