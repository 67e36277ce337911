"""Single-step actor-critic training of the rank-score policy.

The problem is a one-shot decision per auction: the critic regresses the
observed shaped reward directly (no bootstrapping, no target network),
and the actor ascends the critic through the action.  Two penalties, the
same in every training, regularize it: a hinge keeping the rank score
monotone in the bid, and a bid-sensitivity term (weight KAPPA_PRICE)
keeping the division-based payment near the exact critical bid.

The loop's tuning values are module constants, not configuration: the
exploration schedule (NOISE_STD decayed by NOISE_DECAY per iteration down
to NOISE_FLOOR), BATCH_ROUNDS auctions per rollout, the Adam rates
ACTOR_LR and CRITIC_LR, CRITIC_STEPS critic steps per actor step, the
VAL_FRAC share of the critic's pretraining rows held out for validation,
and SPOT_STATES states for the in-loop T_m.

Rewards mix a global round objective F (scalarized normalized metrics,
shared by every candidate in the round) with a per-advertiser smooth
transition penalty that fires when an advertiser's period utility drops
below (1 - eps) of its benchmark-mechanism utility.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from gsplab.auction import (
    FEATURE_DIM,
    DeepGspMechanism,
    GspMechanism,
    UgspMechanism,
    allocate_batch,
    price_batch,
)
from gsplab.audit import monotonicity_metric
from gsplab.nets import Adam, BidMultiplierNet, CriticNet
from gsplab.simulator import check_bounds, raw_metrics, scalarize

# weight of the bid-sensitivity penalty in actor_penalties, for the actor
# update and the warm start alike
KAPPA_PRICE = 0.5

# the actor-critic loop's tuning values (see the module docstring)
NOISE_STD = 0.25
NOISE_DECAY = 0.985
NOISE_FLOOR = 0.02
BATCH_ROUNDS = 100
ACTOR_LR = 2e-3
CRITIC_LR = 5e-3
CRITIC_STEPS = 5
SPOT_STATES = 50
VAL_FRAC = 0.1


@dataclass
class TrainConfig:
    weights: tuple = (1.0, 0.0, 0.0, 0.0, 0.0)
    eps: float = 1.0          # smooth-transition tolerance
    eta: float = 10.0         # smooth-transition penalty coefficient
    gamma_mono: float = 2.0   # monotonicity penalty coefficient
    hidden: tuple = (64, 32)
    pretrain_rounds: int = 400
    pretrain_epochs: int = 300
    train_iters: int = 150
    benchmark_rounds: int = 2000
    eval_rounds: int = 2000
    eval_every: int = 10
    seed: int = 0

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if (len(w) != 5 or not all(x >= 0 for x in w)
                or abs(sum(w) - 1.0) > 1e-9):
            raise ValueError("weights must be five values on the simplex")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        check_bounds(self, 0.0, "eta", strict=True)
        check_bounds(self, 0.0, "gamma_mono", "pretrain_epochs",
                     "train_iters", "seed")
        check_bounds(self, 1, "pretrain_rounds", "benchmark_rounds",
                     "eval_rounds", "eval_every")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden layer widths must be at least 1")
        object.__setattr__(self, "weights", w)


@dataclass
class Experience:
    """Flat arrays: one row per (round, candidate), winners and losers."""

    states: np.ndarray    # (M, 1 + feature_dim): raw bid then features
    actions: np.ndarray   # (M,) realized rank scores
    rewards: np.ndarray   # (M,)


@dataclass
class TrainResult:
    actor: BidMultiplierNet
    critic: CriticNet
    report: list               # per-evaluation dict rows
    final_objective: float


def transition_penalty(config, ubar, u):
    """Smooth-transition penalty eta * max(0, (1 - eps) * ubar - u).

    ``u`` is each advertiser's utility per round and ``ubar`` its
    benchmark-mechanism average; the shaped reward is F minus this.
    """
    return config.eta * np.maximum(0.0, (1.0 - config.eps) * ubar - u)


def collect_batch(world, actor, n_rounds, noise_std, rng, config, ubar):
    """Exploratory on-policy rollout of n_rounds auctions.

    Multipliers are perturbed multiplicatively in log space (keeps them
    positive); every candidate of every round yields one experience with
    the round's shared objective minus its advertiser's ST penalty.
    """
    rounds = world.sample_rounds(n_rounds, rng)
    n = world.n_advertisers
    flat_bids = rounds.bids.reshape(-1)
    flat_feats = rounds.feats.reshape(-1, rounds.feats.shape[-1])
    pi = actor.multiplier_batch(flat_bids, flat_feats)
    pi = pi * np.exp(noise_std * rng.standard_normal(pi.shape))
    pi = pi.reshape(rounds.bids.shape)
    scores = rounds.bids * pi
    order = allocate_batch(scores, rounds.bids)
    prices = price_batch(order, scores, pi, np.zeros_like(pi), world.slots)
    played = world.settle(rounds, order, prices, rng)
    F = scalarize(world.normalized(raw_metrics(played, per_round=True)),
                  config.weights)
    # per-period utility, averaged per round, compared against the
    # benchmark average; only advertisers that won at least once in the
    # period are exposed to the penalty
    penalty = transition_penalty(config, ubar,
                                 played["utility"] / n_rounds)
    penalty = np.where(played["wins"] > 0, penalty, 0.0)
    rewards = np.repeat(F, n) - np.tile(penalty, n_rounds)
    states = np.column_stack([flat_bids, flat_feats])
    return Experience(states=states, actions=scores.reshape(-1),
                      rewards=rewards)


def pretrain_critic(experience, critic, max_epochs, rng, lr=CRITIC_LR,
                    patience=20):
    """Fit the critic to observed rewards by plain regression.

    Holds out a VAL_FRAC share of the rows, drawn with rng, for
    validation, and stops at max_epochs or when validation MSE stops
    improving.  Returns the final validation loss.
    """
    m = experience.states.shape[0]
    if m == 0:
        raise ValueError("empty pretraining log")
    perm = rng.permutation(m)
    n_val = max(1, int(VAL_FRAC * m))
    val, tr = perm[:n_val], perm[n_val:]
    # each split is standardized once; the validation rows then take one
    # value-only pass (Mlp.predict) per epoch
    U_tr, U_val = (critic.inputs(experience.states[rows],
                                 experience.actions[rows])
                   for rows in (tr, val))
    rewards_tr, rewards_val = experience.rewards[tr], experience.rewards[val]
    opt = Adam(lr)
    best_val, best_flat, stale = np.inf, None, 0
    for _epoch in range(max_epochs):
        critic_update(U_tr, rewards_tr, critic, opt)
        val_pred = critic.net.predict(U_val)[:, 0]
        val_loss = float(np.mean((val_pred - rewards_val) ** 2))
        if val_loss < best_val - 1e-12:
            best_val, best_flat, stale = val_loss, critic.net.flat.copy(), 0
        else:
            stale += 1
            if stale >= patience:
                break
    if best_flat is not None:
        critic.net.set_flat(best_flat)
    return best_val


def critic_update(U, rewards, critic, optimizer):
    """One gradient step on MSE against the single-step target y = re,
    over a batch's standardized rows U (``critic.inputs``)."""
    loss, grad = critic.mse_and_grads(U, rewards)
    optimizer.step(critic.net.flat, grad)
    return loss


def actor_penalties(bids, pi, dpi_db, gamma_mono, kappa_price):
    """The actor's regularizers and their derivatives in pi and dpi/db.

    gamma * mean(max(0, -(pi + b * dpi/db))) is a hinge on the bid slope
    of the rank score r = b * pi, which keeps r monotone in the bid;
    kappa * mean((b * dpi/db / pi)^2) discourages bid-sensitive
    multipliers, for which the division-based payment diverges from the
    exact critical bid.  Returns (loss, dY, dYdot): the derivatives per
    row, to which a caller adds its own term's before backward_jvp.
    """
    m = bids.size
    if m == 0:
        raise ValueError("empty batch")
    hinge = np.maximum(0.0, -(pi + bids * dpi_db))
    sens = bids * dpi_db / pi
    loss = gamma_mono * np.mean(hinge) + kappa_price * np.mean(sens**2)
    active = np.where(hinge > 0, gamma_mono / m, 0.0)
    dY = -active - (2.0 * kappa_price / m) * sens**2 / pi
    dYdot = -active * bids + (2.0 * kappa_price / m) * sens * bids / pi
    return float(loss), dY, dYdot


def actor_update(experience, actor, critic, gamma_mono, optimizer):
    """One step on mean(-Q(s, b * pi(s))) plus the actor_penalties.

    The gradient flows through the action into the (frozen) critic.
    """
    bids = experience.states[:, 0]
    feats = experience.states[:, 1:]
    pi, dpi_db, (cache, jcache) = actor.forward_with_grad(
        *actor.grad_inputs(bids, feats))
    q, dq_da = critic.q_and_grad_action(experience.states, bids * pi)
    loss, dY, dYdot = actor_penalties(bids, pi, dpi_db, gamma_mono,
                                      KAPPA_PRICE)
    dY -= dq_da * bids / bids.size
    grad = actor.net.backward_jvp(cache, jcache, dY[:, None], dYdot[:, None])
    optimizer.step(actor.net.flat, grad)
    return loss - float(np.mean(q))


def spot_monotonicity(actor, states):
    """The audit's T_m on a few states; 1.0 when every state is degenerate."""
    t_m = monotonicity_metric(actor, states).t_m
    return 1.0 if np.isnan(t_m) else t_m


def _baseline_candidates(world):
    """GSP sigma grid plus uGSP grids scaled to the world's bid level."""
    cands = [GspMechanism(sigma=s) for s in np.arange(0.5, 2.01, 0.25)]
    for c in (0.2, 0.5, 1.0, 2.0, 5.0):
        cands.append(UgspMechanism((1.0, c * world.bid_scale, 0.0)))
        cands.append(UgspMechanism((1.0, 0.0, c * world.bid_scale)))
    return cands


def penalized_objective(world, mechanism, config, eval_seed, ubar):
    """(metrics, F, F minus the mean ST penalty) on an eval episode."""
    metrics, utility = world.evaluate(mechanism, config.eval_rounds, eval_seed)
    f = scalarize(metrics, config.weights)
    penalty = transition_penalty(config, ubar, utility / config.eval_rounds)
    return metrics, f, f - float(np.mean(penalty))


def warm_start_actor(actor, world, config, rng, eval_seed, ubar):
    """Imitate the best static baseline before policy optimization.

    Picks the GSP/uGSP variant with the highest scalarized objective on a
    held-out evaluation episode, then regresses log pi onto the
    baseline's effective multiplier over sampled states.
    """
    best_mech, best_f = None, -np.inf
    for mech in _baseline_candidates(world):
        _, _, f = penalized_objective(world, mech, config, eval_seed, ubar)
        if f > best_f:
            best_mech, best_f = mech, f
    rounds = world.sample_rounds(40, rng)
    bids = rounds.bids.reshape(-1)
    feats = rounds.feats.reshape(-1, rounds.feats.shape[-1])
    scores = best_mech.score_batch(bids, feats)[0]
    target = np.maximum(scores / np.maximum(bids, 1e-9), 1e-6)
    log_target = np.log(target)
    U, V = actor.grad_inputs(bids, feats)
    opt = Adam(1e-2)
    for _step in range(1500):
        pi, dpi_db, (cache, jcache) = actor.forward_with_grad(U, V)
        pi = np.maximum(pi, 1e-12)
        _, dY, dYdot = actor_penalties(bids, pi, dpi_db, 0.0, KAPPA_PRICE)
        dY += (2.0 / bids.size) * (np.log(pi) - log_target) / pi
        grad = actor.net.backward_jvp(cache, jcache, dY[:, None],
                                      dYdot[:, None])
        opt.step(actor.net.flat, grad)
    return best_mech, best_f


def train(world, config):
    """Full training loop; deterministic given (world seed, config)."""
    ss = np.random.SeedSequence((world.config.seed, config.seed, 0x7EA1))
    rng_init, rng_bench, rng_pre, rng_expl, rng_fit = [
        np.random.default_rng(s) for s in ss.spawn(5)]
    eval_seed = int(ss.generate_state(1)[0] % (2**31))

    benchmark = GspMechanism(sigma=1.0)
    ubar = world.benchmark_utilities(benchmark, config.benchmark_rounds,
                                     rng_bench)

    actor = BidMultiplierNet(FEATURE_DIM, hidden=config.hidden, rng=rng_init)
    norm_rounds = world.sample_rounds(200, rng_init)
    actor.fit_normalizer(norm_rounds.bids.reshape(-1),
                         norm_rounds.feats.reshape(-1, FEATURE_DIM))
    warm_start_actor(actor, world, config, rng_fit, eval_seed, ubar)

    critic = CriticNet(FEATURE_DIM, hidden=config.hidden, rng=rng_init)
    pre_batch = collect_batch(world, actor, config.pretrain_rounds, NOISE_STD,
                              rng_pre, config, ubar)
    critic.fit_normalizer(pre_batch.states, pre_batch.actions)
    pretrain_critic(pre_batch, critic, config.pretrain_epochs, rng_pre)

    actor_opt = Adam(ACTOR_LR)
    critic_opt = Adam(CRITIC_LR)
    spot = [(norm_rounds.bids[i, i % world.n_advertisers],
             norm_rounds.feats[i, i % world.n_advertisers])
            for i in range(SPOT_STATES)]

    # the report's mono_loss is the mean hinge on these states
    mono_states = pre_batch.states[:256]
    mono_bids = mono_states[:, 0]
    mono_rows = actor.grad_inputs(mono_bids, mono_states[:, 1:])
    # a copy of the actor runs these rows: a forward over another row
    # count remakes the arrays a net keeps (see nets), and the actor's own
    # passes run on the loop's batches
    probe = BidMultiplierNet(FEATURE_DIM, hidden=config.hidden)
    report = []
    # the selected iterate: its parameters and its row of the report
    best = {"f": -np.inf, "flat": actor.net.flat.copy(), "row": 0}

    def evaluate(iteration, noise_std):
        metrics, f, f_pen = penalized_objective(
            world, DeepGspMechanism(actor), config, eval_seed, ubar)
        tm = spot_monotonicity(actor, spot)
        probe.net.set_flat(actor.net.flat)
        pi, dpi_db, _ = probe.forward_with_grad(*mono_rows)
        mono_loss, _, _ = actor_penalties(mono_bids, pi, dpi_db, 1.0, 0.0)
        mean_pay = (metrics[0] * world.normalizers[0] / 1000.0)
        report.append({"iter": iteration, "objective": f,
                       "penalized_objective": f_pen, "mono_loss": mono_loss,
                       "t_m": tm, "mean_payment": mean_pay,
                       "noise_std": noise_std})
        # model selection is on the constrained objective; a spot T_m gate
        # keeps clearly non-monotone iterates out
        if f_pen > best["f"] and tm >= 0.97:
            best.update(f=f_pen, flat=actor.net.flat.copy(),
                        row=len(report) - 1)

    noise_std = NOISE_STD
    evaluate(0, noise_std)
    for it in range(1, config.train_iters + 1):
        batch = collect_batch(world, actor, BATCH_ROUNDS, noise_std, rng_expl,
                              config, ubar)
        U = critic.inputs(batch.states, batch.actions)
        for _ in range(CRITIC_STEPS):
            critic_update(U, batch.rewards, critic, critic_opt)
        actor_update(batch, actor, critic, config.gamma_mono, actor_opt)
        noise_std = max(NOISE_FLOOR, noise_std * NOISE_DECAY)
        if it % config.eval_every == 0 or it == config.train_iters:
            evaluate(it, noise_std)

    if config.train_iters > 0:
        actor.net.set_flat(best["flat"])
    # the selected iterate's F on the selection episode, as evaluated there
    return TrainResult(actor=actor, critic=critic, report=report,
                       final_objective=report[best["row"]]["objective"])


REPORT_COLUMNS = ("iter", "objective", "penalized_objective", "mono_loss",
                  "t_m", "mean_payment", "noise_std")


def write_report_csv(path, report):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        writer.writerows(report)
