import numpy as np
import pytest

from gsplab import trainer
from gsplab.auction import (
    F_PCTR,
    F_PCVR,
    FEATURE_DIM,
    DeepGspMechanism,
    GspMechanism,
    UgspMechanism,
)
from gsplab.nets import Adam, BidMultiplierNet, CriticNet
from gsplab.simulator import World, WorldConfig, scalarize
from gsplab.trainer import (
    KAPPA_PRICE,
    Experience,
    TrainConfig,
    actor_update,
    collect_batch,
    critic_update,
    pretrain_critic,
    spot_monotonicity,
    train,
    transition_penalty,
    warm_start_actor,
)

from conftest import KeepGrad, fd_param_grad, grad_err

TINY = dict(pretrain_rounds=20, pretrain_epochs=20, train_iters=3,
            benchmark_rounds=50, eval_rounds=50, eval_every=1, hidden=(8, 4))


@pytest.fixture(scope="module")
def train_world():
    return World(WorldConfig(n_advertisers=4, slots=2,
                             slot_ctr_factors=(1.0, 0.6),
                             calibration_rounds=100, seed=5))


# ---------------------------------------------------------------------------
# Reward shaping


def _shaped(F, u, ubar, eps, eta):
    """Shaped reward re = F - ST penalty, as collect_batch forms it."""
    return F - transition_penalty(TrainConfig(eps=eps, eta=eta), ubar, u)


def test_shaped_reward_disabled_constraint():
    assert _shaped(0.7, 0.0, 5.0, eps=1.0, eta=10.0) == pytest.approx(0.7)


def test_shaped_reward_satisfied_constraint():
    assert _shaped(0.7, 0.9, 1.0, eps=0.2, eta=10.0) == pytest.approx(0.7)


def test_shaped_reward_hinge_arithmetic():
    # (1 - 0.2) * 1.0 - 0.6 = 0.2 shortfall at eta = 2
    assert _shaped(0.5, 0.6, 1.0, eps=0.2, eta=2.0) == pytest.approx(0.1)
    per_ad = transition_penalty(TrainConfig(eps=0.2, eta=2.0),
                                np.array([1.0, 1.0]), np.array([0.6, 0.9]))
    assert per_ad == pytest.approx([0.4, 0.0])


def test_shaped_reward_requires_positive_eta():
    with pytest.raises(ValueError):
        TrainConfig(eta=0.0)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(weights=(0.5, 0.2, 0, 0, 0))
    with pytest.raises(ValueError):
        TrainConfig(eps=1.5)
    with pytest.raises(ValueError):
        TrainConfig(eta=-1.0)
    for bad in (dict(eval_rounds=0), dict(benchmark_rounds=0),
                dict(pretrain_rounds=0), dict(eval_every=0),
                dict(train_iters=-1), dict(pretrain_epochs=-1),
                dict(eta=float("nan")), dict(hidden=(8, 0)),
                dict(weights=(1.5, -0.5, 0, 0, 0))):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


# ---------------------------------------------------------------------------
# Experience collection


def _fresh_actor(world, seed=0, hidden=(8, 4)):
    actor = BidMultiplierNet(FEATURE_DIM, hidden=hidden,
                             rng=np.random.default_rng(seed))
    rounds = world.sample_rounds(50, np.random.default_rng(seed))
    actor.fit_normalizer(rounds.bids.reshape(-1),
                         rounds.feats.reshape(-1, FEATURE_DIM))
    return actor


def test_collect_batch_cardinality(train_world):
    actor = _fresh_actor(train_world)
    ubar = np.zeros(train_world.n_advertisers)
    batch = collect_batch(train_world, actor, 12, 0.1,
                          np.random.default_rng(0), TrainConfig(), ubar)
    m = 12 * train_world.n_advertisers
    assert batch.states.shape == (m, 1 + FEATURE_DIM)
    assert batch.actions.shape == (m,)
    assert batch.rewards.shape == (m,)


def test_collect_batch_deterministic_without_noise(train_world):
    actor = _fresh_actor(train_world)
    cfg = TrainConfig()
    ubar = np.zeros(train_world.n_advertisers)
    a = collect_batch(train_world, actor, 8, 0.0, np.random.default_rng(3),
                      cfg, ubar)
    b = collect_batch(train_world, actor, 8, 0.0, np.random.default_rng(3),
                      cfg, ubar)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.rewards, b.rewards)


def test_reward_shared_within_round(train_world):
    # with the transition penalty disabled every candidate in a round
    # carries the same objective
    actor = _fresh_actor(train_world)
    cfg = TrainConfig(eps=1.0)
    ubar = np.ones(train_world.n_advertisers)
    batch = collect_batch(train_world, actor, 10, 0.2,
                          np.random.default_rng(4), cfg, ubar)
    # rows are round-major: one row per candidate of each round
    per_round = batch.rewards.reshape(10, train_world.n_advertisers)
    assert np.allclose(per_round, per_round[:, :1])


def test_penalty_only_for_winners(train_world):
    actor = _fresh_actor(train_world)
    cfg = TrainConfig(eps=0.0, eta=100.0)
    ubar = np.full(train_world.n_advertisers, 1e6)  # unreachable benchmark
    batch = collect_batch(train_world, actor, 10, 0.0,
                          np.random.default_rng(4), cfg, ubar)
    per_ad = batch.rewards.reshape(10, train_world.n_advertisers)
    # all advertisers win at least one of 10 rounds here, so every column
    # is penalized; the shared objective alone can never be this negative
    assert per_ad.min() < -1.0


# ---------------------------------------------------------------------------
# Critic fitting


def _synthetic_experience(rng, m=128, reward_fn=None):
    states = rng.uniform(0.1, 2.0, size=(m, 1 + FEATURE_DIM))
    actions = rng.uniform(0.1, 3.0, size=m)
    rewards = (np.full(m, 0.42) if reward_fn is None
               else reward_fn(states, actions))
    return Experience(states=states, actions=actions, rewards=rewards)


def test_pretrain_constant_reward():
    rng = np.random.default_rng(0)
    exp = _synthetic_experience(rng)
    critic = CriticNet(FEATURE_DIM, hidden=(8,), rng=rng)
    critic.fit_normalizer(exp.states, exp.actions)
    val = pretrain_critic(exp, critic, lr=1e-2, max_epochs=2000, patience=300,
                          rng=rng)
    assert val <= 1e-4


def test_pretrain_linear_reward():
    rng = np.random.default_rng(1)
    exp = _synthetic_experience(rng, m=512,
                                reward_fn=lambda s, a: 0.3 * a - 0.1)
    critic = CriticNet(FEATURE_DIM, hidden=(16,), rng=rng)
    critic.fit_normalizer(exp.states, exp.actions)
    val = pretrain_critic(exp, critic, lr=1e-2, max_epochs=4000, patience=400,
                          rng=rng)
    assert val <= 1e-3


def test_pretrain_nan_reward_raises():
    # the optimizer's NaN guard aborts the first step
    rng = np.random.default_rng(6)
    exp = _synthetic_experience(rng, m=32)
    exp.rewards[5] = np.nan
    critic = CriticNet(FEATURE_DIM, hidden=(4,), rng=rng)
    critic.fit_normalizer(exp.states, exp.actions)
    flat0 = critic.net.flat.copy()
    with pytest.raises(FloatingPointError):
        pretrain_critic(exp, critic, 300, rng)
    assert np.array_equal(critic.net.flat, flat0)


def test_pretrain_empty_log_rejected():
    critic = CriticNet(FEATURE_DIM, hidden=(4,))
    empty = Experience(states=np.zeros((0, 1 + FEATURE_DIM)),
                       actions=np.zeros(0), rewards=np.zeros(0))
    with pytest.raises(ValueError):
        pretrain_critic(empty, critic, 300, np.random.default_rng(0))


def test_critic_update_descends():
    rng = np.random.default_rng(2)
    exp = _synthetic_experience(rng, reward_fn=lambda s, a: np.sin(a))
    critic = CriticNet(FEATURE_DIM, hidden=(8,), rng=rng)
    critic.fit_normalizer(exp.states, exp.actions)
    opt = Adam(1e-2)
    U = critic.inputs(exp.states, exp.actions)
    losses = [critic_update(U, exp.rewards, critic, opt) for _ in range(100)]
    assert losses[-1] < losses[0]


# ---------------------------------------------------------------------------
# Actor updates


def _actor_critic_pair(rng):
    actor = BidMultiplierNet(FEATURE_DIM, hidden=(6,), rng=rng)
    critic = CriticNet(FEATURE_DIM, hidden=(6,), rng=rng)
    exp = _synthetic_experience(rng, m=32,
                                reward_fn=lambda s, a: 0.5 * a - 0.1 * a**2)
    actor.fit_normalizer(exp.states[:, 0], exp.states[:, 1:])
    critic.fit_normalizer(exp.states, exp.actions)
    pretrain_critic(exp, critic, lr=5e-3, max_epochs=800, patience=100,
                    rng=rng)
    return actor, critic, exp


def test_actor_update_gradient_matches_finite_differences():
    # the gradient actor_update hands to its optimizer against finite
    # differences of the loss it descends, written out here, for an actor
    # of the default base (pi = exp(g)) and one of a uGSP base with a pCVR
    # offset (pi = 0.8 * pctr * exp(g), action b * pi + 1.5 * pcvr); the
    # kappa term always carries KAPPA_PRICE
    rng = np.random.default_rng(3)
    actor, critic, exp = _actor_critic_pair(rng)
    bids = exp.states[:, 0]
    feats = exp.states[:, 1:]
    flat0 = actor.net.flat.copy()
    for base, pi_base, offsets in (
            (actor.base, 1.0, 0.0),
            (UgspMechanism((0.8, 0.0, 1.5)), 0.8 * feats[:, F_PCTR],
             1.5 * feats[:, F_PCVR])):
        actor.base = base

        def loss(flat, gamma):
            actor.net.set_flat(flat)
            g = actor.net.forward(actor.inputs(bids, feats))[0][:, 0]
            pi = pi_base * np.exp(g)
            _, dpi, _ = actor.forward_with_grad(actor.grad_inputs(bids, feats))
            q = critic.net.predict(
                critic.inputs(exp.states, bids * pi + offsets))[:, 0]
            slope = pi + bids * dpi
            sens = bids * dpi / pi
            return float(np.mean(-q)
                         + gamma * np.mean(np.maximum(0.0, -slope))
                         + KAPPA_PRICE * np.mean(sens**2))

        for gamma in (0.0, 1.0, 2.0):
            keep = KeepGrad()
            returned = actor_update(exp, actor, critic, gamma, keep)
            assert returned == pytest.approx(loss(flat0, gamma))
            fd = fd_param_grad(lambda f: loss(f, gamma), flat0)
            actor.net.set_flat(flat0)
            err = grad_err(keep.grad, fd)
            assert err <= 1e-3, (base, gamma, err)


def test_actor_update_descends_on_fixed_batch():
    rng = np.random.default_rng(4)
    actor, critic, exp = _actor_critic_pair(rng)
    opt = Adam(1e-3)
    losses = [actor_update(exp, actor, critic, 0.0, opt) for _ in range(100)]
    assert losses[-1] < losses[0]


def test_mono_hinge_inactive_for_increasing_policy():
    # a constant-multiplier actor keeps r = b*pi increasing, so the
    # penalty contributes nothing no matter how large gamma is
    rng = np.random.default_rng(5)
    actor, critic, exp = _actor_critic_pair(rng)
    actor.net.weights[-1][:] = 0.0
    actor.net.biases[-1][:] = 0.5
    flat0 = actor.net.flat.copy()
    l_plain = actor_update(exp, actor, critic, 0.0, Adam(0.0))
    actor.net.set_flat(flat0)
    l_pen = actor_update(exp, actor, critic, 1e6, Adam(0.0))
    assert l_pen == pytest.approx(l_plain)


def test_spot_monotonicity_constant_actor(train_world):
    actor = _fresh_actor(train_world)
    actor.net.weights[-1][:] = 0.0
    actor.net.biases[-1][:] = 0.3
    rounds = train_world.sample_rounds(5, np.random.default_rng(0))
    states = [(rounds.bids[i, 0], rounds.feats[i, 0]) for i in range(5)]
    assert spot_monotonicity(actor, states) == pytest.approx(1.0)


def test_spot_monotonicity_degenerate_states_fall_back_to_one(train_world):
    class ZeroActor:
        def multiplier_batch(self, bids, feats):
            return np.zeros((2,) + np.asarray(bids).shape)

    rounds = train_world.sample_rounds(3, np.random.default_rng(0))
    states = [(rounds.bids[i, 0], rounds.feats[i, 0]) for i in range(3)]
    assert spot_monotonicity(ZeroActor(), states) == 1.0


# ---------------------------------------------------------------------------
# Full training loop


def test_zero_iters_returns_initialized_actor(train_world, monkeypatch):
    # with no RL iterations train returns the actor as initialization and
    # the warm start left it
    seen = {}

    def recording_warm_start(actor, *args):
        seen["init"] = actor.net.flat.copy()
        out = warm_start_actor(actor, *args)
        seen["warm"] = actor.net.flat.copy()
        return out

    monkeypatch.setattr(trainer, "warm_start_actor", recording_warm_start)
    cfg = TrainConfig(train_iters=0, **{
        k: v for k, v in TINY.items() if k != "train_iters"})
    result = train(train_world, cfg)
    # rebuild the random-init actor directly and compare parameters
    ss = np.random.SeedSequence((train_world.config.seed, cfg.seed, 0x7EA1))
    rng_init = np.random.default_rng(ss.spawn(4)[0])
    expected = BidMultiplierNet(FEATURE_DIM, hidden=cfg.hidden, rng=rng_init)
    assert np.array_equal(seen["init"], expected.net.flat)
    assert np.array_equal(result.actor.net.flat, seen["warm"])
    assert len(result.report) == 1
    assert result.final_objective == result.report[0]["objective"]


@pytest.mark.parametrize("make_base", [
    lambda world: GspMechanism(sigma=1.25),
    lambda world: UgspMechanism((1.0, 0.0, 2.0 * world.bid_scale))],
    ids=["gsp", "ugsp-pcvr"])
def test_iteration_zero_is_the_selected_baseline_bit_for_bit(
        train_world, monkeypatch, make_base):
    # the warm start makes the selected baseline the actor's base with a
    # zero residual, so the trained actor's auction is the baseline's:
    # the same scores, multipliers and offsets, bit for bit
    base = make_base(train_world)
    monkeypatch.setattr(trainer, "_baseline_candidates", lambda world: [base])
    cfg = TrainConfig(train_iters=0, **{
        k: v for k, v in TINY.items() if k != "train_iters"})
    result = train(train_world, cfg)
    assert result.actor.base == base and result.selected_iter == 0
    rounds = train_world.sample_rounds(500, np.random.default_rng(12))
    got = DeepGspMechanism(result.actor).score_batch(rounds.bids, rounds.feats)
    want = base.score_batch(rounds.bids, rounds.feats)
    for a, b in zip(got, want):
        assert np.array_equal(a, np.broadcast_to(b, rounds.bids.shape))
    # iteration 0 scores the selection episode as the baseline did
    ss = np.random.SeedSequence((train_world.config.seed, cfg.seed, 0x7EA1))
    eval_seed = int(ss.generate_state(1)[0] % (2**31))
    metrics, _ = train_world.evaluate(base, cfg.eval_rounds, eval_seed)
    assert result.final_objective == scalarize(metrics, cfg.weights)


def test_final_objective_is_the_selected_iterate(train_world):
    # the selected row is the first best penalized objective among the
    # rows that pass the spot T_m gate, or row 0 when none does; its F is
    # the returned actor's F on the selection episode
    cfg = TrainConfig(**TINY)
    result = train(train_world, cfg)
    assert len(result.report) == cfg.train_iters + 1
    passing = [r for r in result.report if r["t_m"] >= 0.97]
    selected = (max(passing, key=lambda r: r["penalized_objective"])
                if passing else result.report[0])
    assert result.final_objective == selected["objective"]
    assert result.selected_iter == selected["iter"]
    ss = np.random.SeedSequence((train_world.config.seed, cfg.seed, 0x7EA1))
    eval_seed = int(ss.generate_state(1)[0] % (2**31))
    metrics, _ = train_world.evaluate(DeepGspMechanism(result.actor),
                                      cfg.eval_rounds, eval_seed)
    assert result.final_objective == scalarize(metrics, cfg.weights)


def test_training_reproducible(train_world):
    cfg = TrainConfig(**TINY)
    r1 = train(train_world, cfg)
    r2 = train(train_world, cfg)
    assert np.array_equal(r1.actor.net.flat, r2.actor.net.flat)
    assert r1.report == r2.report
    assert r1.final_objective == r2.final_objective


def test_training_beats_random_init(train_world):
    cfg = TrainConfig(weights=(1, 0, 0, 0, 0),
                      pretrain_rounds=100, train_iters=30,
                      benchmark_rounds=200, eval_rounds=300, eval_every=5,
                      hidden=(16, 8))
    result = train(train_world, cfg)
    random_init = _fresh_actor(train_world, hidden=cfg.hidden)

    def objective(actor):
        metrics, _ = train_world.evaluate(DeepGspMechanism(actor),
                                          cfg.eval_rounds, 77)
        return scalarize(metrics, cfg.weights)

    assert objective(result.actor) >= objective(random_init)


def test_report_has_selection_trace(train_world):
    cfg = TrainConfig(**TINY)
    result = train(train_world, cfg)
    assert result.report[0]["iter"] == 0
    for row in result.report:
        assert set(row) >= {"iter", "objective", "penalized_objective",
                            "mono_loss", "t_m", "mean_payment", "noise_std"}


def test_trained_actor_prices_below_bids(train_world):
    from gsplab.auction import allocate_batch, price_batch

    cfg = TrainConfig(**TINY)
    result = train(train_world, cfg)
    mech = DeepGspMechanism(result.actor)
    rounds = train_world.sample_rounds(200, np.random.default_rng(8))
    scores, pi, off = mech.score_batch(rounds.bids, rounds.feats)
    order = allocate_batch(scores, rounds.bids)
    prices = price_batch(order, scores, pi, off, train_world.slots)
    rows = np.arange(200)[:, None]
    win_bids = rounds.bids[rows, order[:, :train_world.slots]]
    assert np.all(prices <= win_bids + 1e-9)
