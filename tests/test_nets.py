import concurrent.futures
import faulthandler
import multiprocessing
import os
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from gsplab import nets
from gsplab.auction import FEATURE_DIM
from gsplab.nets import (
    CHECKPOINT_MAGIC,
    PREDICT_ROWS,
    Adam,
    BidMultiplierNet,
    CriticNet,
    Mlp,
    NanGradientError,
    Normalizer,
    UnfittedNormalizerError,
    _sigmoid,
    _softplus,
)
from gsplab.trainer import actor_penalties

from conftest import fd_param_grad, grad_err, rel_err

FEAT = 3  # small feature dimension for speed


def _random_actor(rng, hidden=(6, 4)):
    actor = BidMultiplierNet(FEAT, hidden=hidden,
                             rng=np.random.default_rng(rng.integers(2**31)))
    bids = rng.uniform(0.5, 5.0, size=64)
    feats = rng.uniform(0.0, 1.0, size=(64, FEAT))
    actor.fit_normalizer(bids, feats)
    return actor


def _identity_norm(model):
    model.norm.mean = np.zeros(model.input_dim)
    model.norm.scale = np.ones(model.input_dim)
    return model


def _pi(actor, b, x):
    return float(actor.multiplier_batch([b], [x])[0])


def _with_grad(actor, bids, feats):
    """actor.forward_with_grad on the rows of a raw batch."""
    return actor.forward_with_grad(*actor.grad_inputs(bids, feats))


def _dpi_db(actor, b, x):
    return float(_with_grad(actor, [b], [x])[1][0])


# ---------------------------------------------------------------------------
# Normalizer


def test_normalizer_round_trip_and_floor():
    X = np.array([[1.0, 5.0], [3.0, 5.0]])
    norm = Normalizer(2).fit(X)
    out = norm.transform(X)
    assert np.allclose(out.mean(axis=0), 0.0)
    assert norm.scale[1] == pytest.approx(1e-8)  # constant column floored


@pytest.mark.parametrize("rows", [1, 100_000])
def test_normalizer_transform_is_exact_and_leaves_its_input(rows):
    rng = np.random.default_rng(rows)
    norm = Normalizer(5).fit(rng.normal(2.0, 3.0, size=(50, 5)))
    X = rng.normal(2.0, 3.0, size=(rows, 5))
    before = X.copy()
    out = norm.transform(X)
    assert np.array_equal(X, before)
    assert np.array_equal(out, (before - norm.mean) / norm.scale)


def test_normalizer_unfitted_raises():
    with pytest.raises(UnfittedNormalizerError):
        Normalizer(2).transform(np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# Forward behavior


def test_constant_actor_is_softplus_of_bias():
    actor = _identity_norm(BidMultiplierNet(FEAT, hidden=(4,)))
    actor.net.weights[-1][:] = 0.0
    actor.net.biases[-1][:] = 1.7
    pi = actor.multiplier_batch(np.array([0.1, 2.0, 9.0]), np.zeros((3, FEAT)))
    assert np.allclose(pi, _softplus(np.array([1.7])))
    assert _dpi_db(actor, 1.0, np.zeros(FEAT)) == 0.0


def test_fresh_actor_output_positive():
    rng = np.random.default_rng(0)
    actor = _random_actor(rng)
    pi = actor.multiplier_batch(rng.uniform(0.1, 10, 50),
                                rng.uniform(0, 1, (50, FEAT)))
    assert np.all(pi > 0)


def test_constant_critic_is_bias():
    critic = _identity_norm(CriticNet(FEAT, hidden=(4,)))
    critic.net.weights[-1][:] = 0.0
    critic.net.biases[-1][:] = -0.3
    q = critic.q_batch(np.zeros((5, FEAT + 1)), np.arange(5.0))
    assert np.allclose(q, -0.3)


def test_single_layer_bid_derivative_closed_form():
    # no hidden layer: pi = softplus(w . u + c), d pi/d bid = sigmoid * w_b / s_b
    actor = BidMultiplierNet(FEAT, hidden=())
    actor.norm.mean = np.zeros(FEAT + 1)
    actor.norm.scale = np.array([2.0, 1.0, 1.0, 1.0])
    w = actor.net.weights[0][0]
    bid, feats = 1.4, np.array([0.2, 0.5, 0.1])
    u = np.concatenate([[bid / 2.0], feats])
    pre = float(w @ u + actor.net.biases[0][0])
    sig = 1.0 / (1.0 + np.exp(-pre))
    assert _dpi_db(actor, bid, feats) == pytest.approx(sig * w[0] / 2.0)


# ---------------------------------------------------------------------------
# The value-only pass


def _fitted_model(kind, rng):
    """An actor (tanh hidden, softplus output) or critic (identity output)
    of the trained models' hidden sizes, with fitted normalization."""
    cls = BidMultiplierNet if kind == "actor" else CriticNet
    model = cls(FEAT, hidden=(64, 32),
                rng=np.random.default_rng(rng.integers(2**31)))
    X = rng.uniform(0.0, 5.0, size=(256, model.input_dim))
    model.norm.fit(X)
    for b in model.net.biases:  # nonzero biases, as after training
        b[:] = rng.normal(0.0, 0.5, size=b.shape)
    return model


class _ReferenceMlp:
    """The plain MLP that Mlp must match bit for bit: per-layer parameter
    arrays, tanh hidden layers, one unblocked pass, cached first and
    second derivatives, ``@`` for every product and a fresh array for
    every step.  Its gradients are joined into one vector in Mlp.flat's
    layout."""

    def __init__(self, net):
        self.weights = [w.copy() for w in net.weights]
        self.biases = [b.copy() for b in net.biases]
        self.names = ["tanh"] * (net.n_layers - 1) + [net.output]

    def arrays(self):
        """The parameter arrays in Mlp.flat's order: w0, b0, w1, b1, ..."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def forward(self, U):
        A = U
        acts, d1s, d2s = [A], [], []
        for w, b, name in zip(self.weights, self.biases, self.names):
            Z = A @ w.T + b
            if name == "tanh":
                A = np.tanh(Z)
                d1 = 1.0 - A * A
                d2 = -2.0 * A * d1
            elif name == "softplus":
                A = _softplus(Z)
                d1 = _sigmoid(Z)
                d2 = d1 * (1.0 - d1)
            else:
                A, d1, d2 = Z, np.ones_like(Z), np.zeros_like(Z)
            acts.append(A)
            d1s.append(d1)
            d2s.append(d2)
        return A, (acts, d1s, d2s)

    def predict(self, U):
        """forward's output alone, keeping no cache: one unblocked pass
        over row counts whose cache would be large."""
        A = U
        for w, b, name in zip(self.weights, self.biases, self.names):
            Z = A @ w.T + b
            A = np.tanh(Z) if name == "tanh" else (
                _softplus(Z) if name == "softplus" else Z)
        return A

    def backward(self, cache, dY):
        acts, d1s, _ = cache
        dZ = dY * d1s[-1]
        grads = []
        for layer in reversed(range(len(self.weights))):
            grads[:0] = [dZ.T @ acts[layer], dZ.sum(axis=0)]
            dA = dZ @ self.weights[layer]
            if layer > 0:
                dZ = dA * d1s[layer - 1]
        return _flat(grads), dA

    def jvp(self, cache, V):
        _, d1s, _ = cache
        S = V
        ts, ss = [], [S]
        for w, d1 in zip(self.weights, d1s):
            T = S @ w.T
            S = d1 * T
            ts.append(T)
            ss.append(S)
        return d1s[-1] * ts[-1], (ts, ss)

    def backward_jvp(self, cache, jcache, dY, dYdot):
        (acts, d1s, d2s), (ts, ss) = cache, jcache
        dZ = dY * d1s[-1] + dYdot * d2s[-1] * ts[-1]
        dT = dYdot * d1s[-1]
        grads = []
        for layer in reversed(range(len(self.weights))):
            grads[:0] = [dZ.T @ acts[layer] + dT.T @ ss[layer],
                         dZ.sum(axis=0)]
            dA = dZ @ self.weights[layer]
            dS = dT @ self.weights[layer]
            if layer > 0:
                dZ = dA * d1s[layer - 1] + dS * d2s[layer - 1] * ts[layer - 1]
                dT = dS * d1s[layer - 1]
        return _flat(grads)


def _flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


@pytest.mark.parametrize("kind", ["actor", "critic"])
@pytest.mark.parametrize("rows", [
    1, 2, 17, 37, 2047, 2048, 4101, 6149, 16_000])
def test_predict_equals_forward_bit_for_bit(kind, rows):
    # the value pass against the gradient callers' pass and the reference
    rng = np.random.default_rng(rows)
    model = _fitted_model(kind, rng)
    U = model.norm.transform(rng.uniform(0.0, 5.0, (rows, model.input_dim)))
    Y = model.net.predict(U)
    assert Y.shape == (rows, 1)
    assert np.array_equal(Y, model.net.forward(U)[0])
    assert np.array_equal(Y, _ReferenceMlp(model.net).forward(U)[0])


def _raw_inputs(model, rng, rows):
    """(raw columns of model's inference call, their normalized rows)."""
    X = rng.uniform(0.0, 5.0, (rows, model.input_dim))
    if model.EXTRA_INPUTS == 1:                 # actor: bids, features
        return (X[:, 0], X[:, 1:]), model.norm.transform(X)
    return (X[:, :-1], X[:, -1]), model.norm.transform(X)  # states, actions


@pytest.fixture
def predict_threads(monkeypatch):
    """Makes _predict run its blocks on more than one thread: on the
    module's own pool, made as where BLAS is pinned to one thread, or on a
    one-CPU host a one-worker pool."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    pool = nets._predict_pool
    pool.cache_clear()
    try:
        if nets._predict_threads() > 1:
            yield
        else:
            with concurrent.futures.ThreadPoolExecutor(1) as executor:
                monkeypatch.setattr(nets, "_predict_threads", lambda: 2)
                monkeypatch.setattr(nets, "_predict_pool", lambda: executor)
                yield
    finally:
        pool.cache_clear()      # a later test makes the pool its BLAS allows


@pytest.fixture
def predict_pool(request, monkeypatch):
    """Runs a test with _predict's blocks on the threads of request.param:
    the module's ("threads", see predict_threads), one thread, or more
    threads than CPUs with a short switch interval, so the threads
    interleave often."""
    if request.param == "threads":
        request.getfixturevalue("predict_threads")
        yield
    elif request.param == "one thread":
        monkeypatch.setattr(nets, "_predict_pool", lambda: None)
        yield
    else:
        threads, interval = os.cpu_count() + 2, sys.getswitchinterval()
        with concurrent.futures.ThreadPoolExecutor(threads - 1) as executor:
            monkeypatch.setattr(nets, "_predict_threads", lambda: threads)
            monkeypatch.setattr(nets, "_predict_pool", lambda: executor)
            sys.setswitchinterval(1e-5)
            try:
                yield
            finally:
                sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind", ["actor", "critic"])
@pytest.mark.parametrize("predict_pool, rows", [
    # the module's threads keep the bare row count as their test id
    pytest.param(pool, rows, id=str(rows) if pool == "threads"
                 else f"{pool}-{rows}")
    for pool in ["threads", "one thread", "more threads than CPUs"]
    for rows in [1, PREDICT_ROWS - 1, PREDICT_ROWS, 2 * PREDICT_ROWS - 1,
                 2 * PREDICT_ROWS, 2 * PREDICT_ROWS + 5, 4 * PREDICT_ROWS + 5,
                 6 * PREDICT_ROWS + 5, 12_500, 160_000]],
    indirect=["predict_pool"])
def test_inference_blocks_equal_one_unblocked_pass(predict_pool, kind, rows):
    # multiplier_batch and q_batch stack and normalize their raw columns
    # block by block, on one or more threads; the result must not differ
    # from one reference pass over the fully normalized input.  2 * P - 1
    # rows are the largest call of one block, 2 * P the smallest of two.
    rng = np.random.default_rng(rows)
    model = _fitted_model(kind, rng)
    raw, U = _raw_inputs(model, rng, rows)
    infer = model.multiplier_batch if kind == "actor" else model.q_batch
    Y = infer(*raw)
    assert Y.shape == (rows,)
    assert np.array_equal(Y, _ReferenceMlp(model.net).predict(U)[:, 0])


@pytest.mark.parametrize("blas, cpus, threads", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "1"}, 64, nets.PREDICT_THREADS),
    ({"OMP_NUM_THREADS": "1"}, 2, 2),
    ({}, 2, 1),                                 # BLAS's default threads
    ({"OPENBLAS_NUM_THREADS": "4"}, 8, 1),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 1)],
    ids=["pinned-1cpu", "pinned-2cpus", "pinned-64cpus", "omp-pinned-2cpus",
         "default-2cpus", "openblas4-8cpus", "openblas2-omp1-2cpus"])
def test_threads_are_one_per_usable_cpu_beside_a_pinned_blas(
        monkeypatch, blas, cpus, threads):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in blas.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    assert nets._predict_threads() == threads


def test_worker_exception_reaches_the_caller(predict_threads):
    rng = np.random.default_rng(27)
    model = _fitted_model("actor", rng)
    raw, _ = _raw_inputs(model, rng, 3 * PREDICT_ROWS)
    predict = model.net.predict

    def failing_workers(U, bufs=None):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("worker block failed")
        return predict(U, bufs)

    model.net.predict = failing_workers
    with pytest.raises(FloatingPointError, match="worker block failed"):
        model.multiplier_batch(*raw)


def test_failing_caller_block_waits_for_the_workers(predict_threads):
    # the calling thread's own block fails first; the workers' blocks must
    # have finished writing before the exception leaves _predict
    rng = np.random.default_rng(28)
    model = _fitted_model("actor", rng)
    raw, _ = _raw_inputs(model, rng, 3 * PREDICT_ROWS)
    predict, finished = model.net.predict, []

    def slow_workers(U, bufs=None):
        if threading.current_thread() is threading.main_thread():
            raise FloatingPointError("caller block failed")
        time.sleep(0.2)
        Y = predict(U, bufs)
        finished.append(len(U))
        return Y

    model.net.predict = slow_workers
    with pytest.raises(FloatingPointError, match="caller block failed"):
        model.multiplier_batch(*raw)
    assert sum(finished) == 2 * PREDICT_ROWS      # all but the first block


def _child_multipliers(actor, bids, feats):
    # a child that hangs exits instead, which breaks the parent's pool
    faulthandler.dump_traceback_later(60, exit=True, file=sys.__stderr__)
    try:
        return actor.multiplier_batch(bids, feats)
    finally:
        faulthandler.cancel_dump_traceback_later()


def test_forked_child_runs_threaded_inference(predict_threads):
    # gsplab pareto/transition --workers N fork processes; a child inherits
    # the parent's pool object but none of its threads
    rng = np.random.default_rng(29)
    model = _fitted_model("actor", rng)
    raw, _ = _raw_inputs(model, rng, 5 * PREDICT_ROWS)
    want = model.multiplier_batch(*raw)          # the pool's threads exist
    with concurrent.futures.ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("fork")) as pool:
        got = pool.submit(_child_multipliers, model, *raw).result(timeout=120)
    assert np.array_equal(got, want)


def test_multiplier_batch_builds_no_full_size_temporary(predict_threads):
    # a market episode's 160,000 rows: the (B, 8) input and its normalized
    # copy alone would take 19.5 MiB; the output takes 1.2 MiB.  Each
    # thread has one block in flight, so the peak grows with the thread
    # count, which PREDICT_THREADS caps on any host.
    rng = np.random.default_rng(26)
    actor = BidMultiplierNet(FEATURE_DIM, hidden=(64, 32), rng=rng)
    bids = rng.uniform(0.1, 5.0, 160_000)
    feats = rng.uniform(0.0, 1.0, (160_000, FEATURE_DIM))
    actor.fit_normalizer(bids[:500], feats[:500])
    tracemalloc.start()
    try:
        actor.multiplier_batch(bids, feats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_worker_buffers_are_mapped_once_per_group(predict_threads,
                                                  monkeypatch):
    # 3 * P + 5 rows: the calling thread's one-block group, then a worker's
    # group whose second block takes the remainder; the worker maps its
    # input and layer buffers once, at its largest block's row count
    rng = np.random.default_rng(30)
    model = _fitted_model("actor", rng)
    raw, _ = _raw_inputs(model, rng, 3 * PREDICT_ROWS + 5)
    shapes, mapped = [], nets._mapped_array

    def recorded(rows, cols):
        shapes.append((rows, cols))
        return mapped(rows, cols)

    monkeypatch.setattr(nets, "_mapped_array", recorded)
    model.multiplier_batch(*raw)
    # the input's width, then each layer's
    assert shapes == [(PREDICT_ROWS + 5, width) for width in model.net.sizes]


def _gradient_passes(net, U, V, dY, dYdot):
    """(Y, backward's grad, input gradient, Ydot, backward_jvp's grad) of
    one batch: every gradient pass, in a trainer's order."""
    Y, cache = net.forward(U)
    if isinstance(net, _ReferenceMlp):
        grad, dU = net.backward(cache, dY)
    else:
        grad, dU = net.backward(cache, dY), net.input_grad(cache, dY)
    Ydot, jcache = net.jvp(cache, V)
    return Y, grad, dU, Ydot, net.backward_jvp(cache, jcache, dY, dYdot)


@pytest.mark.parametrize("kind", ["actor", "critic"])
@pytest.mark.parametrize("rows", [1, 37, 800])
def test_gradient_passes_equal_the_reference(kind, rows):
    # two batches of one shape; the net writes the second's passes into
    # the arrays of the first's.  Each batch's results must equal
    # those of a net that ran no pass before and of the reference, bit
    # for bit, and the second batch must leave the first's results alone
    rng = np.random.default_rng(100 + rows)
    model = _fitted_model(kind, rng)
    net, ref = model.net, _ReferenceMlp(model.net)
    results = []
    for _batch in range(2):
        U = model.norm.transform(rng.uniform(0.0, 5.0,
                                             (rows, model.input_dim)))
        V = np.zeros_like(U)
        V[:, 0] = 1.0 / model.norm.scale[0]
        dY, dYdot = rng.normal(size=(rows, 1)), rng.normal(size=(rows, 1))
        got = _gradient_passes(net, U, V, dY, dYdot)
        fresh = Mlp(net.sizes, output=net.output)
        fresh.set_flat(net.flat)
        for want in (_gradient_passes(fresh, U, V, dY, dYdot),
                     _gradient_passes(ref, U, V, dY, dYdot)):
            for a, b in zip(got, want):
                assert a.shape == b.shape and np.array_equal(a, b)
        assert got[1].shape == got[4].shape == net.flat.shape
        assert got[2].shape == U.shape
        results.append((got, [a.copy() for a in got]))
    for got, copies in results:
        assert all(np.array_equal(a, b) for a, b in zip(got, copies))


@pytest.mark.parametrize("kind", ["actor", "critic"])
def test_stale_cache_raises(kind):
    rng = np.random.default_rng(25)
    model = _fitted_model(kind, rng)
    net = model.net
    U, U2 = rng.normal(size=(2, 40, model.input_dim))
    V = np.zeros_like(U)
    V[:, 0] = 1.0
    dY = dYdot = np.ones((40, 1))
    _, old = net.forward(U)
    _, old_j = net.jvp(old, V)
    _, cache = net.forward(U2)
    # the second forward over as many rows wrote into the first's hidden
    # arrays
    assert all(a is b for a, b in zip(cache["acts"][1:-1] + cache["d1s"][:-1],
                                      old["acts"][1:-1] + old["d1s"][:-1]))
    _, first_j = net.jvp(cache, V)
    _, new_j = net.jvp(cache, V)
    for call in (lambda: net.backward(old, dY),
                 lambda: net.input_grad(old, dY), lambda: net.jvp(old, V),
                 lambda: net.backward_jvp(old, old_j, dY, dYdot),
                 # a jvp cache goes stale with a new forward or jvp
                 lambda: net.backward_jvp(cache, old_j, dY, dYdot),
                 lambda: net.backward_jvp(cache, first_j, dY, dYdot)):
        with pytest.raises(ValueError, match="stale cache"):
            call()
    net.backward(cache, dY)
    net.backward_jvp(cache, new_j, dY, dYdot)
    # a forward over another row count makes new arrays, and still makes
    # every older cache stale
    _, short = net.forward(U[:7])
    assert not any(a is b for a, b in zip(short["acts"][1:-1],
                                          cache["acts"][1:-1]))
    with pytest.raises(ValueError, match="stale cache"):
        net.backward(cache, dY)


# the net a forked child runs, inherited through the fork, not pickled
_INHERITED = {}


def _child_forward(U):
    return _INHERITED["net"].forward(U)[0]


def test_forked_child_writes_its_own_kept_arrays():
    # a child of gsplab pareto/transition --workers inherits a net's kept
    # arrays; its passes over as many rows must leave the parent's alone
    rng = np.random.default_rng(32)
    net = _INHERITED["net"] = _fitted_model("critic", rng).net
    U, U2 = rng.normal(size=(2, 40, net.sizes[0]))
    _, cache = net.forward(U)
    want = [a.copy() for a in cache["acts"]]
    try:
        with concurrent.futures.ProcessPoolExecutor(
                1, mp_context=multiprocessing.get_context("fork")) as pool:
            got = pool.submit(_child_forward, U2).result(timeout=120)
    finally:
        _INHERITED.clear()
    assert all(np.array_equal(a, b) for a, b in zip(cache["acts"], want))
    assert np.array_equal(got, net.forward(U2)[0])


def _step_memory(monkeypatch, step):
    """(tracemalloc peak in bytes, arrays mapped) of one call of step."""
    mapped = []

    def counted(rows, cols):
        mapped.append((rows, cols))
        return np.empty((rows, cols))

    monkeypatch.setattr(nets, "_mapped_array", counted)
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, len(mapped)


def test_critic_step_reuses_its_arrays(monkeypatch):
    # a 2,880-row critic step of the pretraining, after a first step: its
    # hidden layers' arrays are the net's kept ones, so the step maps no
    # array and allocates only output-wide and parameter-sized ones (6.6
    # MiB of temporaries per step when every pass allocated its arrays)
    rng = np.random.default_rng(30)
    critic = CriticNet(FEATURE_DIM, hidden=(64, 32), rng=rng)
    states = rng.uniform(0.0, 2.0, (2880, FEATURE_DIM + 1))
    actions = rng.uniform(0.0, 3.0, 2880)
    targets = rng.normal(size=2880)
    critic.fit_normalizer(states, actions)
    U = critic.inputs(states, actions)
    opt = Adam(5e-3)

    def step():
        opt.step(critic.net.flat, critic.mse_and_grads(U, targets)[1])

    step()
    peak, mapped = _step_memory(monkeypatch, step)
    assert peak <= 512 * 2**10 and mapped == 0


def test_actor_step_reuses_its_arrays(monkeypatch):
    # an 800-row actor step of the loop, after a first step: forward, jvp
    # and backward_jvp write into the net's kept arrays
    rng = np.random.default_rng(31)
    actor = BidMultiplierNet(FEATURE_DIM, hidden=(64, 32), rng=rng)
    bids = rng.uniform(0.1, 5.0, 800)
    feats = rng.uniform(0.0, 1.0, (800, FEATURE_DIM))
    actor.fit_normalizer(bids, feats)
    rows = actor.grad_inputs(bids, feats)
    dY, dYdot = rng.normal(size=(2, 800, 1))
    opt = Adam(1e-3)

    def step():
        _, _, (cache, jcache) = actor.forward_with_grad(*rows)
        opt.step(actor.net.flat,
                 actor.net.backward_jvp(cache, jcache, dY, dYdot))

    step()
    peak, mapped = _step_memory(monkeypatch, step)
    assert peak <= 512 * 2**10 and mapped == 0


def test_adam_on_the_flat_vector_equals_per_array_steps():
    rng = np.random.default_rng(24)
    net = _fitted_model("actor", rng).net
    arrays = _ReferenceMlp(net).arrays()
    assert len(arrays) == 6
    flat_opt, array_opts = Adam(1e-2), [Adam(1e-2) for _ in arrays]
    for _ in range(5):
        grads = [rng.normal(size=p.shape) for p in arrays]
        flat_opt.step(net.flat, _flat(grads))
        for opt, p, g in zip(array_opts, arrays, grads):
            opt.step(p, g)
    assert np.array_equal(net.flat, _flat(arrays))


def test_weights_and_biases_view_the_flat_vector():
    net = Mlp([3, 4, 1])                # layout: w0 (4, 3), b0, w1 (1, 4), b1
    net.weights[1][0, 2] = 7.5
    net.biases[0][3] = -2.0
    assert net.flat[12 + 4 + 2] == 7.5 and net.flat[12 + 3] == -2.0
    new = np.arange(net.flat.size, dtype=float)
    net.set_flat(new)
    assert np.array_equal(net.weights[0], new[:12].reshape(4, 3))
    assert np.array_equal(net.biases[0], new[12:16])
    assert np.array_equal(net.weights[1], new[16:20].reshape(1, 4))
    assert np.array_equal(net.biases[1], new[20:])
    new[0] = 99.0                       # set_flat copies into flat
    assert net.weights[0][0, 0] == 0.0
    assert all(np.shares_memory(a, net.flat)
               for a in [*net.weights, *net.biases])


@pytest.mark.parametrize("kind", ["actor", "critic"])
def test_predict_after_reload_equals_forward(kind, tmp_path):
    rng = np.random.default_rng(21)
    model = _fitted_model(kind, rng)
    path = tmp_path / f"{kind}.ckpt"
    model.save(path)
    clone = type(model).load(path)
    U = clone.norm.transform(rng.uniform(0.0, 5.0, (500, clone.input_dim)))
    assert np.array_equal(clone.net.predict(U), clone.net.forward(U)[0])
    assert np.array_equal(clone.net.predict(U), model.net.predict(U))


def test_inference_runs_the_value_pass(monkeypatch):
    rng = np.random.default_rng(22)
    actor, critic = _fitted_model("actor", rng), _fitted_model("critic", rng)
    bids, feats = rng.uniform(0.1, 5.0, 40), rng.uniform(0.0, 1.0, (40, FEAT))
    want_pi = actor.net.forward(actor.inputs(bids, feats))[0][:, 0]
    states = np.column_stack([bids, feats])
    want_q = critic.net.forward(critic.inputs(states, want_pi))[0][:, 0]

    def no_forward(self, U):
        raise AssertionError("inference ran the training forward")

    monkeypatch.setattr(Mlp, "forward", no_forward)
    pi = actor.multiplier_batch(bids, feats)
    q = critic.q_batch(states, pi)
    assert type(pi) is np.ndarray and type(q) is np.ndarray
    assert np.array_equal(pi, want_pi) and np.array_equal(q, want_q)


def test_predict_keeps_no_cache():
    rng = np.random.default_rng(23)
    net = _fitted_model("actor", rng).net
    before = dict(vars(net))
    U = rng.normal(size=(300, net.sizes[0]))
    U_copy = U.copy()
    Y = net.predict(U)
    assert type(Y) is np.ndarray and Y.base is None
    assert vars(net).keys() == before.keys()
    assert all(vars(net)[k] is v for k, v in before.items())
    assert np.array_equal(U, U_copy)   # the input is not overwritten


def test_unknown_activation_rejected():
    with pytest.raises(ValueError, match="unknown activation 'sigmoid'"):
        Mlp([2, 1], output="sigmoid")


# ---------------------------------------------------------------------------
# Gradient checks against finite differences


def test_bid_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(30):
        actor = _random_actor(rng)
        b = float(rng.uniform(0.2, 8.0))
        x = rng.uniform(0.0, 1.0, FEAT)
        h = 1e-4 * max(1.0, abs(b))
        fd = (_pi(actor, b + h, x) - _pi(actor, b - h, x)) / (2 * h)
        assert rel_err(_dpi_db(actor, b, x), fd) <= 1e-4


def test_actor_param_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(10):
        actor = _random_actor(rng, hidden=(5,))
        bids = rng.uniform(0.2, 5.0, 8)
        feats = rng.uniform(0, 1, (8, FEAT))
        w = rng.standard_normal(8)
        U = actor.inputs(bids, feats)

        def loss(flat):
            actor.net.set_flat(flat)
            Y, _ = actor.net.forward(U)
            return float(w @ Y[:, 0])

        flat0 = actor.net.flat.copy()
        _, cache = actor.net.forward(U)
        analytic = actor.net.backward(cache, w[:, None])
        fd = fd_param_grad(loss, flat0)
        actor.net.set_flat(flat0)
        denom = max(np.linalg.norm(fd), 1e-10)
        assert np.linalg.norm(analytic - fd) / denom <= 1e-4


def test_backward_jvp_matches_finite_differences():
    # generic smooth loss of (output, output-tangent): sum(a*Y + c*Ydot^2)
    rng = np.random.default_rng(3)
    for _ in range(8):
        actor = _random_actor(rng, hidden=(5, 4))
        bids = rng.uniform(0.2, 5.0, 6)
        feats = rng.uniform(0, 1, (6, FEAT))
        a = rng.standard_normal(6)
        c = rng.standard_normal(6)

        def loss(flat):
            actor.net.set_flat(flat)
            pi, dpi, _ = _with_grad(actor, bids, feats)
            return float(a @ pi + c @ dpi**2)

        flat0 = actor.net.flat.copy()
        pi, dpi, (cache, jcache) = _with_grad(actor, bids, feats)
        analytic = actor.net.backward_jvp(cache, jcache, a[:, None],
                                          (2 * c * dpi)[:, None])
        fd = fd_param_grad(loss, flat0)
        actor.net.set_flat(flat0)
        assert np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-10) <= 1e-4


def test_critic_param_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    critic = CriticNet(FEAT, hidden=(5,), rng=rng)
    states = rng.uniform(0, 2, (10, FEAT + 1))
    actions = rng.uniform(0, 3, 10)
    targets = rng.standard_normal(10)
    critic.fit_normalizer(states, actions)

    def loss(flat):
        critic.net.set_flat(flat)
        pred = critic.q_batch(states, actions)
        return float(np.mean((pred - targets) ** 2))

    flat0 = critic.net.flat.copy()
    _, analytic = critic.mse_and_grads(critic.inputs(states, actions), targets)
    fd = fd_param_grad(loss, flat0)
    critic.net.set_flat(flat0)
    assert np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-10) <= 1e-4


def test_critic_action_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    critic = CriticNet(FEAT, hidden=(5,), rng=rng)
    states = rng.uniform(0, 2, (6, FEAT + 1))
    actions = rng.uniform(0.5, 3, 6)
    critic.fit_normalizer(states, actions)
    h = 1e-5
    fd = (critic.q_batch(states, actions + h)
          - critic.q_batch(states, actions - h)) / (2 * h)
    q, analytic = critic.q_and_grad_action(states, actions)
    assert np.allclose(analytic, fd, rtol=1e-4, atol=1e-8)
    assert np.array_equal(q, critic.q_batch(states, actions))


# ---------------------------------------------------------------------------
# Actor penalties: monotonicity hinge and price sensitivity


def _penalties(actor, bids, feats, gamma=1.0, kappa=0.0):
    pi, dpi_db, _ = _with_grad(actor, bids, feats)
    return actor_penalties(bids, pi, dpi_db, gamma, kappa)


def test_mono_penalty_zero_for_constant_actor():
    actor = _identity_norm(BidMultiplierNet(FEAT, hidden=(4,)))
    actor.net.weights[-1][:] = 0.0
    actor.net.biases[-1][:] = 0.5
    loss, dY, dYdot = _penalties(actor, np.array([1.0, 2.0, 3.0]),
                                 np.zeros((3, FEAT)), kappa=0.7)
    assert loss == 0.0
    assert not dY.any() and not dYdot.any()


def _slope(actor, b):
    x = np.zeros(FEAT)
    return _pi(actor, b, x) + b * _dpi_db(actor, b, x)


def test_mono_penalty_hinge_arithmetic():
    # engineer a decreasing single-layer actor, then bisect for the bid
    # where d(b*pi)/db = -0.5; a batch with that point plus two safe ones
    # must score a mean hinge of exactly 0.5 / 3
    actor = _identity_norm(BidMultiplierNet(FEAT, hidden=()))
    actor.net.weights[0][0, :] = 0.0
    actor.net.weights[0][0, 0] = -12.0
    actor.net.biases[0][0] = 3.0
    assert _slope(actor, 0.0) > 0
    lo, hi = 0.0, 0.375
    assert _slope(actor, hi) < -0.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _slope(actor, mid) > -0.5:
            lo = mid
        else:
            hi = mid
    b_star = 0.5 * (lo + hi)
    batch = np.array([0.0, 1e-3, b_star])
    assert _slope(actor, 1e-3) > 0
    loss, _, _ = _penalties(actor, batch, np.zeros((3, FEAT)))
    assert loss == pytest.approx(0.5 / 3, abs=1e-9)
    # the sensitivity term alone: kappa * mean((b * dpi/db / pi)^2)
    pi, dpi_db, _ = _with_grad(actor, batch, np.zeros((3, FEAT)))
    loss, _, _ = _penalties(actor, batch, np.zeros((3, FEAT)), 0.0, 0.4)
    assert loss == pytest.approx(0.4 * np.mean((batch * dpi_db / pi) ** 2))


def test_mono_penalty_gradient_matches_finite_differences():
    # actor_penalties' dY/dYdot, taken through backward_jvp, must be the
    # parameter gradient of the loss it returns
    rng = np.random.default_rng(6)
    actor = _identity_norm(BidMultiplierNet(FEAT, hidden=(4,)))
    # steer the net into a regime with active hinges
    actor.net.weights[0][:, 0] = -6.0
    actor.net.weights[-1][:] = np.abs(actor.net.weights[-1]) + 1.0
    actor.net.biases[-1][:] = 1.0
    bids = np.linspace(0.2, 1.5, 6)
    feats = rng.uniform(0, 1, (6, FEAT))
    assert _penalties(actor, bids, feats)[0] > 0
    flat0 = actor.net.flat.copy()

    for gamma, kappa in ((1.0, 0.0), (0.0, 0.5), (2.0, 0.3)):
        pi, dpi_db, (cache, jcache) = _with_grad(actor, bids, feats)
        _, dY, dYdot = actor_penalties(bids, pi, dpi_db, gamma, kappa)
        analytic = actor.net.backward_jvp(cache, jcache, dY[:, None],
                                          dYdot[:, None])

        def loss(flat):
            actor.net.set_flat(flat)
            return _penalties(actor, bids, feats, gamma, kappa)[0]

        fd = fd_param_grad(loss, flat0)
        actor.net.set_flat(flat0)
        assert grad_err(analytic, fd) <= 1e-3, (gamma, kappa)


def test_mono_penalty_empty_batch_rejected():
    empty = np.array([])
    with pytest.raises(ValueError):
        actor_penalties(empty, empty, empty, 1.0, 0.5)


# ---------------------------------------------------------------------------
# Optimizers


def test_adam_quadratic_bowl():
    w = np.array([1.0])
    opt = Adam(0.05)
    for step in range(200):
        opt.step(w, 2.0 * w)
        if abs(w[0]) < 1e-2:
            break
    assert abs(w[0]) < 1e-2


def test_nan_gradient_guard():
    w = np.array([1.0])
    with pytest.raises(NanGradientError):
        Adam(0.1).step(w, np.array([np.nan]))
    assert w[0] == 1.0


def test_critic_fits_linear_target():
    rng = np.random.default_rng(7)
    critic = CriticNet(1, hidden=(16,), rng=rng)
    states = rng.uniform(-1, 1, (256, 2))
    actions = rng.uniform(-1, 1, 256)
    targets = 0.7 * actions + 0.2 * states[:, 0] - 0.1
    critic.fit_normalizer(states, actions)
    U = critic.inputs(states, actions)
    opt = Adam(5e-3)
    loss = np.inf
    for _ in range(2000):
        loss, grad = critic.mse_and_grads(U, targets)
        if loss <= 1e-3:
            break
        opt.step(critic.net.flat, grad)
    assert loss <= 1e-3


# ---------------------------------------------------------------------------
# Serialization


def test_actor_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    actor = _random_actor(rng)
    path = tmp_path / "actor.ckpt"
    actor.save(path)
    clone = BidMultiplierNet.load(path)
    bids = rng.uniform(0.1, 5, 20)
    feats = rng.uniform(0, 1, (20, FEAT))
    assert np.array_equal(actor.multiplier_batch(bids, feats),
                          clone.multiplier_batch(bids, feats))
    assert np.array_equal(actor.net.flat, clone.net.flat)
    # save -> load -> save writes the same bytes, tanh's hidden id included
    clone.save(tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_critic_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    critic = CriticNet(FEAT, hidden=(6,), rng=rng)
    states = rng.uniform(0, 1, (32, FEAT + 1))
    actions = rng.uniform(0, 1, 32)
    critic.fit_normalizer(states, actions)
    path = tmp_path / "critic.ckpt"
    critic.save(path)
    clone = CriticNet.load(path)
    assert np.array_equal(critic.q_batch(states, actions),
                          clone.q_batch(states, actions))
    clone.save(tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_checkpoint_kind_mismatch(tmp_path):
    rng = np.random.default_rng(10)
    actor = _random_actor(rng)
    path = tmp_path / "actor.ckpt"
    actor.save(path)
    with pytest.raises(ValueError, match="not a CriticNet") as info:
        CriticNet.load(path)
    assert str(path) in str(info.value)
    critic = CriticNet(FEAT, hidden=(4,), rng=rng)
    critic.fit_normalizer(rng.uniform(0, 1, (8, FEAT + 1)), np.arange(8.0))
    critic.save(path)
    with pytest.raises(ValueError, match="not a BidMultiplierNet"):
        BidMultiplierNet.load(path)


@pytest.mark.parametrize("field, value, message", [
    ("version", 2, "version 2"),
    ("n_sizes", 0, "0 layer sizes"),
    ("hidden_act", 7, "unknown activation id"),
    ("hidden_act", 2, "hidden activation"),
    ("output_act", 7, "unknown activation id"),
    ("n_params", 2**61, "truncated"),   # far beyond the file's length
    ("trailing", b"\0" * 8, "8 trailing bytes"),
    ("trailing", b"x", "1 trailing bytes"),
    ("scale", struct.pack("<d", 0.0), "normalizer scale <= 0"),
    ("scale", struct.pack("<d", np.nan), "non-finite values"),
    ("mean", struct.pack("<d", np.inf), "non-finite values"),
    ("last_param", struct.pack("<d", np.nan), "non-finite values"),
    ("output_act", 2, "one softplus output, not 1 identity"),
    ("output_size", 2, "one softplus output, not 2 softplus"),
    ("hidden_size", 5, "parameters, but layer sizes"),
    ("width", 0, r"layer sizes \[4, 0, 1\] include a size below 1"),
], ids=["version", "no-layers", "hidden-act", "identity-hidden", "output-act",
        "huge-count", "trailing-double", "trailing-byte", "zero-scale",
        "nan-scale", "inf-mean", "nan-param", "identity-output",
        "two-outputs", "param-count", "zero-width"])
def test_malformed_checkpoint_names_file(tmp_path, field, value, message):
    # a "width" case saves an actor whose hidden layer has that width: a
    # file consistent in every other field
    hidden = (value,) if field == "width" else (4,)
    actor = _random_actor(np.random.default_rng(12), hidden=hidden)
    path = tmp_path / "actor.ckpt"
    actor.save(path)
    data = bytearray(path.read_bytes())
    magic, n_sizes = len(CHECKPOINT_MAGIC), len(actor.net.sizes)
    params_start = len(data) - 8 * actor.net.flat.size
    mean_start = magic + 20 + 4 * n_sizes
    # (offset, width) of each field; a float field takes packed bytes
    where = {"version": (magic, 4), "n_sizes": (magic + 8, 4),
             "hidden_size": (magic + 16, 4),
             "output_size": (magic + 12 + 4 * (n_sizes - 1), 4),
             "hidden_act": (magic + 12 + 4 * n_sizes, 4),
             "output_act": (magic + 16 + 4 * n_sizes, 4),
             "mean": (mean_start, 8),
             "scale": (mean_start + 8 * actor.input_dim, 8),
             "n_params": (params_start - 8, 8),
             "last_param": (len(data) - 8, 8)}
    if field == "trailing":
        data += value
    elif field != "width":
        offset, width = where[field]
        if isinstance(value, int):
            value = value.to_bytes(width, "little")
        data[offset:offset + width] = value
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=message) as info:
        BidMultiplierNet.load(bad)
    assert str(bad) in str(info.value)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOT-A-CHECKPOINT-AT-ALL")
    with pytest.raises(ValueError):
        BidMultiplierNet.load(path)


def test_save_unfitted_refused(tmp_path):
    actor = BidMultiplierNet(FEAT, hidden=(4,))
    with pytest.raises(UnfittedNormalizerError):
        actor.save(tmp_path / "actor.ckpt")


def test_truncated_checkpoint_names_file(tmp_path):
    rng = np.random.default_rng(11)
    actor = _random_actor(rng)
    path = tmp_path / "actor.ckpt"
    actor.save(path)
    data = path.read_bytes()
    # cut inside the magic, version/kind/count, sizes, activation ids,
    # normalizer mean and scale, parameter count and parameter block
    magic = len(CHECKPOINT_MAGIC)
    sizes_end = magic + 12 + 4 * len(actor.net.sizes)
    mean_end = sizes_end + 8 + 8 * actor.input_dim
    scale_end = mean_end + 8 * actor.input_dim
    offsets = (0, magic - 3, magic + 5, sizes_end - 2, sizes_end + 3,
               mean_end - 8, scale_end - 4, scale_end + 4, scale_end + 8 + 16,
               len(data) - 1)
    for cut in offsets:
        short = tmp_path / f"short{cut}.ckpt"
        short.write_bytes(data[:cut])
        with pytest.raises(ValueError, match="truncated") as info:
            BidMultiplierNet.load(short)
        assert str(short) in str(info.value)


def test_mlp_set_flat_length_check():
    net = Mlp([2, 3, 1])
    with pytest.raises(ValueError):
        net.set_flat(np.zeros(net.flat.size + 1))
