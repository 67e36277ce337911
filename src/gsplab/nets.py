"""Small feed-forward networks with explicit gradients.

The learned pieces of the auction: a bid-multiplier actor (softplus
output, strictly positive) and a critic (identity output).  Everything is
plain numpy with hand-rolled backprop.  Beyond ordinary parameter
gradients, the actor exposes the derivative of its output with respect to
the *unnormalized* bid input (needed by the monotonicity penalty and its
parameter gradient), implemented as a forward-mode tangent pass plus a
reverse pass over the combined graph.

Each ``Mlp`` has tanh hidden layers and keeps its parameters in one flat
vector, ``flat``, that ``weights`` and ``biases`` view; its gradient
passes return one flat gradient in that layout, and ``Adam.step`` updates
``flat`` in place.

Inference (``multiplier_batch``, ``q_batch``) takes its raw input
columns in blocks of ``PREDICT_ROWS`` rows: each block is stacked,
standardized and run through ``Mlp.predict``, a value-only pass (per
layer one product, an in-place bias add and, for tanh, an in-place
activation, with no derivative arrays kept), into one preallocated
output, so no full-size input array is built.  The blocks are split into
one contiguous group per usable CPU, at most ``PREDICT_THREADS`` (two):
the calling thread runs the first group and a module-level thread pool,
created on first need, runs the rest.  That happens only where the
environment pins BLAS to one thread (``OPENBLAS_NUM_THREADS``, else
``OMP_NUM_THREADS``, is 1, as the benchmark sets it): on two CPUs with
OpenBLAS's default two threads, inference threads on top of BLAS's made
the benchmark's audit operation 2-7% slower and ``gsplab pareto
--workers 2`` slower still.  numpy releases the GIL in the products and
activations, and every block is computed as it would be alone, so the
output bits do not depend on the number of threads.  A forked child
drops the inherited pool, whose threads did not survive the fork, and
makes its own.  Each thread has one block in flight, so a
call's transient memory grows with the thread count: on a 160,000-row
call, 1,024-row blocks peak at 3.1 MB on two threads and 4.2 MB on
three, and 2,048-row blocks at 5.0 MB on two.  Hence 1,024-row blocks
and at most two threads, which is also the only thread count timed;
smaller blocks spend more of their time in GIL-bound Python.  Only the
gradient callers run ``Mlp.forward``, which also keeps every layer's
activations and first derivatives (``backward_jvp`` derives the second
ones from them); both passes give the same output bits.

Checkpoints are a self-describing little-endian binary format (magic
string, version, architecture dims, hidden and output activation ids,
normalization stats, row-major float64 parameter blocks).  A file whose
hidden id is not tanh's, or with a layer size below 1, is refused.
"""

from __future__ import annotations

import concurrent.futures
import functools
import os
import struct

import numpy as np

CHECKPOINT_MAGIC = b"GSPLAB-NET"
CHECKPOINT_VERSION = 1

_ACT_NAMES = {"tanh": 0, "softplus": 1, "identity": 2}
_ACT_BY_ID = {v: k for k, v in _ACT_NAMES.items()}

# rows per inference block of _NormalizedNet._predict, and the most
# threads that run one call's blocks (see the module docstring)
PREDICT_ROWS = 1024
PREDICT_THREADS = 2


class NanGradientError(FloatingPointError):
    """A gradient contained NaN; the optimizer step was aborted."""


class UnfittedNormalizerError(RuntimeError):
    """Normalization statistics were never fitted."""


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softplus(z):
    return np.where(z > 30, z, np.log1p(np.exp(np.minimum(z, 30))))


def _tanh_first(z, a):
    d1 = a * a
    return np.subtract(1.0, d1, out=d1)


def _tanh_second(a, d1):
    d2 = -2.0 * a
    d2 *= d1
    return d2


# name -> (value, first, second), shared by both forward passes and
# backward_jvp.  value(z) may overwrite z (tanh works in place); first(z, a)
# is the first derivative at z given a = value(z), and reads only a when
# value overwrites z; second(a, d1) is the second derivative from a and
# the first derivative, so forward need not keep it.  first and second
# return fresh arrays.
_ACTIVATIONS = {
    "tanh": (lambda z: np.tanh(z, out=z), _tanh_first, _tanh_second),
    "softplus": (_softplus, lambda z, a: _sigmoid(z),
                 lambda a, d1: d1 * (1.0 - d1)),
    "identity": (lambda z: z, lambda z, a: np.ones_like(z),
                 lambda a, d1: np.zeros_like(a)),
}


class Normalizer:
    """Invertible per-feature affine standardization (x - mean) / scale."""

    def __init__(self, dim):
        self.dim = dim
        self.mean = None
        self.scale = None

    @property
    def fitted(self):
        return self.mean is not None

    def fit(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) data, got {X.shape}")
        self.mean = X.mean(axis=0)
        self.scale = np.maximum(X.std(axis=0), 1e-8)
        return self

    def transform(self, X):
        if not self.fitted:
            raise UnfittedNormalizerError("normalizer statistics not fitted")
        Z = np.subtract(X, self.mean)
        Z /= self.scale
        return Z


class Mlp:
    """Fully connected net: tanh hidden layers, then an ``output`` layer.

    The parameters are one flat vector, ``flat``, laid out as w0, b0, w1,
    b1, ..., which ``weights`` and ``biases`` view; the gradient passes
    return one flat gradient in its layout.

    predict is the value-only pass for callers that only read the output:
    it keeps no derivatives and no cache.  forward computes the same
    output, bit for bit, plus the cache of activations and first
    activation derivatives that the gradient passes read: backward is
    ordinary reverse mode, jvp propagates an input tangent, and
    backward_jvp differentiates a loss of (output, output tangent) with
    respect to the parameters, taking second derivatives from the cached
    activations.
    """

    def __init__(self, sizes, output="identity", rng=None):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if output not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {output!r}")
        self.sizes = list(sizes)
        self.output = output
        self.flat = np.zeros(sum(n_out * (n_in + 1) for n_in, n_out
                                 in zip(sizes[:-1], sizes[1:])))
        self.weights, self.biases = self._views(self.flat)
        rng = rng if rng is not None else np.random.default_rng(0)
        for w in self.weights:
            n_out, n_in = w.shape
            limit = np.sqrt(6.0 / (n_in + n_out))
            w[...] = rng.uniform(-limit, limit, size=w.shape)

    @property
    def n_layers(self):
        return len(self.sizes) - 1

    def _views(self, flat):
        """(weights, biases): per-layer views into a vector like flat."""
        weights, biases, pos = [], [], 0
        for n_in, n_out in zip(self.sizes[:-1], self.sizes[1:]):
            weights.append(flat[pos:pos + n_out * n_in].reshape(n_out, n_in))
            pos += n_out * n_in
            biases.append(flat[pos:pos + n_out])
            pos += n_out
        return weights, biases

    def _activation(self, layer):
        """(value, first, second) of the layer's activation.

        forward caches the first derivative only; backward_jvp computes
        the second from the cached activation and first derivative.
        """
        return _ACTIVATIONS[self.output if layer == self.n_layers - 1
                            else "tanh"]

    def _to_input(self, dZ, layer):
        """dZ @ weights[layer]; with one output unit each entry is one
        product, which a broadcast gives without the matmul's overhead."""
        w = self.weights[layer]
        return dZ * w if w.shape[0] == 1 else dZ @ w

    def set_flat(self, flat):
        if np.shape(flat) != self.flat.shape:
            raise ValueError("flat parameter vector has wrong length")
        self.flat[...] = flat

    def predict(self, U):
        """U: (B, n_in) -> output (B, n_out); the values only, in one pass
        over all rows."""
        A = np.asarray(U, dtype=float)
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            Z = A @ w.T
            Z += b
            A = self._activation(layer)[0](Z)
        return A

    def forward(self, U):
        """U: (B, n_in) -> output (B, n_out), plus cache for backward."""
        A = np.asarray(U, dtype=float)
        acts, d1s = [A], []
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            value, first, _ = self._activation(layer)
            Z = A @ w.T
            Z += b
            A = value(Z)
            acts.append(A)
            d1s.append(first(Z, A))
        return A, {"acts": acts, "d1s": d1s}

    def backward(self, cache, dY):
        """Gradients of sum(dY * Y) wrt the parameters and the input.

        Returns (grad, dU), grad in the layout of flat.
        """
        acts, d1s = cache["acts"], cache["d1s"]
        grad = np.empty_like(self.flat)
        gws, gbs = self._views(grad)
        dZ = dY * d1s[-1]
        for layer in range(self.n_layers - 1, -1, -1):
            np.matmul(dZ.T, acts[layer], out=gws[layer])
            dZ.sum(axis=0, out=gbs[layer])
            dA = self._to_input(dZ, layer)
            if layer > 0:
                dA *= d1s[layer - 1]
                dZ = dA
        return grad, dA

    def jvp(self, cache, V):
        """Directional derivative of the output along input tangent V."""
        d1s = cache["d1s"]
        S = np.asarray(V, dtype=float)
        ts, ss = [], [S]
        for layer, w in enumerate(self.weights):
            T = S @ w.T
            S = d1s[layer] * T
            ts.append(T)
            ss.append(S)
        return S, {"ts": ts, "ss": ss}

    def backward_jvp(self, cache, jcache, dY, dYdot):
        """Parameter gradients of a loss depending on (Y, Ydot).

        dY and dYdot are the loss derivatives wrt the output and the
        output tangent respectively.
        """
        acts, d1s = cache["acts"], cache["d1s"]
        ts, ss = jcache["ts"], jcache["ss"]
        grad = np.empty_like(self.flat)
        gws, gbs = self._views(grad)
        # per layer dZ = dA * d1 + dS * d2 * T and dT = dS * d1, with
        # (dA, dS) = (dY, dYdot) at the output
        dA, dS = dY, dYdot
        for layer in range(self.n_layers - 1, -1, -1):
            d1 = d1s[layer]
            d2 = self._activation(layer)[2](acts[layer + 1], d1)
            d2 *= dS
            d2 *= ts[layer]
            dZ = dA * d1
            dZ += d2
            dT = dS * d1
            np.matmul(dZ.T, acts[layer], out=gws[layer])
            gws[layer] += dT.T @ ss[layer]
            dZ.sum(axis=0, out=gbs[layer])
            if layer > 0:
                dA = self._to_input(dZ, layer)
                dS = self._to_input(dT, layer)
        return grad


# ---------------------------------------------------------------------------
# Optimizers


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adaptive-moment estimation, deterministic given its state."""

    def __init__(self, lr):
        self.lr = lr
        self.t = 0
        self.m = None
        self.v = None

    def step(self, param, grad):
        """One update of the array param, in place, along its gradient."""
        if not np.all(np.isfinite(grad)):
            raise NanGradientError("non-finite gradient; step aborted")
        if self.m is None:
            self.m = np.zeros_like(param)
            self.v = np.zeros_like(param)
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        self.m *= ADAM_BETA1
        self.m += (1 - ADAM_BETA1) * grad
        self.v *= ADAM_BETA2
        self.v += (1 - ADAM_BETA2) * grad * grad
        param -= self.lr * (self.m / b1t) / (np.sqrt(self.v / b2t) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Inference threads


def _predict_threads():
    """Threads running one _predict call: one per usable CPU, at most
    PREDICT_THREADS, where the environment pins numpy's OpenBLAS to one
    thread, and otherwise one, as BLAS then runs threads of its own."""
    blas = (os.environ.get("OPENBLAS_NUM_THREADS")
            or os.environ.get("OMP_NUM_THREADS"))
    if blas != "1":
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, PREDICT_THREADS)


@functools.cache
def _predict_pool():
    """The executor running _predict's block groups after the first, made
    on the first call, or None with one thread."""
    workers = _predict_threads() - 1
    return (concurrent.futures.ThreadPoolExecutor(
        workers, thread_name_prefix="gsplab-predict") if workers else None)


# a forked child inherits the executor but not its threads, so work
# submitted to it would never run
os.register_at_fork(after_in_child=_predict_pool.cache_clear)


# ---------------------------------------------------------------------------
# Actor and critic


class _NormalizedNet:
    """One-output Mlp over standardized inputs, with its checkpoint I/O.

    The actor and the critic differ only in the inputs they take besides
    the features (their ``_columns``), the output activation and the
    checkpoint kind tag.
    """

    KIND = EXTRA_INPUTS = OUTPUT = None  # set by each subclass

    def __init__(self, feature_dim, hidden, rng=None):
        self.feature_dim = feature_dim
        self.input_dim = self.EXTRA_INPUTS + feature_dim
        self.norm = Normalizer(self.input_dim)
        self.net = Mlp([self.input_dim, *hidden, 1], output=self.OUTPUT,
                       rng=rng)

    def fit_normalizer(self, *raw):
        """Fit the standardization to the rows of the raw input columns."""
        self.norm.fit(np.column_stack(self._columns(*raw)))
        return self

    def _inputs(self, *raw):
        """The standardized (B, input_dim) rows of the raw input columns."""
        return self.norm.transform(np.column_stack(self._columns(*raw)))

    def _predict(self, *raw):
        """The output for each row of the raw input columns, block by block.

        Each block of PREDICT_ROWS rows is stacked, standardized and run
        through one Mlp.predict into its slice of a preallocated output,
        so only block-sized arrays are built.  The remainder joins the
        last block, so no block is short unless the whole batch is: BLAS
        may round a few-row product unlike a long one.  With more than
        one block and more than one thread (see _predict_threads), the
        blocks form one contiguous group per thread; the calling thread
        runs the first group and _predict_pool the rest.  The workers run
        no traced code, so a tracer's span stack sees only the calling
        thread.
        """
        cols = self._columns(*raw)
        n_rows = len(cols[0])
        out = np.empty(n_rows)
        bounds = [0, *range(PREDICT_ROWS, n_rows - PREDICT_ROWS + 1,
                            PREDICT_ROWS), n_rows]
        blocks = list(zip(bounds[:-1], bounds[1:]))

        def run(group):
            for start, stop in group:
                U = self._inputs(*(c[start:stop] for c in cols))
                out[start:stop] = self.net.predict(U)[:, 0]

        pool = _predict_pool() if len(blocks) > 1 else None
        if pool is None:
            run(blocks)
            return out
        n_groups = min(len(blocks), _predict_threads())
        groups = [blocks[i * len(blocks) // n_groups:
                         (i + 1) * len(blocks) // n_groups]
                  for i in range(n_groups)]
        futures = [pool.submit(run, group) for group in groups[1:]]
        try:
            run(groups[0])
        finally:
            # no worker may still write into out once this call has ended
            concurrent.futures.wait(futures)
        for future in futures:
            future.result()
        return out

    def save(self, path):
        if not self.norm.fitted:
            raise UnfittedNormalizerError("refusing to save an unfitted model")
        net, flat = self.net, self.net.flat
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<III", CHECKPOINT_VERSION, self.KIND,
                                 len(net.sizes)))
            fh.write(struct.pack(f"<{len(net.sizes)}I", *net.sizes))
            fh.write(struct.pack("<II", _ACT_NAMES["tanh"],
                                 _ACT_NAMES[net.output]))
            self.norm.mean.astype("<f8").tofile(fh)
            self.norm.scale.astype("<f8").tofile(fh)
            fh.write(struct.pack("<Q", flat.size))
            flat.astype("<f8").tofile(fh)

    @classmethod
    def load(cls, path):
        kind, sizes, hidden, output, mean, scale, flat = _load_checkpoint(path)
        if kind != cls.KIND:
            raise ValueError(f"{path}: checkpoint kind {kind} is not a "
                             f"{cls.__name__}")
        if sizes[-1] != 1 or output != cls.OUTPUT:
            raise ValueError(f"{path}: a {cls.__name__} has one {cls.OUTPUT} "
                             f"output, not {sizes[-1]} {output}")
        if hidden != "tanh":
            raise ValueError(f"{path}: hidden activation {hidden}, not tanh")
        obj = cls(sizes[0] - cls.EXTRA_INPUTS, hidden=tuple(sizes[1:-1]))
        if flat.size != obj.net.flat.size:
            raise ValueError(f"{path}: {flat.size} parameters, but layer "
                             f"sizes {sizes} take {obj.net.flat.size}")
        obj.net.set_flat(flat)
        obj.norm.mean, obj.norm.scale = mean, scale
        return obj


class BidMultiplierNet(_NormalizedNet):
    """Actor pi(b, x) > 0: positive bid multiplier, rank score r = b * pi.

    Inputs are standardized with fitted statistics; the bid derivative is
    chain-ruled back through the normalization so callers always see
    d pi / d (raw bid).
    """

    KIND, EXTRA_INPUTS, OUTPUT = 1, 1, "softplus"  # input: bid, features

    def _columns(self, bids, feats):
        bids = np.asarray(bids, dtype=float).reshape(-1)
        feats = np.asarray(feats, dtype=float).reshape(bids.size, self.feature_dim)
        return bids, feats

    def multiplier_batch(self, bids, feats):
        return self._predict(bids, feats)

    def forward_with_grad(self, bids, feats):
        """(pi, d pi/d bid, caches) for a batch; caches feed backward_jvp."""
        U = self._inputs(bids, feats)
        Y, cache = self.net.forward(U)
        V = np.zeros_like(U)
        V[:, 0] = 1.0 / self.norm.scale[0]
        Ydot, jcache = self.net.jvp(cache, V)
        return Y[:, 0], Ydot[:, 0], (cache, jcache)


class CriticNet(_NormalizedNet):
    """Critic Q(s, a) over standardized (bid, features, action) input."""

    KIND, EXTRA_INPUTS, OUTPUT = 2, 2, "identity"

    def _columns(self, states, actions):
        return (np.asarray(states, dtype=float),
                np.asarray(actions, dtype=float).reshape(-1))

    def q_batch(self, states, actions):
        return self._predict(states, actions)

    def mse_and_grads(self, states, actions, targets):
        """Mean squared error against targets and its parameter gradient."""
        targets = np.asarray(targets, dtype=float).reshape(-1)
        Y, cache = self.net.forward(self._inputs(states, actions))
        resid = Y[:, 0] - targets
        loss = float(np.mean(resid**2))
        dY = (2.0 / targets.size) * resid[:, None]
        grad, _ = self.net.backward(cache, dY)
        return loss, grad

    def q_and_grad_action(self, states, actions):
        """(Q, dQ / d raw action) for each row, from one forward pass."""
        Y, cache = self.net.forward(self._inputs(states, actions))
        _, dU = self.net.backward(cache, np.ones_like(Y))
        return Y[:, 0], dU[:, -1] / self.norm.scale[-1]


# ---------------------------------------------------------------------------
# Checkpoint reading


def _load_checkpoint(path):
    """(kind, sizes, hidden, output, mean, scale, flat) of a checkpoint.

    Raises ValueError naming the file when it is not a well-formed one.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def read(n_bytes):
        nonlocal pos
        if n_bytes > len(data) - pos:
            raise ValueError(f"{path}: truncated checkpoint")
        pos += n_bytes
        return data[pos - n_bytes:pos]

    def floats(count):
        return np.frombuffer(read(8 * count), dtype="<f8").astype(float)

    if read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a gsplab checkpoint")
    version, kind, n_sizes = struct.unpack("<III", read(12))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if n_sizes < 2:
        raise ValueError(f"{path}: {n_sizes} layer sizes, need at least 2")
    sizes = list(struct.unpack(f"<{n_sizes}I", read(4 * n_sizes)))
    if min(sizes) < 1:
        raise ValueError(f"{path}: layer sizes {sizes} include a size below 1")
    act_ids = struct.unpack("<II", read(8))
    if not set(act_ids) <= set(_ACT_BY_ID):
        raise ValueError(f"{path}: unknown activation id in {act_ids}")
    mean = floats(sizes[0])
    scale = floats(sizes[0])
    (n_params,) = struct.unpack("<Q", read(8))
    flat = floats(n_params)
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes after "
                         f"the parameters")
    if not (np.isfinite(np.concatenate([mean, scale, flat])).all()
            and (scale > 0).all()):
        raise ValueError(f"{path}: non-finite values or a normalizer scale "
                         f"<= 0")
    return (kind, sizes, *(_ACT_BY_ID[i] for i in act_ids), mean, scale,
            flat)
