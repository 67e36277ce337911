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
columns in blocks of ``PREDICT_ROWS`` rows, the remainder joining the
last block, and splits the blocks into one contiguous group per thread.
There is one thread per usable CPU, at most ``PREDICT_THREADS``, where
the environment pins BLAS to one thread (``OPENBLAS_NUM_THREADS``, else
``OMP_NUM_THREADS``, is 1), and otherwise one, so that inference threads
do not compete with BLAS's own.  The calling thread runs the first group
and a module-level thread pool, made on first need, runs the rest; a
forked child drops the inherited pool, whose threads did not survive the
fork.  A group copies each block's raw columns into one input buffer,
standardizes it in one subtract and one divide against the statistics
tiled over its rows, and runs ``Mlp.predict`` through one buffer per
layer, all sized for its largest block, into the block's slice of one
preallocated output, so no full-size array is built.  ``predict`` adds
each layer's bias from a flat copy repeated over ``BIAS_ROWS`` rows, made
once per call and shared by every group, to whole groups of that many
rows at a time: a bias broadcast over each row would take one short loop
per row.  A call of shorter blocks adds the bias row by row.  The actor
reads sampled rounds' compact ``Features`` in place, the static columns
from their pattern tiled once per call and the user's gathered per round.
The calling thread's buffers come from the heap, where the next call
reuses them; a worker's are memory mappings of its own
(``_mapped_array``, see below), unmapped at the call's end, since the
heap arena of a worker thread keeps its freed space resident.  Every
block is computed as it would be alone, so the output bits do not depend
on the number of threads; a row's bits may depend on its place in its
block, as BLAS may round it by that place.

``Mlp.forward`` runs ``predict`` and keeps every layer's activations and
first derivatives for the gradient passes (``backward_jvp`` derives the
second ones from them), so both passes give the same output bits.  A
training runs thousands of gradient passes on batches of one shape, so
an ``Mlp`` keeps its hidden layers' arrays, one (rows, width) array per
layer and kind, and the next pass over as many rows writes into them
with ``out=``; a forward over another row count replaces them all, so a
caller that alternates two row counts runs one of them through a copy
of the net.  Each kept array is an anonymous memory mapping of its own
(``_mapped_array``), unmapped when the array is dropped, so that it pins
no heap pages around it.  The output layer's arrays, the returned output
and tangent among them, are new on every pass.  A forward's cache is
valid until the net's next forward, a jvp's until its next forward or
jvp, and a gradient pass given another raises ValueError.  Each pass
computes only what its caller reads: backward returns the parameter
gradient and input_grad the input gradient.  The actor and critic take
their gradient passes' rows standardized (``inputs``, ``grad_inputs``),
so a trainer builds them once per batch.

Checkpoints are a self-describing little-endian binary format (magic
string, version, architecture dims, hidden and output activation ids,
normalization stats, row-major float64 parameter blocks).  A file whose
hidden id is not tanh's, or with a layer size below 1, is refused.
"""

from __future__ import annotations

import concurrent.futures
import functools
import mmap
import os
import struct
import weakref
from typing import NamedTuple

import numpy as np

from gsplab.auction import Features

CHECKPOINT_MAGIC = b"GSPLAB-NET"
CHECKPOINT_VERSION = 1

_ACT_NAMES = {"tanh": 0, "softplus": 1, "identity": 2}
_ACT_BY_ID = {v: k for k, v in _ACT_NAMES.items()}

# rows per inference block of _NormalizedNet._predict, and the most
# threads that run one call's blocks (see the module docstring)
PREDICT_ROWS = 1024
PREDICT_THREADS = 2
# the rows over which a _NormalizedNet._predict call of blocks at least
# this long repeats each layer's bias, so that Mlp.predict adds it to that
# many rows per step; a shorter call adds it row by row, as copying it
# would cost more than it saves
BIAS_ROWS = 128


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


def _tanh_first(a, out):
    """1 - a^2, the derivative of tanh where it took the value a."""
    d1 = np.multiply(a, a, out=out)
    return np.subtract(1.0, d1, out=d1)


def _tanh_second(a, d1, out):
    d2 = np.multiply(-2.0, a, out=out)
    d2 *= d1
    return d2


# output activation name -> (value, first, second) of the output layer;
# the hidden layers are tanh.  value(z) leaves z unchanged, first(z) is
# the first derivative at z and second(d1) the second one, from the first
# d1, so forward need not keep it; first and second return new arrays.
_OUTPUTS = {
    "softplus": (_softplus, _sigmoid, lambda d1: d1 * (1.0 - d1)),
    "identity": (lambda z: z, np.ones_like, np.zeros_like),
}


def _mapped_array(rows, cols):
    """A new (rows, cols) float64 array in a private anonymous memory
    mapping of its own, unmapped when the array is dropped (see the
    module docstring); a forked child writes into its own copy."""
    buf = mmap.mmap(-1, max(8 * rows * cols, 1), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype=float, count=rows * cols).reshape(
        rows, cols)


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

    def tiled(self, rows):
        """(mean, scale), each repeated as ``rows`` rows of a (rows, dim)
        array, with which transform standardizes up to that many rows."""
        if not self.fitted:
            raise UnfittedNormalizerError("normalizer statistics not fitted")
        return np.tile(self.mean, (rows, 1)), np.tile(self.scale, (rows, 1))

    def transform(self, *blocks, out=None, tiled=None):
        """(X - mean) / scale into out, or a new (B, dim) array, for X given
        as its column blocks ((B,) or (B, k) arrays), which are never
        stacked: each is copied into place, then all B rows are
        standardized by one subtract and one divide, each a single pass
        over contiguous rows, against ``tiled`` (see ``tiled``; made for
        B rows unless given)."""
        mean, scale = self.tiled(len(blocks[0])) if tiled is None else tiled
        Z = np.empty((len(blocks[0]), self.dim)) if out is None else out
        np.concatenate([b[:, None] if b.ndim == 1 else b for b in blocks],
                       axis=1, out=Z)
        Z -= mean[:len(Z)]
        Z /= scale[:len(Z)]
        return Z


class _Cache(dict):
    """A gradient pass's cache, which its net refers to weakly, so that
    the net keeps none of a caller's arrays alive."""


class Mlp:
    """Fully connected net: tanh hidden layers, then an ``output`` layer.

    The parameters are one flat vector, ``flat``, laid out as w0, b0, w1,
    b1, ..., which ``weights`` and ``biases`` view; the gradient passes
    return one flat gradient in its layout.

    predict is the value-only pass for callers that only read the output:
    it keeps no derivatives and no cache.  forward runs predict and keeps
    the activations and first activation derivatives that the gradient
    passes read, so both give the same output bits: backward is ordinary
    reverse mode for the parameters and input_grad for the input, jvp
    propagates an input tangent, and backward_jvp differentiates a loss
    of (output, output tangent) with respect to the parameters, taking
    second derivatives from the cached activations.

    Every pass but predict writes its hidden layers' arrays into those
    of the net's previous such pass over as many rows, one array per
    layer and kind; a forward over another row count replaces them.  The
    output layer's arrays, the returned output among them, are new on
    every pass.  A forward's cache is valid only until the net's next
    forward, a jvp's until its next forward or jvp: a gradient pass given
    any other raises ValueError.
    """

    def __init__(self, sizes, output="identity", rng=None):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if output not in _OUTPUTS:
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
        # the latest forward's row count, weak references to the caches
        # of the latest forward and jvp, and the arrays kept for passes
        # over that many rows, by kind
        self._rows, self._latest, self._kept = None, {}, {}

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

    def _arrays(self, kind):
        """The net's arrays of this kind, one per hidden layer, (rows of
        the latest forward, width): made on the first pass of the kind
        since the row count last changed, then written again."""
        if kind not in self._kept:
            self._kept[kind] = [_mapped_array(self._rows, n)
                                for n in self.sizes[1:-1]]
        return self._kept[kind]

    def _check(self, cache, kind="forward"):
        """Raise ValueError unless cache is the net's latest cache of its
        kind; a forward makes every older cache stale."""
        latest = self._latest.get(kind)
        if latest is None or latest() is not cache:
            raise ValueError(f"stale cache: not from the net's latest "
                             f"{kind} pass")

    def _to_input(self, dZ, layer, out=None):
        """dZ @ weights[layer]; with one output unit each entry is one
        product, which a broadcast gives without the matmul's overhead."""
        w = self.weights[layer]
        if w.shape[0] == 1:
            return np.multiply(dZ, w, out=out)
        return np.matmul(dZ, w, out=out)

    def set_flat(self, flat):
        if np.shape(flat) != self.flat.shape:
            raise ValueError("flat parameter vector has wrong length")
        self.flat[...] = flat

    def tiled_biases(self, rows):
        """Each layer's bias repeated ``rows`` times in one flat array,
        which predict adds to that many rows of the layer's product at a
        time; the net's own ``biases`` are the one-row case."""
        return [b[None].repeat(rows, axis=0).ravel() for b in self.biases]

    def predict(self, U, bufs=None, biases=None):
        """U: (B, n_in) -> output (B, n_out); the values only, in one pass
        over all rows.  With bufs, one array per layer of at least B rows
        and the layer's width, each layer's product is written into its
        buffer's first B rows in place of a new array (an identity
        output is then a view of the last buffer).  biases, if given, are
        the layers' biases as tiled_biases repeats them; by default the
        net's own, one row each."""
        A = np.asarray(U, dtype=float)
        biases = self.biases if biases is None else biases
        for layer, (w, b) in enumerate(zip(self.weights, biases)):
            Z = np.matmul(A, w.T, out=None if bufs is None
                          else bufs[layer][:len(A)])
            # b to each whole group of its rows as one flat add (Z is
            # contiguous, so the reshapes are views), then to the rest
            rest = len(Z) % (b.size // len(w))
            groups = (Z[:len(Z) - rest] if rest else Z).reshape(-1, b.size)
            groups += b
            if rest:
                tail = Z[len(Z) - rest:].reshape(-1)
                tail += b[:tail.size]
            A = (np.tanh(Z, out=Z) if layer < self.n_layers - 1
                 else _OUTPUTS[self.output][0](Z))
        return A

    def forward(self, U):
        """U: (B, n_in) -> output (B, n_out), plus cache for backward:
        predict's pass into the kept hidden arrays and a new output
        layer's, then each layer's first derivatives."""
        U = np.asarray(U, dtype=float)
        if len(U) != self._rows:
            self._rows, self._kept = len(U), {}
        hidden, Z = self._arrays("acts"), np.empty((len(U), self.sizes[-1]))
        Y = self.predict(U, [*hidden, Z])
        d1s = [_tanh_first(A, d1)
               for A, d1 in zip(hidden, self._arrays("d1s"))]
        d1s.append(_OUTPUTS[self.output][1](Z))
        cache = _Cache(acts=[U, *hidden, Y], d1s=d1s)
        self._latest = {"forward": weakref.ref(cache)}
        return Y, cache

    def _layer_grads(self, cache, dY):
        """(layer, dZ) from the output layer down: the gradient of
        sum(dY * Y) wrt each layer's pre-activation, a hidden layer's in
        an array of _arrays.  Layer 0's input product is the caller's."""
        self._check(cache)
        d1s, dZs = cache["d1s"], self._arrays("dzs")
        dZ = dY * d1s[-1]
        for layer in range(self.n_layers - 1, 0, -1):
            yield layer, dZ
            dZ = self._to_input(dZ, layer, out=dZs[layer - 1])
            dZ *= d1s[layer - 1]
        yield 0, dZ

    def backward(self, cache, dY):
        """Gradient of sum(dY * Y) wrt the parameters, in the layout of
        flat."""
        acts = cache["acts"]
        grad = np.empty_like(self.flat)
        gws, gbs = self._views(grad)
        for layer, dZ in self._layer_grads(cache, dY):
            np.matmul(dZ.T, acts[layer], out=gws[layer])
            dZ.sum(axis=0, out=gbs[layer])
        return grad

    def input_grad(self, cache, dY):
        """Gradient of sum(dY * Y) wrt the input U, a new (B, n_in) array;
        no parameter products are formed."""
        *_, (_, dZ) = self._layer_grads(cache, dY)
        return self._to_input(dZ, 0)

    def jvp(self, cache, V):
        """Directional derivative of the output along input tangent V."""
        self._check(cache)
        S = np.asarray(V, dtype=float)
        ts, ss = [], [S]
        # per layer, a hidden one's arrays, and None for the output
        # layer's, which are new
        for w, d1, T, S_out in zip(self.weights, cache["d1s"],
                                   self._arrays("ts") + [None],
                                   self._arrays("ss") + [None]):
            T = np.matmul(S, w.T, out=T)
            S = np.multiply(d1, T, out=S_out)
            ts.append(T)
            ss.append(S)
        jcache = _Cache(ts=ts, ss=ss)
        self._latest["jvp"] = weakref.ref(jcache)
        return S, jcache

    def backward_jvp(self, cache, jcache, dY, dYdot):
        """Parameter gradients of a loss depending on (Y, Ydot).

        dY and dYdot are the loss derivatives wrt the output and the
        output tangent respectively.
        """
        self._check(cache)
        self._check(jcache, "jvp")
        acts, d1s = cache["acts"], cache["d1s"]
        ts, ss = jcache["ts"], jcache["ss"]
        grad = np.empty_like(self.flat)
        gws, gbs = self._views(grad)
        # per layer, a hidden one's arrays, and None for the output
        # layer's, which are new; a hidden layer's dA and dS arrive in its
        # dZ and dT arrays, which the products below then overwrite
        d2s, dZs, dTs = (self._arrays(kind) + [None]
                         for kind in ("d2s", "dzs", "dts"))
        # per layer dZ = dA * d1 + dS * d2 * T and dT = dS * d1, with
        # (dA, dS) = (dY, dYdot) at the output
        dA, dS = dY, dYdot
        for layer in range(self.n_layers - 1, -1, -1):
            d1 = d1s[layer]
            d2 = (_OUTPUTS[self.output][2](d1) if d2s[layer] is None
                  else _tanh_second(acts[layer + 1], d1, d2s[layer]))
            d2 *= dS
            d2 *= ts[layer]
            dZ = np.multiply(dA, d1, out=dZs[layer])
            dZ += d2
            dT = np.multiply(dS, d1, out=dTs[layer])
            np.matmul(dZ.T, acts[layer], out=gws[layer])
            gws[layer] += dT.T @ ss[layer]
            dZ.sum(axis=0, out=gbs[layer])
            if layer > 0:
                dA = self._to_input(dZ, layer, out=dZs[layer - 1])
                dS = self._to_input(dT, layer, out=dTs[layer - 1])
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
    on the first call, which comes only with more than one thread."""
    return concurrent.futures.ThreadPoolExecutor(
        _predict_threads() - 1, thread_name_prefix="gsplab-predict")


# a forked child inherits the executor but not its threads, so work
# submitted to it would never run
os.register_at_fork(after_in_child=_predict_pool.cache_clear)


# ---------------------------------------------------------------------------
# Raw input column blocks that repeat


class _Cycle(NamedTuple):
    """A raw input column block whose row i is pattern[i % len(pattern)]."""

    pattern: np.ndarray


class _Held(NamedTuple):
    """A raw input column block whose row i is values[i // every]."""

    values: np.ndarray
    every: int


def _row_reader(block, most):
    """A function of (start, stop) giving rows start:stop, at most
    ``most`` of them, of a raw input column block: a slice of an array of
    the batch's rows, a slice of a _Cycle's pattern, tiled here once, or a
    _Held's values gathered by row // every, from a pattern of quotients
    made here once."""
    if isinstance(block, _Cycle):
        period = len(block.pattern)
        tiled = np.tile(block.pattern, (most // period + 2, 1))
        return lambda start, stop: tiled[start % period:][:stop - start]
    if isinstance(block, _Held):
        every = block.every
        # (start + i) // every is start // every + (start % every + i) // every
        held = np.arange(most + every) // every
        return lambda start, stop: block.values[start // every:].take(
            held[start % every:][:stop - start], axis=0)
    return lambda start, stop: block[start:stop]


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

    def _all_rows(self, *raw):
        """Every row of each raw input column block (see _row_reader)."""
        cols = self._columns(*raw)
        return [_row_reader(c, len(cols[0]))(0, len(cols[0])) for c in cols]

    def fit_normalizer(self, *raw):
        """Fit the standardization to the rows of the raw input columns."""
        self.norm.fit(np.column_stack(self._all_rows(*raw)))
        return self

    def inputs(self, *raw):
        """The standardized (B, input_dim) rows of the raw input columns,
        which the gradient passes take: a trainer standardizes a batch
        once for all the steps it takes on it."""
        return self.norm.transform(*self._all_rows(*raw))

    def _predict(self, *raw):
        """The output for each row of the raw input columns, block by block
        and group by group, as the module docstring describes: the calling
        thread runs the first group and the pool the others, if any.

        The remainder joins the last block, so no block is short unless
        the whole batch is: BLAS may round a few-row product unlike a long
        one.  A call of one block runs it on the calling thread without
        asking for a thread count.  The workers run no traced code, so a
        tracer's span stack sees only the calling thread.
        """
        cols = self._columns(*raw)
        n_rows = len(cols[0])
        out = np.empty(n_rows)
        bounds = [0, *range(PREDICT_ROWS, n_rows - PREDICT_ROWS + 1,
                            PREDICT_ROWS), n_rows]
        blocks = list(zip(bounds[:-1], bounds[1:]))
        # made once for the largest block and only read by every group
        largest = max(stop - start for start, stop in blocks)
        tiled = self.norm.tiled(largest)
        biases = (self.net.tiled_biases(BIAS_ROWS) if largest >= BIAS_ROWS
                  else self.net.biases)
        readers = [_row_reader(c, largest) for c in cols]

        def run(group, mapped=False):
            most = max(stop - start for start, stop in group)
            U, *bufs = [_mapped_array(most, n) if mapped
                        else np.empty((most, n)) for n in self.net.sizes]
            for start, stop in group:
                rows = self.norm.transform(
                    *[read(start, stop) for read in readers],
                    out=U[:stop - start], tiled=tiled)
                out[start:stop] = self.net.predict(rows, bufs, biases)[:, 0]

        n_groups = (1 if len(blocks) == 1
                    else min(len(blocks), _predict_threads()))
        groups = [blocks[i * len(blocks) // n_groups:
                         (i + 1) * len(blocks) // n_groups]
                  for i in range(n_groups)]
        futures = [_predict_pool().submit(run, group, True)
                   for group in groups[1:]]
        try:
            run(groups[0])
        finally:
            # no worker may still write into out once this call has ended
            if futures:
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
        if isinstance(feats, Features):
            # rates per row; the static columns cycle through the
            # advertisers and the user's is held for each round's
            return (bids, feats.rates.reshape(-1, feats.rates.shape[-1]),
                    _Cycle(feats.static),
                    _Held(feats.user, len(feats.static)))
        feats = np.asarray(feats, dtype=float).reshape(bids.size, self.feature_dim)
        return bids, feats

    def multiplier_batch(self, bids, feats):
        return self._predict(bids, feats)

    def grad_inputs(self, bids, feats):
        """(U, V) of a batch for forward_with_grad: its standardized rows
        and the input tangent along the raw bid."""
        U = self.inputs(bids, feats)
        V = np.zeros_like(U)
        V[:, 0] = 1.0 / self.norm.scale[0]
        return U, V

    def forward_with_grad(self, U, V):
        """(pi, d pi/d bid, caches) for the rows (U, V) of grad_inputs;
        the caches feed backward_jvp until the net's next forward."""
        Y, cache = self.net.forward(U)
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

    def mse_and_grads(self, U, targets):
        """Mean squared error of Q on the standardized rows U (see
        inputs) against targets, and its parameter gradient."""
        targets = np.asarray(targets, dtype=float).reshape(-1)
        Y, cache = self.net.forward(U)
        resid = Y[:, 0] - targets
        loss = float(np.mean(resid**2))
        dY = (2.0 / targets.size) * resid[:, None]
        return loss, self.net.backward(cache, dY)

    def q_and_grad_action(self, states, actions):
        """(Q, dQ / d raw action) for each row, from one forward pass."""
        Y, cache = self.net.forward(self.inputs(states, actions))
        dU = self.net.input_grad(cache, np.ones_like(Y))
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
