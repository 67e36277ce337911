"""In-memory span tracer wrapped around gsplab's public functions.

The program is not instrumented: while ``Tracer.patched()`` is active,
each traced method is replaced on its class and each traced function is
rebound in every ``gsplab`` module that holds it, because names imported
by value (``from gsplab.auction import allocate_batch``) would otherwise
keep calling the unwrapped function.  Spans stay in memory until
``write`` is called at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from dataclasses import dataclass

# One span: [name, start, end, parent index (-1 for a root), op id,
#            rows, flops, outcome dict or None]
NAME, START, END, PARENT, OP, ROWS, FLOPS, OUTCOME = range(8)


def _n_rows(x):
    shape = getattr(x, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) else 1
    return len(x)


def _mlp_flops(mlp, U):
    # multiply-adds of the affine layers, counted as 2 flops each
    sizes = mlp.sizes
    per_row = sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))
    return 2 * per_row * _n_rows(U)


@dataclass(frozen=True)
class Target:
    """One traced callable: ``attr`` of ``module`` is wrapped as span ``name``.

    ``rows`` and ``flops`` see the call's arguments; ``outcome`` sees
    its return value.
    """

    name: str
    module: str
    attr: str               # "Class.method" or "function"
    rows: object = None
    flops: object = None
    outcome: object = None


def _per_winner(result):
    return {"winners": result.n_winners, "excluded": result.n_excluded}


TARGETS = (
    Target("simulator.World", "gsplab.simulator", "World.__init__"),
    Target("simulator.World.sample_rounds", "gsplab.simulator",
           "World.sample_rounds", rows=lambda self, n, *a, **k: int(n)),
    Target("simulator.World.settle", "gsplab.simulator", "World.settle",
           rows=lambda self, rounds, *a, **k: rounds.n_rounds),
    Target("simulator.World.evaluate", "gsplab.simulator", "World.evaluate"),
    Target("auction.GspMechanism.score_batch", "gsplab.auction",
           "GspMechanism.score_batch",
           rows=lambda self, bids, *a, **k: int(bids.size)),
    Target("auction.DeepGspMechanism.score_batch", "gsplab.auction",
           "DeepGspMechanism.score_batch",
           rows=lambda self, bids, *a, **k: int(bids.size)),
    Target("auction.allocate_batch", "gsplab.auction", "allocate_batch",
           rows=lambda scores, *a, **k: _n_rows(scores)),
    Target("auction.price_batch", "gsplab.auction", "price_batch",
           rows=lambda order, *a, **k: _n_rows(order)),
    Target("auction.price_exact_binary_search", "gsplab.auction",
           "price_exact_binary_search"),
    Target("nets.Mlp.forward", "gsplab.nets", "Mlp.forward",
           rows=lambda self, U: _n_rows(U),
           flops=lambda self, U: _mlp_flops(self, U)),
    Target("nets.Mlp.backward", "gsplab.nets", "Mlp.backward",
           rows=lambda self, cache, dY: _n_rows(dY)),
    Target("nets.Mlp.jvp", "gsplab.nets", "Mlp.jvp",
           rows=lambda self, cache, V: _n_rows(V)),
    Target("nets.Mlp.backward_jvp", "gsplab.nets", "Mlp.backward_jvp",
           rows=lambda self, cache, jcache, dY, dYdot: _n_rows(dY)),
    Target("nets.BidMultiplierNet.multiplier_batch", "gsplab.nets",
           "BidMultiplierNet.multiplier_batch",
           rows=lambda self, bids, feats: _n_rows(bids)),
    Target("nets.Adam.step", "gsplab.nets", "Adam.step"),
    Target("trainer.train", "gsplab.trainer", "train"),
    Target("trainer.warm_start_actor", "gsplab.trainer", "warm_start_actor"),
    Target("trainer.pretrain_critic", "gsplab.trainer", "pretrain_critic"),
    Target("trainer.collect_batch", "gsplab.trainer", "collect_batch"),
    Target("trainer.critic_update", "gsplab.trainer", "critic_update"),
    Target("trainer.actor_update", "gsplab.trainer", "actor_update"),
    Target("trainer.spot_monotonicity", "gsplab.trainer", "spot_monotonicity"),
    Target("trainer.penalized_objective", "gsplab.trainer",
           "penalized_objective"),
    Target("audit.monotonicity_metric", "gsplab.audit", "monotonicity_metric"),
    Target("audit.payment_error_rate", "gsplab.audit", "payment_error_rate",
           outcome=_per_winner),
    Target("audit.i_sic", "gsplab.audit", "i_sic"),
    Target("cli.main", "gsplab.cli", "main"),
)


class Tracer:
    """Collects spans from the calls made while ``patched()`` is active."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1

    def _record(self, name, rows=0, flops=0):
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, self.op,
                rows, flops, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        span = self._record(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rows = target.rows(*args, **kwargs) if target.rows else 0
            flops = target.flops(*args, **kwargs) if target.flops else 0
            span = tracer._record(target.name, rows, flops)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if target.outcome is not None:
                span[OUTCOME] = target.outcome(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Wrap every target; restore the originals on exit."""
        restore = []
        try:
            for target in TARGETS:
                module = importlib.import_module(target.module)
                if "." in target.attr:
                    cls_name, meth = target.attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(target, original))
                    restore.append((cls, meth, original))
                    continue
                original = getattr(module, target.attr)
                wrapped = self._wrap(target, original)
                for mod_name, mod in list(sys.modules.items()):
                    if not (mod_name == "gsplab" or mod_name.startswith("gsplab.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            restore.append((mod, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def write(self, path):
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START],
                    "end": s[END], "parent": s[PARENT], "op": s[OP],
                    "rows": s[ROWS], "flops": s[FLOPS],
                    "outcome": s[OUTCOME]}) + "\n")


# ---------------------------------------------------------------------------
# Aggregation


def self_times(spans):
    """Duration of each span minus the part its child spans cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s[START]
        for c in sorted(children[i], key=lambda c: spans[c][START]):
            lo = max(spans[c][START], cursor)
            hi = min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s[END] - s[START] - covered)
    return out


def _ancestor(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return p
        p = spans[p][PARENT]
    return -1


# Counters of descendant spans, reported per call of the ancestor:
# stat -> (ancestor span, predicate on descendant span names)
DESCENDANT_COUNTS = {
    ("trainer.warm_start_actor", "adam_steps"): lambda n: n == "nets.Adam.step",
    ("trainer.pretrain_critic", "epochs"): lambda n: n == "nets.Adam.step",
    ("audit.payment_error_rate", "forward_calls"):
        lambda n: n == "nets.Mlp.forward",
    ("audit.i_sic", "score_batch_calls"): lambda n: n.endswith(".score_batch"),
}


def layer_metrics(spans, names, n_ops):
    """Per-layer metric values for ``names`` over ``n_ops`` operations.

    A name reads ``<span>.<stat>``.  calls, rows, self_s and gflop are
    totals per operation; rows_per_call, useful_frac and the
    DESCENDANT_COUNTS counters are ratios, so they do not depend on
    the number of operations.
    """
    selfs = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
    out = {}
    for metric in names:
        span_name, stat = metric.rsplit(".", 1)
        idx = by_name.get(span_name, [])
        calls = len(idx)
        if stat == "calls":
            value = calls / n_ops
        elif stat == "rows":
            value = sum(spans[i][ROWS] for i in idx) / n_ops
        elif stat == "self_s":
            value = sum(selfs[i] for i in idx) / n_ops
        elif stat == "gflop":
            value = sum(spans[i][FLOPS] for i in idx) / 1e9 / n_ops
        elif stat == "rows_per_call":
            value = sum(spans[i][ROWS] for i in idx) / calls if calls else 0.0
        elif stat == "useful_frac":
            won = sum(spans[i][OUTCOME]["winners"] for i in idx)
            lost = sum(spans[i][OUTCOME]["excluded"] for i in idx)
            value = won / (won + lost) if won + lost else 0.0
        elif (span_name, stat) in DESCENDANT_COUNTS:
            match = DESCENDANT_COUNTS[(span_name, stat)]
            count = sum(1 for i, s in enumerate(spans)
                        if match(s[NAME]) and _ancestor(spans, i, span_name) >= 0)
            value = count / calls if calls else 0.0
        else:
            raise KeyError(f"no rule computes per-layer metric {metric!r}")
        out[metric] = value
    return out
