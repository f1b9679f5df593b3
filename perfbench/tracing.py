"""Spans around calls into relgauss's layers, patched in from outside.

Nothing in ``src/`` knows about this module. ``Tracer.installed()`` swaps
the public functions listed in ``SPAN_POINTS`` for wrappers that record one
span per call (name, start, end, parent span, operation id) and restores
the originals on exit. Spans stay in memory in flat arrays until the run
ends; ``layer_metrics`` then reduces them to per-layer counts, inclusive
times and self times.

``StepClock`` is the one hook the untraced run also needs: ``trainer.train``
is a single call, so the step boundaries (``numcore.zero_grad`` until
``trainer.adam_step`` returns) can only be timed by wrapping those two.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from time import perf_counter

import numpy as np

from relgauss import attention, encoders, gnn, model, numcore, relstore, sampler, trainer

# (owner, attribute, span name, operation kind the call opens)
# A training step runs from zero_grad to the next zero_grad, so it stays
# open after zero_grad returns; a scoring request is one predict_rows call.
SPAN_POINTS = [
    (relstore, "load_tables", "relstore.load_tables", None),
    (relstore, "build_graph", "relstore.build_graph", None),
    (trainer, "train", "trainer.train", None),
    (numcore, "zero_grad", "numcore.zero_grad", "step"),
    (trainer, "predict_rows", "trainer.predict_rows", "request"),
    (trainer, "sample", "sampler.sample", None),
    (sampler, "structural_sample", "sampler.structural", None),
    (sampler, "semantic_refine", "sampler.refine", None),
    (trainer.EmbeddingCache, "__call__", "trainer.embed_cache", None),
    (encoders.EncoderSuite, "node_embedding", "encoders.node_embedding", None),
    (trainer, "batch_subgraphs", "model.batch_subgraphs", None),
    (model.GelModel, "forward_batch", "model.forward_batch", None),
    (encoders.EncoderSuite, "encode_subgraph", "encoders.encode_subgraph", None),
    (attention.AttentionLayer, "attend", "attention.attend", None),
    (gnn.GnnBranch, "__call__", "gnn.branch", None),
    (numcore, "backward", "numcore.backward", None),
    (trainer, "adam_step", "trainer.adam_step", None),
]
SPAN_NAMES = [name for _, _, name, _ in SPAN_POINTS]


@contextlib.contextmanager
def patched(owner, attr: str, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.name_id = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.op_kinds: list[str] = []   # kind of each operation id
        self._stack: list[int] = []
        self._current_op = -1
        # counts observed at the same boundaries as the spans
        self.candidates = 0      # stage-1 candidates returned by structural_sample
        self.sampled_nodes = 0   # nodes kept in the subgraphs sample returns
        self.block_nodes = 0     # sum of n_i over batch_subgraphs calls
        self.block_sq = 0        # sum of n_i ** 2
        self.block_total_sq = 0  # sum of (sum of n_i) ** 2
        self.graph_nodes = 0     # nodes and directed typed edges over build_graph calls
        self.graph_edges = 0

    def begin_op(self, kind: str) -> None:
        self._current_op = len(self.op_kinds)
        self.op_kinds.append(kind)

    def _wrap(self, name: str, fn, op_kind: str | None):
        nid = SPAN_NAMES.index(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_op = tracer._current_op
            if op_kind is not None:
                tracer.begin_op(op_kind)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer._current_op)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
                if op_kind == "request":
                    tracer._current_op = outer_op
            tracer._observe(name, args, result)
            return result
        return wrapper

    def _observe(self, name: str, args, result) -> None:
        if name == "sampler.structural":
            self.candidates += len(result)
        elif name == "sampler.sample":
            self.sampled_nodes += result.n_nodes
        elif name == "model.batch_subgraphs":
            sizes = [s.n_nodes for s in args[0]]
            self.block_nodes += sum(sizes)
            self.block_sq += sum(n * n for n in sizes)
            self.block_total_sq += sum(sizes) ** 2
        elif name == "relstore.build_graph":
            self.graph_nodes += result.n_nodes
            self.graph_edges += sum(len(nbrs) for adj in result.adjacency.values()
                                    for nbrs in adj)

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            for owner, attr, name, op_kind in SPAN_POINTS:
                stack.enter_context(
                    patched(owner, attr, self._wrap(name, getattr(owner, attr), op_kind)))
            yield self

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int8),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.int64)}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(SPAN_NAMES),
                            op_kinds=np.array(self.op_kinds, dtype=str), **self.arrays())

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer counts and times; the ``*.self_s`` values sum to wall_s."""
        a = self.arrays()
        k = len(SPAN_NAMES)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child_s = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
        self_s = dur - child_s
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        own = np.bincount(a["name_id"], weights=self_s, minlength=k)
        at = {name: i for i, name in enumerate(SPAN_NAMES)}

        # node_embedding runs only on an embedding-cache miss
        cache = at["trainer.embed_cache"]
        is_embed = a["name_id"] == at["encoders.node_embedding"]
        misses = int(np.sum(a["name_id"][a["parent"][is_embed & nested]] == cache))

        def ratio(num, den):
            return float(num / den) if den else 0.0

        out = {f"{name}.self_s": float(own[i]) for i, name in enumerate(SPAN_NAMES)}
        out["other.self_s"] = wall_s - float(dur[~nested].sum())
        for name in ("sampler.sample", "encoders.node_embedding", "model.forward_batch",
                     "encoders.encode_subgraph", "attention.attend", "gnn.branch",
                     "numcore.backward", "trainer.embed_cache"):
            out[f"{name}.calls"] = int(calls[at[name]])
        for name in ("relstore.load_tables", "relstore.build_graph", "sampler.structural",
                     "sampler.refine", "encoders.node_embedding", "model.batch_subgraphs",
                     "encoders.encode_subgraph", "attention.attend", "gnn.branch",
                     "numcore.backward", "trainer.adam_step", "trainer.predict_rows"):
            out[f"{name}.s"] = float(total[at[name]])
        n_samples = int(calls[at["sampler.sample"]])
        out["sampler.candidates_mean"] = ratio(self.candidates, n_samples)
        out["sampler.nodes_mean"] = ratio(self.sampled_nodes, n_samples)
        out["sampler.kept_frac"] = ratio(self.sampled_nodes, self.candidates)
        out["trainer.embed_cache.hit_frac"] = ratio(calls[cache] - misses, calls[cache])
        out["model.batch_nodes_mean"] = ratio(self.block_nodes,
                                              calls[at["model.batch_subgraphs"]])
        out["model.block_fill"] = ratio(self.block_sq, self.block_total_sq)
        n_graphs = calls[at["relstore.build_graph"]]
        out["relstore.rows"] = ratio(self.graph_nodes, n_graphs)
        out["relstore.edges"] = ratio(self.graph_edges, n_graphs)
        out["trace.spans"] = len(dur)
        out["trace.ops"] = len(self.op_kinds)
        out["trace.wall_s"] = wall_s
        return out


class StepClock:
    """Wall time of each training step: zero_grad entry to adam_step return."""

    def __init__(self):
        self.step_ms: list[float] = []
        self._t0 = 0.0

    @contextlib.contextmanager
    def installed(self):
        zero_grad, adam_step = numcore.zero_grad, trainer.adam_step

        def timed_zero_grad(params):
            self._t0 = perf_counter()
            return zero_grad(params)

        def timed_adam_step(*args, **kwargs):
            result = adam_step(*args, **kwargs)
            self.step_ms.append((perf_counter() - self._t0) * 1e3)
            return result

        with patched(numcore, "zero_grad", timed_zero_grad), \
                patched(trainer, "adam_step", timed_adam_step):
            yield self
