"""Encoders mapping heterogeneous node attributes into a shared d-space.

Five per-node channels (type, hop, time delta, tabular row, structural
position) are produced independently, layer-normed, concatenated and mixed
down to width d by a 2-layer perceptron.

Every layer is an ``nc.Module``; the names given to its parameters here
are their names in a checkpoint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy.special import ndtri

from . import numcore as nc
from .numcore import Module, Parameter, Tensor
from .relstore import DatabaseSchema, RelGraph, TableData

if TYPE_CHECKING:
    from .model import BatchedSubgraphs, ModelConfig

SECONDS_PER_DAY = 86400.0


class Affine(Module):
    """y = x @ W.T + b with fan-in scaled init."""

    def __init__(self, name: str, d_in: int, d_out: int, rng: np.random.Generator):
        scale = 1.0 / np.sqrt(d_in)
        self.W = Parameter(rng.normal(0.0, scale, size=(d_out, d_in)), f"{name}.W")
        self.b = Parameter(np.zeros(d_out), f"{name}.b")

    def __call__(self, x: Tensor) -> Tensor:
        return nc.linear(x, self.W, self.b)


class Norm(Module):
    """LayerNorm gain/shift pair."""

    def __init__(self, name: str, d: int):
        self.gain = Parameter(np.ones(d), f"{name}.gain")
        self.shift = Parameter(np.zeros(d), f"{name}.shift")

    def __call__(self, x: Tensor) -> Tensor:
        return nc.layer_norm(x, self.gain, self.shift)


class ResidualBlock(Module):
    """h + a2(GELU(LayerNorm(a1(x)))), with x = h unless given."""

    def __init__(self, name: str, d: int, rng: np.random.Generator):
        self.a1 = Affine(f"{name}.a1", d, d, rng)
        self.norm = Norm(f"{name}.norm", d)
        self.a2 = Affine(f"{name}.a2", d, d, rng)

    def __call__(self, h: Tensor, x: Tensor | None = None) -> Tensor:
        return nc.residual_mlp(h, [(h if x is None else x, self.a1.W)], self.norm.gain,
                               self.norm.shift, self.a1.b, self.a2.W, self.a2.b)


class Embedding(Module):
    """Lookup table of ``n_rows`` learnable d-vectors, ids range-checked."""

    def __init__(self, name: str, n_rows: int, d: int, rng: np.random.Generator):
        self.name = name
        self.table = Parameter(rng.normal(0.0, 0.1, size=(n_rows, d)), f"{name}.table")

    def __call__(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids)
        n_rows = self.table.shape[0]
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= n_rows:
            raise IndexError(f"{self.name} id out of range [0, {n_rows})")
        return nc.rows(self.table, ids)


class TimeEncoder(Module):
    """Sinusoids over a geometric frequency ladder, then a learnable affine.

    Delta times are measured in days. Invalid deltas (negative or
    non-finite, e.g. from timestampless dimension rows) are replaced by a
    learnable mask vector.
    """

    def __init__(self, d: int, rng: np.random.Generator):
        j = np.arange(d // 2)
        self.frequencies = np.power(10000.0, -2.0 * j / d)  # strictly decreasing
        self.proj = Affine("time.proj", d, d, rng)
        self.mask_vector = Parameter(rng.normal(0.0, 0.1, size=d), "time.mask")

    def sinusoid_features(self, delta_seconds: np.ndarray) -> np.ndarray:
        days = np.asarray(delta_seconds, dtype=np.float64) / SECONDS_PER_DAY
        ang = days[:, None] * self.frequencies[None, :]
        return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)

    def __call__(self, delta_seconds: np.ndarray) -> Tensor:
        delta = np.asarray(delta_seconds, dtype=np.float64)
        invalid = ~np.isfinite(delta) | (delta < 0)
        safe = np.where(invalid, 0.0, delta)
        proj = self.proj(Tensor(self.sinusoid_features(safe)))
        if not invalid.any():
            return proj
        valid_col = Tensor((~invalid).astype(np.float64)[:, None])
        invalid_col = Tensor(invalid.astype(np.float64)[:, None])
        return proj * valid_col + self.mask_vector * invalid_col


class TabularEncoder(Module):
    """Per-column encoders, sum-pooled, then two residual blocks.

    Numerical cells are standardized per column (train-time statistics from
    the loaded tables) and missing values impute to 0 after
    standardization. Categorical cells index a per-column embedding table
    with a dedicated missing row.
    """

    def __init__(self, d: int, schema: DatabaseSchema, tables: TableData,
                 rng: np.random.Generator):
        self.d = d
        task = schema.task
        self.num_cols: dict[str, list[tuple[str, float, float]]] = {}
        self.cat_cols: dict[str, list[str]] = {}
        self.num_params: dict[tuple[str, str], tuple[Parameter, Parameter]] = {}
        self.cat_params: dict[tuple[str, str], Parameter] = {}
        for tname, cols in schema.tables:
            tc = tables.tables[tname]
            nums, cats = [], []
            for c in cols:
                if tname == task.target_table and c.name == task.target_column:
                    continue  # never feed the label back in as a feature
                if c.kind == "numerical":
                    vals = tc.numerical[c.name]
                    finite = vals[np.isfinite(vals)]
                    mean = float(finite.mean()) if finite.size else 0.0
                    std = float(finite.std()) if finite.size else 1.0
                    if std == 0.0:
                        std = 1.0
                    nums.append((c.name, mean, std))
                    self.num_params[(tname, c.name)] = (
                        Parameter(rng.normal(0.0, 0.1, size=d), f"tab.{tname}.{c.name}.w"),
                        Parameter(np.zeros(d), f"tab.{tname}.{c.name}.b"))
                elif c.kind == "categorical":
                    cats.append(c.name)
                    vocab = len(tc.categorical_vocab[c.name])
                    self.cat_params[(tname, c.name)] = Parameter(
                        rng.normal(0.0, 0.1, size=(vocab + 1, d)),
                        f"tab.{tname}.{c.name}.emb")  # last row = missing
            self.num_cols[tname] = nums
            self.cat_cols[tname] = cats
        self.blocks = [ResidualBlock(f"tab.block{k}", d, rng) for k in range(2)]

    def encode_rows(self, table: str, row_idx: np.ndarray, tables: TableData) -> Tensor:
        if table not in self.num_cols:
            raise KeyError(f"unknown table {table!r}")
        tc = tables.tables[table]
        row_idx = np.asarray(row_idx, dtype=np.intp)
        pooled: Tensor | None = None
        for name, mean, std in self.num_cols[table]:
            vals = tc.numerical[name][row_idx]
            z = np.where(np.isfinite(vals), (vals - mean) / std, 0.0)
            w, b = self.num_params[(table, name)]
            contrib = Tensor(z[:, None]) * w + b
            pooled = contrib if pooled is None else pooled + contrib
        for name in self.cat_cols[table]:
            emb = self.cat_params[(table, name)]
            ids = tc.categorical[name][row_idx].copy()
            ids[ids < 0] = emb.shape[0] - 1
            contrib = nc.rows(emb, ids)
            pooled = contrib if pooled is None else pooled + contrib
        if pooled is None:
            pooled = Tensor(np.zeros((len(row_idx), self.d)))
        h = pooled
        for block in self.blocks:
            h = block(h)
        return h


class PositionalEncoder(Module):
    """GIN over each subgraph's local edges, random-feature initialized."""

    def __init__(self, pe_dim: int, n_layers: int, rng: np.random.Generator):
        self.layers = [(Parameter(np.zeros(()), f"pos.gin{k}.eps"),
                        ResidualBlock(f"pos.gin{k}", pe_dim, rng))
                       for k in range(n_layers)]
        self.out = Affine("pos.out", pe_dim, pe_dim, rng)

    def __call__(self, batch: BatchedSubgraphs, init_features: np.ndarray) -> Tensor:
        h = Tensor(np.asarray(init_features, dtype=np.float64))
        for eps, block in self.layers:
            h = block(h, h * (1.0 + eps) + batch.propagate(batch.adjacency, h))
        return self.out(h)


# splitmix64 (Steele, Lea and Flood, OOPSLA 2014): the stream increment and
# the two multipliers of its finaliser
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """One splitmix64 step of each uint64 state; array arithmetic wraps
    mod 2**64 silently (numpy scalars would warn)."""
    z = z + _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def positional_init(run_seed: int, global_ids: np.ndarray, pe_dim: int) -> np.ndarray:
    """Per-node standard-normal features keyed by (run seed, global node id).

    Node g's features are the first ``pe_dim`` outputs of a splitmix64
    stream whose state is hash(run seed) + g, each mapped through the normal
    quantile of u = (top 52 bits + 1/2) / 2**52, exactly inside (0, 1). (With
    53 bits, k + 1/2 rounds to even and the top k gives u = 1.) One
    vectorised call, with no generator and no cache.
    Keying by global id makes the features order-independent, so
    positional encoding is equivariant under relabeling of the local
    subgraph.
    """
    seed = np.array([run_seed & 0xFFFF_FFFF_FFFF_FFFF], dtype=np.uint64)
    gids = np.asarray(global_ids, dtype=np.int64).astype(np.uint64)
    state = _splitmix64(seed) + gids
    steps = np.arange(pe_dim, dtype=np.uint64) * _GAMMA
    bits = _splitmix64(state[:, None] + steps[None, :])
    return ndtri(((bits >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0 ** -52)


class FeatureMixer(Module):
    """Per-channel LayerNorm -> concat -> affine -> GELU -> affine to d."""

    def __init__(self, d: int, pe_dim: int, rng: np.random.Generator):
        self.norms = [Norm(f"mix.norm{i}", d) for i in range(4)]
        self.pos_norm = Norm("mix.norm_pos", pe_dim)
        total = 4 * d + pe_dim
        self.a1 = Affine("mix.a1", total, d, rng)
        self.a2 = Affine("mix.a2", d, d, rng)

    def __call__(self, type_e: Tensor, hop_e: Tensor, time_e: Tensor,
                 tab_e: Tensor, pos_e: Tensor) -> Tensor:
        parts = [norm(x) for norm, x in zip(self.norms, (type_e, hop_e, time_e, tab_e))]
        parts.append(self.pos_norm(pos_e))
        return self.a2(nc.gelu(self.a1(nc.concat(parts, axis=1))))


class EncoderSuite(Module):
    """All node encoders plus the mixer; produces the N x d input matrix."""

    def __init__(self, config: ModelConfig, schema: DatabaseSchema,
                 tables: TableData, rng: np.random.Generator):
        d = config.d
        self.pe_dim = config.pe_dim
        self.type_enc = Embedding("type", len(schema.tables), d, rng)
        self.hop_enc = Embedding("hop", config.max_hop + 1, d, rng)
        self.time_enc = TimeEncoder(d, rng)
        self.tab_enc = TabularEncoder(d, schema, tables, rng)
        self.pos_enc = PositionalEncoder(config.pe_dim, config.gin_layers, rng)
        self.mixer = FeatureMixer(d, config.pe_dim, rng)

    def encode_subgraph(self, sub: BatchedSubgraphs, graph: RelGraph,
                        tables: TableData, run_seed: int, cache=None) -> Tensor:
        """The (rows, d) mixed node features of the batch.

        ``cache`` maps an int array of nodes to their current tabular
        embeddings (``node_embedding``'s rows, e.g. a filled
        ``trainer.EmbeddingCache``); the tabular channel is then read from it
        instead of encoded again. A cached row carries no gradient, so a
        cache with gradients on raises ``ValueError``.
        """
        if cache is not None and nc.grad_enabled():
            raise ValueError("a cached tabular channel has no gradient: "
                             "pass a cache only under no_grad")
        type_ids = graph.node_type[sub.nodes]
        type_e = self.type_enc(type_ids)
        hop_e = self.hop_enc(sub.hop)
        time_e = self.time_enc(sub.delta_t)
        tab_e = (self._encode_tabular(sub.nodes, graph, tables) if cache is None
                 else Tensor(cache(sub.nodes)))
        init = positional_init(run_seed, sub.nodes, self.pe_dim)
        pos_e = self.pos_enc(sub, init)
        return self.mixer(type_e, hop_e, time_e, tab_e, pos_e)

    def _encode_tabular(self, nodes: np.ndarray, graph: RelGraph,
                        tables: TableData) -> Tensor:
        # group nodes by source table so each table is encoded in one shot
        type_ids = graph.node_type[nodes]
        pieces: list[Tensor] = []
        order = np.empty(len(nodes), dtype=np.intp)
        pos = 0
        for tid, tname in enumerate(graph.node_table):
            mask = type_ids == tid
            if not mask.any():
                continue
            idx = np.flatnonzero(mask)
            rows = graph.node_row[nodes[idx]]
            pieces.append(self.tab_enc.encode_rows(tname, rows, tables))
            order[idx] = np.arange(pos, pos + len(idx))
            pos += len(idx)
        stacked = pieces[0] if len(pieces) == 1 else nc.concat(pieces, axis=0)
        return nc.rows(stacked, order)

    def node_embedding(self, nodes: np.ndarray, graph: RelGraph,
                       tables: TableData) -> np.ndarray:
        """(k, d) tabular embeddings of the nodes (semantic-similarity channel)."""
        with nc.no_grad():
            return self._encode_tabular(np.asarray(nodes), graph, tables).data
