"""Encoders mapping heterogeneous node attributes into a shared d-space.

Five per-node channels (type, hop, time delta, tabular row, structural
position) are produced independently, layer-normed, concatenated and mixed
down to width d by a 2-layer perceptron.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from . import numcore as nc
from .numcore import Parameter, Tensor
from .relstore import DatabaseSchema, RelGraph, TableData

if TYPE_CHECKING:
    from .model import BatchedSubgraphs

SECONDS_PER_DAY = 86400.0


@dataclass
class EncoderConfig:
    d: int = 512
    n_node_types: int = 2
    max_hop: int = 2
    pe_dim: int = 128
    gin_layers: int = 2

    def __post_init__(self):
        if self.d % 2:
            raise ValueError("d must be even")
        if self.pe_dim > self.d:
            raise ValueError("pe_dim must not exceed d")

    @property
    def time_freqs(self) -> int:
        return self.d // 2


class Affine:
    """y = x @ W.T + b with fan-in scaled init."""

    def __init__(self, name: str, d_in: int, d_out: int, rng: np.random.Generator):
        scale = 1.0 / np.sqrt(d_in)
        self.W = Parameter(rng.normal(0.0, scale, size=(d_out, d_in)), f"{name}.W")
        self.b = Parameter(np.zeros(d_out), f"{name}.b")

    def __call__(self, x: Tensor) -> Tensor:
        return nc.linear(x, self.W, self.b)

    def parameters(self):
        return [self.W, self.b]


class Norm:
    """LayerNorm gain/shift pair."""

    def __init__(self, name: str, d: int):
        self.gain = Parameter(np.ones(d), f"{name}.gain")
        self.shift = Parameter(np.zeros(d), f"{name}.shift")

    def __call__(self, x: Tensor) -> Tensor:
        return nc.layer_norm(x, self.gain, self.shift)

    def parameters(self):
        return [self.gain, self.shift]


class TypeEncoder:
    def __init__(self, config: EncoderConfig, rng: np.random.Generator):
        self.n_types = config.n_node_types
        self.table = Parameter(rng.normal(0.0, 0.1, size=(self.n_types, config.d)),
                               "type.table")

    def __call__(self, type_ids: np.ndarray) -> Tensor:
        type_ids = np.asarray(type_ids)
        if type_ids.min(initial=0) < 0 or type_ids.max(initial=0) >= self.n_types:
            raise IndexError(f"type id out of range [0, {self.n_types})")
        return nc.rows(self.table, type_ids)

    def parameters(self):
        return [self.table]


class HopEncoder:
    def __init__(self, config: EncoderConfig, rng: np.random.Generator):
        self.max_hop = config.max_hop
        self.table = Parameter(rng.normal(0.0, 0.1, size=(config.max_hop + 1, config.d)),
                               "hop.table")

    def __call__(self, hops: np.ndarray) -> Tensor:
        hops = np.asarray(hops)
        if hops.min(initial=0) < 0 or hops.max(initial=0) > self.max_hop:
            raise IndexError(f"hop out of range [0, {self.max_hop}]")
        return nc.rows(self.table, hops)

    def parameters(self):
        return [self.table]


class TimeEncoder:
    """Sinusoids over a geometric frequency ladder, then a learnable affine.

    Delta times are measured in days. Invalid deltas (negative or
    non-finite, e.g. from timestampless dimension rows) are replaced by a
    learnable mask vector.
    """

    def __init__(self, config: EncoderConfig, rng: np.random.Generator):
        d = config.d
        j = np.arange(config.time_freqs)
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

    def parameters(self):
        return self.proj.parameters() + [self.mask_vector]


class TabularEncoder:
    """Per-column encoders, sum-pooled, then two residual blocks.

    Numerical cells are standardized per column (train-time statistics from
    the loaded tables) and missing values impute to 0 after
    standardization. Categorical cells index a per-column embedding table
    with a dedicated missing row.
    """

    def __init__(self, config: EncoderConfig, schema: DatabaseSchema,
                 tables: TableData, rng: np.random.Generator):
        d = config.d
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
        self.blocks = []
        for k in range(2):
            self.blocks.append((Affine(f"tab.block{k}.a1", d, d, rng),
                                Norm(f"tab.block{k}.norm", d),
                                Affine(f"tab.block{k}.a2", d, d, rng)))

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
        for a1, norm, a2 in self.blocks:
            h = h + a2(nc.gelu(norm(a1(h))))
        return h

    def parameters(self):
        out = []
        for w, b in self.num_params.values():
            out.extend([w, b])
        out.extend(self.cat_params.values())
        for a1, norm, a2 in self.blocks:
            out.extend(a1.parameters() + norm.parameters() + a2.parameters())
        return out


class PositionalEncoder:
    """GIN over the local subgraph edges, random-feature initialized."""

    def __init__(self, config: EncoderConfig, rng: np.random.Generator):
        p = config.pe_dim
        self.pe_dim = p
        self.layers = []
        for k in range(config.gin_layers):
            self.layers.append((
                Parameter(np.zeros(()), f"pos.gin{k}.eps"),
                Affine(f"pos.gin{k}.a1", p, p, rng),
                Norm(f"pos.gin{k}.norm", p),
                Affine(f"pos.gin{k}.a2", p, p, rng),
            ))
        self.out = Affine("pos.out", p, p, rng)

    def __call__(self, local_adjacency, init_features: np.ndarray) -> Tensor:
        if isinstance(local_adjacency, np.ndarray):
            agg = local_adjacency
        else:
            n = len(local_adjacency)
            agg = np.zeros((n, n))
            for i, nbrs in enumerate(local_adjacency):
                agg[i, nbrs] = 1.0
        agg_t = Tensor(agg)
        h = Tensor(np.asarray(init_features, dtype=np.float64))
        for eps, a1, norm, a2 in self.layers:
            mixed = h * (1.0 + eps) + nc.matmul(agg_t, h)
            h = h + a2(nc.gelu(norm(a1(mixed))))
        return self.out(h)

    def parameters(self):
        out = []
        for eps, a1, norm, a2 in self.layers:
            out.append(eps)
            out.extend(a1.parameters() + norm.parameters() + a2.parameters())
        return out + self.out.parameters()


@lru_cache(maxsize=1 << 20)
def _positional_feature(run_seed: int, gid: int, pe_dim: int) -> np.ndarray:
    return np.random.default_rng([run_seed, gid]).standard_normal(pe_dim)


def positional_init(run_seed: int, global_ids: np.ndarray, pe_dim: int) -> np.ndarray:
    """Per-node random features keyed by (run seed, global node id).

    Keying by global id makes the features order-independent, so
    positional encoding is equivariant under relabeling of the local
    subgraph.
    """
    feats = np.empty((len(global_ids), pe_dim))
    for i, gid in enumerate(global_ids):
        feats[i] = _positional_feature(run_seed, int(gid), pe_dim)
    return feats


class FeatureMixer:
    """Per-channel LayerNorm -> concat -> affine -> GELU -> affine to d."""

    def __init__(self, config: EncoderConfig, rng: np.random.Generator):
        d = config.d
        self.norms = [Norm(f"mix.norm{i}", d) for i in range(4)]
        self.pos_norm = Norm("mix.norm_pos", config.pe_dim)
        total = 4 * d + config.pe_dim
        self.a1 = Affine("mix.a1", total, d, rng)
        self.a2 = Affine("mix.a2", d, d, rng)

    def __call__(self, type_e: Tensor, hop_e: Tensor, time_e: Tensor,
                 tab_e: Tensor, pos_e: Tensor) -> Tensor:
        parts = [norm(x) for norm, x in zip(self.norms, (type_e, hop_e, time_e, tab_e))]
        parts.append(self.pos_norm(pos_e))
        return self.a2(nc.gelu(self.a1(nc.concat(parts, axis=1))))

    def parameters(self):
        out = []
        for n in self.norms + [self.pos_norm]:
            out.extend(n.parameters())
        return out + self.a1.parameters() + self.a2.parameters()


class EncoderSuite:
    """All node encoders plus the mixer; produces the N x d input matrix."""

    def __init__(self, config: EncoderConfig, schema: DatabaseSchema,
                 tables: TableData, rng: np.random.Generator):
        self.config = config
        self.type_enc = TypeEncoder(config, rng)
        self.hop_enc = HopEncoder(config, rng)
        self.time_enc = TimeEncoder(config, rng)
        self.tab_enc = TabularEncoder(config, schema, tables, rng)
        self.pos_enc = PositionalEncoder(config, rng)
        self.mixer = FeatureMixer(config, rng)

    def encode_subgraph(self, sub: BatchedSubgraphs, graph: RelGraph,
                        tables: TableData, run_seed: int) -> Tensor:
        type_ids = graph.node_type[sub.nodes]
        type_e = self.type_enc(type_ids)
        hop_e = self.hop_enc(sub.hop)
        time_e = self.time_enc(sub.delta_t)
        tab_e = self._encode_tabular(sub.nodes, graph, tables)
        init = positional_init(run_seed, sub.nodes, self.config.pe_dim)
        pos_e = self.pos_enc(sub.sum_agg, init)
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

    def parameters(self):
        return (self.type_enc.parameters() + self.hop_enc.parameters()
                + self.time_enc.parameters() + self.tab_enc.parameters()
                + self.pos_enc.parameters() + self.mixer.parameters())
