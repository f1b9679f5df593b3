"""Full model assembly: encoders, dual-branch layers, fusion gate, head.

Each of the L blocks runs the Gaussian-bias attention branch over the
complete sampled graph and the GraphSAGE branch over the induced relational
edges, then blends them with a single learned gate eta = logistic(eta_raw)
shared across blocks. The seed-node row feeds a 2-layer perceptron head.

Subgraphs go through the model in batches: their node rows are stacked, the
row-wise layers and the GNN run on the stacked rows (the GNN over a
block-diagonal adjacency), and attention runs on each subgraph on its own
through a padded row index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import numcore as nc
from .attention import PAD, AttentionLayer
from .encoders import Affine, EncoderConfig, EncoderSuite
from .gnn import GnnBranch
from .numcore import Parameter, Tensor
from .relstore import DatabaseSchema, RelGraph, TableData
from .sampler import SampledSubgraph


@dataclass
class ModelConfig:
    d: int = 512
    n_layers: int = 4
    n_heads: int = 4
    pe_dim: int = 128
    gin_layers: int = 2
    max_hop: int = 2
    dropout: float = 0.3
    task_kind: str = "binary_classification"
    init_seed: int = 0
    # ablation switches
    no_gaussian_bias: bool = False
    no_gnn_branch: bool = False

    def __post_init__(self):
        if self.n_layers < 1 or self.n_heads < 1:
            raise ValueError("n_layers and n_heads must be >= 1")
        if self.d % 2 or self.d % self.n_heads:
            raise ValueError("d must be even and divisible by n_heads")
        if self.pe_dim > self.d:
            raise ValueError("pe_dim must not exceed d")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


@dataclass
class AblationFlags:
    no_structural_sampling: bool = False
    no_semantic_refinement: bool = False
    no_gaussian_bias: bool = False
    no_gnn_branch: bool = False


class GelModel:
    """Dual-branch relational graph transformer with Gaussian temporal bias."""

    def __init__(self, config: ModelConfig, schema: DatabaseSchema, tables: TableData):
        self.config = config
        rng = np.random.default_rng(config.init_seed)
        enc_cfg = EncoderConfig(d=config.d, n_node_types=len(schema.tables),
                                max_hop=config.max_hop, pe_dim=config.pe_dim,
                                gin_layers=config.gin_layers)
        self.encoders = EncoderSuite(enc_cfg, schema, tables, rng)
        self.attn_layers = [AttentionLayer(f"layer{k}.attn", config.d, config.n_heads,
                                           rng, dropout_rate=config.dropout)
                            for k in range(config.n_layers)]
        self.gnn_layers = [GnnBranch(f"layer{k}.gnn", config.d, rng)
                           for k in range(config.n_layers)]
        self.eta_raw = Parameter(np.zeros(()), "fusion.eta_raw")
        self.head_a1 = Affine("head.a1", config.d, config.d, rng)
        self.head_a2 = Affine("head.a2", config.d, 1, rng)

    # -- parameter plumbing ---------------------------------------------

    def parameters(self) -> dict[str, Parameter]:
        params = list(self.encoders.parameters())
        for a in self.attn_layers:
            params.extend(a.parameters())
        for g in self.gnn_layers:
            params.extend(g.parameters())
        params.append(self.eta_raw)
        params.extend(self.head_a1.parameters() + self.head_a2.parameters())
        out = {}
        for p in params:
            if p.name in out:
                raise RuntimeError(f"duplicate parameter name {p.name}")
            out[p.name] = p
        return out

    def eta(self) -> Tensor:
        return nc.sigmoid(self.eta_raw)

    def eta_value(self) -> float:
        return float(1.0 / (1.0 + math.exp(-float(self.eta_raw.data))))

    def bias_snapshot(self) -> tuple[list[float], list[float]]:
        """Flattened per-layer-per-head (mu, sigma), in days."""
        mus, sigmas = [], []
        for a in self.attn_layers:
            mus.extend(float(m) for m in a.bias.mu.data)
            sigmas.extend(float(s) for s in a.bias.sigma_values())
        return mus, sigmas

    # -- forward ---------------------------------------------------------

    def forward(self, sub: SampledSubgraph, graph: RelGraph, tables: TableData,
                *, run_seed: int = 0, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        """Scalar score (logit or regression value) for the seed node."""
        return self.forward_batch(batch_subgraphs([sub]), tables, graph,
                                  run_seed=run_seed, training=training,
                                  rng=rng).reshape(())

    def forward_batch(self, batch: "BatchedSubgraphs", tables: TableData,
                      graph: RelGraph, *, run_seed: int = 0,
                      training: bool = False,
                      rng: np.random.Generator | None = None) -> Tensor:
        """One score per subgraph of the batch, in batch order."""
        cfg = self.config
        H = self.encoders.encode_subgraph(batch, graph, tables, run_seed)
        eta = self.eta()
        for attn, gnn in zip(self.attn_layers, self.gnn_layers):
            H_attn = attn.attend(H, batch.delta_t, index=batch.index,
                                 use_bias=not cfg.no_gaussian_bias,
                                 training=training, rng=rng)
            if cfg.no_gnn_branch:
                H = H_attn
            else:
                H_gnn = gnn(H, batch.mean_agg, training=training, rng=rng)
                H = fuse(H_attn, H_gnn, eta)
        seed_rows = nc.rows(H, batch.seed_positions)
        return self.head_a2(nc.gelu(self.head_a1(seed_rows))).reshape(-1)


@dataclass
class BatchedSubgraphs:
    """Several sampled subgraphs with their node rows stacked in order."""
    nodes: np.ndarray
    hop: np.ndarray
    delta_t: np.ndarray
    sum_agg: np.ndarray         # block-diagonal over the stacked rows
    mean_agg: np.ndarray
    index: np.ndarray           # (B, n_max): each subgraph's rows, PAD-filled
    seed_positions: np.ndarray  # row index of each subgraph's seed


def batch_subgraphs(subs: list[SampledSubgraph]) -> BatchedSubgraphs:
    sizes = np.array([s.n_nodes for s in subs])
    seeds = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
    slots = np.arange(sizes.max())
    index = np.where(slots < sizes[:, None], seeds[:, None] + slots, PAD)
    # one scatter of the offset local edges into each aggregation matrix
    adjacency = [nbrs for s in subs for nbrs in s.local_adjacency]
    deg = np.array([len(nbrs) for nbrs in adjacency], dtype=np.intp)
    rows = np.repeat(np.arange(len(adjacency)), deg)
    cols = np.repeat(np.repeat(seeds, sizes), deg) + np.fromiter(
        chain.from_iterable(adjacency), dtype=np.intp, count=int(deg.sum()))
    sum_agg = np.zeros((len(adjacency), len(adjacency)))
    sum_agg[rows, cols] = 1.0
    mean_agg = np.zeros_like(sum_agg)
    mean_agg[rows, cols] = 1.0 / deg[rows]
    return BatchedSubgraphs(
        nodes=np.concatenate([s.nodes for s in subs]),
        hop=np.concatenate([s.hop for s in subs]),
        delta_t=np.concatenate([s.delta_t for s in subs]),
        sum_agg=sum_agg, mean_agg=mean_agg, index=index,
        seed_positions=seeds)


def fuse(H_attn: Tensor, H_gnn: Tensor, eta: Tensor | float) -> Tensor:
    """Convex combination eta * H_attn + (1 - eta) * H_gnn."""
    if H_attn.shape != H_gnn.shape:
        raise ValueError(f"shape mismatch: {H_attn.shape} vs {H_gnn.shape}")
    return H_attn * eta + H_gnn * (1.0 - (eta if isinstance(eta, Tensor) else Tensor(eta)))


def loss(score: Tensor, target, kind: str) -> Tensor:
    """Logistic cross-entropy on the logit, or absolute error.

    Works elementwise, so ``score``/``target`` may be scalars or vectors.
    """
    if kind == "binary_classification":
        # -[y*log sigmoid(s) + (1-y)*log(1-sigmoid(s))] = softplus(s) - y*s
        return nc.softplus(score) - score * np.asarray(target, dtype=np.float64)
    if kind == "regression":
        return (score - np.asarray(target, dtype=np.float64)).abs()
    raise ValueError(f"invalid task kind {kind!r}")
