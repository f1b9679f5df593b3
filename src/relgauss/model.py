"""Full model assembly: encoders, dual-branch layers, fusion gate, head.

Each of the L blocks runs the Gaussian-bias attention branch over the
complete sampled graph and the GraphSAGE branch over the induced relational
edges, then blends them with a single learned gate eta = logistic(eta_raw)
shared across blocks. The seed-node row feeds a 2-layer perceptron head.

The head reads nothing but the seed rows, so the last block computes only
the rows that reach them. The seeds are its only attention queries (every
row is still a key and value). Its GraphSAGE layer j of 3 runs at the rows
within 2 - j sampling hops of their seed: layer 0 at hops <= 2, layer 1 at
hops <= 1 and layer 2 at the seeds. A subgraph's rows come in hop order and
each of its edges joins hops that differ by at most 1, so those rows are
each subgraph's leading rows and hold every neighbour the next layer
reads. The fusion runs on the seed rows. Every row the last block drops
would have reached the score through nothing, so the maths is that of
computing every row and keeping the seeds; only BLAS's rounding over fewer
rows may differ. Dropout masks are drawn for the computed cells alone.

Subgraphs go through the model in batches: their node rows are stacked and
the row-wise layers run on the stacked rows. Everything that mixes rows
(attention, the GNN's neighbour mean, the positional GIN's neighbour sum)
runs on each subgraph on its own, in one fused op on a zero-padded
(B, n_max, ...) stack of its rows.

The model and its layers are ``nc.Module``s. ``GelModel.parameters()``
maps each parameter's name, its name in a checkpoint, to the parameter.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numcore as nc
from .attention import AttentionLayer, pairwise_delta_days
from .encoders import Affine, EncoderSuite
from .gnn import GnnBranch
from .numcore import Module, Parameter, Tensor
from .relstore import DatabaseSchema, RelGraph, TableData
from .sampler import SampledSubgraph

# entry of a padded row index that stands for no row
PAD = -1


@dataclass
class ModelConfig:
    d: int = 512
    n_layers: int = 4
    n_heads: int = 4
    pe_dim: int = 128
    gin_layers: int = 2
    max_hop: int = 2
    dropout: float = 0.3
    init_seed: int = 0

    def __post_init__(self):
        if self.n_layers < 1 or self.n_heads < 1:
            raise ValueError("n_layers and n_heads must be >= 1")
        if self.d % 2 or self.d % self.n_heads:
            raise ValueError("d must be even and divisible by n_heads")
        if not 1 <= self.pe_dim <= self.d:
            raise ValueError("pe_dim must be in [1, d]")
        if self.gin_layers < 0:
            raise ValueError("gin_layers must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.init_seed < 0:
            raise ValueError("init_seed must be >= 0")


@dataclass(frozen=True)
class AblationFlags:
    """Ablation switches: the sampler reads the first two, the model the rest."""
    no_structural_sampling: bool = False
    no_semantic_refinement: bool = False
    no_gaussian_bias: bool = False
    no_gnn_branch: bool = False

    @property
    def name(self) -> str:
        """``full``, or the switches that are on, e.g. ``no-gaussian-bias``."""
        on = [f.name.replace("_", "-") for f in dataclasses.fields(self)
              if getattr(self, f.name)]
        return "+".join(on) or "full"


class GelModel(Module):
    """Dual-branch relational graph transformer with Gaussian temporal bias."""

    def __init__(self, config: ModelConfig, schema: DatabaseSchema, tables: TableData):
        self.config = config
        rng = np.random.default_rng(config.init_seed)
        self.encoders = EncoderSuite(config, schema, tables, rng)
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
        out = {}
        for p in super().parameters():
            if p.name in out:
                raise RuntimeError(f"duplicate parameter name {p.name}")
            out[p.name] = p
        return out

    def eta(self) -> Tensor:
        return nc.sigmoid(self.eta_raw)

    def eta_value(self) -> float:
        return float(nc.logistic(self.eta_raw.data))

    def bias_snapshot(self) -> tuple[list[float], list[float]]:
        """Flattened per-layer-per-head (mu, sigma), in days."""
        mus, sigmas = [], []
        for a in self.attn_layers:
            mus.extend(float(m) for m in a.bias.mu.data)
            sigmas.extend(float(s) for s in a.bias.sigma_values())
        return mus, sigmas

    # -- forward ---------------------------------------------------------

    def forward_batch(self, batch: "BatchedSubgraphs", tables: TableData,
                      graph: RelGraph, *, run_seed: int = 0,
                      ablation: AblationFlags = AblationFlags(),
                      cache=None) -> Tensor:
        """One score per subgraph of the batch, in batch order; dropout runs
        only when the batch carries generators. ``cache`` (eval only) is
        ``encode_subgraph``'s."""
        H = self.encoders.encode_subgraph(batch, graph, tables, run_seed, cache=cache)
        eta = self.eta()
        last = len(self.attn_layers) - 1
        for k, (attn, gnn) in enumerate(zip(self.attn_layers, self.gnn_layers)):
            # the head reads only the seeds, slot 0 of each subgraph, so the
            # last block computes their rows alone: (B, d) in batch order
            n_queries = 1 if k == last else None
            H_attn = attn.attend(H, batch, n_queries=n_queries,
                                 use_bias=not ablation.no_gaussian_bias)
            if ablation.no_gnn_branch:
                H = H_attn
            else:
                H = fuse(H_attn, gnn(H, batch, seeds_only=k == last), eta)
        return self.head_a2(nc.gelu(self.head_a1(H))).reshape(-1)


@dataclass
class BatchedSubgraphs:
    """Several sampled subgraphs with their node rows stacked in order.

    Anything that mixes rows does so per subgraph, in one fused op on a
    (B, n_max, ...) stack where row k sits at flat slot ``slot[k]`` and
    ``index`` names each slot's row. In training ``rngs`` holds one generator
    per subgraph, which draws that subgraph's dropout masks over its own
    cells only, so they do not depend on the rest of the batch or on n_max.
    """
    nodes: np.ndarray
    hop: np.ndarray
    delta_t: np.ndarray
    index: np.ndarray           # (B, n_max): each subgraph's rows, PAD-filled
    slot: np.ndarray            # padded slot of each row, in row order
    adjacency: np.ndarray       # (B, n_max, n_max) 0/1 local adjacency
    seed_positions: np.ndarray  # row index of each subgraph's seed
    sizes: np.ndarray           # node count of each subgraph
    rngs: list[np.random.Generator] | None = None  # None in eval

    @cached_property
    def padded(self) -> np.ndarray:
        """(B, n_max) mask of the padded slots."""
        return self.index == PAD

    @cached_property
    def delta_days(self) -> np.ndarray:
        """(B, n_max, n_max) pairwise |dt_i - dt_j| in days within each subgraph."""
        return pairwise_delta_days(self.delta_t[np.where(self.padded, 0, self.index)])

    @cached_property
    def mean_adjacency(self) -> np.ndarray:
        """``adjacency`` with each row divided by its degree (isolated: 0)."""
        return self.adjacency / np.maximum(self.adjacency.sum(axis=-1, keepdims=True), 1.0)

    def within(self, hops: int) -> np.ndarray:
        """(B, n_max) mask of the slots whose rows lie within ``hops``
        sampling hops of their seed. A subgraph's rows come in hop order, so
        these lead it."""
        return ~self.padded & (self.hop[self.index] <= hops)

    def queries(self, slots: np.ndarray) -> np.ndarray:
        """The padded row index of the (B, n_max) mask ``slots``, cut after
        its last column that holds a row."""
        width = int(np.flatnonzero(slots.any(axis=0))[-1]) + 1
        return np.where(slots, self.index, PAD)[:, :width]

    def propagate(self, A: np.ndarray, X: Tensor) -> Tensor:
        """Row i of subgraph b gets sum_j A[b, i, j] X_j over its own rows;
        an A of (B, n_q, n_max) gives the rows of the first n_q slots."""
        return nc.propagate(A, X, slot=self.slot, queries=self.index[:, :A.shape[1]])

    def dropout_mask(self, shape: tuple[int, ...], rate: float,
                     counts: np.ndarray | None = None) -> np.ndarray | None:
        """Inverted-scaling dropout multiplier of an array of ``shape``: None
        in eval or at rate 0. Each subgraph draws its own cells' mask from its
        own generator: a block of ``counts[b]`` (every row by default) stacked
        rows (rows, d), or a (heads, n_q, n_b) block of padded pairs
        (B, heads, n_q, n_max) whose padding is zeroed, n_q being its first
        min(n_q, n_b) queries."""
        if self.rngs is None or rate <= 0.0:
            return None
        counts = self.sizes if counts is None else counts
        starts = np.cumsum(counts) - counts
        keep = np.zeros(shape, dtype=bool)
        for b, (rng, n) in enumerate(zip(self.rngs, self.sizes, strict=True)):
            cells = (keep[starts[b]:][:counts[b]] if keep.ndim == 2
                     else keep[b, :, :n, :n])
            cells[...] = rng.random(cells.shape) >= rate
        return keep / (1.0 - rate)


def batch_subgraphs(subs: list[SampledSubgraph],
                    rngs: list[np.random.Generator] | None = None) -> BatchedSubgraphs:
    """The subgraphs as one batch; ``rngs``, one per subgraph, turn dropout on."""
    sizes = np.array([s.n_nodes for s in subs])
    seeds = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
    n_max = int(sizes.max())
    slots = np.arange(n_max)
    index = np.where(slots < sizes[:, None], seeds[:, None] + slots, PAD)
    slot = np.flatnonzero(index != PAD)
    adjacency = np.zeros((len(subs), n_max, n_max))
    for b, s in enumerate(subs):
        adjacency[(b, *s.edges)] = 1.0
    return BatchedSubgraphs(
        nodes=np.concatenate([s.nodes for s in subs]),
        hop=np.concatenate([s.hop for s in subs]),
        delta_t=np.concatenate([s.delta_t for s in subs]),
        index=index, slot=slot, adjacency=adjacency, seed_positions=seeds,
        sizes=sizes, rngs=rngs)


def fuse(H_attn: Tensor, H_gnn: Tensor, eta: Tensor) -> Tensor:
    """Convex combination eta * H_attn + (1 - eta) * H_gnn."""
    if H_attn.shape != H_gnn.shape:
        raise ValueError(f"shape mismatch: {H_attn.shape} vs {H_gnn.shape}")
    return H_attn * eta + H_gnn * (1.0 - eta)


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
