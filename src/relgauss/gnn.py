"""Local message-passing branch over the true relational edges.

Three mean-aggregation layers; each applies self + neighbor-mean linear
maps, LayerNorm, GELU and the batch's dropout, with a residual skip from
the layer input. Messages only flow along each sampled subgraph's induced
adjacency, never the complete attention graph.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import numcore as nc
from .encoders import Norm
from .numcore import Module, Parameter, Tensor

if TYPE_CHECKING:
    from .model import BatchedSubgraphs

GNN_DROPOUT = 0.1


class SageLayer(Module):
    def __init__(self, name: str, d: int, rng: np.random.Generator,
                 dropout_rate: float = GNN_DROPOUT):
        scale = 1.0 / math.sqrt(d)
        self.W_self = Parameter(rng.normal(0.0, scale, size=(d, d)), f"{name}.W_self")
        self.W_neigh = Parameter(rng.normal(0.0, scale, size=(d, d)), f"{name}.W_neigh")
        self.norm = Norm(f"{name}.norm", d)
        self.dropout_rate = dropout_rate

    def __call__(self, H: Tensor, batch: BatchedSubgraphs, reads: np.ndarray | None = None,
                 writes: np.ndarray | None = None) -> Tensor:
        """The layer at the rows of ``writes`` from ``H``, which holds the
        rows of ``reads`` in row order. Both are (B, n_max) masks of the
        batch's slots, every row by default; ``writes`` lies within
        ``reads``, and no row of it has a neighbour outside ``reads``."""
        reads = ~batch.padded if reads is None else reads
        writes = reads if writes is None else writes
        queries = batch.queries(writes)
        counts = writes.sum(axis=1)
        mask = batch.dropout_mask((int(counts.sum()), H.shape[1]), self.dropout_rate, counts)
        neigh_mean = nc.propagate(batch.mean_adjacency[:, :queries.shape[1]], H,
                                  slot=np.flatnonzero(reads), queries=queries)
        at = None if np.array_equal(writes, reads) else np.flatnonzero(writes[reads])
        return nc.residual_mlp(H, [(H, self.W_self), (neigh_mean, self.W_neigh)],
                               self.norm.gain, self.norm.shift, mask=mask, at=at)


class GnnBranch(Module):
    def __init__(self, name: str, d: int, rng: np.random.Generator, n_layers: int = 3):
        self.layers = [SageLayer(f"{name}.sage{k}", d, rng) for k in range(n_layers)]

    def __call__(self, H: Tensor, batch: BatchedSubgraphs, seeds_only: bool = False) -> Tensor:
        """Every layer at every row; with ``seeds_only``, layer j of L only
        at the rows within L - 1 - j hops of their seed, which are all the
        rows the seeds' outputs read, so the branch returns the seeds' rows
        in batch order."""
        reads = ~batch.padded
        for j, layer in enumerate(self.layers):
            writes = batch.within(len(self.layers) - 1 - j) if seeds_only else reads
            H = layer(H, batch, reads, writes)
            reads = writes
        return H
