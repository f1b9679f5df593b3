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

    def __call__(self, H: Tensor, batch: BatchedSubgraphs,
                 n_queries: int | None = None) -> Tensor:
        """The layer's rows at the first ``n_queries`` slots of each subgraph
        (slot 0 is its seed), in row order, or at every row by default. The
        dropout mask is drawn for every row and then cut to those."""
        mask = batch.dropout_mask(H.shape, self.dropout_rate)
        neigh_mean = batch.propagate(batch.mean_adjacency[:, :n_queries], H)
        if n_queries is not None:
            rows = batch.query_rows(n_queries)
            H = nc.rows(H, rows)
            mask = None if mask is None else mask[rows]
        return nc.residual_mlp(H, [(H, self.W_self), (neigh_mean, self.W_neigh)],
                               self.norm.gain, self.norm.shift, mask=mask)


class GnnBranch(Module):
    def __init__(self, name: str, d: int, rng: np.random.Generator, n_layers: int = 3):
        self.layers = [SageLayer(f"{name}.sage{k}", d, rng) for k in range(n_layers)]

    def __call__(self, H: Tensor, batch: BatchedSubgraphs,
                 n_queries: int | None = None) -> Tensor:
        """Every layer on every row, but the last only at the first
        ``n_queries`` slots of each subgraph (all rows by default)."""
        *inner, last = self.layers
        for layer in inner:
            H = layer(H, batch)
        return last(H, batch, n_queries)
