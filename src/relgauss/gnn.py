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

    def __call__(self, H: Tensor, batch: BatchedSubgraphs) -> Tensor:
        neigh_mean = batch.propagate(batch.mean_adjacency, H)
        z = nc.linear(H, self.W_self) + nc.linear(neigh_mean, self.W_neigh)
        z = nc.gelu(self.norm(z))
        return H + batch.dropout(z, self.dropout_rate)


class GnnBranch(Module):
    def __init__(self, name: str, d: int, rng: np.random.Generator, n_layers: int = 3):
        self.layers = [SageLayer(f"{name}.sage{k}", d, rng) for k in range(n_layers)]

    def __call__(self, H: Tensor, batch: BatchedSubgraphs) -> Tensor:
        for layer in self.layers:
            H = layer(H, batch)
        return H
