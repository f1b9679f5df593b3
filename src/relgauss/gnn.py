"""Local message-passing branch over the true relational edges.

Three mean-aggregation layers; each applies self + neighbor-mean linear
maps, LayerNorm, GELU and dropout, with a residual skip from the layer
input. Messages only flow along each sampled subgraph's induced adjacency,
never the complete attention graph.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import numcore as nc
from .encoders import Norm
from .numcore import Parameter, Tensor

if TYPE_CHECKING:
    from .model import BatchedSubgraphs

GNN_DROPOUT = 0.1


class SageLayer:
    def __init__(self, name: str, d: int, rng: np.random.Generator,
                 dropout_rate: float = GNN_DROPOUT):
        scale = 1.0 / math.sqrt(d)
        self.W_self = Parameter(rng.normal(0.0, scale, size=(d, d)), f"{name}.W_self")
        self.W_neigh = Parameter(rng.normal(0.0, scale, size=(d, d)), f"{name}.W_neigh")
        self.norm = Norm(f"{name}.norm", d)
        self.dropout_rate = dropout_rate

    def __call__(self, H: Tensor, batch: BatchedSubgraphs, *,
                 training: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        neigh_mean = batch.propagate(batch.mean_adjacency, H)
        z = nc.matmul(H, self.W_self.t()) + nc.matmul(neigh_mean, self.W_neigh.t())
        z = nc.gelu(self.norm(z))
        if training and rng is not None:
            z = nc.dropout(z, self.dropout_rate, rng, training)
        return H + z

    def parameters(self):
        return [self.W_self, self.W_neigh] + self.norm.parameters()


class GnnBranch:
    def __init__(self, name: str, d: int, rng: np.random.Generator, n_layers: int = 3):
        self.layers = [SageLayer(f"{name}.sage{k}", d, rng) for k in range(n_layers)]

    def __call__(self, H: Tensor, batch: BatchedSubgraphs, *,
                 training: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        for layer in self.layers:
            H = layer(H, batch, training=training, rng=rng)
        return H

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out
