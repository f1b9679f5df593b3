"""Multi-head self-attention with an additive Gaussian temporal bias.

The attention graph is complete over the sampled nodes of each subgraph.
Each head owns a learnable temporal center mu and width sigma
(softplus-parameterized with a floor) plus an affine scalar map applied to
the kernel value; the resulting bias is added to the scaled content scores
before the softmax. Several subgraphs are attended in one padded
(B, heads, n_q, n_max) problem, one subgraph per batch entry, where the
n_q queries are all n_max slots or only the leading ones (the seed).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import numcore as nc
from .encoders import SECONDS_PER_DAY, Affine
from .numcore import Module, Parameter, Tensor

if TYPE_CHECKING:
    from .model import BatchedSubgraphs

SIGMA_MIN_DAYS = 1e-3

# pairwise deltas involving a node without a timestamp: far outside any
# plausible window, so the kernel underflows to 0 for mixed pairs
INVALID_DELTA_DAYS = 1e12

# additive pre-softmax score of a key that must get no attention
MASK_NEG = -1e30


def inverse_softplus(y: float) -> float:
    """rho such that softplus(rho) = y (y > 0)."""
    return float(y + math.log(-math.expm1(-y))) if y > 1e-8 else math.log(math.expm1(y))


class GaussianBiasParams(Module):
    """Per-head (mu, sigma, affine) of the temporal bias, all in days."""

    def __init__(self, name: str, n_heads: int, mu_init_days: float = 0.0,
                 sigma_init_days: float = 10.0):
        rho0 = inverse_softplus(sigma_init_days - SIGMA_MIN_DAYS)
        self.mu = Parameter(np.full(n_heads, mu_init_days), f"{name}.mu")
        self.rho = Parameter(np.full(n_heads, rho0), f"{name}.rho")
        # identity init: bias equals the raw kernel value
        self.proj_scale = Parameter(np.ones(n_heads), f"{name}.proj_scale")
        self.proj_shift = Parameter(np.zeros(n_heads), f"{name}.proj_shift")

    def sigma_values(self) -> np.ndarray:
        return np.logaddexp(0.0, self.rho.data) + SIGMA_MIN_DAYS

    def __call__(self, delta_days: np.ndarray) -> Tensor:
        """The (..., heads, n, n) bias of (..., n, n) pairwise deltas in days."""
        return nc.gaussian_bias(delta_days, self.mu, self.rho, self.proj_scale,
                                self.proj_shift, SIGMA_MIN_DAYS)


def pairwise_delta_days(delta_t_seconds: np.ndarray) -> np.ndarray:
    """|t_i - t_j| in days from seed-relative deltas; symmetric by design.

    Works over the last axis: (..., n) deltas give (..., n, n) matrices.
    """
    days = np.asarray(delta_t_seconds, dtype=np.float64) / SECONDS_PER_DAY
    finite = np.isfinite(days)
    safe = np.where(finite, days, 0.0)
    d = np.abs(safe[..., :, None] - safe[..., None, :])
    bad = ~finite[..., :, None] | ~finite[..., None, :]
    d[bad] = INVALID_DELTA_DAYS
    return d


class AttentionLayer(Module):
    def __init__(self, name: str, d: int, n_heads: int, rng: np.random.Generator,
                 dropout_rate: float = 0.3):
        self.n_heads = n_heads
        self.dropout_rate = dropout_rate
        self.W_Q = Parameter(rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, d)), f"{name}.W_Q")
        self.W_K = Parameter(rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, d)), f"{name}.W_K")
        self.W_V = Parameter(rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, d)), f"{name}.W_V")
        self.out = Affine(f"{name}.out", d, d, rng)
        self.bias = GaussianBiasParams(f"{name}.bias", n_heads)

    def attend(self, H: Tensor, batch: BatchedSubgraphs, *, n_queries: int | None = None,
               use_bias: bool = True, return_weights: bool = False):
        """Biased multi-head attention over each subgraph's complete graph.

        ``H`` holds the node rows of the subgraphs of ``batch``, and every
        row is a key. The queries are the first ``n_queries`` slots of each
        subgraph (slot 0 is its seed), or every row by default. Their
        (B, heads, n_q, n_max) scores get ``MASK_NEG`` in the padded key
        columns, so no row attends outside its own subgraph, and the
        outputs come back one per query row, in row order. With
        ``return_weights`` the softmax weights come back too, one
        (B, n_q, n_max) array per head. Dropout on the weights runs only
        when the batch carries generators; its masks are drawn for every
        query and then cut to the ones asked for, so each subgraph's
        generator draws the same whatever ``n_queries`` is.
        """
        B, n_max = batch.index.shape
        mask = batch.dropout_mask((B, self.n_heads, n_max, n_max), self.dropout_rate)
        out, alpha = nc.attention_block(
            H, self.W_Q, self.W_K, self.W_V,
            # one |dt_i - dt_j| matrix per subgraph, shared by all heads
            self.bias(batch.delta_days[:, :n_queries]) if use_bias else None,
            heads=self.n_heads, slot=batch.slot, queries=batch.index[:, :n_queries],
            # padded keys get no weight, and padded query rows are dropped on
            # the way back, so padding passes no gradient to any parameter
            key_mask=np.where(batch.padded, MASK_NEG, 0.0),
            mask=None if mask is None else np.ascontiguousarray(mask[:, :, :n_queries]))
        out = self.out(out)
        if return_weights:
            return out, [alpha[:, h].copy() for h in range(self.n_heads)]
        return out
