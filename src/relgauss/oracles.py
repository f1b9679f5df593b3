"""Numerical verifiers for the model's analytical guarantees.

The katz, structural and snr checks test the math behind the sampler by
brute force and share no code with the model: Katz centrality by explicit
series summation against a dense linear solve, the structural-loss bound,
and aggregation SNR before/after refinement. The mu_gradient and euler
checks drive the code the model runs (``nc.gaussian_bias``,
``AttentionLayer.attend``, ``trainer.adam_step``) against references
written here: the scalar kernel, its closed-form derivatives and finite
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .attention import SIGMA_MIN_DAYS, AttentionLayer, GaussianBiasParams
from .encoders import SECONDS_PER_DAY
from .model import batch_subgraphs
from .numcore import Tensor
from .sampler import SampledSubgraph
from .trainer import AdamState, adam_step


class ConvergenceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Katz centrality and the structural-loss bound
# ---------------------------------------------------------------------------


@dataclass
class KatzParams:
    lam: float | None = None   # explicit attenuation; None -> c / rho(A)
    c: float = 0.1


SERIES_TOL, SERIES_MAX_K = 1e-12, 200  # a series ends at a term this small, or this many


def spectral_radius(adjacency: np.ndarray) -> float:
    """rho(A) of a symmetric A: its largest |eigenvalue|, exact to rounding."""
    A = np.asarray(adjacency, dtype=np.float64)
    return float(np.abs(np.linalg.eigvalsh(A)).max(initial=0.0))


def resolve_lambda(adjacency: np.ndarray, params: KatzParams) -> float:
    rho = spectral_radius(adjacency)
    if params.lam is not None:
        lam = params.lam
    else:
        lam = params.c / rho if rho > 0 else params.c
    if lam * rho >= 1.0:
        raise ConvergenceError(f"lambda * rho(A) = {lam * rho:.6f} >= 1")
    return lam


def _series_terms(adjacency: np.ndarray, lam: float):
    """Yield (k, (lam*A)^k @ 1) for k = 1.. until the increment is tiny."""
    A = lam * np.asarray(adjacency, dtype=np.float64)
    term = np.ones(A.shape[0])
    for k in range(1, SERIES_MAX_K + 1):
        term = A @ term
        yield k, term
        if np.linalg.norm(term) < SERIES_TOL:
            return


def katz_centrality(adjacency: np.ndarray, params: KatzParams) -> np.ndarray:
    """Walk-counting centrality sum_{k>=1} (lam A)^k 1 by truncated series."""
    lam = resolve_lambda(adjacency, params)
    total = np.zeros(np.asarray(adjacency).shape[0])
    for _, term in _series_terms(adjacency, lam):
        total += term
    return total


def katz_linear_solve(adjacency: np.ndarray, lam: float) -> np.ndarray:
    """Closed form (I - lam A)^{-1} 1 - 1; the second, independent route."""
    A = np.asarray(adjacency, dtype=np.float64)
    n = A.shape[0]
    return np.linalg.solve(np.eye(n) - lam * A, np.ones(n)) - 1.0


def structural_loss_ratio(adjacency: np.ndarray, params: KatzParams) -> float:
    """||sum_{k>=3} (lam A)^k 1||_2 / ||C||_2 via explicit series split."""
    lam = resolve_lambda(adjacency, params)
    total = np.zeros(np.asarray(adjacency).shape[0])
    tail = np.zeros_like(total)
    for k, term in _series_terms(adjacency, lam):
        total += term
        if k >= 3:
            tail += term
    denom = np.linalg.norm(total)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(tail) / denom)


# ---------------------------------------------------------------------------
# aggregation SNR
# ---------------------------------------------------------------------------


def snr(weights, relevances, sigma_noise: float, h_norm: float) -> float:
    """(||h_v||^2 / sigma_noise^2) * (sum w mu)^2 / sum w^2."""
    if sigma_noise <= 0:
        raise ValueError("sigma_noise must be positive")
    w = np.asarray(weights, dtype=np.float64)
    mu = np.asarray(relevances, dtype=np.float64)
    return float((h_norm**2 / sigma_noise**2) * (w @ mu) ** 2 / (w @ w))


LOW_RELEVANCE = 0.05


def verify_snr_refinement(trials: int = 100,
                          rng: np.random.Generator | None = None) -> dict:
    """Dropping low-relevance neighbors (weights kept) must raise the SNR."""
    rng = rng or np.random.default_rng(0)
    worst = math.inf
    for _ in range(trials):
        n = int(rng.integers(3, 9))
        w = rng.uniform(0.1, 1.0, size=n)
        n_low = int(rng.integers(1, n))  # some noise, and some relevance >= 0.5
        mu = np.concatenate([rng.uniform(0.5, 1.0, size=n - n_low),
                             rng.uniform(0.0, LOW_RELEVANCE, size=n_low)])
        keep = mu > LOW_RELEVANCE
        worst = min(worst, snr(w[keep], mu[keep], 1.0, 1.0) - snr(w, mu, 1.0, 1.0))
    return {"check": "snr_refinement", "trials": trials,
            "passed": worst > 0, "worst_margin": worst}


# ---------------------------------------------------------------------------
# temporal-bias gradient, through the shipped op
# ---------------------------------------------------------------------------


def gaussian_kernel(delta_t: float, mu: float, sigma: float) -> float:
    """exp(-(dt-mu)^2 / (2 sigma^2)), the peak-1 temporal kernel."""
    if sigma < SIGMA_MIN_DAYS:
        raise ValueError(f"sigma must be >= {SIGMA_MIN_DAYS}")
    z = (delta_t - mu) / sigma
    return math.exp(-0.5 * z * z)


def grad_mu_closed_form(delta_t: float, mu: float, sigma: float) -> float:
    """d kernel / d mu = kernel * (dt - mu) / sigma^2 (restoring force)."""
    return gaussian_kernel(delta_t, mu, sigma) * (delta_t - mu) / sigma**2


def _gradient_margin(bias: GaussianBiasParams, delta: np.ndarray,
                     weights: np.ndarray) -> float:
    """The larger of the tape's and a thousandth of central differences'
    error against the closed forms, over the mu and rho gradients of
    ``sum(weights * bias(delta))``, relative to the sum of |terms|."""

    def loss() -> Tensor:
        return (bias(delta) * Tensor(weights)).sum()

    nc.zero_grad(bias.parameters())
    nc.backward(loss())
    sigma = bias.sigma_values()
    margin = 0.0
    for h in range(len(sigma)):
        mu, s = float(bias.mu.data[h]), float(sigma[h])
        w = bias.proj_scale.data[h] * weights[..., h, :, :].ravel()
        d_mu = w * [grad_mu_closed_form(float(x), mu, s) for x in delta.ravel()]
        # d kernel / d sigma = d kernel / d mu * (dt - mu) / sigma
        d_rho = d_mu * (delta.ravel() - mu) / s * nc.logistic(bias.rho.data[h])
        for param, terms in ((bias.mu, d_mu), (bias.rho, d_rho)):
            closed, scale = terms.sum(), np.abs(terms).sum()
            theta, step = param.data[h], 1e-5 * s  # balances truncation and rounding
            param.data[h] = theta + step
            up = float(loss().data)
            param.data[h] = theta - step
            numeric = (up - float(loss().data)) / (2 * step)
            param.data[h] = theta
            margin = max(margin, abs(param.grad[h] - closed) / scale,
                         abs(numeric - closed) / scale / 1e3)
    return float(margin)


def ascend_bias(delta_t: float, sigma: float, mu0: float,
                steps: int = 200) -> list[float]:
    """The mu trace of ``adam_step`` at lr sigma/20 on minus the bias at
    ``delta_t``. Far from delta_t the gradient underflows, but Adam's
    normalization makes each move about lr regardless."""
    bias = GaussianBiasParams("ascent", 1, mu_init_days=mu0, sigma_init_days=sigma)
    state = AdamState()
    trace = [float(bias.mu.data[0])]
    for _ in range(steps):
        nc.zero_grad(bias.parameters())
        nc.backward(-bias(np.array([[float(delta_t)]])).sum())
        adam_step({bias.mu.name: bias.mu}, state, sigma / 20.0)
        trace.append(float(bias.mu.data[0]))
    return trace


def verify_mu_gradient(samples: int = 1000,
                       rng: np.random.Generator | None = None) -> dict:
    """``nc.gaussian_bias``'s tape gradients match the closed forms to 1e-8
    and central differences match them to 1e-5, on random multi-head
    deltas and upstream weights; they restore mu towards the delta; and
    ``ascend_bias`` from 5 sigma below an event ends within sigma/10."""
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    ok = True
    for _ in range(samples):
        n_heads, n_batch, n = (int(k) for k in rng.integers([1, 1, 2], [4, 3, 5]))
        delta = rng.uniform(0.0, 30.0, size=(n_batch, n, n))
        # every head centred within 2 sigma of one delta, so no head's
        # kernel underflows everywhere
        anchor = float(rng.choice(delta.ravel()))
        bias = GaussianBiasParams("check", n_heads)
        bias.rho.data = rng.uniform(-0.4, 10.0, size=n_heads)  # sigma 0.5 to 10
        bias.mu.data = anchor + rng.uniform(-2.0, 2.0, size=n_heads) * bias.sigma_values()
        bias.proj_scale.data = rng.uniform(0.5, 2.0, size=n_heads)
        bias.proj_shift.data = rng.normal(size=n_heads)
        weights = rng.normal(size=(n_batch, n_heads, n, n))
        worst = max(worst, _gradient_margin(bias, delta, weights))
        # restoring force: with a positive scale, d bias / d mu at a single
        # delta has the sign of delta - mu
        nc.zero_grad(bias.parameters())
        nc.backward(bias(np.array([[anchor]])).sum())
        if np.any(np.sign(bias.mu.grad) != np.sign(anchor - bias.mu.data)):
            ok = False
    for dt, sigma in rng.uniform([5.0, 0.5], [30.0, 5.0], size=(20, 2)):
        if abs(ascend_bias(dt, sigma, dt - 5 * sigma)[-1] - dt) > sigma / 10.0:
            ok = False
    return {"check": "mu_gradient", "trials": samples,
            "passed": ok and worst <= 1e-8, "worst_margin": worst}


# ---------------------------------------------------------------------------
# Euler attention ratio, through the shipped attention
# ---------------------------------------------------------------------------


def euler_ratio_factor(content_logit: float,
                       proj_scale: float = 1.0) -> tuple[float, float]:
    """``AttentionLayer.attend``'s odds of two keys with equal content
    logits whose kernels are 1 and 0, so e^proj_scale, and the largest
    weight on a padded key, over a 2-node subgraph (padded to 3) and a
    3-node one. Every content logit is ``content_logit``; with mu 0 and
    sigma at its floor, the key at delta 0 gets the kernel 1, keys a day
    or more away 0."""
    layer = AttentionLayer("euler", d=1, n_heads=1, rng=np.random.default_rng(0),
                           dropout_rate=0.0)
    layer.W_Q.data[:] = content_logit
    layer.W_K.data[:] = 1.0
    layer.bias.rho.data[:] = -50.0  # sigma = SIGMA_MIN_DAYS to double precision
    layer.bias.proj_scale.data[:] = proj_scale
    subs = [SampledSubgraph(np.arange(n), np.zeros(n, dtype=np.int64),
                            np.arange(n) * SECONDS_PER_DAY,
                            np.zeros((2, 0), dtype=np.int64), 0.0) for n in (2, 3)]
    with nc.no_grad():
        _, (weights,) = layer.attend(Tensor(np.ones((5, 1))), batch_subgraphs(subs),
                                     return_weights=True)
    pair = weights[0]  # the 2-node subgraph: keys 0 and 1, key 2 is padding
    return float(pair[0, 0] / pair[0, 1]), float(pair[:2, 2].max())


def verify_euler_ratio(trials: int = 20,
                       rng: np.random.Generator | None = None) -> dict:
    """A unit kernel gap multiplies the attention odds by exactly e."""
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    ok = True
    for i in range(trials):
        c = 0.0 if i == 0 else float(rng.uniform(-8.0, 8.0))
        odds, padded = euler_ratio_factor(c)
        worst = max(worst, abs(odds - math.e))
        # the padded key gets nothing, and zero bias has no effect
        if padded != 0.0 or euler_ratio_factor(c, proj_scale=0.0)[0] != 1.0:
            ok = False
    return {"check": "euler_ratio", "trials": trials,
            "passed": ok and worst <= 1e-6, "worst_margin": worst}


# ---------------------------------------------------------------------------
# random-graph checks and the full suite
# ---------------------------------------------------------------------------


def random_er_adjacency(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    upper = rng.random((n, n)) < p
    A = np.triu(upper, k=1).astype(np.float64)
    return A + A.T


def verify_katz_consistency(trials: int = 50,
                            rng: np.random.Generator | None = None) -> dict:
    rng = rng or np.random.default_rng(1)
    params = KatzParams(c=0.1)
    worst = 0.0
    for _ in range(trials):
        A = random_er_adjacency(100, 0.05, rng)
        lam = resolve_lambda(A, params)
        series = katz_centrality(A, params)
        solved = katz_linear_solve(A, lam)
        worst = max(worst, float(np.max(np.abs(series - solved))))
    return {"check": "katz_consistency", "trials": trials,
            "passed": worst <= 1e-9, "worst_margin": worst}


def verify_structural_bound(trials: int = 50,
                            rng: np.random.Generator | None = None) -> dict:
    rng = rng or np.random.default_rng(2)
    params = KatzParams(c=0.1)
    worst = 0.0
    for _ in range(trials):
        A = random_er_adjacency(100, 0.05, rng)
        worst = max(worst, structural_loss_ratio(A, params))
    bound = params.c**2 + 1e-12
    return {"check": "structural_bound", "trials": trials,
            "passed": worst <= bound, "worst_margin": worst}


ALL_CHECKS = {
    "katz": verify_katz_consistency,
    "structural": verify_structural_bound,
    "snr": verify_snr_refinement,
    "mu_gradient": verify_mu_gradient,
    "euler": verify_euler_ratio,
}


def run_suite(only: list[str] | None = None) -> list[dict]:
    names = only if only else list(ALL_CHECKS)
    unknown = [n for n in names if n not in ALL_CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {unknown}")
    return [ALL_CHECKS[n]() for n in names]
