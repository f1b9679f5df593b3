import math

import numpy as np
import pytest
from scipy.special import expit

from relgauss import attention
from relgauss import numcore as nc
from relgauss.cli import EXIT_OK, EXIT_VERIFY_FAIL, main
from relgauss.numcore import Tensor
from relgauss.oracles import (LOW_RELEVANCE, ConvergenceError, KatzParams,
                              ascend_bias, euler_ratio_factor,
                              katz_centrality, katz_linear_solve,
                              random_er_adjacency, resolve_lambda, run_suite,
                              snr, spectral_radius, structural_loss_ratio,
                              verify_euler_ratio, verify_katz_consistency,
                              verify_mu_gradient, verify_snr_refinement,
                              verify_structural_bound)

PATH2 = np.array([[0.0, 1.0], [1.0, 0.0]])  # single edge
PATH3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.float64)


def test_spectral_radius_known_graphs():
    assert spectral_radius(PATH2) == pytest.approx(1.0, abs=1e-8)
    assert spectral_radius(PATH3) == pytest.approx(math.sqrt(2), abs=1e-8)
    assert spectral_radius(np.zeros((3, 3))) == 0.0


def test_resolve_lambda_divergence_guard():
    with pytest.raises(ConvergenceError):
        resolve_lambda(PATH2, KatzParams(lam=1.5))
    assert resolve_lambda(PATH2, KatzParams(c=0.1)) == pytest.approx(0.1)


def test_katz_two_node_closed_form():
    # lam=0.1 on a single edge: centrality = lam/(1-lam) = 1/9 per node
    params = KatzParams(lam=0.1)
    c = katz_centrality(PATH2, params)
    np.testing.assert_allclose(c, 1.0 / 9.0, atol=1e-12)
    np.testing.assert_allclose(katz_linear_solve(PATH2, 0.1), c, atol=1e-12)


def test_katz_isolated_node_is_zero():
    A = np.zeros((3, 3))
    A[0, 1] = A[1, 0] = 1.0
    c = katz_centrality(A, KatzParams(lam=0.1))
    assert c[2] == 0.0
    assert c[0] > 0


def test_katz_lambda_to_zero_vanishes():
    c = katz_centrality(PATH3, KatzParams(lam=1e-9))
    assert np.abs(c).max() < 1e-8


def test_structural_ratio_two_path_exact():
    """On a 2-node path the k>=3 tail over the total is exactly lam^2.

    Odd powers of A map 1 to lam^k 1 as well (regular graph), so the
    series is geometric and the ratio telescopes to lam^2.
    """
    ratio = structural_loss_ratio(PATH2, KatzParams(lam=0.1))
    assert ratio == pytest.approx(0.01, abs=1e-12)


def test_structural_ratio_zero_graph():
    assert structural_loss_ratio(np.zeros((4, 4)), KatzParams(lam=0.1)) == 0.0


def hop_sensitivity(adjacency: np.ndarray, seed: int, removed_node: int,
                    params: KatzParams) -> float:
    """|Katz(seed) - Katz(seed with removed_node deleted)|.

    The attenuation is resolved on the full graph and reused on the
    reduced one so the comparison isolates the structural change.
    """
    if removed_node == seed:
        raise ValueError("cannot remove the seed itself")
    A = np.asarray(adjacency, dtype=np.float64)
    lam = resolve_lambda(A, params)
    fixed = KatzParams(lam=lam)
    full = katz_centrality(A, fixed)[seed]
    keep = [i for i in range(A.shape[0]) if i != removed_node]
    sub = A[np.ix_(keep, keep)]
    reduced = katz_centrality(sub, fixed)[keep.index(seed)]
    return float(abs(full - reduced))


def test_hop_sensitivity_direct_neighbor_dominates():
    # path 0-1-2: removing 1 disconnects everything from the seed,
    # removing 2 only prunes 2-hop walks
    params = KatzParams(lam=0.2)
    near = hop_sensitivity(PATH3, 0, 1, params)
    far = hop_sensitivity(PATH3, 0, 2, params)
    assert near > far > 0
    with pytest.raises(ValueError):
        hop_sensitivity(PATH3, 0, 0, params)


def test_hop_sensitivity_decays_with_lambda():
    params_small = KatzParams(lam=0.05)
    params_large = KatzParams(lam=0.3)
    assert hop_sensitivity(PATH3, 0, 2, params_small) < \
        hop_sensitivity(PATH3, 0, 2, params_large)


# -- SNR --------------------------------------------------------------------


def test_snr_hand_values():
    # one relevant (mu=0.9) one irrelevant (mu=0) neighbor, equal weights:
    # dropping the irrelevant neighbor exactly doubles the SNR
    before = snr([1.0, 1.0], [0.9, 0.0], 1.0, 1.0)
    after = snr([1.0], [0.9], 1.0, 1.0)
    assert before == pytest.approx(0.405)
    assert after == pytest.approx(0.81)
    assert after == pytest.approx(2 * before)


def test_snr_zero_relevance_is_zero():
    assert snr([1.0, 2.0], [0.0, 0.0], 1.0, 1.0) == 0.0


def test_snr_invalid_sigma():
    with pytest.raises(ValueError):
        snr([1.0], [1.0], 0.0, 1.0)


def test_snr_scales_with_h_norm_squared():
    base = snr([1.0, 0.5], [0.8, 0.6], 2.0, 1.0)
    assert snr([1.0, 0.5], [0.8, 0.6], 2.0, 3.0) == pytest.approx(9 * base)


def test_verify_snr_refinement_all_pass():
    report = verify_snr_refinement(trials=100)
    assert report["passed"] and report["trials"] == 100
    assert report["worst_margin"] > 0


# -- temporal-bias gradient -------------------------------------------------


def test_ascent_recovers_event_time():
    trace = ascend_bias(delta_t=20.0, sigma=2.0, mu0=10.0)
    assert abs(trace[-1] - 20.0) < 0.2
    # the ascent approaches the target: once within one lr-step of the
    # peak it may jitter, but it never wanders back out
    dists = [abs(m - 20.0) for m in trace]
    assert dists[0] == 10.0
    first_close = next(i for i, d in enumerate(dists) if d < 0.2)
    assert all(d <= dists[i] for i, d in
               zip(range(first_close), dists[1:first_close + 1]))
    assert max(dists[first_close:]) < 1.0  # overshoot stays within sigma/2


def test_verify_mu_gradient_passes():
    report = verify_mu_gradient(samples=200)
    assert report["passed"]
    assert report["worst_margin"] < 1e-8


def gaussian_bias_variant(half: float, mu_grad_sigma_power: int):
    """A copy of ``nc.gaussian_bias`` whose kernel is exp(-half z^2) and
    whose mu gradient is divided by sigma**mu_grad_sigma_power; (0.5, 1)
    is the shipped op."""

    def op(delta_days, mu, rho, scale, shift, sigma_min=0.0):
        d = np.asarray(delta_days, dtype=np.float64)[..., None, :, :]
        per_head = (slice(None), None, None)
        sigma = np.logaddexp(0.0, rho.data) + sigma_min
        z = (d - mu.data[per_head]) / sigma[per_head]
        k = np.exp(-half * z * z)
        axes = tuple(i for i in range(z.ndim) if i != z.ndim - 3)

        def backward(g):
            gkz = g * k * z
            mu._accum(scale.data * gkz.sum(axis=axes) / sigma**mu_grad_sigma_power)
            rho._accum(scale.data * (gkz * z).sum(axis=axes) / sigma * expit(rho.data))
            scale._accum((g * k).sum(axis=axes))
            shift._accum(g.sum(axis=axes))

        return Tensor._make(k * scale.data[per_head] + shift.data[per_head],
                            (mu, rho, scale, shift), backward)

    return op


def verify_mu_gradient_exit_code(monkeypatch, capsys, op) -> int:
    """``relgauss verify --only mu_gradient`` with ``op`` as nc.gaussian_bias."""
    monkeypatch.setattr(nc, "gaussian_bias", op)
    code = main(["verify", "--only", "mu_gradient"])
    capsys.readouterr()
    return code


def test_verify_mu_gradient_passes_a_faithful_copy_of_the_op(monkeypatch, capsys):
    # the control for the two mutation checks below
    op = gaussian_bias_variant(0.5, 1)
    assert verify_mu_gradient_exit_code(monkeypatch, capsys, op) == EXIT_OK


def test_verify_mu_gradient_detects_wrong_kernel(monkeypatch, capsys):
    """Mutation check: an op whose forward misses the 1/2 in the exponent
    disagrees with the closed forms."""
    op = gaussian_bias_variant(1.0, 1)
    assert verify_mu_gradient_exit_code(monkeypatch, capsys, op) == EXIT_VERIFY_FAIL


def test_verify_mu_gradient_detects_wrong_mu_gradient(monkeypatch, capsys):
    """Mutation check: an op whose backward drops the 1/sigma from mu's
    gradient disagrees with the closed form."""
    op = gaussian_bias_variant(0.5, 0)
    assert verify_mu_gradient_exit_code(monkeypatch, capsys, op) == EXIT_VERIFY_FAIL


# -- Euler ratio ------------------------------------------------------------


def test_euler_factor_canonical():
    odds, padded = euler_ratio_factor(0.0)
    assert odds == pytest.approx(math.e, abs=1e-12)
    assert padded == 0.0


def test_euler_factor_content_shift_invariant():
    a, _ = euler_ratio_factor(0.0)
    b, _ = euler_ratio_factor(3.7)
    assert a == pytest.approx(b, abs=1e-9)


def test_euler_factor_zero_bias_is_one():
    assert euler_ratio_factor(1.2, proj_scale=0.0)[0] == 1.0


def test_verify_euler_ratio_passes():
    report = verify_euler_ratio()
    assert report["passed"]
    assert report["worst_margin"] <= 1e-6


def test_verify_euler_ratio_reads_the_shipped_mask(monkeypatch, capsys):
    # an unmasked padded key takes weight from the real ones
    monkeypatch.setattr(attention, "MASK_NEG", 0.0)
    assert main(["verify", "--only", "euler"]) == EXIT_VERIFY_FAIL
    assert "euler_ratio" in capsys.readouterr().err


# -- random-graph checks and the suite --------------------------------------


def test_random_er_adjacency_is_simple_symmetric():
    A = random_er_adjacency(30, 0.2, np.random.default_rng(0))
    np.testing.assert_array_equal(A, A.T)
    assert np.all(np.diag(A) == 0)
    assert set(np.unique(A)) <= {0.0, 1.0}


def test_verify_katz_consistency_few_trials():
    report = verify_katz_consistency(trials=5)
    assert report["passed"]
    assert report["worst_margin"] <= 1e-9


def test_verify_structural_bound_few_trials():
    report = verify_structural_bound(trials=5)
    assert report["passed"]
    assert report["worst_margin"] <= 0.01 + 1e-12


def test_run_suite_selection_and_unknown():
    reports = run_suite(["euler", "snr"])
    assert [r["check"] for r in reports] == ["euler_ratio", "snr_refinement"]
    with pytest.raises(KeyError):
        run_suite(["euler", "nope"])
