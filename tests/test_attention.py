import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relgauss import numcore as nc
from relgauss.attention import (INVALID_DELTA_DAYS, AttentionLayer,
                                GaussianBiasParams, inverse_softplus,
                                pairwise_delta_days)
from relgauss.encoders import SECONDS_PER_DAY
from relgauss.model import PAD
from relgauss.numcore import Tensor
from relgauss.oracles import gaussian_kernel, grad_mu_closed_form


def test_kernel_peaks_at_mu_with_value_one():
    assert gaussian_kernel(5.0, 5.0, 2.0) == 1.0
    assert gaussian_kernel(4.0, 5.0, 2.0) < 1.0


def test_kernel_one_sigma_away_is_exp_minus_half():
    # the denominator is 2 sigma^2: kernel(mu + sigma) = e^{-1/2}
    assert gaussian_kernel(7.0, 5.0, 2.0) == pytest.approx(math.exp(-0.5))
    assert gaussian_kernel(3.0, 5.0, 2.0) == pytest.approx(math.exp(-0.5))
    # two sigma: e^{-2}
    assert gaussian_kernel(9.0, 5.0, 2.0) == pytest.approx(math.exp(-2.0))


def test_kernel_sigma_floor_enforced():
    with pytest.raises(ValueError):
        gaussian_kernel(0.0, 0.0, 1e-6)
    with pytest.raises(ValueError):
        grad_mu_closed_form(0.0, 0.0, 0.0)


def test_grad_mu_closed_form_sign_and_value():
    # pulling mu toward dt: positive gradient when dt > mu
    g = grad_mu_closed_form(6.0, 5.0, 2.0)
    assert g == pytest.approx(gaussian_kernel(6.0, 5.0, 2.0) * 1.0 / 4.0)
    assert grad_mu_closed_form(4.0, 5.0, 2.0) < 0
    assert grad_mu_closed_form(5.0, 5.0, 2.0) == 0.0


def test_inverse_softplus_roundtrip():
    for y in (0.01, 1.0, 10.0, 50.0):
        assert np.logaddexp(0.0, inverse_softplus(y)) == pytest.approx(y)


def test_bias_params_identity_init():
    p = GaussianBiasParams("b", 3, mu_init_days=2.0, sigma_init_days=7.0)
    np.testing.assert_allclose(p.mu.data, 2.0)
    np.testing.assert_allclose(p.sigma_values(), 7.0, rtol=1e-12)
    np.testing.assert_allclose(p.proj_scale.data, 1.0)
    np.testing.assert_allclose(p.proj_shift.data, 0.0)


def test_pairwise_delta_symmetric_and_in_days():
    dt = np.array([0.0, 86400.0, 3 * 86400.0])
    d = pairwise_delta_days(dt)
    np.testing.assert_array_equal(d, d.T)
    np.testing.assert_allclose(np.diag(d), 0.0)
    assert d[0, 1] == 1.0 and d[0, 2] == 3.0 and d[1, 2] == 2.0


def test_pairwise_delta_invalid_entries_capped():
    dt = np.array([0.0, np.inf, 86400.0])
    d = pairwise_delta_days(dt)
    assert d[0, 1] == INVALID_DELTA_DAYS
    assert d[1, 2] == INVALID_DELTA_DAYS
    assert d[1, 1] == INVALID_DELTA_DAYS
    assert d[0, 2] == 1.0


def test_bias_matrix_matches_scalar_kernel():
    p = GaussianBiasParams("b", 2, mu_init_days=1.0, sigma_init_days=4.0)
    dt = np.array([0.0, 86400.0, 5 * 86400.0])
    B = p(pairwise_delta_days(dt))
    assert B.shape == (2, 3, 3)
    d = pairwise_delta_days(dt)
    expect = np.vectorize(lambda x: gaussian_kernel(x, 1.0, 4.0))(d)
    for head in range(2):
        np.testing.assert_allclose(B.data[head], expect, atol=1e-15)


def test_bias_matrix_gradient_matches_closed_form():
    p = GaussianBiasParams("b", 1, mu_init_days=2.0, sigma_init_days=3.0)
    dt = np.array([0.0, 4 * 86400.0])
    nc.zero_grad(p.parameters())
    B = p(pairwise_delta_days(dt))
    nc.backward(B.sum())
    d = pairwise_delta_days(dt)
    sigma = p.sigma_values()[0]
    expect = sum(grad_mu_closed_form(float(x), 2.0, float(sigma))
                 for x in d.ravel())
    # d kernel/d mu = -d kernel/d dt; accumulate over all matrix entries
    assert p.mu.grad[0] == pytest.approx(-expect, rel=1e-12)


@pytest.fixture
def layer():
    return AttentionLayer("L", d=8, n_heads=2, rng=np.random.default_rng(0),
                          dropout_rate=0.0)


def test_attention_rows_sum_to_one(layer, make_batch):
    rng = np.random.default_rng(1)
    H = Tensor(rng.normal(size=(5, 8)))
    dt = rng.uniform(0, 10 * 86400, size=5)
    _, weights = layer.attend(H, make_batch(delta_ts=[dt]), return_weights=True)
    for alpha in weights:
        assert alpha.shape == (1, 5, 5)
        np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(alpha >= 0)


def test_zero_bias_params_equal_vanilla_attention(layer, make_batch):
    rng = np.random.default_rng(2)
    H = Tensor(rng.normal(size=(4, 8)))
    dt = rng.uniform(0, 5 * 86400, size=4)
    layer.bias.proj_scale.data[:] = 0.0
    layer.bias.proj_shift.data[:] = 0.0
    with nc.no_grad():
        biased = layer.attend(H, make_batch(delta_ts=[dt]), use_bias=True)
        vanilla = layer.attend(H, make_batch(delta_ts=[dt]), use_bias=False)
    # softmax shift invariance makes a constant bias a strict no-op
    np.testing.assert_array_equal(biased.data, vanilla.data)


def test_mask_blocks_cross_attention(layer, make_batch):
    rng = np.random.default_rng(3)
    Ha = rng.normal(size=(3, 8))
    Hb = rng.normal(size=(2, 8))
    dta = rng.uniform(0, 86400, size=3)
    dtb = rng.uniform(0, 86400, size=2)
    batch = make_batch(delta_ts=[dta, dtb])
    np.testing.assert_array_equal(batch.index, [[0, 1, 2], [3, 4, PAD]])
    with nc.no_grad():
        joint, w = layer.attend(Tensor(np.vstack([Ha, Hb])), batch, return_weights=True)
        solo_a = layer.attend(Tensor(Ha), make_batch(delta_ts=[dta]))
        solo_b = layer.attend(Tensor(Hb), make_batch(delta_ts=[dtb]))
    for alpha in w:
        assert alpha.shape == (2, 3, 3)
        # the padded key of the shorter subgraph gets no weight
        np.testing.assert_array_equal(alpha[1, :2, 2], 0.0)
    np.testing.assert_allclose(joint.data[:3], solo_a.data, atol=1e-12)
    np.testing.assert_allclose(joint.data[3:], solo_b.data, atol=1e-12)


def test_attention_gradients_flow_to_bias(layer, make_batch):
    rng = np.random.default_rng(4)
    H = Tensor(rng.normal(size=(4, 8)))
    dt = rng.uniform(0, 3 * 86400, size=4)
    params = layer.parameters()
    nc.zero_grad(params)
    out = layer.attend(H, make_batch(delta_ts=[dt]))
    nc.backward((out * out).sum())
    by_name = {p.name: p for p in params}
    assert np.abs(by_name["L.bias.mu"].grad).max() > 0
    assert np.abs(by_name["L.bias.rho"].grad).max() > 0
    assert np.abs(by_name["L.W_Q"].grad).max() > 0


def test_dropout_changes_training_output_only(layer, make_batch):
    layer.dropout_rate = 0.5
    rng = np.random.default_rng(5)
    H = Tensor(rng.normal(size=(4, 8)))
    dt = rng.uniform(0, 86400, size=4)
    with nc.no_grad():
        eval_out = layer.attend(H, make_batch(delta_ts=[dt]))
        eval_out2 = layer.attend(H, make_batch(delta_ts=[dt], rngs=None))
        train_out = layer.attend(H, make_batch(delta_ts=[dt],
                                               rngs=[np.random.default_rng(6)]))
    np.testing.assert_array_equal(eval_out.data, eval_out2.data)
    assert not np.array_equal(eval_out.data, train_out.data)


@settings(max_examples=25, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.01, 20))
def test_kernel_bounded_and_symmetric_property(dt, mu, sigma):
    k = gaussian_kernel(dt, mu, sigma)
    assert 0.0 <= k <= 1.0
    assert k == pytest.approx(gaussian_kernel(2 * mu - dt, mu, sigma), rel=1e-9)
