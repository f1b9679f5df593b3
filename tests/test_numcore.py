import gc
import hashlib
import json
import math
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from conftest import finite_diff_grad
from relgauss import numcore as nc
from relgauss.attention import MASK_NEG
from relgauss.numcore import Module, Parameter, Tensor


def square_sum(x: Tensor) -> Tensor:
    return (x * x).sum()


def finite_check(build_loss, params, rel_tol=1e-5):
    """Compare autodiff gradients of every parameter to central differences."""
    loss = build_loss()
    nc.zero_grad(params)
    nc.backward(loss)
    for p in params:
        analytic = p.grad.copy()
        numeric = finite_diff_grad(lambda _: float(build_loss().data), p.data)
        scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
        assert np.abs(analytic - numeric).max() / scale < rel_tol, p.name


def test_scalar_chain_gradient():
    x = Parameter(np.array(2.0), "x")
    z = x * 3.0 + 1.0
    y = (z * z).sum()
    nc.backward(y)
    assert y.data == pytest.approx(49.0)
    assert x.grad == pytest.approx(42.0)  # 2*(3x+1)*3


def test_arithmetic_ops_match_finite_differences():
    rng = np.random.default_rng(0)
    a = Parameter(rng.normal(size=(3, 4)) + 2.0, "a")
    b = Parameter(rng.normal(size=(3, 4)) + 3.0, "b")

    def build():
        z = a * b - b + 1.5 * a - (2.0 - a)
        return (z * z).sum()

    finite_check(build, [a, b])


def test_matmul_gradient():
    # a matrix product is a linear layer without a bias: a @ b == linear(a, b.T)
    rng = np.random.default_rng(1)
    a = Parameter(rng.normal(size=(3, 4)), "a")
    b = Parameter(rng.normal(size=(2, 4)), "b")
    np.testing.assert_array_equal(nc.linear(a, b).data, a.data @ b.data.T)
    finite_check(lambda: square_sum(nc.linear(a, b)), [a, b])


def test_gaussian_bias_all_heads_values_and_gradient():
    rng = np.random.default_rng(2)
    delta = rng.uniform(0.0, 20.0, size=(2, 3, 3))
    mu = Parameter(np.array([1.0, 8.0]), "mu")
    rho = Parameter(np.array([0.5, 2.0]), "rho")
    scale = Parameter(np.array([1.0, -0.7]), "scale")
    shift = Parameter(np.array([0.0, 0.2]), "shift")
    out = nc.gaussian_bias(delta, mu, rho, scale, shift, 1e-3)
    assert out.shape == (2, 2, 3, 3)
    sigma = np.logaddexp(0.0, rho.data) + 1e-3
    for h in range(2):
        expect = (scale.data[h] * np.exp(-0.5 * ((delta - mu.data[h]) / sigma[h]) ** 2)
                  + shift.data[h])
        np.testing.assert_allclose(out.data[:, h], expect, rtol=1e-14)
    weights = rng.normal(size=out.shape)
    finite_check(lambda: (nc.gaussian_bias(delta, mu, rho, scale, shift, 1e-3)
                          * weights).sum(), [mu, rho, scale, shift])


def test_broadcast_add_unbroadcasts_gradient():
    m = Parameter(np.ones((3, 4)), "m")
    v = Parameter(np.zeros(4), "v")
    loss = square_sum(m + v)
    nc.backward(loss)
    assert v.grad.shape == (4,)
    np.testing.assert_allclose(v.grad, np.full(4, 6.0))


def test_backward_frees_intermediate_gradients():
    x = Parameter(np.array([1.0, 2.0]), "x")
    y = x * 3.0
    nc.backward((y * y).sum())
    assert y.grad is None
    np.testing.assert_allclose(x.grad, [18.0, 36.0])  # d(9x^2)/dx


def test_backward_consumes_the_tape():
    x = Parameter(np.array([1.0, 2.0]), "x")
    h = x * 3.0
    h_data = weakref.ref(h.data)
    y = nc.softplus(h)
    del h
    loss = y.sum()
    nc.backward(loss)
    gc.collect()
    assert h_data() is None  # freed once the softplus rule had run
    np.testing.assert_allclose(x.grad, 3.0 * expit([3.0, 6.0]))
    grad = x.grad.copy()
    with pytest.raises(RuntimeError, match="consumed"):
        nc.backward(loss)
    # so does a new loss that reaches back into the consumed tape
    with pytest.raises(RuntimeError, match="consumed"):
        nc.backward((y * 2.0).sum())
    np.testing.assert_array_equal(x.grad, grad)


def test_rows_gather_and_scatter():
    table = Parameter(np.arange(12.0).reshape(4, 3), "t")
    out = nc.rows(table, np.array([1, 1, 3]))
    np.testing.assert_array_equal(out.data, table.data[[1, 1, 3]])
    nc.backward(out.sum())
    # duplicated index accumulates twice
    np.testing.assert_array_equal(table.grad[1], [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(table.grad[0], [0.0, 0.0, 0.0])


def test_rows_scatter_of_a_unique_index_is_the_accumulating_one():
    rng = np.random.default_rng(12)
    g = rng.normal(size=(2, 3, 4))
    unique = np.array([[4, 0, 2], [5, 1, 3]])
    for idx in (unique, np.array([[4, 0, 2], [4, 1, 3]])):
        table = Parameter(rng.normal(size=(6, 4)), "t")
        nc.backward((nc.rows(table, idx) * Tensor(g)).sum())
        expect = np.zeros((6, 4))
        np.add.at(expect, idx, g)
        np.testing.assert_array_equal(table.grad, expect)


def test_concat_splits_gradient():
    a = Parameter(np.ones((2, 2)), "a")
    b = Parameter(np.ones((2, 3)), "b")
    out = nc.concat([a, b], axis=1)
    assert out.shape == (2, 5)
    nc.backward((out * np.arange(5.0)).sum())
    np.testing.assert_array_equal(a.grad, [[0, 1], [0, 1]])
    np.testing.assert_array_equal(b.grad, [[2, 3, 4], [2, 3, 4]])


def softmax_of(logits: Tensor) -> Tensor:
    """Row softmax of an (n, n) matrix of logits, through ``attention_block``:
    one head whose content scores are 0 and whose values are the identity,
    so its output is the weights, with ``logits`` as the bias."""
    n = logits.shape[-1]
    zero, eye = Tensor(np.zeros((n, n))), Tensor(np.eye(n))
    out, _ = nc.attention_block(eye, zero, zero, eye, logits.reshape(1, 1, n, n), heads=1,
                                slot=np.arange(n), key_mask=np.zeros((1, n)),
                                queries=np.arange(n)[None])
    return out


def test_softmax_gradient():
    rng = np.random.default_rng(3)
    x = Parameter(rng.normal(size=(5, 5)), "x")
    w = rng.normal(size=(5, 5))
    finite_check(lambda: (softmax_of(x) * w).sum(), [x])


@pytest.mark.parametrize("op", [nc.sigmoid, nc.softplus, nc.gelu])
def test_elementwise_nonlinearity_gradients(op):
    rng = np.random.default_rng(4)
    x = Parameter(rng.normal(size=(4, 3)) * 2, "x")
    finite_check(lambda: (op(x) * 1.7).sum(), [x])


def test_sigmoid_softplus_extreme_inputs_are_stable():
    x = Tensor(np.array([-1000.0, 0.0, 1000.0]))
    s = nc.sigmoid(x).data
    assert np.all(np.isfinite(s)) and s[0] == 0.0 and s[2] == 1.0
    sp = nc.softplus(x).data
    assert np.all(np.isfinite(sp)) and sp[0] == 0.0 and sp[2] == 1000.0


def test_gelu_exact_values():
    out = nc.gelu(Tensor(np.array([0.0, 1.0]))).data
    assert out[0] == 0.0
    assert out[1] == pytest.approx(0.8413447460685429)  # Phi(1)


def test_layer_norm_statistics_and_gradient():
    rng = np.random.default_rng(5)
    x = Parameter(rng.normal(size=(6, 8)) * 3 + 1, "x")
    gain = Parameter(rng.normal(size=8) + 1, "g")
    shift = Parameter(rng.normal(size=8), "s")
    out = nc.layer_norm(x, Parameter(np.ones(8), "g1"), Parameter(np.zeros(8), "s1"))
    np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.data.std(axis=1), 1.0, atol=1e-3)
    finite_check(lambda: square_sum(nc.layer_norm(x, gain, shift)), [x, gain, shift])


def test_layer_norm_is_bitwise_the_mean_formulation():
    """Sums divided by n give ndarray.mean's bits, forward and backward."""
    rng = np.random.default_rng(11)
    for shape, scale in (((5, 7), 1.0), ((2, 3, 16), 1e3), ((4, 64), 1e-4), ((3, 1), 1.0)):
        n = shape[-1]
        x = Parameter(rng.normal(size=shape) * scale + scale, "x")
        gain = Parameter(rng.normal(size=n) + 1, "g")
        shift = Parameter(rng.normal(size=n), "s")
        g = rng.normal(size=shape)
        out = nc.layer_norm(x, gain, shift)
        nc.zero_grad([x, gain, shift])
        nc.backward((out * Tensor(g)).sum())

        mu = x.data.mean(axis=-1, keepdims=True)
        centered = x.data - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + nc.LAYER_NORM_EPS)
        xhat = centered * inv
        gq = g * gain.data
        m1 = gq.mean(axis=-1, keepdims=True)
        m2 = (gq * xhat).mean(axis=-1, keepdims=True)
        np.testing.assert_array_equal(out.data, xhat * gain.data + shift.data)
        np.testing.assert_array_equal(x.grad, inv * (gq - m1 - xhat * m2))


def test_linear_matches_manual_and_gradient():
    rng = np.random.default_rng(6)
    x = Parameter(rng.normal(size=(3, 4)), "x")
    W = Parameter(rng.normal(size=(5, 4)), "W")
    b = Parameter(rng.normal(size=5), "b")
    out = nc.linear(x, W, b)
    np.testing.assert_allclose(out.data, x.data @ W.data.T + b.data)
    finite_check(lambda: square_sum(nc.linear(x, W, b)), [x, W, b])
    with pytest.raises(ValueError):
        nc.linear(x, Parameter(np.ones((5, 3)), "bad"), b)


def test_softmax_cross_entropy_toy_matches_finite_differences():
    rng = np.random.default_rng(7)
    logits = Parameter(rng.normal(size=(4, 4)), "logits")
    onehot = np.eye(4)[[0, 2, 1, 3]]

    def cross_entropy(z):
        shifted = z - z.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return float(-(logp * onehot).sum())

    # dCE/dp = -y/p, chained through the softmax's backward rule
    p = softmax_of(logits)
    nc.zero_grad([logits])
    nc.backward((p * Tensor(-onehot / p.data)).sum())
    numeric = finite_diff_grad(cross_entropy, logits.data.copy())
    np.testing.assert_allclose(logits.grad, numeric, atol=1e-8)
    np.testing.assert_allclose(logits.grad, p.data - onehot, atol=1e-12)


def unfused_residual_mlp(h, terms, gain, shift, b1=None, W2=None, b2=None, mask=None):
    """The composition of ops that ``residual_mlp`` fuses."""
    z = None
    for x, W in terms:
        xw = nc.linear(x, W)
        z = xw if z is None else z + xw
    if b1 is not None:
        z = z + b1
    act = nc.gelu(nc.layer_norm(z, gain, shift))
    if mask is not None:
        act = act * Tensor(mask)
    if W2 is not None:
        act = nc.linear(act, W2, b2)
    return h + act


@pytest.mark.parametrize("b1, a2, masked, h_is_x", [
    (True, True, False, True),     # a residual block
    (True, True, False, False),    # a positional GIN block
    (False, False, True, True),    # a GraphSAGE layer (plus its neighbour term)
    (False, True, True, False),
], ids=["block", "block-x", "sage", "a2-mask"])
def test_residual_mlp_is_bitwise_its_composition_with_exact_gradients(b1, a2, masked, h_is_x):
    rng = np.random.default_rng(13)
    n, d = 5, 4
    params = []

    def param(name, *shape):
        params.append(Parameter(rng.normal(size=shape), name))
        return params[-1]

    h = param("h", n, d)
    terms = [(h if h_is_x else param("x", n, d), param("W1", d, d))]
    if not b1:  # the GraphSAGE form: a second, neighbour term
        terms.append((param("m", n, d), param("Wn", d, d)))
    gain, shift = param("gain", d), param("shift", d)
    kw = {"b1": param("b1", d) if b1 else None}
    if a2:
        kw.update(W2=param("W2", d, d), b2=param("b2", d))
    if masked:
        kw["mask"] = (rng.random((n, d)) >= 0.3) / 0.7
    weights = rng.normal(size=(n, d))

    def loss(op):
        return (op(h, terms, gain, shift, **kw) * Tensor(weights)).sum()

    fused, unfused = loss(nc.residual_mlp), loss(unfused_residual_mlp)
    np.testing.assert_array_equal(fused.data, unfused.data)
    grads = {}
    for out in (unfused, fused):
        nc.zero_grad(params)
        nc.backward(out)
        grads[out is fused] = [p.grad.copy() for p in params]
    for p, a, b in zip(params, grads[True], grads[False]):
        np.testing.assert_array_equal(a, b, err_msg=p.name)
    finite_check(lambda: loss(nc.residual_mlp), params)


def padded_layout(sizes):
    """(index, slot) of groups of ``sizes`` rows in a (B, max size) stack:
    each slot's row (-1 for none) and each row's flat slot."""
    n_max = max(sizes)
    starts = np.cumsum([0, *sizes[:-1]])
    slots = np.arange(n_max)
    index = np.where(slots < np.array(sizes)[:, None], starts[:, None] + slots, -1)
    return index, np.flatnonzero(index >= 0)


def three_op_propagate(A, X, index, g):
    """The neighbour product as three ops in plain numpy: a gather into the
    stack with row 0 at the padded slots, the batched product and a gather
    at the query slots. Returns its output and, for the output gradient
    ``g``, the gradient of ``X``, where the first gather adds up a repeated
    row's gradients in order."""
    n, d = X.shape
    B, n_q, n_max = A.shape
    gather = np.where(index < 0, 0, index)
    queries = np.flatnonzero(index[:, :n_q] >= 0)
    out = np.matmul(A, X[gather]).reshape(B * n_q, d)[queries]
    g_flat = np.zeros((B * n_q, d))
    g_flat[queries] = g
    g_stack = np.swapaxes(A, -1, -2) @ g_flat.reshape(B, n_q, d)
    gX = np.zeros((n, d))
    np.add.at(gX, gather.ravel(), g_stack.reshape(-1, d))
    return out, gX


@pytest.mark.parametrize("sizes, n_q", [((3, 2), 3), ((3, 3), 3), ((3, 2, 1), 1),
                                        ((1, 3), 2)],
                         ids=["padded", "unpadded", "seeds-only", "padded-queries"])
def test_propagate_is_bitwise_the_three_op_product_with_exact_gradients(sizes, n_q):
    rng = np.random.default_rng(16)
    d = 4
    index, slot = padded_layout(sizes)
    # 0 in every padded column, as in an adjacency; a padded row is read by no one
    A = rng.normal(size=(len(sizes), max(sizes), max(sizes))) * (index >= 0)[:, None, :]
    A = A[:, :n_q]  # a view, as the seed-only layer passes it
    X = Parameter(rng.normal(size=(sum(sizes), d)), "X")
    queries = index[:, :n_q]
    weights = rng.normal(size=(int((queries >= 0).sum()), d))

    def product():
        return nc.propagate(A, X, slot=slot, queries=queries)

    out = product()
    expect, expect_grad = three_op_propagate(A, X.data, index, weights)
    np.testing.assert_array_equal(out.data, expect)
    nc.zero_grad([X])
    nc.backward((out * Tensor(weights)).sum())
    np.testing.assert_array_equal(X.grad, expect_grad)
    finite_check(lambda: (product() * Tensor(weights)).sum(), [X])


def unfused_attention(H, W_Q, W_K, W_V, bias, heads, index, key_mask, mask):
    """Attention as linear, gather into the stack, transpose, matmul, scale, bias,
    key mask, row softmax, mask, matmul and the gather back, in plain numpy; a
    padded slot holds row 0."""
    n, d = H.shape
    head_dim = d // heads
    gather = np.where(index < 0, 0, index)

    def stack(W, axes):
        return (H @ W.T).reshape(n, heads, head_dim)[gather].transpose(axes)

    Q, K_t, V = stack(W_Q, (0, 2, 1, 3)), stack(W_K, (0, 2, 3, 1)), stack(W_V, (0, 2, 1, 3))
    scores = np.matmul(Q, K_t) * (1.0 / math.sqrt(head_dim))
    if bias is not None:
        scores = scores + bias
    if key_mask.any():
        scores = scores + key_mask[:, None, None, :]
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    alpha = e / e.sum(axis=-1, keepdims=True)
    Y = np.matmul(alpha if mask is None else alpha * mask, V).transpose(0, 2, 1, 3)
    return Y.reshape(-1, heads, head_dim)[np.flatnonzero(index >= 0)].reshape(n, d), alpha


@pytest.mark.parametrize("sizes", [(3, 2), (3, 3)], ids=["padded", "unpadded"])
@pytest.mark.parametrize("biased", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("dropout", [True, False], ids=["dropout", "no-dropout"])
def test_attention_block_is_bitwise_its_composition_with_exact_gradients(sizes, biased,
                                                                         dropout):
    rng = np.random.default_rng(14)
    d, heads = 4, 2
    index, slot = padded_layout(sizes)
    B, n_max = index.shape
    H = Parameter(rng.normal(size=(sum(sizes), d)), "H")
    W_Q, W_K, W_V = (Parameter(rng.normal(size=(d, d)), name) for name in ("Q", "K", "V"))
    bias = Parameter(rng.normal(size=(B, heads, n_max, n_max)), "bias") if biased else None
    real = index >= 0
    real_pairs = real[:, None, :, None] & real[:, None, None, :]
    key_mask = np.where(real, 0.0, MASK_NEG)
    mask = None
    if dropout:  # a dropout mask, zero at the padding
        mask = (rng.random((B, heads, n_max, n_max)) >= 0.3) * real_pairs / 0.7
    weights = rng.normal(size=(sum(sizes), d))

    def block():
        return nc.attention_block(H, W_Q, W_K, W_V, bias, heads=heads, slot=slot,
                                  key_mask=key_mask, queries=index, mask=mask)

    out, alpha = block()
    expect, expect_alpha = unfused_attention(H.data, W_Q.data, W_K.data, W_V.data,
                                             None if bias is None else bias.data,
                                             heads, index, key_mask, mask)
    np.testing.assert_array_equal(out.data, expect)
    # a padded query row's weights are not read; a padded key gets none
    by_query = (0, 2, 1, 3)
    np.testing.assert_array_equal(alpha.transpose(by_query)[real],
                                  expect_alpha.transpose(by_query)[real])
    np.testing.assert_array_equal(np.where(real_pairs, 0.0, alpha).transpose(by_query)[real],
                                  0.0)
    params = [H, W_Q, W_K, W_V] + ([bias] if biased else [])
    finite_check(lambda: (block()[0] * Tensor(weights)).sum(), params)


@pytest.mark.parametrize("sizes", [(3, 2), (1, 3, 2)], ids=["padded", "a-lone-seed"])
def test_attention_block_at_the_seeds_is_the_full_block_at_the_seeds(sizes):
    """Queries cut to the first slot of each group, with bias and mask cut
    to match: each group's seed row of the all-rows block, and the same
    gradients, those of the rows that are no query included."""
    rng = np.random.default_rng(15)
    d, heads = 4, 2
    index, slot = padded_layout(sizes)
    B, n_max = index.shape
    H = Parameter(rng.normal(size=(sum(sizes), d)), "H")
    W_Q, W_K, W_V = (Parameter(rng.normal(size=(d, d)), name) for name in ("Q", "K", "V"))
    bias = Parameter(rng.normal(size=(B, heads, n_max, n_max)), "bias")
    seed_bias = Parameter(bias.data[:, :, :1].copy(), "seed_bias")
    key_mask = np.where(index >= 0, 0.0, MASK_NEG)
    mask = (rng.random((B, heads, n_max, n_max)) >= 0.3) / 0.7
    weights = Tensor(rng.normal(size=(B, d)))
    seeds = index[:, 0]

    def block(b, n_q):
        return nc.attention_block(H, W_Q, W_K, W_V, b, heads=heads, slot=slot,
                                  key_mask=key_mask, queries=index[:, :n_q],
                                  mask=mask[:, :, :n_q])

    shared = [H, W_Q, W_K, W_V]
    nc.zero_grad(shared + [bias, seed_bias])
    out, alpha = block(seed_bias, 1)
    nc.backward((out * weights).sum())
    at_seeds = [p.grad.copy() for p in shared]
    nc.zero_grad(shared)
    full, full_alpha = block(bias, n_max)
    nc.backward((nc.rows(full, seeds) * weights).sum())
    assert out.shape == (B, d) and alpha.shape == (B, heads, 1, n_max)
    np.testing.assert_allclose(out.data, full.data[seeds], rtol=0, atol=1e-12)
    np.testing.assert_allclose(alpha, full_alpha[:, :, :1], rtol=0, atol=1e-12)
    for p, g in zip(shared, at_seeds):
        np.testing.assert_allclose(g, p.grad, rtol=0, atol=1e-12, err_msg=p.name)
    np.testing.assert_allclose(seed_bias.grad, bias.grad[:, :, :1], rtol=0, atol=1e-12)
    assert not bias.grad[:, :, 1:].any()
    # the keys and values of the other rows pass gradient too
    assert np.any(at_seeds[0][np.setdiff1d(np.arange(sum(sizes)), seeds)] != 0)


def test_leaf_gradients_accumulate_across_backward_calls():
    x = Parameter(np.array(3.0), "x")
    nc.backward((x * 2.0).sum())
    nc.backward((x * 2.0).sum())
    assert x.grad == pytest.approx(4.0)
    nc.zero_grad([x])
    assert x.grad == pytest.approx(0.0)


def test_intermediate_gradients_do_not_leak_between_calls():
    x = Parameter(np.array([1.0, 2.0]), "x")
    for _ in range(2):
        nc.zero_grad([x])
        nc.backward((x * x).sum())
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_rejects_non_scalar():
    x = Parameter(np.ones(3), "x")
    with pytest.raises(ValueError):
        nc.backward(x * 2.0)


def test_no_grad_suppresses_graph():
    x = Parameter(np.array(1.0), "x")
    with nc.no_grad():
        y = x * 3.0
    assert not y.requires_grad and y.is_leaf
    y2 = x * 3.0
    assert y2.requires_grad


def test_reshape_gradients():
    rng = np.random.default_rng(9)
    x = Parameter(rng.normal(size=(2, 6)), "x")
    finite_check(lambda: (x.reshape(3, 4) * np.arange(4.0)).sum(), [x])


def test_sum_axis_keepdims():
    x = Parameter(np.arange(6.0).reshape(2, 3), "x")
    out = x.sum(axis=1, keepdims=True)
    assert out.shape == (2, 1)
    nc.backward((out * np.array([[2.0], [3.0]])).sum())
    np.testing.assert_array_equal(x.grad, [[2, 2, 2], [3, 3, 3]])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_mul_gradient_property(seed):
    rng = np.random.default_rng(seed)
    x = Parameter(rng.normal(size=4), "x")
    y = rng.normal(size=4)
    nc.backward((x * y).sum())
    np.testing.assert_allclose(x.grad, y, atol=1e-12)


def test_module_parameters_in_definition_order():
    class Leaf(Module):
        def __init__(self, name):
            self.w = Parameter(np.zeros(2), f"{name}.w")
            self.label = name  # not a parameter
            self.b = Parameter(np.zeros(2), f"{name}.b")

    class Tree(Module):
        def __init__(self):
            self.first = Parameter(np.zeros(1), "first")
            self.values = np.ones(3)  # arrays are not looked into
            self.child = Leaf("child")
            self.layers = [Leaf("l0"), (Parameter(np.zeros(()), "t.eps"), Leaf("t"))]
            self.tables = {"x": Parameter(np.zeros(4), "d.x"), "y": (Leaf("d.y"),)}
            self.stats = {"n": 3, "cols": [("a", 1.0, 2.0)]}
            self.plain = SimpleNamespace(hidden=Parameter(np.zeros(1), "hidden"))
            self.last = Parameter(np.zeros(1), "last")

    names = [p.name for p in Tree().parameters()]
    assert names == ["first", "child.w", "child.b", "l0.w", "l0.b", "t.eps", "t.w",
                     "t.b", "d.x", "d.y.w", "d.y.b", "last"]


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    params = {
        "w": Parameter(rng.normal(size=(3, 2)), "w"),
        "b": Parameter(rng.normal(size=3), "b"),
        "s": Parameter(np.array(1.5), "s"),
    }
    path = str(tmp_path / "ckpt")
    run = {"model": {"d": 2}, "note": [1, None]}
    nc.save_checkpoint(params, path, run)
    blob = (tmp_path / "ckpt.bin").read_bytes()
    assert blob == b"".join(p.data.astype("<f8").tobytes() for p in params.values())
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    assert manifest["format"] == 3 and manifest["sha256"] == hashlib.sha256(blob).hexdigest()
    assert [e["shape"] for e in manifest["params"]] == [[3, 2], [3], []]
    assert nc.checkpoint_run(path) == run
    originals = {k: p.data.copy() for k, p in params.items()}
    for p in params.values():
        p.data = np.zeros_like(p.data)
    nc.load_checkpoint(params, path)
    for k, p in params.items():
        assert p.data.shape == originals[k].shape
        np.testing.assert_array_equal(p.data, originals[k])


def test_load_checkpoint_closes_its_files(tmp_path):
    params = {"w": Parameter(np.arange(3.0), "w")}
    path = str(tmp_path / "ckpt")
    nc.save_checkpoint(params, path, {})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        nc.load_checkpoint(params, path)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("damage, match", [
    ("rename", "no parameter 'b'"),
    ("reshape", r"'b' has shape \(2, 2\)"),
    ("truncate", "needs bytes"),
    ("flip", "sha256"),
])
def test_load_checkpoint_validates_before_assigning(tmp_path, damage, match):
    params = {"a": Parameter(np.arange(3.0), "a"),
              "b": Parameter(np.arange(9.0).reshape(3, 3), "b")}
    path = str(tmp_path / "ckpt")
    nc.save_checkpoint(params, path, {})
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    if damage == "rename":
        manifest["params"][1]["name"] = "c"
    elif damage == "reshape":
        manifest["params"][1]["shape"] = [2, 2]
    (tmp_path / "ckpt.json").write_text(json.dumps(manifest))
    blob = tmp_path / "ckpt.bin"
    if damage == "truncate":
        blob.write_bytes(blob.read_bytes()[:-8])
    elif damage == "flip":
        data = bytearray(blob.read_bytes())
        data[3] ^= 1
        blob.write_bytes(bytes(data))
    for p in params.values():
        p.data = np.zeros_like(p.data)
    zeros = {k: p.data for k, p in params.items()}
    with pytest.raises(nc.CheckpointError, match=match):
        nc.load_checkpoint(params, path)
    # "a" reads fine but is assigned only once every parameter fits
    assert all(params[k].data is zeros[k] for k in params)


@pytest.mark.parametrize("offset", [lambda o: o + 8, lambda o: 1.5],
                         ids=["moved-by-8", "float"])
def test_load_checkpoint_reads_the_blob_in_parameter_order(tmp_path, offset):
    """The blob holds the parameters back to back in their order; an edited
    ``offset`` key, which older manifests carry, moves nothing."""
    params = {"a": Parameter(np.arange(3.0), "a"),
              "b": Parameter(np.arange(9.0).reshape(3, 3) / 7, "b")}
    saved = {k: p.data.copy() for k, p in params.items()}
    path = str(tmp_path / "ckpt")
    nc.save_checkpoint(params, path, {})
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    keys = [sorted(e) for e in manifest["params"]]
    for e, o in zip(manifest["params"], (0, 24)):
        e["offset"] = offset(o)
    (tmp_path / "ckpt.json").write_text(json.dumps(manifest))
    for p in params.values():
        p.data = np.zeros_like(p.data)
    nc.load_checkpoint(params, path)
    for k, p in params.items():
        np.testing.assert_array_equal(p.data, saved[k])
    assert keys == [["name", "shape"]] * 2  # no layout is written


@pytest.mark.parametrize("damage, match", [
    ("reorder", "no parameter 'a' in place 0"),
    ("extra", "'c', which the model lacks"),
    ("longer blob", r"needs bytes \[0, 96\) and its blob holds 104"),
], ids=["reorder", "extra", "longer-blob"])
def test_load_checkpoint_needs_the_models_parameter_list(tmp_path, damage, match):
    params = {"a": Parameter(np.arange(3.0), "a"),
              "b": Parameter(np.arange(9.0).reshape(3, 3), "b")}
    path = str(tmp_path / "ckpt")
    nc.save_checkpoint(params, path, {})
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    if damage == "reorder":
        manifest["params"].reverse()
    elif damage == "extra":
        manifest["params"].append({"name": "c", "shape": [1]})
    else:
        (tmp_path / "ckpt.bin").write_bytes((tmp_path / "ckpt.bin").read_bytes() + bytes(8))
    (tmp_path / "ckpt.json").write_text(json.dumps(manifest))
    with pytest.raises(nc.CheckpointError, match=match):
        nc.load_checkpoint(params, path)


def test_load_checkpoint_unreadable_files(tmp_path):
    params = {"a": Parameter(np.arange(3.0), "a")}
    with pytest.raises(nc.CheckpointError, match="cannot read"):
        nc.load_checkpoint(params, str(tmp_path / "missing"))
    nc.save_checkpoint(params, str(tmp_path / "ckpt"), {})
    (tmp_path / "ckpt.json").write_text("{not json")
    with pytest.raises(nc.CheckpointError, match="cannot read"):
        nc.load_checkpoint(params, str(tmp_path / "ckpt"))


@pytest.mark.parametrize("manifest, match", [
    # format 1 was the bare parameter list, with no run
    ([{"name": "a", "shape": [3], "offset": 0}], "format 1.*retrain"),
    ({"format": 4, "run": {}, "params": []}, "format 4"),
    ({"run": {}, "params": []}, "format None"),
    ({"format": 3, "run": [], "params": []}, "no run object"),
    # format 2 was trained against other positional features
    ({"format": 2, "run": {}, "params": []}, "format 2.*retrain"),
])
def test_checkpoint_manifest_of_another_format_is_refused(tmp_path, manifest, match):
    params = {"a": Parameter(np.arange(3.0), "a")}
    path = str(tmp_path / "ckpt")
    nc.save_checkpoint(params, path, {})
    (tmp_path / "ckpt.json").write_text(json.dumps(manifest))
    for read in (nc.checkpoint_run, lambda p: nc.load_checkpoint(params, p)):
        with pytest.raises(nc.CheckpointError, match=match):
            read(path)


def test_finite_diff_grad_on_quadratic():
    q = np.array([1.0, -2.0, 3.0])
    grad = finite_diff_grad(lambda th: float((th**2).sum()), q)
    np.testing.assert_allclose(grad, 2 * q, atol=1e-6)
