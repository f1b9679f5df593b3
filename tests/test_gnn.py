import numpy as np
import pytest

from conftest import finite_diff_grad
from relgauss import numcore as nc
from relgauss.encoders import PositionalEncoder
from relgauss.gnn import GnnBranch, SageLayer
from relgauss.model import PAD
from relgauss.numcore import Tensor


def brute_force_neighbor_mean(H, adjacency):
    """Reference aggregation: explicit per-node loop."""
    out = np.zeros_like(H)
    for i, nbrs in enumerate(adjacency):
        if nbrs:
            out[i] = H[nbrs].mean(axis=0)
    return out


def test_batched_neighbour_sums_match_each_subgraph(make_batch):
    rng = np.random.default_rng(0)
    # unequal sizes, so the batch is padded; node 4 of the first is isolated
    adjacencies = [[[1, 2], [0], [0, 3], [2], []],
                   [[1], [0]],
                   [[1, 2], [0, 2], [0, 1]]]
    batch = make_batch(adjacencies)
    assert (batch.index == PAD).any()
    H = rng.normal(size=(10, 3))
    feats = rng.normal(size=(10, 4))
    gin = PositionalEncoder(4, 2, rng)
    with nc.no_grad():
        # the neighbour mean of every SAGE layer
        mean = batch.propagate(batch.mean_adjacency, Tensor(H)).data
        joint = gin(batch, feats).data
        off = 0
        for adj in adjacencies:
            rows = slice(off, off + len(adj))
            np.testing.assert_allclose(mean[rows], brute_force_neighbor_mean(H[rows], adj),
                                       rtol=0, atol=1e-15)
            solo = gin(make_batch([adj]), feats[rows]).data
            np.testing.assert_allclose(joint[rows], solo, rtol=0, atol=1e-12)
            off += len(adj)
    np.testing.assert_array_equal(mean[4], 0.0)


def test_sage_layer_output_and_residual(make_batch):
    rng = np.random.default_rng(1)
    layer = SageLayer("s", 4, rng)
    H = Tensor(rng.normal(size=(3, 4)))
    out = layer(H, make_batch([[[1], [0, 2], [1]]]))
    assert out.shape == (3, 4)
    # residual skip: zeroing both weight matrices makes the update
    # GELU(LayerNorm(0)) = 0, so the layer is the identity
    layer.W_self.data[:] = 0.0
    layer.W_neigh.data[:] = 0.0
    out0 = layer(H, make_batch([[[1], [0, 2], [1]]]))
    np.testing.assert_allclose(out0.data, H.data, atol=1e-12)


def test_isolated_node_sees_only_itself(make_batch):
    rng = np.random.default_rng(2)
    layer = SageLayer("s", 4, rng)
    H1 = rng.normal(size=(3, 4))
    H2 = H1.copy()
    H2[1] += 10.0  # perturb a node the isolated node is not connected to
    batch = make_batch([[[], [2], [1]]])
    with nc.no_grad():
        o1 = layer(Tensor(H1), batch).data
        o2 = layer(Tensor(H2), batch).data
    np.testing.assert_array_equal(o1[0], o2[0])
    assert not np.array_equal(o1[1], o2[1])


def test_messages_travel_one_hop_per_layer(make_batch):
    rng = np.random.default_rng(3)
    branch = GnnBranch("g", 4, rng, n_layers=1)
    # path 0-1-2-3: with one layer, node 0 cannot see node 3
    batch = make_batch([[[1], [0, 2], [1, 3], [2]]])
    H1 = rng.normal(size=(4, 4))
    H2 = H1.copy()
    H2[3] += 5.0
    with nc.no_grad():
        o1 = branch(Tensor(H1), batch).data
        o2 = branch(Tensor(H2), batch).data
    np.testing.assert_array_equal(o1[0], o2[0])
    np.testing.assert_array_equal(o1[1], o2[1])
    assert not np.array_equal(o1[2], o2[2])


def test_two_layers_reach_two_hops(make_batch):
    rng = np.random.default_rng(4)
    branch = GnnBranch("g", 4, rng, n_layers=2)
    batch = make_batch([[[1], [0, 2], [1, 3], [2]]])
    H1 = rng.normal(size=(4, 4))
    H2 = H1.copy()
    H2[3] += 5.0
    with nc.no_grad():
        o1 = branch(Tensor(H1), batch).data
        o2 = branch(Tensor(H2), batch).data
    np.testing.assert_array_equal(o1[0], o2[0])
    assert not np.array_equal(o1[1], o2[1])


def test_gradients_flow_through_branch(make_batch):
    rng = np.random.default_rng(5)
    branch = GnnBranch("g", 4, rng)
    params = branch.parameters()
    nc.zero_grad(params)
    H = Tensor(rng.normal(size=(3, 4)))
    out = branch(H, make_batch([[[1], [0, 2], [1]]]))
    nc.backward((out * out).sum())
    assert all(np.abs(p.grad).max() > 0 for p in params
               if p.name.endswith(("W_self", "W_neigh")))


def test_branch_gradient_matches_finite_differences(make_batch):
    rng = np.random.default_rng(6)
    branch = GnnBranch("g", 3, rng, n_layers=2)
    H0 = rng.normal(size=(3, 3))
    batch = make_batch([[[1, 2], [0], [0]]])
    params = branch.parameters()
    nc.zero_grad(params)
    out = branch(Tensor(H0), batch)
    nc.backward((out * out).sum())
    p = params[0]  # first W_self
    analytic = p.grad.copy()

    def loss_at(theta):
        saved = p.data
        p.data = theta
        with nc.no_grad():
            val = float((branch(Tensor(H0), batch).data ** 2).sum())
        p.data = saved
        return val

    numeric = finite_diff_grad(loss_at, p.data)
    scale = max(np.abs(analytic).max(), 1e-8)
    assert np.abs(analytic - numeric).max() / scale < 1e-5


def test_dropout_only_in_training(make_batch):
    rng = np.random.default_rng(7)
    layer = SageLayer("s", 4, rng, dropout_rate=0.5)
    H = Tensor(rng.normal(size=(3, 4)))
    adjacency = [[[1], [0, 2], [1]]]

    def training(seed):
        return make_batch(adjacency, rngs=[np.random.default_rng(seed)])

    with nc.no_grad():
        a = layer(H, make_batch(adjacency)).data
        b = layer(H, make_batch(adjacency, rngs=None)).data
        c = layer(H, training(8)).data
        d = layer(H, training(8)).data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    np.testing.assert_array_equal(c, d)  # the mask follows the generator
