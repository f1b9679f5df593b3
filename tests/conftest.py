import numpy as np
import pytest

from relgauss.model import batch_subgraphs
from relgauss.relstore import CsrAdjacency
from relgauss.sampler import SampledSubgraph


def _make_batch(adjacencies=None, delta_ts=None):
    """A batch of subgraphs given by local adjacency lists, deltas, or both.

    Without adjacency lists the subgraphs have no edges; without deltas
    every delta is 0.
    """
    if adjacencies is None:
        adjacencies = [[[] for _ in dt] for dt in delta_ts]
    subs = []
    for b, adj in enumerate(adjacencies):
        n = len(adj)
        src = np.repeat(np.arange(n), [len(nbrs) for nbrs in adj])
        dst = np.array([j for nbrs in adj for j in nbrs], dtype=np.int64)
        subs.append(SampledSubgraph(
            nodes=np.arange(n), hop=np.zeros(n, dtype=np.int64),
            delta_t=np.zeros(n) if delta_ts is None else np.asarray(delta_ts[b], dtype=float),
            local_adjacency=CsrAdjacency.from_pairs(src, dst, n), seed_time=0.0))
    return batch_subgraphs(subs)


@pytest.fixture
def make_batch():
    return _make_batch
