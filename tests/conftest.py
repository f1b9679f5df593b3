import json
import os
from typing import Callable

import numpy as np
import pytest

from relgauss.model import batch_subgraphs
from relgauss.relstore import build_graph, load_schema, load_tables
from relgauss.sampler import SampledSubgraph, refinement_query, sample, stage1
from relgauss.synthgen import write_db


def generate_db(config, out_dir: str):
    """Write a synthetic database to ``out_dir`` and load its schema and tables."""
    write_db(config, out_dir)
    schema = load_schema(os.path.join(out_dir, "schema.json"))
    return schema, load_tables(schema, out_dir)


def sample_seed(graph, seed, seed_time, embeddings, config, *, rng=None,
                skip_refinement=False) -> SampledSubgraph:
    """Both sampling stages for one seed node, as ``trainer.sample_rows`` runs
    them for a row: ``rng`` is the random stage-1 draw's generator, and
    ``embeddings`` maps an int array of nodes to their (k, d) embeddings."""
    candidates = stage1(graph, seed, seed_time, config, rng)
    rows = None if skip_refinement else embeddings(refinement_query(candidates, config))
    return sample(graph, seed_time, candidates, rows, config,
                  skip_refinement=skip_refinement)


def finite_diff_grad(f: Callable[[np.ndarray], float], theta: np.ndarray,
                     eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, coordinate by coordinate."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    flat = theta.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(theta)
        flat[i] = orig - eps
        fm = f(theta)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def _make_batch(adjacencies=None, delta_ts=None, rngs=None):
    """A batch of subgraphs given by local adjacency lists, deltas, or both.

    Without adjacency lists the subgraphs have no edges; without deltas
    every delta is 0. ``rngs``, one generator per subgraph, turn dropout on.
    """
    if adjacencies is None:
        adjacencies = [[[] for _ in dt] for dt in delta_ts]
    subs = []
    for b, adj in enumerate(adjacencies):
        n = len(adj)
        edges = np.array([(i, j) for i, nbrs in enumerate(adj) for j in nbrs],
                         dtype=np.int64).reshape(-1, 2).T
        subs.append(SampledSubgraph(
            nodes=np.arange(n), hop=np.zeros(n, dtype=np.int64),
            delta_t=np.zeros(n) if delta_ts is None else np.asarray(delta_ts[b], dtype=float),
            edges=edges, seed_time=0.0))
    return batch_subgraphs(subs, rngs)


@pytest.fixture
def make_batch():
    return _make_batch


@pytest.fixture(scope="module")
def tiny_db(tmp_path_factory):
    """Three users with four orders; a module can override it with its own."""
    tmp_path = tmp_path_factory.mktemp("mdl")
    schema_raw = {
        "tables": [
            {"name": "users", "columns": [
                {"name": "user_id", "kind": "primary_key"},
                {"name": "score", "kind": "numerical"},
                {"name": "joined", "kind": "timestamp"},
                {"name": "label", "kind": "numerical"},
            ]},
            {"name": "orders", "columns": [
                {"name": "order_id", "kind": "primary_key"},
                {"name": "user_id", "kind": "foreign_key",
                 "target_table": "users"},
                {"name": "placed", "kind": "timestamp"},
                {"name": "amount", "kind": "numerical"},
            ]},
        ],
        "task": {"target_table": "users", "target_column": "label",
                 "kind": "binary_classification", "seed_time_column": "joined"},
    }
    (tmp_path / "schema.json").write_text(json.dumps(schema_raw))
    (tmp_path / "users.csv").write_text(
        "user_id,score,joined,label\n"
        "u1,4.0,1000000,1\nu2,1.0,2000000,0\nu3,2.5,3000000,1\n")
    (tmp_path / "orders.csv").write_text(
        "order_id,user_id,placed,amount\n"
        "o1,u1,500,10.0\no2,u1,600,2.0\no3,u2,700,6.0\no4,u3,800,1.0\n")
    schema = load_schema(str(tmp_path / "schema.json"))
    tables = load_tables(schema, str(tmp_path))
    return schema, tables, build_graph(schema, tables)
