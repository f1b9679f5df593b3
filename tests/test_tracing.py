"""perfbench's tracer against the library as it is: every span point it
patches exists, and a tiny traced train and scoring pass reduce to layer
metrics. A change that breaks what the tracer reads (a return value it
observes, a function it wraps) fails here rather than in a benchmark run.
``perfbench/tracing.py`` is imported from its file and left as it is."""

import importlib.util
import math
import os

import numpy as np

from relgauss import relstore, trainer
from relgauss.model import AblationFlags, GelModel, ModelConfig
from relgauss.sampler import SamplingConfig
from relgauss.synthgen import SynthConfig, temporal_split, write_db

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "tracing", os.path.join(REPO, "perfbench", "tracing.py"))
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_span_point_exists():
    for owner, attr, name, _ in tracing.SPAN_POINTS:
        assert callable(getattr(owner, attr, None)), name
    assert len(set(tracing.SPAN_NAMES)) == len(tracing.SPAN_NAMES)


def test_a_traced_train_and_scoring_pass_give_layer_metrics(tmp_path):
    write_db(SynthConfig(n_entities=40, rng_seed=5), str(tmp_path))
    samp = SamplingConfig(stage1_budget=8, stage2_keep=4)
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.SPAN_POINTS]
    tracer = tracing.Tracer()
    with tracer.installed():
        schema = relstore.load_schema(str(tmp_path / "schema.json"))
        tables = relstore.load_tables(schema, str(tmp_path))
        graph = relstore.build_graph(schema, tables)
        splits = temporal_split(schema, tables, (0.6, 0.2, 0.2))
        model = GelModel(ModelConfig(d=8, n_layers=1, n_heads=2, pe_dim=4), schema, tables)
        trainer.train(model, graph, schema, tables, splits,
                      trainer.TrainConfig(epochs=1, max_steps_per_epoch=1, batch_size=8),
                      samp)
        rows = [int(r) for r in splits[2][:4]]
        scores = trainer.predict_rows(model, graph, schema, tables, rows,
                                      trainer.EmbeddingCache(model, graph, tables), samp,
                                      AblationFlags(), 0, micro_batch=4)
    assert np.isfinite(scores).all()
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.SPAN_POINTS] == originals
    wall_s = 1.0
    metrics = tracer.layer_metrics(wall_s)
    assert all(math.isfinite(v) for v in metrics.values())
    calls = np.bincount(tracer.arrays()["name_id"], minlength=len(tracing.SPAN_NAMES))
    assert all(calls > 0), [n for n, c in zip(tracing.SPAN_NAMES, calls) if not c]
    self_s = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert math.isclose(self_s, wall_s)
    assert metrics["sampler.nodes_mean"] > 0 and metrics["relstore.rows"] == graph.n_nodes
