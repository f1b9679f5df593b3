"""Adam training loop, metrics, and temporal-split evaluation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import rankdata

from . import numcore as nc
from .model import AblationFlags, GelModel, batch_subgraphs
from .numcore import Parameter
from .relstore import DatabaseSchema, RelGraph, TableData
from .sampler import SampledSubgraph, SamplingConfig, sample


class NumericAbort(RuntimeError):
    """Raised when the training loss or a gradient stops being finite."""


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 1e-5
    batch_size: int = 64
    epochs: int = 10
    max_steps_per_epoch: int = 500
    warmup_steps: int = 10
    rng_seed: int = 0
    # the temporal-bias scalars live in day units, so they need a much
    # larger effective step than the weight matrices
    bias_lr_multiplier: float = 2000.0
    # examples fused per forward pass; the optimizer still steps once per
    # batch. Eval scores agree across sizes to about 1e-15, but training
    # dropout masks are drawn per pass, so the random stream, and with it
    # the trained weights, follow the micro-batch layout
    micro_batch: int = 8
    # score every k-th validation row during training (test scoring always
    # uses the full split); >1 trades val-metric resolution for speed
    val_stride: int = 1

    def __post_init__(self):
        for name in ("lr", "batch_size", "epochs", "max_steps_per_epoch",
                     "warmup_steps", "micro_batch", "val_stride"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class AdamState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, Parameter], state: AdamState, lr: float,
              weight_decay: float = 0.0,
              lr_multipliers: dict[str, float] | None = None) -> None:
    """Bias-corrected Adam with decoupled weight decay."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        if p.grad.shape != p.data.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= state.beta1
        m += (1 - state.beta1) * p.grad
        v *= state.beta2
        v += (1 - state.beta2) * p.grad**2
        m_hat = m / (1 - state.beta1**t)
        v_hat = v / (1 - state.beta2**t)
        eff_lr = lr * (lr_multipliers.get(name, 1.0) if lr_multipliers else 1.0)
        p.data = p.data - eff_lr * m_hat / (np.sqrt(v_hat) + state.eps) \
            - lr * weight_decay * p.data


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def auc(scores, labels) -> float:
    """Mann-Whitney AUC: correctly ranked (pos, neg) pairs, ties half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc requires both classes present")
    ranks = rankdata(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def mae(scores, targets) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("mae of empty input")
    if scores.shape != targets.shape:
        raise ValueError("length mismatch")
    return float(np.mean(np.abs(scores - targets)))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


class EmbeddingCache:
    """Per-epoch memo of tabular embeddings used for semantic refinement."""

    def __init__(self, model: GelModel, graph: RelGraph, tables: TableData):
        self.model = model
        self.graph = graph
        self.tables = tables
        self._rows = np.zeros((graph.n_nodes, model.config.d))
        self._have = np.zeros(graph.n_nodes, dtype=bool)

    def refresh(self) -> None:
        self._have[:] = False

    def __call__(self, nodes: np.ndarray) -> np.ndarray:
        """(k, d) embeddings of the nodes; the misses are encoded in one call."""
        nodes = np.asarray(nodes, dtype=np.intp)
        miss = np.unique(nodes[~self._have[nodes]])
        if len(miss):
            self._rows[miss] = self.model.encoders.node_embedding(
                miss, self.graph, self.tables)
            self._have[miss] = True
        return self._rows[nodes]


@dataclass
class TrainResult:
    records: list[dict]
    best_params: dict[str, np.ndarray]
    best_metric: float
    test_scores: np.ndarray | None = None
    test_metric: float | None = None


def _target_values(schema: DatabaseSchema, tables: TableData) -> np.ndarray:
    task = schema.task
    return tables.tables[task.target_table].numerical[task.target_column]


def _seed_info(schema: DatabaseSchema, tables: TableData, graph: RelGraph,
               row: int) -> tuple[int, float]:
    task = schema.task
    node = graph.node_id(task.target_table, row)
    seed_time = tables.tables[task.target_table].timestamps[task.seed_time_column][row]
    return node, float(seed_time)


def _sample_for_row(model, graph, schema, tables, row, embed, samp_cfg,
                    ablation: AblationFlags,
                    rng: np.random.Generator | None) -> SampledSubgraph:
    node, seed_time = _seed_info(schema, tables, graph, row)
    return sample(graph, node, seed_time, embed, samp_cfg,
                  skip_refinement=ablation.no_semantic_refinement,
                  random_stage1_rng=rng if ablation.no_structural_sampling else None)


def predict_rows(model: GelModel, graph: RelGraph, schema: DatabaseSchema,
                 tables: TableData, rows: list[int], embed, samp_cfg: SamplingConfig,
                 ablation: AblationFlags, run_seed: int,
                 sampling_rng: np.random.Generator | None = None,
                 micro_batch: int = 8) -> np.ndarray:
    """Eval-mode scores for target-table rows (dropout off, no graph)."""
    scores = np.empty(len(rows))
    with nc.no_grad():
        for lo in range(0, len(rows), micro_batch):
            chunk = rows[lo:lo + micro_batch]
            subs = [_sample_for_row(model, graph, schema, tables, row, embed,
                                    samp_cfg, ablation, sampling_rng)
                    for row in chunk]
            out = model.forward_batch(batch_subgraphs(subs), tables, graph,
                                      run_seed=run_seed, training=False)
            scores[lo:lo + len(chunk)] = out.data
    return scores


def train(model: GelModel, graph: RelGraph, schema: DatabaseSchema,
          tables: TableData, splits: tuple[list[int], list[int], list[int]],
          config: TrainConfig, samp_cfg: SamplingConfig,
          ablation: AblationFlags | None = None,
          progress: bool = False) -> TrainResult:
    """Train with per-epoch embedding refresh; keeps the best-val snapshot."""
    ablation = ablation or AblationFlags()
    task_kind = schema.task.kind
    train_rows, val_rows, test_rows = splits
    targets = _target_values(schema, tables)
    params = model.parameters()
    state = AdamState()
    rng = np.random.default_rng(config.rng_seed)
    run_seed = config.rng_seed
    embed = EmbeddingCache(model, graph, tables)
    lr_mult = {name: config.bias_lr_multiplier for name in params
               if name.endswith((".bias.mu", ".bias.rho"))}

    higher_better = task_kind == "binary_classification"
    best_metric = -np.inf if higher_better else np.inf
    best_params: dict[str, np.ndarray] = {n: p.data.copy() for n, p in params.items()}
    records: list[dict] = []
    global_step = 0

    from .model import loss as loss_fn

    for epoch in range(1, config.epochs + 1):
        embed.refresh()
        order = np.array(train_rows)
        rng.shuffle(order)
        epoch_losses = []
        sampling_rng = np.random.default_rng([config.rng_seed, epoch])
        n_steps = min(config.max_steps_per_epoch,
                      max(1, len(order) // config.batch_size))
        for step in range(n_steps):
            batch = order[step * config.batch_size:(step + 1) * config.batch_size]
            if len(batch) == 0:
                break
            nc.zero_grad(params.values())
            total = None
            for lo in range(0, len(batch), config.micro_batch):
                chunk = [int(r) for r in batch[lo:lo + config.micro_batch]]
                subs = [_sample_for_row(model, graph, schema, tables, row,
                                        embed, samp_cfg, ablation, sampling_rng)
                        for row in chunk]
                scores = model.forward_batch(batch_subgraphs(subs), tables,
                                             graph, run_seed=run_seed,
                                             training=True, rng=rng)
                item = loss_fn(scores, targets[chunk], task_kind).sum()
                total = item if total is None else total + item
            batch_loss = total * (1.0 / len(batch))
            value = float(batch_loss.data)
            if not np.isfinite(value):
                raise NumericAbort(f"non-finite loss at epoch {epoch} step {step}")
            nc.backward(batch_loss)
            if not all(np.isfinite(p.grad).all() for p in params.values()):
                raise NumericAbort(f"non-finite gradient at epoch {epoch} step {step}")
            global_step += 1
            lr = config.lr * min(1.0, global_step / config.warmup_steps)
            adam_step(params, state, lr, config.weight_decay, lr_mult)
            epoch_losses.append(value)

        embed.refresh()  # post-update embeddings for evaluation sampling
        eval_rng = np.random.default_rng([config.rng_seed, epoch, 1])
        val_sub = list(val_rows)[::config.val_stride]
        val_scores = predict_rows(model, graph, schema, tables, val_sub, embed,
                                  samp_cfg, ablation, run_seed, eval_rng,
                                  micro_batch=config.micro_batch)
        if task_kind == "binary_classification":
            val_metric = auc(val_scores, targets[val_sub].astype(int))
        else:
            val_metric = mae(val_scores, targets[val_sub])
        mus, sigmas = model.bias_snapshot()
        record = {
            "epoch": epoch,
            "train_loss": float(np.mean(epoch_losses)) if epoch_losses else None,
            "val_metric": val_metric,
            "eta": model.eta_value(),
            "mu_per_head": mus,
            "sigma_per_head": sigmas,
        }
        records.append(record)
        if progress:
            print(json.dumps(record))
        better = val_metric > best_metric if higher_better else val_metric < best_metric
        if better:
            best_metric = val_metric
            best_params = {n: p.data.copy() for n, p in params.items()}

    # restore best-val weights and score the test split
    for n, p in params.items():
        p.data = best_params[n].copy()
    embed.refresh()
    test_rng = np.random.default_rng([config.rng_seed, 0, 2])
    test_scores = predict_rows(model, graph, schema, tables, test_rows, embed,
                               samp_cfg, ablation, run_seed, test_rng,
                               micro_batch=config.micro_batch)
    if task_kind == "binary_classification":
        test_metric = auc(test_scores, targets[test_rows].astype(int))
    else:
        test_metric = mae(test_scores, targets[test_rows])
    return TrainResult(records=records, best_params=best_params,
                       best_metric=best_metric, test_scores=test_scores,
                       test_metric=test_metric)


def write_metrics_jsonl(records: list[dict], path: str) -> None:
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
