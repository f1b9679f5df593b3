"""Adam training loop, metrics, and temporal-split evaluation."""

from __future__ import annotations

import ctypes
import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .model import AblationFlags, GelModel, ModelConfig, batch_subgraphs
from .model import loss as loss_fn
from .numcore import Parameter
from .relstore import DatabaseSchema, RelGraph, TableData, TableDataError
from .sampler import SampledSubgraph, SamplingConfig, sample


class NumericAbort(RuntimeError):
    """Raised when the training loss, a gradient, a parameter or the
    validation metric stops being finite."""


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
    # examples fused per forward pass, and each runs its own backward, so a
    # step holds one micro-batch's tape; it changes speed and memory only
    micro_batch: int = 8
    # score every k-th validation row during training (test scoring always
    # uses the full split); >1 trades val-metric resolution for speed
    val_stride: int = 1

    def __post_init__(self):
        for name in ("lr", "batch_size", "epochs", "max_steps_per_epoch",
                     "warmup_steps", "micro_batch", "val_stride", "bias_lr_multiplier"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


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


class MetricError(ValueError):
    """Raised when the scored rows cannot give the task's metric."""


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d float array; each run of equal values gets the
    mean of the ranks it spans. For an array without NaN this is
    ``scipy.stats.rankdata(values)`` bit for bit: every rank is a whole or
    half number, exact in float64."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # the tie groups are [start, end) runs of the sorted values
    start = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    end = np.r_[start[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(0.5 * (start + end + 1), end - start)
    return ranks


def auc(scores, labels) -> float:
    """Mann-Whitney AUC: correctly ranked (pos, neg) pairs, ties half.
    A NaN score gives NaN; ±inf ranks as any other value."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError(f"auc needs both classes among the {len(labels)} scored rows")
    if np.isnan(scores).any():
        return float("nan")
    u = _average_ranks(scores)[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def mae(scores, targets) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if scores.size == 0:
        raise MetricError("mae of no scored rows")
    if scores.shape != targets.shape:
        raise ValueError("length mismatch")
    return float(np.mean(np.abs(scores - targets)))


def task_metric(schema: DatabaseSchema, tables: TableData, rows,
                scores) -> tuple[str, float]:
    """The task's metric of the scores of target-table rows: AUC for a
    binary task, MAE for regression."""
    targets = _target_values(schema, tables)[rows]
    if schema.task.kind == "binary_classification":
        return "auc", auc(scores, targets.astype(int))
    return "mae", mae(scores, targets)


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
    best_metric: float
    test_scores: np.ndarray | None = None
    test_metric: float | None = None


def _target_values(schema: DatabaseSchema, tables: TableData) -> np.ndarray:
    """The task's target column, one value per target-table row. A binary
    target must be 0 or 1 and a regression target finite; a blank cell
    reads as NaN and fails both."""
    task = schema.task
    values = tables.tables[task.target_table].numerical[task.target_column]
    if task.kind == "binary_classification":
        bad, rule = (values != 0) & (values != 1), "is not 0 or 1"
    else:
        bad, rule = ~np.isfinite(values), "is not finite"
    if bad.any():
        row = int(np.argmax(bad))
        raise TableDataError(f"table {task.target_table!r} column {task.target_column!r} "
                             f"row {row}: {task.kind} target {float(values[row])!r} {rule}")
    return values


def sample_row(graph: RelGraph, schema: DatabaseSchema, tables: TableData,
               row: int, embed, samp_cfg: SamplingConfig, ablation: AblationFlags,
               stream: tuple[int, int]) -> SampledSubgraph:
    """The subgraph sampled around target-table row ``row`` at its seed time.
    ``stream``, the (run seed, epoch) pair, keys the row's own random stage-1
    draw; eval passes epoch 0, which no training epoch is."""
    task = schema.task
    seed_time = tables.tables[task.target_table].timestamps[task.seed_time_column][row]
    rng = (np.random.default_rng([*stream, row, 3])
           if ablation.no_structural_sampling else None)
    return sample(graph, graph.node_id(task.target_table, row), float(seed_time),
                  embed, samp_cfg, skip_refinement=ablation.no_semantic_refinement,
                  random_stage1_rng=rng)


def predict_rows(model: GelModel, graph: RelGraph, schema: DatabaseSchema,
                 tables: TableData, rows: list[int], embed, samp_cfg: SamplingConfig,
                 ablation: AblationFlags, run_seed: int, *,
                 micro_batch: int) -> np.ndarray:
    """Eval-mode scores for target-table rows (dropout off, no graph)."""
    scores = np.empty(len(rows))
    with nc.no_grad():
        for lo in range(0, len(rows), micro_batch):
            chunk = rows[lo:lo + micro_batch]
            subs = [sample_row(graph, schema, tables, row, embed, samp_cfg,
                               ablation, (run_seed, 0))
                    for row in chunk]
            out = model.forward_batch(batch_subgraphs(subs), tables, graph,
                                      run_seed=run_seed, ablation=ablation)
            scores[lo:lo + len(chunk)] = out.data
    return scores


def score_test(model: GelModel, graph: RelGraph, schema: DatabaseSchema,
               tables: TableData, test_rows: list[int], config: TrainConfig,
               samp_cfg: SamplingConfig, ablation: AblationFlags,
               ) -> tuple[np.ndarray, str, float]:
    """Eval-mode scores of the test rows, the task metric's name and its
    value, as the run with ``config`` scores them at the end of ``train``."""
    embed = EmbeddingCache(model, graph, tables)
    scores = predict_rows(model, graph, schema, tables, test_rows, embed, samp_cfg,
                          ablation, config.rng_seed, micro_batch=config.micro_batch)
    return scores, *task_metric(schema, tables, test_rows, scores)


_M_TRIM_THRESHOLD = -1  # glibc's mallopt parameter number
_KEPT_HEAP_BYTES = 1 << 27


def _keep_freed_heap() -> None:
    """Have glibc keep up to 128 MB of freed heap memory for reuse.

    Each micro-batch's backward frees its tape in the reverse order of
    allocation, so the freed memory lies at the top of the heap. Past
    glibc's default trim threshold it goes back to the OS, and the next
    forward faults every page in again: at the train-bench config that is
    five times the minor page faults of holding all of a step's tapes.
    Elsewhere than glibc this does nothing; no computed number changes."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _KEPT_HEAP_BYTES)


def train(model: GelModel, graph: RelGraph, schema: DatabaseSchema,
          tables: TableData, splits: tuple[list[int], list[int], list[int]],
          config: TrainConfig, samp_cfg: SamplingConfig,
          ablation: AblationFlags = AblationFlags(),
          progress: bool = False) -> TrainResult:
    """Train with per-epoch embedding refresh; keeps the best-val snapshot."""
    _keep_freed_heap()
    task_kind = schema.task.kind
    train_rows, val_rows, test_rows = splits
    targets = _target_values(schema, tables)
    params = model.parameters()
    state = AdamState()
    order_rng = np.random.default_rng(config.rng_seed)
    embed = EmbeddingCache(model, graph, tables)
    lr_mult = {name: config.bias_lr_multiplier for name in params
               if name.endswith((".bias.mu", ".bias.rho"))}

    higher_better = task_kind == "binary_classification"
    best_metric = -np.inf if higher_better else np.inf
    best_params: dict[str, np.ndarray] = {n: p.data.copy() for n, p in params.items()}
    records: list[dict] = []
    global_step = 0

    for epoch in range(1, config.epochs + 1):
        embed.refresh()
        order = np.array(train_rows)
        order_rng.shuffle(order)
        epoch_losses = []
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
                subs = [sample_row(graph, schema, tables, row, embed, samp_cfg,
                                   ablation, (config.rng_seed, epoch))
                        for row in chunk]
                # each example's own dropout generator; its key ends in 1,
                # the stage-1 draw's in 3, the shuffle's is the bare seed
                rngs = [np.random.default_rng([config.rng_seed, epoch, row, 1])
                        for row in chunk]
                scores = model.forward_batch(batch_subgraphs(subs, rngs), tables,
                                             graph, run_seed=config.rng_seed,
                                             ablation=ablation)
                # a non-finite score gives a non-finite loss: stop before the
                # loss computes it (and numpy warns about it)
                if not np.isfinite(scores.data).all():
                    raise NumericAbort(f"non-finite loss at epoch {epoch} step {step}")
                item = loss_fn(scores, targets[chunk], task_kind).sum()
                total = item.data if total is None else total + item.data
                if not np.isfinite(total):
                    raise NumericAbort(f"non-finite loss at epoch {epoch} step {step}")
                # the chunks' gradients, each scaled by 1/len(batch), sum to
                # the batch loss's; backward frees this chunk's tape, and
                # nothing of the chunk is kept into the next one's forward
                nc.backward(item * (1.0 / len(batch)))
                del subs, rngs, scores, item
            value = float(total * (1.0 / len(batch)))
            if not all(np.isfinite(p.grad).all() for p in params.values()):
                raise NumericAbort(f"non-finite gradient at epoch {epoch} step {step}")
            global_step += 1
            lr = config.lr * min(1.0, global_step / config.warmup_steps)
            adam_step(params, state, lr, config.weight_decay, lr_mult)
            for name, p in params.items():
                if not np.isfinite(p.data).all():
                    raise NumericAbort(f"non-finite parameter {name} after the update "
                                       f"at epoch {epoch} step {step}")
            epoch_losses.append(value)

        embed.refresh()  # post-update embeddings for evaluation sampling
        val_sub = list(val_rows)[::config.val_stride]
        val_scores = predict_rows(model, graph, schema, tables, val_sub, embed,
                                  samp_cfg, ablation, config.rng_seed,
                                  micro_batch=config.micro_batch)
        _, val_metric = task_metric(schema, tables, val_sub, val_scores)
        if not np.isfinite(val_metric):
            raise NumericAbort(f"non-finite validation metric at epoch {epoch}")
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
        p.data = best_params[n]
    test_scores, _, test_metric = score_test(model, graph, schema, tables, test_rows,
                                             config, samp_cfg, ablation)
    return TrainResult(records=records, best_metric=best_metric,
                       test_scores=test_scores, test_metric=test_metric)


def run_ablation_sweep(graph: RelGraph, schema: DatabaseSchema, tables: TableData,
                       splits: tuple[list[int], list[int], list[int]],
                       model_cfg: ModelConfig, train_cfg: TrainConfig,
                       samp_cfg: SamplingConfig, variants: list[AblationFlags],
                       seeds) -> dict[int, dict[str, TrainResult]]:
    """Train a fresh model for each seed, then each variant, keyed by seed and
    ``AblationFlags.name``. Only ``TrainConfig.rng_seed`` follows the seed."""
    results: dict[int, dict[str, TrainResult]] = {}
    for seed in seeds:
        cfg = dataclasses.replace(train_cfg, rng_seed=seed)
        for ablation in variants:
            model = GelModel(model_cfg, schema, tables)
            results.setdefault(seed, {})[ablation.name] = train(
                model, graph, schema, tables, splits, cfg, samp_cfg, ablation)
    return results


def write_metrics_jsonl(records: list[dict], path: str) -> None:
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
