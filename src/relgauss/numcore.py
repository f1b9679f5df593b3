"""Dense float64 tensors with reverse-mode gradients.

Small tape-style autodiff: every op closes over its inputs and records a
backward rule; ``backward`` replays them in reverse topological order and
consumes the tape as it goes: once a node's rule has run, the node lets go
of its rule and its inputs, so the forward arrays are freed on the way
down, and a second ``backward`` through the same tape raises. Leaf tensors
(parameters) accumulate gradients across backward calls until
``zero_grad`` resets them.

A layer is a ``Module``: its parameters are the ``Parameter``s held in its
attributes, found in definition order. A parameter's name is its name in
a checkpoint, so renaming or reordering parameters breaks old checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf, expit

_GRAD_ENABLED = True

LAYER_NORM_EPS = 1e-5
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@contextmanager
def no_grad():
    """Disable graph construction inside the block (eval / cache passes)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False, _parents=(), name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = _parents if self.requires_grad else ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def is_leaf(self) -> bool:
        return self._backward is None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction helpers -------------------------------------

    @staticmethod
    def _make(data, parents: Sequence["Tensor"], backward) -> "Tensor":
        req = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=req, _parents=tuple(parents) if req else ())
        if req:
            out._backward = backward
        return out

    def _accum(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64)
            if self.grad.shape != self.data.shape:
                self.grad = np.broadcast_to(self.grad, self.data.shape).copy()
        else:
            self.grad += grad

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = self._coerce(other)

        def backward(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.shape))

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            if self.requires_grad:
                self._accum(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)

        def backward(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.shape))

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    # -- shape ops -------------------------------------------------------

    def transpose(self, *axes: int) -> "Tensor":
        """Permute the axes (numpy ``transpose`` with an explicit order)."""
        inverse = tuple(np.argsort(axes))

        def backward(g):
            if self.requires_grad:
                self._accum(g.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    def reshape(self, *shape) -> "Tensor":
        old = self.shape

        def backward(g):
            if self.requires_grad:
                self._accum(g.reshape(old))

        return Tensor._make(self.data.reshape(*shape), (self,), backward)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(g):
            if self.requires_grad:
                if axis is None:
                    self._accum(np.full_like(self.data, float(g)))
                else:
                    self._accum(np.broadcast_to(np.expand_dims(g, axis) if not keepdims else g, self.shape).copy())

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    # -- elementwise nonlinearities --------------------------------------

    def abs(self) -> "Tensor":
        def backward(g):
            if self.requires_grad:
                self._accum(g * np.sign(self.data))

        return Tensor._make(np.abs(self.data), (self,), backward)


class Parameter(Tensor):
    """Learnable leaf tensor; gradient buffer always allocated. Its name is
    its name in a checkpoint."""

    def __init__(self, value, name: str):
        super().__init__(value, requires_grad=True, name=name)
        self.grad = np.zeros_like(self.data)


class Module:
    """A layer whose parameters are the ``Parameter``s in its attributes."""

    def parameters(self) -> list[Parameter]:
        """Every Parameter held by an attribute, in definition order,
        looking inside Modules, lists, tuples and dict values."""
        found: list[Parameter] = []

        def walk(value) -> None:
            if isinstance(value, Parameter):
                found.append(value)
            elif isinstance(value, (list, tuple)):
                for v in value:
                    walk(v)
            elif isinstance(value, dict):
                for v in value.values():
                    walk(v)
            elif isinstance(value, Module):
                walk(vars(value))

        walk(vars(self))
        return found


# ---------------------------------------------------------------------------
# free-function ops
# ---------------------------------------------------------------------------


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Stacked matrix product over the last two axes; leading axes broadcast."""
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    if min(len(a.shape), len(b.shape)) < 2 or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"bmm shape mismatch: {a.shape} @ {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return Tensor._make(np.matmul(a.data, b.data), (a, b), backward)


def rows(table: Tensor, idx) -> Tensor:
    """Gather along the leading axis; backward scatters with accumulation.

    ``idx`` may have any shape: the result has shape
    ``idx.shape + table.shape[1:]``.
    """
    idx = np.asarray(idx, dtype=np.intp)

    def backward(g):
        if table.requires_grad:
            # bincount adds repeated indices in order, as np.add.at does,
            # at a fraction of its cost
            width = math.prod(table.shape[1:])
            flat = (idx.reshape(-1, 1) * width + np.arange(width)).ravel()
            acc = np.bincount(flat, weights=g.ravel(), minlength=table.data.size)
            table._accum(acc.reshape(table.shape))

    return Tensor._make(table.data[idx], (table,), backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [Tensor._coerce(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accum(piece)

    return Tensor._make(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction for overflow safety."""
    x = Tensor._coerce(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if x.requires_grad:
            dot = (g * out_data).sum(axis=-1, keepdims=True)
            x._accum(out_data * (g - dot))

    return Tensor._make(out_data, (x,), backward)


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), with exp taken of -|x| only, so it never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x: Tensor) -> Tensor:
    x = Tensor._coerce(x)
    out_data = logistic(x.data)

    def backward(g):
        if x.requires_grad:
            x._accum(g * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), backward)


def softplus(x: Tensor) -> Tensor:
    x = Tensor._coerce(x)
    out_data = np.logaddexp(0.0, x.data)

    def backward(g):
        if x.requires_grad:
            x._accum(g * logistic(x.data))

    return Tensor._make(out_data, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF form: x * Phi(x)."""
    x = Tensor._coerce(x)
    phi = 0.5 * (1.0 + erf(x.data / math.sqrt(2.0)))

    def backward(g):
        if x.requires_grad:
            pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.data**2)
            x._accum(g * (phi + x.data * pdf))

    return Tensor._make(x.data * phi, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Fused into one tape node; the backward rule is the standard
    batch-statistics chain written against the normalized activations.
    """
    x = Tensor._coerce(x)
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv

    def backward(g):
        if gain.requires_grad:
            gain._accum(_unbroadcast(g * xhat, gain.shape))
        if shift.requires_grad:
            shift._accum(_unbroadcast(g, shift.shape))
        if x.requires_grad:
            gq = g * gain.data
            m1 = gq.mean(axis=-1, keepdims=True)
            m2 = (gq * xhat).mean(axis=-1, keepdims=True)
            x._accum(inv * (gq - m1 - xhat * m2))

    return Tensor._make(xhat * gain.data + shift.data, (x, gain, shift), backward)


def linear(x: Tensor, W: Tensor, b: Tensor | None = None) -> Tensor:
    """Fused x @ W.T + b (W is (out, in), b is (out,)); no bias if ``b`` is None."""
    x = Tensor._coerce(x)
    if x.shape[-1] != W.shape[1]:
        raise ValueError(f"linear shape mismatch: {x.shape} vs W {W.shape}")

    def backward(g):
        if x.requires_grad:
            x._accum(g @ W.data)
        if W.requires_grad:
            W._accum(g.T @ x.data if g.ndim == 2 else np.outer(g, x.data))
        if b is not None and b.requires_grad:
            b._accum(g.sum(axis=0) if g.ndim == 2 else g)

    if b is None:
        return Tensor._make(x.data @ W.data.T, (x, W), backward)
    return Tensor._make(x.data @ W.data.T + b.data, (x, W, b), backward)


def gaussian_bias(delta_days: np.ndarray, mu: Tensor, rho: Tensor,
                  scale: Tensor, shift: Tensor,
                  sigma_min: float = 0.0) -> Tensor:
    """Fused all-heads Gaussian temporal bias over pairwise-delta matrices.

    For deltas ``D`` of shape (..., n, n) and per-head vectors of length H,
    computes the (..., H, n, n) stack
    ``scale[h] * exp(-(D - mu[h])^2 / (2 sigma[h]^2)) + shift[h]`` with
    ``sigma = softplus(rho) + sigma_min`` as a single tape node; the
    backward rule uses the closed-form kernel derivatives
    ``dk/dmu = k z / sigma`` and ``dk/dsigma = k z^2 / sigma`` with
    ``z = (D - mu) / sigma``.
    """
    d = np.asarray(delta_days, dtype=np.float64)[..., None, :, :]
    per_head = (slice(None), None, None)
    sigma = np.logaddexp(0.0, rho.data) + sigma_min
    z = (d - mu.data[per_head]) / sigma[per_head]
    k = np.exp(-0.5 * z * z)
    # every axis but the head axis (-3) is summed in the parameter gradients
    axes = tuple(i for i in range(z.ndim) if i != z.ndim - 3)

    def backward(g):
        gk = g * k
        gkz = gk * z
        if mu.requires_grad:
            mu._accum(scale.data * gkz.sum(axis=axes) / sigma)
        if rho.requires_grad:
            rho._accum(scale.data * (gkz * z).sum(axis=axes) / sigma
                       * expit(rho.data))
        if scale.requires_grad:
            scale._accum(gk.sum(axis=axes))
        if shift.requires_grad:
            shift._accum(g.sum(axis=axes))

    return Tensor._make(k * scale.data[per_head] + shift.data[per_head],
                        (mu, rho, scale, shift), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted-scaling dropout with masks drawn from ``rng``; the identity
    without a generator or at rate 0."""
    if rng is None or rate <= 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * Tensor(mask)


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------


def _consumed(grad: np.ndarray) -> None:
    raise RuntimeError("backward through a tape that an earlier backward consumed")


def backward(loss: Tensor) -> None:
    """Reverse-mode accumulation from a scalar loss into leaf gradients.

    Consumes the tape: each interior node drops its rule and its inputs
    once the rule has run, and a later backward through it raises."""
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    # intermediates get a fresh gradient every call; leaves accumulate
    for node in topo:
        if not node.is_leaf:
            node.grad = None
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()  # the last reference the walk holds
        if node.is_leaf:
            continue
        if node.grad is not None:
            node._backward(node.grad)
        # fully accumulated and passed on: free the gradient, the rule's
        # saved arrays and the inputs now
        node.grad = None
        node._backward = _consumed
        node._parents = ()


def zero_grad(params: Iterable[Parameter]) -> None:
    for p in params:
        p.grad = np.zeros_like(p.data)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


CHECKPOINT_FORMAT = 2


def save_checkpoint(params: dict[str, Parameter], path: str, run: dict) -> None:
    """Write the parameters as one raw LE float64 blob, ``path.bin``, and a
    JSON manifest, ``path.json``: the format number, ``run`` (a JSON object
    saying what the parameters belong to, not read here), the blob's sha256
    and each parameter's name, shape and byte offset."""
    entries = []
    offset = 0
    digest = hashlib.sha256()
    with open(path + ".bin", "wb") as blob:
        for name, p in params.items():
            data = np.asarray(p.data, dtype="<f8").tobytes()  # C order
            entries.append({"name": name, "shape": list(p.data.shape), "offset": offset})
            blob.write(data)
            digest.update(data)
            offset += len(data)
    with open(path + ".json", "w") as fh:
        json.dump({"format": CHECKPOINT_FORMAT, "run": run,
                   "sha256": digest.hexdigest(), "params": entries}, fh, indent=1)


class CheckpointError(ValueError):
    """A checkpoint that cannot be read into the given parameters."""


def _read_manifest(path: str) -> dict:
    try:
        with open(path + ".json") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    # format 1 was the bare parameter list, saying nothing of the run
    fmt = (1 if isinstance(manifest, list)
           else manifest.get("format") if isinstance(manifest, dict) else None)
    if fmt != CHECKPOINT_FORMAT:
        raise CheckpointError(f"checkpoint {path} is in format {fmt!r}, not "
                              f"{CHECKPOINT_FORMAT}: retrain to write it in this one")
    if not isinstance(manifest.get("run"), dict):
        raise CheckpointError(f"checkpoint {path} has no run object")
    return manifest


def checkpoint_run(path: str) -> dict:
    """The run object saved with the checkpoint at ``path``."""
    return _read_manifest(path)["run"]


def load_checkpoint(params: dict[str, Parameter], path: str) -> None:
    """Read every parameter from ``path``; nothing is assigned unless all fit."""
    manifest = _read_manifest(path)
    try:
        with open(path + ".bin", "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        by_name = {e["name"]: (tuple(int(n) for n in e["shape"]), int(e["offset"]))
                   for e in manifest["params"]}
    except (TypeError, KeyError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint manifest {path}.json: {exc!r}") from exc
    arrays = {}
    for name, p in params.items():
        if name not in by_name:
            raise CheckpointError(f"checkpoint {path} has no parameter {name!r}")
        shape, offset = by_name[name]
        if shape != p.data.shape:
            raise CheckpointError(f"checkpoint {path}: {name!r} has shape {shape}, "
                                  f"the model has {p.data.shape}")
        end = offset + 8 * p.data.size
        if offset < 0 or end > len(blob):
            raise CheckpointError(f"checkpoint {path}: {name!r} needs bytes "
                                  f"[{offset}, {end}) of a {len(blob)}-byte blob")
        arrays[name] = np.frombuffer(blob, dtype="<f8", count=p.data.size, offset=offset)
    if hashlib.sha256(blob).hexdigest() != manifest.get("sha256"):
        raise CheckpointError(f"checkpoint {path}: the blob's sha256 does not match "
                              f"its manifest")
    for name, p in params.items():
        p.data = arrays[name].reshape(p.data.shape).astype(np.float64)
