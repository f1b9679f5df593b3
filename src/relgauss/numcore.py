"""Dense float64 tensors with reverse-mode gradients.

Small tape-style autodiff: every op closes over its inputs and records a
backward rule; ``backward`` replays them in reverse topological order.
Leaf tensors (parameters) accumulate gradients across backward calls until
``zero_grad`` resets them.
"""

from __future__ import annotations

import json
import math
import os
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


def grad_enabled() -> bool:
    return _GRAD_ENABLED


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
        return not self._parents

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

    def __truediv__(self, other):
        other = self._coerce(other)

        def backward(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(-g * self.data / (other.data**2), other.shape))

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: float):
        def backward(g):
            if self.requires_grad:
                self._accum(g * exponent * self.data ** (exponent - 1))

        return Tensor._make(self.data**exponent, (self,), backward)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- shape ops -------------------------------------------------------

    def t(self) -> "Tensor":
        def backward(g):
            if self.requires_grad:
                self._accum(g.T)

        return Tensor._make(self.data.T, (self,), backward)

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

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        n = self.data.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- elementwise nonlinearities --------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g):
            if self.requires_grad:
                self._accum(g * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(g):
            if self.requires_grad:
                self._accum(g / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def abs(self) -> "Tensor":
        def backward(g):
            if self.requires_grad:
                self._accum(g * np.sign(self.data))

        return Tensor._make(np.abs(self.data), (self,), backward)


class Parameter(Tensor):
    """Learnable leaf tensor; gradient buffer always allocated."""

    def __init__(self, value, name: str):
        super().__init__(value, requires_grad=True, name=name)
        self.grad = np.zeros_like(self.data)


# ---------------------------------------------------------------------------
# free-function ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)

    return Tensor._make(a.data @ b.data, (a, b), backward)


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


def element(vec: Tensor, i: int) -> Tensor:
    """Scalar view of one coordinate of a 1-D tensor."""

    def backward(g):
        if vec.requires_grad:
            acc = np.zeros_like(vec.data)
            acc[i] = g
            vec._accum(acc)

    return Tensor._make(vec.data[i], (vec,), backward)


def col_slice(x: Tensor, sl: slice) -> Tensor:
    """Contiguous column slice of a 2-D tensor."""

    def backward(g):
        if x.requires_grad:
            acc = np.zeros_like(x.data)
            acc[:, sl] = g
            x._accum(acc)

    return Tensor._make(x.data[:, sl], (x,), backward)


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


def sigmoid(x: Tensor) -> Tensor:
    x = Tensor._coerce(x)
    out_data = np.where(x.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(x.data))),
                        np.exp(-np.abs(x.data)) / (1.0 + np.exp(-np.abs(x.data))))

    def backward(g):
        if x.requires_grad:
            x._accum(g * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), backward)


def softplus(x: Tensor) -> Tensor:
    x = Tensor._coerce(x)
    out_data = np.logaddexp(0.0, x.data)

    def backward(g):
        if x.requires_grad:
            s = np.where(x.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(x.data))),
                         np.exp(-np.abs(x.data)) / (1.0 + np.exp(-np.abs(x.data))))
            x._accum(g * s)

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


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """Fused x @ W.T + b (W is (out, in), b is (out,))."""
    x = Tensor._coerce(x)
    if x.shape[-1] != W.shape[1]:
        raise ValueError(f"linear shape mismatch: {x.shape} vs W {W.shape}")

    def backward(g):
        if x.requires_grad:
            x._accum(g @ W.data)
        if W.requires_grad:
            W._accum(g.T @ x.data if g.ndim == 2 else np.outer(g, x.data))
        if b.requires_grad:
            b._accum(g.sum(axis=0) if g.ndim == 2 else g)

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


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted-scaling dropout; identity when not training or rate 0."""
    if not training or rate <= 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * Tensor(mask)


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Reverse-mode accumulation from a scalar loss into leaf gradients."""
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
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grad(params: Iterable[Parameter]) -> None:
    for p in params:
        p.grad = np.zeros_like(p.data)


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


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def save_checkpoint(params: dict[str, Parameter], path: str) -> None:
    """Write a JSON manifest (name/shape/offset) plus a raw LE float64 blob."""
    manifest = []
    offset = 0
    with open(path + ".bin", "wb") as blob:
        for name, p in params.items():
            arr = np.ascontiguousarray(p.data, dtype="<f8")
            manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
            blob.write(arr.tobytes())
            offset += arr.nbytes
    with open(path + ".json", "w") as fh:
        json.dump(manifest, fh, indent=1)


def load_checkpoint(params: dict[str, Parameter], path: str) -> None:
    with open(path + ".json") as fh:
        manifest = json.load(fh)
    with open(path + ".bin", "rb") as fh:
        blob = fh.read()
    by_name = {e["name"]: e for e in manifest}
    for name, p in params.items():
        entry = by_name[name]
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=entry["offset"])
        p.data = arr.reshape(shape).astype(np.float64).copy()


def checkpoint_exists(path: str) -> bool:
    return os.path.exists(path + ".json") and os.path.exists(path + ".bin")
