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
from scipy.special import erf

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
    """Whether new ops record a tape (False inside ``no_grad``)."""
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


def propagate(A: np.ndarray, X: Tensor, *, slot: np.ndarray, queries: np.ndarray) -> Tensor:
    """``A @ X`` within each padded group of rows, as one tape node.

    Row k of ``X`` (n, d) sits in flat slot ``slot[k]`` of a zero-filled
    (B, n_max) stack times ``A`` (B, n_q, n_max), which is 0 in every padded
    column. The outputs are the rows of ``queries`` (B, n_q), the padded
    row index of the rows to compute (-1 for none), read row by row; with
    no -1 there, the product itself, ungathered.
    """
    B, n_q, n_max = A.shape
    d = X.shape[1]
    S = np.zeros((B * n_max, d))
    S[slot] = X.data
    Y = np.matmul(A, S.reshape(B, n_max, d)).reshape(B * n_q, d)
    q_slot = np.flatnonzero(queries >= 0)

    def backward(g):
        gY = np.zeros((B * n_q, d))
        gY[q_slot] = g
        gS = np.swapaxes(A, -1, -2) @ gY.reshape(B, n_q, d)
        X._accum(gS.reshape(B * n_max, d)[slot])

    return Tensor._make(Y if len(q_slot) == len(Y) else Y[q_slot], (X,), backward)


def rows(table: Tensor, idx) -> Tensor:
    """Gather along the leading axis; backward scatters, adding up the
    gradients of a repeated index.

    ``idx`` may have any shape of non-negative indices: the result has
    shape ``idx.shape + table.shape[1:]``.
    """
    idx = np.asarray(idx, dtype=np.intp)

    def backward(g):
        if not table.requires_grad:
            return
        if np.bincount(idx.ravel()).max(initial=0) <= 1:
            acc = np.zeros(table.shape)
            acc[idx] = g
        else:
            # bincount adds repeated indices in order, as np.add.at does,
            # at a fraction of its cost
            width = math.prod(table.shape[1:])
            flat = (idx.reshape(-1, 1) * width + np.arange(width)).ravel()
            acc = np.bincount(flat, weights=g.ravel(),
                              minlength=table.data.size).reshape(table.shape)
        table._accum(acc)

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
    n = x.shape[-1]
    # sum / n is bitwise ndarray.mean (the same add.reduce and true_divide)
    # without numpy's Python-level wrapper
    mu = x.data.sum(axis=-1, keepdims=True) / n
    centered = x.data - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv

    def backward(g):
        if gain.requires_grad:
            gain._accum(_unbroadcast(g * xhat, gain.shape))
        if shift.requires_grad:
            shift._accum(_unbroadcast(g, shift.shape))
        if x.requires_grad:
            gq = g * gain.data
            m1 = gq.sum(axis=-1, keepdims=True) / n
            m2 = (gq * xhat).sum(axis=-1, keepdims=True) / n
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


def residual_mlp(h: Tensor, terms: Sequence[tuple[Tensor, Tensor]], gain: Tensor,
                 shift: Tensor, b1: Tensor | None = None, W2: Tensor | None = None,
                 b2: Tensor | None = None, mask: np.ndarray | None = None) -> Tensor:
    """h + a2(mask * GELU(LayerNorm(sum_i x_i @ W_i.T + b1))) as one tape node.

    ``terms`` are the (x, W) pairs of rows (n, d_in) and weights (d, d_in),
    summed in order. Without ``b1`` the sum has no bias, without ``W2`` there
    is no a2 (``b2`` is its bias) and without ``mask`` (an (n, d) multiplier,
    e.g. a dropout mask) no product. Every sum is taken in the order of the
    ops it replaces (``linear``, ``layer_norm``, ``gelu``, ``*``, ``+``), so
    its value and gradients are theirs bit for bit; the backward reuses the
    forward's normalised activations, 1/sigma and Gaussian CDF.
    """
    # past the first product every step writes into an array made here
    (x0, W0), *rest = terms
    z = x0.data @ W0.data.T
    for x, W in rest:
        z += x.data @ W.data.T
    if b1 is not None:
        z += b1.data
    n = z.shape[-1]
    mu = z.sum(axis=-1, keepdims=True) / n
    z -= mu
    var = (z * z).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    z *= inv
    xhat = z
    y = xhat * gain.data
    y += shift.data
    phi = y / math.sqrt(2.0)
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    act = y * phi
    if mask is not None:
        act *= mask
    out = act
    if W2 is not None:
        out = act @ W2.data.T
        if b2 is not None:
            out += b2.data

    def backward(g):
        if h.requires_grad:
            h._accum(g)
        gact = g
        if W2 is not None:
            gact = g @ W2.data
            if W2.requires_grad:
                W2._accum(g.T @ act)
            if b2 is not None and b2.requires_grad:
                b2._accum(g.sum(axis=0))
        if mask is not None:
            gact = gact * mask
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * y**2)
        gy = gact * (phi + y * pdf)
        if gain.requires_grad:
            gain._accum(_unbroadcast(gy * xhat, gain.shape))
        if shift.requires_grad:
            shift._accum(_unbroadcast(gy, shift.shape))
        gq = gy * gain.data
        m1 = gq.sum(axis=-1, keepdims=True) / n
        m2 = (gq * xhat).sum(axis=-1, keepdims=True) / n
        gz = inv * (gq - m1 - xhat * m2)
        for x, W in terms:
            if x.requires_grad:
                x._accum(gz @ W.data)
            if W.requires_grad:
                W._accum(gz.T @ x.data)
        if b1 is not None and b1.requires_grad:
            b1._accum(gz.sum(axis=0))

    parents = [h, gain, shift, *(t for term in terms for t in term)]
    parents += [t for t in (b1, W2, b2) if t is not None]
    out += h.data  # the backward reads act only if W2 made out a new array
    return Tensor._make(out, parents, backward)


def attention_block(H: Tensor, W_Q: Tensor, W_K: Tensor, W_V: Tensor,
                    bias: Tensor | None, *, heads: int, slot: np.ndarray,
                    key_mask: np.ndarray, queries: np.ndarray,
                    mask: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Multi-head attention of rows within padded groups, as one tape node.

    Every row of ``H`` (n, d) is a key: row i sits in flat slot ``slot[i]``
    of a (B, n_max) stack, and a slot without a row holds zeros.
    ``key_mask`` (B, n_max) is each key slot's additive score (0, or a large
    negative number at a padded slot, so that it gets no weight).
    ``queries`` (B, n_q) names each group's query rows of ``H``, distinct,
    with -1 where a group has fewer: the padded row index of the groups
    computes every row, and its leading columns compute fewer. The
    projections ``H @ W.T`` of W_Q (at the query rows only), W_K and W_V
    are split into ``heads`` and placed in their stacks; the scores
    ``Q K^T / sqrt(d / heads)`` get ``bias`` (a (B, heads, n_q, n_max)
    Tensor, or None) and the key mask, go through a softmax over the keys
    and the (B, heads, n_q, n_max) multiplier ``mask`` (e.g. a dropout
    mask), and weight V. The outputs come back one per query row, in the
    order of ``queries`` read row by row, so a padded slot passes no
    gradient.

    Returns the (number of queries, d) output and the softmax weights,
    before ``mask``. Every sum is taken in the order of the unfused ops
    (``linear``, a gather into the stack, a batched product, a row
    softmax), so the outputs and gradients are theirs bit for bit; the
    gradients reach ``H`` in Q, K, V order.
    """
    n_rows, d = H.shape
    B, n_max = key_mask.shape
    n_q = queries.shape[1]
    q_slot = np.flatnonzero(queries >= 0)
    q_rows = queries.ravel()[q_slot]
    head_dim = d // heads

    def stack(X: np.ndarray, W: Tensor, at: np.ndarray, width: int) -> np.ndarray:
        """(B, heads, width, head_dim) stack of the rows' projections."""
        S = np.zeros((B * width, heads, head_dim))
        S[at] = (X @ W.data.T).reshape(len(X), heads, head_dim)
        return S.reshape(B, width, heads, head_dim).transpose(0, 2, 1, 3)

    Q = stack(H.data[q_rows], W_Q, q_slot, n_q)
    K_t = np.swapaxes(stack(H.data, W_K, slot, n_max), -1, -2)  # keys on the last axis
    V = stack(H.data, W_V, slot, n_max)
    scale = 1.0 / math.sqrt(head_dim)
    scores = np.matmul(Q, K_t) * scale
    if bias is not None:
        scores = scores + bias.data
    if key_mask.any():
        scores = scores + key_mask[:, None, None, :]
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    alpha = e / e.sum(axis=-1, keepdims=True)
    weights = alpha if mask is None else alpha * mask
    Y = np.matmul(weights, V)
    out = Y.transpose(0, 2, 1, 3).reshape(B * n_q, d)[q_slot]

    def backward(g):
        gY = np.zeros((B * n_q, d))
        gY[q_slot] = g
        gY = gY.reshape(B, n_q, heads, head_dim).transpose(0, 2, 1, 3)
        g_weights = gY @ np.swapaxes(V, -1, -2)
        gV = np.swapaxes(weights, -1, -2) @ gY
        g_alpha = g_weights if mask is None else g_weights * mask
        dot = (g_alpha * alpha).sum(axis=-1, keepdims=True)
        g_scores = alpha * (g_alpha - dot)
        if bias is not None and bias.requires_grad:
            bias._accum(g_scores)
        g_scaled = g_scores * scale
        gQ = g_scaled @ np.swapaxes(K_t, -1, -2)
        gK_t = np.swapaxes(Q, -1, -2) @ g_scaled
        every_row = np.arange(n_rows)
        for W, gX, at, rows in ((W_Q, gQ, q_slot, q_rows),
                                (W_K, np.swapaxes(gK_t, -1, -2), slot, every_row),
                                (W_V, gV, slot, every_row)):
            g_rows = gX.transpose(0, 2, 1, 3).reshape(-1, d)[at]
            if H.requires_grad:
                gH = np.zeros((n_rows, d))
                gH[rows] = g_rows @ W.data
                H._accum(gH)
            if W.requires_grad:
                W._accum(g_rows.T @ H.data[rows])

    parents = (H, W_Q, W_K, W_V) + ((bias,) if bias is not None else ())
    return Tensor._make(out, parents, backward), alpha


def gaussian_bias(delta_days: np.ndarray, mu: Tensor, rho: Tensor,
                  scale: Tensor, shift: Tensor,
                  sigma_min: float = 0.0) -> Tensor:
    """Fused all-heads Gaussian temporal bias over pairwise-delta matrices.

    For deltas ``D`` of shape (..., m, n) and per-head vectors of length H,
    computes the (..., H, m, n) stack
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
                       * logistic(rho.data))
        if scale.requires_grad:
            scale._accum(gk.sum(axis=axes))
        if shift.requires_grad:
            shift._accum(g.sum(axis=axes))

    return Tensor._make(k * scale.data[per_head] + shift.data[per_head],
                        (mu, rho, scale, shift), backward)


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


# format 3: positional features come from a keyed hash; a format-2 model was
# trained against other features and would score as a different model
CHECKPOINT_FORMAT = 3


def save_checkpoint(params: dict[str, Parameter], path: str, run: dict) -> None:
    """Write the parameters as one raw LE float64 blob, ``path.bin``, in
    their order, and a JSON manifest, ``path.json``: the format number,
    ``run`` (a JSON object saying what the parameters belong to, not read
    here), the blob's sha256 and each parameter's name and shape."""
    digest = hashlib.sha256()
    with open(path + ".bin", "wb") as blob:
        for p in params.values():
            data = np.asarray(p.data, dtype="<f8").tobytes()  # C order
            blob.write(data)
            digest.update(data)
    entries = [{"name": name, "shape": list(p.data.shape)} for name, p in params.items()]
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
    """Read every parameter from ``path``; nothing is assigned unless all fit.
    The manifest lists the model's names and shapes in its order, and the
    blob holds them back to back; an older manifest's ``offset`` is unread."""
    manifest = _read_manifest(path)
    try:
        with open(path + ".bin", "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        saved = [(e["name"], tuple(int(n) for n in e["shape"])) for e in manifest["params"]]
    except (TypeError, KeyError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise CheckpointError(f"malformed checkpoint manifest {path}.json: {exc!r}") from exc
    for i, (name, p) in enumerate(params.items()):
        if i >= len(saved) or saved[i][0] != name:
            raise CheckpointError(f"checkpoint {path} has no parameter {name!r} "
                                  f"in place {i} of its manifest")
        if saved[i][1] != p.data.shape:
            raise CheckpointError(f"checkpoint {path}: {name!r} has shape {saved[i][1]}, "
                                  f"the model has {p.data.shape}")
    if len(saved) > len(params):
        raise CheckpointError(f"checkpoint {path} has parameter {saved[len(params)][0]!r}, "
                              f"which the model lacks")
    sizes = [p.data.size for p in params.values()]
    if len(blob) != 8 * sum(sizes):
        raise CheckpointError(f"checkpoint {path} needs bytes [0, {8 * sum(sizes)}) "
                              f"and its blob holds {len(blob)}")
    if hashlib.sha256(blob).hexdigest() != manifest.get("sha256"):
        raise CheckpointError(f"checkpoint {path}: the blob's sha256 does not match "
                              f"its manifest")
    flat = np.split(np.frombuffer(blob, dtype="<f8"), np.cumsum(sizes)[:-1])
    for p, values in zip(params.values(), flat):
        p.data = values.reshape(p.data.shape).astype(np.float64)
