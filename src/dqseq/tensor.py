"""Dense float32 tensors with reverse-mode autodiff on an explicit tape.

Shapes are static, storage is row-major float32, and every differentiable
op records one node on the active tape. backward() replays the tape in
reverse order, accumulating gradients additively; zeroing is explicit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class TapeError(RuntimeError):
    """backward() misuse: non-scalar loss, or loss not recorded on a tape."""


_TAPE_STACK: list["Tape | None"] = []
_NAN_CHECKS = False


def set_nan_checks(enabled: bool) -> None:
    """Toggle per-op finiteness assertions on forward results (test use)."""
    global _NAN_CHECKS
    _NAN_CHECKS = bool(enabled)


class Tensor:
    """An n-dimensional float32 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "name", "_tape", "_node_index", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float32)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.name = name
        self._tape: Tape | None = None
        self._node_index = -1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


class _Node:
    __slots__ = ("op", "inputs", "out", "backward")

    def __init__(self, op, inputs, out, backward):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.backward = backward


class Tape:
    """Ordered op record; construction order is topological by definition."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self.nodes)

    def first_nonfinite(self) -> tuple[int, str] | None:
        """(index, op name) of the earliest node whose output has NaN/Inf."""
        for i, node in enumerate(self.nodes):
            if not np.all(np.isfinite(node.out.data)):
                return i, node.op
        return None


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


@contextmanager
def no_grad():
    """Suspend tape recording inside the block."""
    _TAPE_STACK.append(None)
    try:
        yield
    finally:
        _TAPE_STACK.pop()


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(op: str, out_data: np.ndarray, inputs: tuple[Tensor, ...], backward) -> Tensor:
    if _NAN_CHECKS and not np.all(np.isfinite(out_data)):
        raise FloatingPointError(f"non-finite values produced by op {op!r}")
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._tape = tape
        out._node_index = len(tape.nodes)
        tape.nodes.append(_Node(op, inputs, out, backward))
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # Gradient buffers are never mutated in place; reuse-by-aliasing is safe.
    t.grad = g if t.grad is None else t.grad + g


def backward(loss: Tensor) -> None:
    """Reverse pass from a scalar loss through the tape that recorded it.

    Visits each recorded node exactly once, in reverse construction order.
    Gradients of every requires_grad tensor reachable from the loss are
    accumulated additively into .grad.
    """
    if loss.size != 1:
        raise TapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise TapeError("loss was not recorded on an active tape")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {id(loss): loss}
    for node in reversed(tape.nodes[: loss._node_index + 1]):
        g = grads.pop(id(node.out), None)
        if g is None:
            continue
        leaves.pop(id(node.out), None)
        _accumulate(node.out, g)
        for t, ig in zip(node.inputs, node.backward(g)):
            if ig is None or not t.requires_grad:
                continue
            key = id(t)
            grads[key] = ig if key not in grads else grads[key] + ig
            leaves[key] = t
    for key, g in grads.items():
        _accumulate(leaves[key], g)


# ---------------------------------------------------------------------------
# ops


def matmul(a, b) -> Tensor:
    """Matrix product. Supports [..., m, k] @ [..., k, n] with equal leading
    dimensions, or a 2-D right operand shared across all leading dims."""
    a, b = _as_tensor(a), _as_tensor(b)
    A, B = a.data, b.data
    if A.ndim < 2 or B.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {A.shape} @ {B.shape}")
    if A.shape[-1] != B.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {A.shape} @ {B.shape}")
    if B.ndim != 2 and A.shape[:-2] != B.shape[:-2]:
        raise ShapeError(f"matmul leading dimensions differ: {A.shape} @ {B.shape}")
    out = A @ B
    need_a, need_b = a.requires_grad, b.requires_grad

    def bwd(g):
        ga = gb = None
        if need_a:
            ga = g @ (B.T if B.ndim == 2 else np.swapaxes(B, -1, -2))
        if need_b:
            if B.ndim == 2 and A.ndim > 2:
                gb = A.reshape(-1, A.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = np.swapaxes(A, -1, -2) @ g
        return ga, gb

    return _record("matmul", out, (a, b), bwd)


def add(a, b) -> Tensor:
    """Elementwise sum; b may be a Python scalar."""
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        return _record("add", a.data + float(b), (a,), lambda g: (g,))
    b = _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    return _record("add", a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        return _record("sub", a.data - float(b), (a,), lambda g: (g,))
    b = _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"sub shapes differ: {a.shape} vs {b.shape}")
    return _record("sub", a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product; b may be a Python scalar."""
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        return scale(a, float(b))
    b = _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")
    A, B = a.data, b.data
    return _record("mul", A * B, (a, b), lambda g: (g * B, g * A))


def scale(a, s: float) -> Tensor:
    """Multiply every element by the Python scalar s."""
    a = _as_tensor(a)
    s = float(s)
    return _record("scale", a.data * s, (a,), lambda g: (g * s,))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    A = a.data
    return _record("relu", np.maximum(A, 0.0), (a,), lambda g: (g * (A > 0),))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """tanh-approximate GELU: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3)))."""
    a = _as_tensor(a)
    x = a.data
    inner = _GELU_C * (x + 0.044715 * x * x * x)
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def bwd(g):
        d_inner = _GELU_C * (1.0 + 3.0 * 0.044715 * x * x)
        d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
        return (g * d,)

    return _record("gelu", out, (a,), bwd)


def add_bias(a, b) -> Tensor:
    """Broadcast-add a 1-D bias over the last dimension of a."""
    a, b = _as_tensor(a), _as_tensor(b)
    if b.data.ndim != 1 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias needs a trailing-dim bias: {a.shape} + {b.shape}")

    def bwd(g):
        return g, g.reshape(-1, g.shape[-1]).sum(axis=0)

    return _record("add_bias", a.data + b.data, (a, b), bwd)


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis."""
    a = _as_tensor(a)
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"softmax axis {axis} out of range for shape {a.shape}")
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return _record("softmax", y, (a,), bwd)


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize over the last dimension: (x - mean)/sqrt(var + eps)*gain + bias."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape}/{bias.shape}"
        )
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def bwd(g):
        dxhat = g * gain.data
        dgain = (g * xhat).reshape(-1, d).sum(axis=0)
        dbias = g.reshape(-1, d).sum(axis=0)
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return dx, dgain, dbias

    return _record("layer_norm", out, (a, gain, bias), bwd)


def embedding_gather(table, ids) -> Tensor:
    """Gather rows of a [v, d] table; output shape is ids.shape + (d,)."""
    table = _as_tensor(table)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    v, d = table.shape
    if idx.size:
        lo, hi = int(idx.min()), int(idx.max())
        if lo < 0 or hi >= v:
            bad = lo if lo < 0 else hi
            raise IndexError(f"token id {bad} out of range [0, {v})")
    out = table.data[idx.reshape(-1)].reshape(idx.shape + (d,))

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, d))
        return (gt,)

    return _record("embedding_gather", out, (table,), bwd)


def dropout(a, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; rate 0 is the identity (no node recorded)."""
    a = _as_tensor(a)
    if rate == 0.0:
        return a
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if rng is None:
        raise ValueError("dropout with rate > 0 needs an explicit rng")
    keep = (rng.random(a.shape) >= rate).astype(np.float32) / (1.0 - rate)
    return _record("dropout", a.data * keep, (a,), lambda g: (g * keep,))


def masked_fill(a, keep_mask, fill_value: float) -> Tensor:
    """Replace entries where keep_mask is False by fill_value.

    keep_mask is a constant boolean array broadcastable to a's shape;
    replaced positions receive zero gradient.
    """
    a = _as_tensor(a)
    keep = np.asarray(keep_mask, dtype=bool)
    out = np.where(keep, a.data, np.float32(fill_value))
    if out.shape != a.shape:
        raise ShapeError(f"mask {keep.shape} does not broadcast to {a.shape}")
    return _record("masked_fill", out, (a,), lambda g: (g * keep,))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    orig = a.shape
    out = a.data.reshape(shape)
    return _record("reshape", out, (a,), lambda g: (g.reshape(orig),))


def transpose(a, axes=None) -> Tensor:
    a = _as_tensor(a)
    ax = tuple(range(a.data.ndim))[::-1] if axes is None else tuple(axes)
    inv = tuple(np.argsort(ax))
    out = np.transpose(a.data, ax)
    return _record("transpose", out, (a,), lambda g: (np.transpose(g, inv),))


def straight_through(x, values) -> Tensor:
    """Output carries `values`; the gradient passes to x unchanged.

    This is the estimator that lets quantized forwards train a
    full-precision master copy.
    """
    x = _as_tensor(x)
    vals = np.asarray(values, dtype=np.float32)
    if vals.shape != x.shape:
        raise ShapeError(f"straight_through values {vals.shape} != input {x.shape}")
    return _record("straight_through", vals.copy(), (x,), lambda g: (g,))


def sum_all(a) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    a = _as_tensor(a)
    out = np.asarray(a.data.sum(), dtype=np.float32)
    return _record("sum_all", out, (a,), lambda g: (np.broadcast_to(g, a.shape).astype(np.float32),))


def mse(a, b, mask=None) -> Tensor:
    """Mean squared error over unmasked elements.

    mask, if given, is a boolean array of the same shape; True means the
    element participates. Zero unmasked elements yields a zero loss.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mse shapes differ: {a.shape} vs {b.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != a.shape:
            raise ShapeError(f"mse mask shape {mask.shape} != {a.shape}")
        count = int(mask.sum())
    else:
        count = a.size
    diff = a.data - b.data
    if count == 0:
        out = np.float32(0.0)
        zero = lambda g: (np.zeros_like(a.data), np.zeros_like(b.data))
        return _record("mse", np.asarray(out), (a, b), zero)
    if mask is not None:
        diff = diff * mask
    out = np.asarray((diff * diff).sum() / np.float32(count), dtype=np.float32)
    need_a, need_b = a.requires_grad, b.requires_grad

    def bwd(g):
        base = (2.0 / count) * g * diff
        return (base if need_a else None), (-base if need_b else None)

    return _record("mse", out, (a, b), bwd)


def cross_entropy(logits, targets, ignore_id: int | None = None) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax.

    logits: [n, v]; targets: n integer ids. Rows whose target equals
    ignore_id are excluded from the mean.
    """
    logits = _as_tensor(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy needs [n, v] logits, got {logits.shape}")
    n, v = logits.shape
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    if t.shape[0] != n:
        raise ShapeError(f"cross_entropy got {t.shape[0]} targets for {n} rows")
    valid = np.ones(n, dtype=bool) if ignore_id is None else (t != ignore_id)
    checked = t[valid]
    if checked.size and (checked.min() < 0 or checked.max() >= v):
        bad = int(checked.min()) if checked.min() < 0 else int(checked.max())
        raise IndexError(f"target id {bad} out of range [0, {v})")
    k = int(valid.sum())
    if k == 0:
        return _record(
            "cross_entropy",
            np.asarray(np.float32(0.0)),
            (logits,),
            lambda g: (np.zeros_like(logits.data),),
        )
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    rows = np.arange(n)[valid]
    out = np.asarray(-logp[rows, t[valid]].sum() / np.float32(k), dtype=np.float32)

    def bwd(g):
        p = np.exp(logp)
        gl = np.zeros_like(logits.data)
        gl[rows] = p[rows]
        gl[rows, t[valid]] -= 1.0
        return ((g / k) * gl,)

    return _record("cross_entropy", out, (logits,), bwd)
