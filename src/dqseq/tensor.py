"""Dense float32 tensors with reverse-mode autodiff on an explicit tape.

Shapes are static, storage is row-major float32, and every differentiable
op records one node on the active tape: its parents and a backward closure
that keeps only what backward reads. Where that is an operand dequantized
from integer codes (a recorded straight_through output with a .quant link),
the node keeps the int8 codes and their scales instead, about a quarter of
the bytes, and backward dequantizes them again, once for all the nodes that
keep them, to the same float32 bits.
backward() consumes the tape in reverse, freeing each node, and adds
gradients to leaves' .grad; zeroing is explicit.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class TapeError(RuntimeError):
    """backward() misuse: non-scalar loss, loss off any tape, or a consumed tape."""


def _keep_freed_memory_mapped() -> None:
    """Fix glibc malloc's mmap and trim thresholds at 32 and 64 MiB, and
    its arenas at one.

    backward() frees a step's activations as it goes, so a step ends with
    the top of the heap free. Under glibc's starting thresholds that top
    went back to the kernel and the next forward faulted it in again: about
    1,400 minor faults and 3 ms of system time per ladder-shape dq step.
    32 and 64 MiB are where glibc's own dynamic thresholds stop on 64-bit
    (trim = 2 x mmap), so a step's freed memory stays mapped for the next.
    One arena makes quantize_params' helper threads reuse that same heap
    for their temporaries: with an arena of its own, one helper took the
    ckpt-2-2-8 benchmark's peak RSS from 121 to 134 MB.
    Does nothing on a libc without mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-8, 1)  # M_ARENA_MAX


_keep_freed_memory_mapped()

_TAPE_STACK: list["Tape | None"] = []
_F32 = np.dtype(np.float32)
_NAN_CHECKS = False


def set_nan_checks(enabled: bool) -> None:
    """Toggle per-op finiteness assertions on forward results (the trainer's NaN replay)."""
    global _NAN_CHECKS
    _NAN_CHECKS = bool(enabled)


class Tensor:
    """An n-dimensional float32 array with an optional gradient buffer.

    quant, when set, is what the data was dequantized from: an object whose
    values() gives the data's bits again, in data's shape or reshapeable to it,
    and which takes the tape's holders and restored fields (straight_through).
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "quant", "_tape", "_node_index",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        # a C-contiguous float32 ndarray is adopted as it is; anything else is copied
        # (np.asarray, not np.ascontiguousarray, which would make a 0-d input 1-d)
        if type(data) is not np.ndarray or data.dtype is not _F32 or not data.flags.c_contiguous:
            data = np.asarray(data, dtype=np.float32)
            if not data.flags.c_contiguous:
                data = np.ascontiguousarray(data)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.name = name
        self.quant = None
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

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


class _Node:
    __slots__ = ("op", "parents", "backward")

    def __init__(self, op, parents, backward):
        self.op = op
        self.parents = parents
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
    tape = active_tape()
    recorded = tape is not None and any(t.requires_grad for t in inputs)
    if _NAN_CHECKS and not np.all(np.isfinite(out_data)):
        at = f" (node {len(tape.nodes)})" if recorded else ""
        raise FloatingPointError(f"non-finite values produced by op {op!r}{at}")
    out = Tensor(out_data)
    if recorded:
        out.requires_grad = True
        out._tape = tape
        out._node_index = len(tape.nodes)
        # a parent is its node's index if made on this tape, else the leaf itself
        parents = tuple(t._node_index if t._tape is tape else t if t.requires_grad else None
                        for t in inputs)
        tape.nodes.append(_Node(op, parents, backward))
    return out


def _kept(t: Tensor, needed: bool):
    """What a node keeps of t's data for its backward: nothing if backward does
    not read it, else t's quantized link when it has one, else the array."""
    if not needed:
        return None
    if t.quant is None:
        return t.data
    t.quant.holders += 1
    return t.quant


def _restored(kept, shape) -> np.ndarray:
    """The float32 array that _kept stands for, dequantized again if need be.

    A link shared by several nodes (an attention block's query, key and
    value linears read one) is dequantized once: the array stays on the
    link until the last node that kept it has read it.
    """
    if isinstance(kept, np.ndarray):
        return kept
    arr = kept.values().reshape(shape) if kept.restored is None else kept.restored
    kept.holders -= 1
    kept.restored = arr if kept.holders else None
    return arr


def backward(loss: Tensor) -> None:
    """Reverse pass from a scalar loss through the tape that recorded it.

    Runs each node up to the loss once, in reverse construction order, then
    drops its closure and parents, so a tape is consumed once. Leaves (no
    node of this tape made them) get their gradients' sum added to .grad.
    """
    if loss.size != 1:
        raise TapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise TapeError("loss was not recorded on an active tape")
    grads: list = [None] * loss._node_index + [np.ones_like(loss.data)]
    leaves: dict[Tensor, np.ndarray] = {}  # summed in arrival order
    for i in range(loss._node_index, -1, -1):
        node, g, grads[i] = tape.nodes[i], grads[i], None
        if g is not None:
            if node.backward is None:
                raise TapeError("the tape was already consumed by an earlier backward")
            for p, ig in zip(node.parents, node.backward(g)):
                if type(p) is int and ig is not None:
                    grads[p] = ig if grads[p] is None else grads[p] + ig
                elif p is not None and ig is not None:
                    leaves[p] = ig if p not in leaves else leaves[p] + ig
        node.backward = node.parents = None
    for t, g in leaves.items():
        # gradient buffers are never mutated in place; reuse-by-aliasing is safe
        t.grad = g if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# ops


def matmul(a, b) -> Tensor:
    """a @ b of [..., k] inputs and a [k, n] right operand: linear without a bias."""
    return linear(a, b, None)


def linear(x, w, b, n_heads: int = 0, keys: bool = False, rows=None) -> Tensor:
    """x @ w + b as one node: [..., k] inputs, a [k, n] weight, an [n] bias
    or None. Without a bias nothing is added, so a -0.0 product stays -0.0,
    and the node has two parents.

    With n_heads, the output is split into heads as it is made: per-head
    queries or values [B, H, L, n / H], or with keys per-head keys
    [B, H, n / H, L], the layouts attention_scores and attention_context
    read; backward merges the heads' gradients first. The input is then
    [B, L, k], or with rows, a [B, L] boolean mask of real positions, the
    packed [N, k] rows of those positions in C order: their products go
    straight into the head layout, which holds zeros at the other positions.
    The node keeps x only for w's gradient and w only for x's, each as its
    quantized link when it has one (Tensor.quant), else as the float array.

    A packed or 2-D input is one GEMM over its rows. A [B, L, k] input, which
    only decode steps pass (L = 1), keeps one product per batch row: a 2-D
    GEMM rounds an M = 1 product differently (OpenBLAS hands it to gemv), so
    a decoded row's logits would change when the other rows of its batch
    finish. Backward takes x's gradient as one 2-D GEMM over the flattened
    rows, whose bits do not depend on how the rows group into B and L.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), None if b is None else _as_tensor(b)
    X, W = x.data, w.data
    if X.ndim < 2 or W.ndim != 2 or X.shape[-1] != W.shape[0] \
            or (b is not None and b.shape != W.shape[1:]):
        bias = "" if b is None else f" + {b.shape}"
        raise ShapeError(f"linear needs [..., k] @ [k, n] (+ [n]): {X.shape} @ {W.shape}{bias}")
    laid_out = X.ndim == 3 if rows is None else X.ndim == 2 and np.count_nonzero(rows) == len(X)
    if n_heads and (W.shape[1] % n_heads or not laid_out):
        raise ShapeError(f"linear into {n_heads} heads needs [B, L, k] inputs, or [N, k] for N "
                         f"rows, and n a multiple of {n_heads}: {X.shape} @ {W.shape}")
    need_x, need_w, need_b = x.requires_grad, w.requires_grad, b is not None and b.requires_grad
    x_kept, w_kept, x_shape, w_shape = _kept(x, need_w), _kept(w, need_x), X.shape, W.shape
    merge = (0, 3, 1, 2) if keys else (0, 2, 1, 3)  # a head layout's axes as [B, L, H, n / H]
    n = W.shape[1]

    def bwd(g):
        if n_heads:
            g = g.transpose(merge)
            g = g.reshape(*g.shape[:2], n) if rows is None else g[rows].reshape(-1, n)
        # rows in C order: one B = 1 keys gradient merges into a column-major view,
        # which BLAS would multiply with another kernel and round differently
        g2 = np.ascontiguousarray(g.reshape(-1, n))
        gx = (g2 @ _restored(w_kept, w_shape).T).reshape(x_shape) if need_x else None
        gw = _restored(x_kept, x_shape).reshape(-1, x_shape[-1]).T @ g2 if need_w else None
        return gx, gw, (g2.sum(axis=0) if need_b else None)

    out = X @ W
    if b is not None:
        out += b.data
    if n_heads:  # contiguous, so the attention ops' batched matmuls round as they did
        lead, dh = (X.shape[:2] if rows is None else rows.shape), n // n_heads
        heads = np.zeros((lead[0], n_heads, dh, lead[1]) if keys else
                         (lead[0], n_heads, lead[1], dh), np.float32)
        split = heads.transpose(merge)
        if rows is None:
            split[...] = out.reshape(split.shape)
        else:
            split[rows] = out.reshape(-1, n_heads, dh)
        out = heads
    return _record("linear", out, (x, w) if b is None else (x, w, b), bwd)


def add(a, b) -> Tensor:
    """Elementwise sum; b may be a Python scalar."""
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        return _record("add", a.data + float(b), (a,), lambda g: (g,))
    b = _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    return _record("add", a.data + b.data, (a, b), lambda g: (g, g))


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(c*(x + 0.044715*x^3)), in place on one new buffer."""
    # in-place chains that round as the written formulas do, term by term
    t = 0.044715 * x
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def gelu(a) -> Tensor:
    """tanh-approximate GELU: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3))).

    The node keeps x alone and recomputes the tanh term in backward.
    """
    a = _as_tensor(a)
    x = a.data
    t = _gelu_tanh(x)
    out = 0.5 * x
    t += 1.0
    out *= t

    def bwd(g):
        # 0.5*(1 + t) + 0.5*x*(1 - t*t) * c*(1 + 3*0.044715*x*x), in that order
        t = _gelu_tanh(x)
        d = t * t
        np.subtract(1.0, d, out=d)
        e = np.multiply(x, 0.5)
        d *= e
        np.multiply(x, 3.0 * 0.044715, out=e)
        e *= x
        e += 1.0
        e *= _GELU_C
        d *= e
        np.add(t, 1.0, out=e)
        e *= 0.5
        d += e
        d *= g
        return (d,)

    return _record("gelu", out, (a,), bwd)


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize over the last dimension: (x - mean)/sqrt(var + eps)*gain + bias."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape}/{bias.shape}"
        )
    # add.reduce(...) / d rounds as .mean does, without its float64 divisor; the mean
    # and 1 / sqrt(var + eps) are made in place, rounded step by step as written
    x, G = a.data, gain.data
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= d
    xhat = x - mean
    out = xhat * xhat
    inv = np.add.reduce(out, axis=-1, keepdims=True)
    inv /= d
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, G, out=out)
    out += bias.data

    def bwd(g):
        # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        dx = g * G
        tmp = g * xhat
        dgain = tmp.reshape(-1, d).sum(axis=0)
        dbias = g.reshape(-1, d).sum(axis=0)
        mean_dx = np.add.reduce(dx, axis=-1, keepdims=True) / d
        np.multiply(dx, xhat, out=tmp)
        np.multiply(xhat, np.add.reduce(tmp, axis=-1, keepdims=True) / d, out=tmp)
        dx -= mean_dx
        dx -= tmp
        dx *= inv
        return dx, dgain, dbias

    return _record("layer_norm", out, (a, gain, bias), bwd)


def embedding_gather(table, ids, scale: float = 1.0, pos=None, positions=None) -> Tensor:
    """Rows of a [v, d] table gathered at ids, times the Python scalar scale,
    plus, when a [p, d] table pos is given, its rows gathered at positions
    (an id array of ids' shape): one node of shape ids.shape + (d,)."""
    tables = [_as_tensor(table)] + ([] if pos is None else [_as_tensor(pos)])
    idxs = [np.asarray(ids, dtype=np.int64)] + ([] if pos is None else
                                                [np.asarray(positions, dtype=np.int64)])
    d, s = tables[0].shape[-1], float(scale)
    for t, idx in zip(tables, idxs):
        if t.data.ndim != 2 or t.shape[1] != d or idx.shape != idxs[0].shape:
            raise ShapeError(f"embedding tables must be 2-D and {d} wide, and their ids of one "
                             f"shape; got {t.shape} at {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= len(t.data)):
            bad = idx.min() if idx.min() < 0 else idx.max()
            raise IndexError(f"token id {bad} out of range [0, {len(t.data)})")
    flats = [idx.reshape(-1) for idx in idxs]
    out = tables[0].data[flats[0]]
    out *= s
    if pos is not None:
        out += tables[1].data[flats[1]]

    def summed(g, flat, v):
        # each id's rows summed from 0 in order, as np.add.at does, one reduce per id
        order = np.argsort(flat, kind="stable")
        ids, starts = np.unique(flat[order], return_index=True)
        gt = np.zeros((v, d), np.float32)
        for i, rows in zip(ids, np.split(g[order], starts[1:])):
            gt[i] = np.add.reduce(rows, axis=0, initial=0.0)
        return gt

    def bwd(g):
        g = g.reshape(-1, d)
        return tuple(summed(gt, flat, len(t.data))
                     for t, flat, gt in zip(tables, flats, (g * s, g)))

    return _record("embedding_gather", out.reshape(idxs[0].shape + (d,)), tuple(tables), bwd)


def dropout(a, rate: float, rng: np.random.Generator | None, rows=None) -> Tensor:
    """Inverted dropout; rate 0 is the identity (no node recorded).

    With rows, a [B, L] boolean mask whose real positions a's [N, ...] rows
    are, the multipliers are drawn for all B x L positions and the real
    positions' taken, so the draws do not depend on the packing.
    """
    a = _as_tensor(a)
    if rate == 0.0:
        return a
    if rows is None:
        keep = _dropout_keep(a.shape, rate, rng)
    else:
        keep = _dropout_keep(rows.shape + a.shape[1:], rate, rng)[rows]
    return _record("dropout", a.data * keep, (a,), lambda g: (g * keep,))


def _dropout_keep(shape, rate: float, rng: np.random.Generator | None) -> np.ndarray:
    """Inverted-dropout multipliers: 0 or 1 / (1 - rate), one rng draw per element."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if rng is None:
        raise ValueError("dropout with rate > 0 needs an explicit rng")
    return (rng.random(shape) >= rate).astype(np.float32) / (1.0 - rate)


def pad_rows(x, rows) -> Tensor:
    """The packed rows [N, ...] of x laid out at the real positions of rows,
    a [B, L] boolean mask, in C order, with zeros at the others: [B, L, ...]."""
    x = _as_tensor(x)
    if np.count_nonzero(rows) != len(x.data):
        raise ShapeError(f"pad_rows got {len(x.data)} rows for {np.count_nonzero(rows)} "
                         f"real positions")
    out = np.zeros(rows.shape + x.shape[1:], np.float32)
    out[rows] = x.data
    return _record("pad_rows", out, (x,), lambda g: (g[rows],))


# the score of a key that attention_scores' key mask leaves out
MASK_VALUE = -1e9


def attention_scores(q, k, key_mask) -> Tensor:
    """Per-head q k^T / sqrt(D / H) of per-head queries [B, H, Lq, D / H]
    (linear(..., n_heads)) and keys [B, H, D / H, Lk] (linear(..., n_heads,
    keys=True)), as [B, H, Lq, Lk], with MASK_VALUE wherever the constant
    boolean key_mask (broadcast to the scores) is False; masked entries get
    zero gradient."""
    q, k = _as_tensor(q), _as_tensor(k)
    qh, kt = q.data, k.data
    if qh.ndim != 4 or kt.ndim != 4 or kt.shape[:3] != qh.shape[:2] + qh.shape[3:]:
        raise ShapeError(f"attention_scores needs [B, H, Lq, D / H] q and [B, H, D / H, Lk] k; "
                         f"got {q.shape} and {k.shape}")
    scale, keep = 1.0 / math.sqrt(qh.shape[3]), np.asarray(key_mask, dtype=bool)
    out = qh @ kt
    out *= scale
    try:
        np.copyto(out, np.float32(MASK_VALUE), where=~keep)
    except ValueError:
        raise ShapeError(f"mask {keep.shape} does not broadcast to {out.shape}") from None
    need_q, need_k = q.requires_grad, k.requires_grad

    def bwd(g):
        g = g * keep
        g *= scale
        gq = g @ np.swapaxes(kt, -1, -2) if need_q else None
        gk = np.swapaxes(qh, -1, -2) @ g if need_k else None
        return gq, gk

    return _record("attention_scores", out, (q, k), bwd)


def attention_context(scores, v, rate: float, rng: np.random.Generator | None,
                      rows=None) -> Tensor:
    """Softmax of [B, H, Lq, Lk] scores over the keys, inverted dropout at
    rate, then each head's mix of per-head values [B, H, Lk, D / H]
    (linear(..., n_heads)), merged to [B, Lq, D]. With rows, a [B, Lq]
    boolean mask of real queries, only their rows are returned, packed in C
    order: [N, D]."""
    scores, v = _as_tensor(scores), _as_tensor(v)
    s, vh = scores.data, v.data
    if s.ndim != 4 or vh.ndim != 4 or s.shape[:2] + s.shape[3:] != vh.shape[:3]:
        raise ShapeError(f"attention_context needs [B, H, Lq, Lk] scores and [B, H, Lk, D / H] "
                         f"values; got {s.shape} and {vh.shape}")
    # the keys' max plane by plane over a [Lk, ...] copy: exact, since max ignores order
    # (and a +-0 max gives the same exp), and far faster than a reduce over short rows
    y = s - np.maximum.reduce(np.ascontiguousarray(s.transpose(3, 0, 1, 2)), axis=0)[..., None]
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=-1, keepdims=True)
    keep = _dropout_keep(y.shape, rate, rng) if rate else None
    probs = y if keep is None else y * keep
    ctx = (probs @ vh).transpose(0, 2, 1, 3)  # [B, Lq, H, dh]
    ctx_shape = ctx.shape
    ctx = np.ascontiguousarray(ctx) if rows is None else ctx[rows]
    need_s, need_v = scores.requires_grad, v.requires_grad

    def bwd(g):
        if rows is None:
            gh = g.reshape(ctx_shape)
        else:
            gh = np.zeros(ctx_shape, np.float32)
            gh[rows] = g.reshape(-1, *ctx_shape[2:])
        gh = gh.transpose(0, 2, 1, 3)
        gs = gv = None
        if need_s:
            gs = gh @ np.swapaxes(vh, -1, -2)
            if keep is not None:
                gs *= keep
            gs -= (gs * y).sum(axis=-1, keepdims=True)
            gs *= y
        if need_v:
            gv = np.swapaxes(probs, -1, -2) @ gh
        return gs, gv

    out = ctx.reshape(*ctx.shape[:-2], ctx_shape[2] * ctx_shape[3])  # [B, Lq, D] or [N, D]
    return _record("attention_context", out, (scores, v), bwd)


def transpose(a) -> Tensor:
    """a with its axes reversed."""
    a = _as_tensor(a)
    return _record("transpose", a.data.T, (a,), lambda g: (g.T,))


def straight_through(x, values, quant=None) -> Tensor:
    """Output carries `values`; the gradient passes to x unchanged.

    This is the estimator that lets quantized forwards train a
    full-precision master copy. A float32 `values` array becomes the
    output's data without a copy, so pass a buffer nothing else writes.
    The node keeps nothing. `quant`, if given, is what `values` were
    dequantized from; a recorded output keeps it as its .quant link, so the
    nodes that read the output keep the codes rather than the float32
    values. An output off the tape gets no link.
    """
    x = _as_tensor(x)
    vals = np.asarray(values, dtype=np.float32)
    if vals.shape != x.shape:
        raise ShapeError(f"straight_through values {vals.shape} != input {x.shape}")
    out = _record("straight_through", vals, (x,), lambda g: (g,))
    if out.requires_grad and quant is not None:
        out.quant = quant
        quant.holders, quant.restored = 0, None  # nodes that keep it; see _restored
    return out


def mse(a, b, mask=None) -> Tensor:
    """Mean squared error over unmasked elements.

    mask, if given, is a boolean array of the same shape; True means the
    element participates. Zero unmasked elements yields a zero loss. The
    node keeps both inputs and recomputes their masked difference in backward.
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
    if count == 0:
        out = np.float32(0.0)
        shapes = a.shape, b.shape
        zero = lambda g: tuple(np.zeros(s, np.float32) for s in shapes)
        return _record("mse", np.asarray(out), (a, b), zero)
    A, B = a.data, b.data

    def masked_diff():
        diff = A - B
        if mask is not None:
            diff *= mask
        return diff

    diff = masked_diff()
    out = np.asarray((diff * diff).sum() / np.float32(count), dtype=np.float32)
    need_a, need_b = a.requires_grad, b.requires_grad

    def bwd(g):
        base = (2.0 / count) * g * masked_diff()
        return (base if need_a else None), (-base if need_b else None)

    return _record("mse", out, (a, b), bwd)


def cross_entropy(logits, targets, ignore_id: int | None = None) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax.

    logits: [..., v], each row of v a distribution; targets: one integer id
    per row. Rows whose target equals ignore_id are excluded from the mean.
    """
    logits = _as_tensor(logits)
    if logits.data.ndim < 2:
        raise ShapeError(f"cross_entropy needs [..., v] logits, got {logits.shape}")
    shape = logits.shape
    x = logits.data.reshape(-1, shape[-1])
    n, v = x.shape
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
            lambda g: (np.zeros(shape, np.float32),),
        )
    # the row max plane by plane over a [v, n] copy, as in attention_context. A +-0 tie
    # may give either zero, but then two exps of 1 keep lse > 0 and logp's bits the same
    z = x - np.maximum.reduce(np.ascontiguousarray(x.T), axis=0)[:, None]
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    rows = np.arange(n)[valid]
    out = np.asarray(-logp[rows, t[valid]].sum() / np.float32(k), dtype=np.float32)

    def bwd(g):
        p = np.exp(logp)
        gl = np.zeros((n, v), np.float32)
        gl[rows] = p[rows]
        gl[rows, t[valid]] -= 1.0
        return ((g / k) * gl.reshape(shape),)

    return _record("cross_entropy", out, (logits,), bwd)
