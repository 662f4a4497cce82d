"""Symmetric low-bit weight and activation quantization.

One weight quantizer with two code assignments, ternary threshold codes at
2 bits and linear grids at 4 and 8 bits. Forward values are dequantized back
to float32; gradients pass straight through to the full-precision master
tensors.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, active_tape, straight_through

ALLOWED_WEIGHT_BITS = (2, 4, 8, 32)
ALLOWED_ACTIVATION_BITS = (8, 32)
PACKED_BITS = (2, 4, 8)  # code widths the storage layout packs
_CODE_MIN, _CODE_MAX = np.float32(-127), np.float32(127)  # 8-bit activation codes
PARALLEL_MIN_SIZE = 1 << 16  # elements: quantize_params quantizes tensors this large on threads

# parameter categories, as reported by model.param_specs
WEIGHT = "weight"
EMBEDDING = "embedding"
EXCLUDED = "excluded"


class PolicyError(ValueError):
    """A parameter fell outside every quantization category."""


@dataclass(frozen=True)
class QuantConfig:
    """Bit widths and scale granularity of a quantized model.

    Hidden weight matrices follow w_bits, the tied word embedding table
    follows e_bits, and everything else (positional embeddings, biases,
    layer-norm parameters) stays full precision; activations follow a_bits.
    Scales are per tensor, or per row of each 2-D tensor when row_wise is set.
    """

    w_bits: int = 32
    e_bits: int = 32
    a_bits: int = 32
    row_wise: bool = False

    def __post_init__(self):
        if self.w_bits not in ALLOWED_WEIGHT_BITS:
            raise ValueError(f"w_bits must be one of {ALLOWED_WEIGHT_BITS}, got {self.w_bits}")
        if self.e_bits not in ALLOWED_WEIGHT_BITS:
            raise ValueError(f"e_bits must be one of {ALLOWED_WEIGHT_BITS}, got {self.e_bits}")
        if self.a_bits not in ALLOWED_ACTIVATION_BITS:
            raise ValueError(
                f"a_bits must be one of {ALLOWED_ACTIVATION_BITS}, got {self.a_bits}"
            )
        if not isinstance(self.row_wise, bool):
            raise ValueError(f"row_wise must be a bool, got {self.row_wise!r}")

    @property
    def label(self) -> str:
        return f"{self.w_bits}-{self.e_bits}-{self.a_bits}"

    def any_quantized(self) -> bool:
        return self.w_bits < 32 or self.e_bits < 32 or self.a_bits < 32

    def bits_for(self, category: str) -> int:
        """The storage width of a parameter category."""
        if category == WEIGHT:
            return self.w_bits
        if category == EMBEDDING:
            return self.e_bits
        if category == EXCLUDED:
            return 32
        raise PolicyError(f"no quantization rule covers category {category!r}")

    def row_wise_for(self, shape: tuple[int, ...]) -> bool:
        """Whether a tensor of this shape gets one scale per row (2-D only)."""
        return self.row_wise and len(shape) == 2


class QuantizedTensor:
    """Integer codes plus scale; value = alpha * codes, element by element.

    alpha is a float32 scalar, or a per-row float32 vector when the tensor
    was quantized row-wise. The codes are an int8 array, or the packed bytes
    a checkpoint stores (from_packed): those dequantize straight from the
    bytes and are unpacked to codes only when codes is read.
    """

    def __init__(self, alpha, codes, bits: int, shape: tuple[int, ...]):
        self._codes = np.asarray(codes, dtype=np.int8)
        self._packed = None
        self.bits = bits
        self.shape = tuple(shape)
        if self._codes.shape != self.shape:
            raise ValueError(f"codes shape {self._codes.shape} != {self.shape}")
        self.alpha = _checked_alpha(alpha, self.shape)

    @classmethod
    def from_packed(cls, alpha, packed: bytes, bits: int, shape: tuple[int, ...]):
        """A tensor over pack_codes(codes, bits) bytes; ValueError if they hold too few."""
        q = cls.__new__(cls)
        q._codes, q._packed, q.bits, q.shape = None, packed, bits, tuple(shape)
        if bits not in PACKED_BITS:
            raise ValueError(f"packable widths are {PACKED_BITS}; got {bits}")
        if len(packed) * 8 < q.size * bits:
            raise ValueError(f"{len(packed)} bytes hold fewer than {q.size} {bits}-bit codes")
        q.alpha = _checked_alpha(alpha, q.shape)
        return q

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def n_scales(self) -> int:
        return int(self.alpha.size)

    @property
    def codes(self) -> np.ndarray:
        if self._codes is None:
            self._codes = unpack_codes(self._packed, self.bits, self.size).reshape(self.shape)
        return self._codes

    def values(self) -> np.ndarray:
        if self._codes is None:
            return self._values_from_packed()
        out = self._codes.astype(np.float32)  # then alpha * code in float32, in place
        out *= self.alpha if self.alpha.ndim == 0 else self.alpha[:, None]
        return out

    def _values_from_packed(self) -> np.ndarray:
        # a table of alpha * code for one scale, else of bare codes, scaled by row below
        table = _VALUE_TABLES[self.bits]
        if self.alpha.ndim == 0:
            table = self.alpha * table
        out = _gather(table, np.frombuffer(self._packed, np.uint8), self.size).reshape(self.shape)
        if self.alpha.ndim == 1:
            out *= self.alpha[:, None]
        return out


def _checked_alpha(alpha, shape: tuple[int, ...]) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=np.float32)
    if np.any(alpha < 0):
        raise ValueError("alpha must be nonnegative")
    if alpha.ndim > 1 or (alpha.ndim == 1 and (len(shape) != 2 or alpha.size != shape[0])):
        raise ValueError(
            f"alpha of shape {alpha.shape} fits neither one scale nor one per row "
            f"of shape {shape}"
        )
    return alpha


_SIGN_BIT, _HALF_BITS = np.uint32(0x80000000), np.uint32(0x3F000000)  # float32 -0.0 and 0.5


def _round_half_away(x: np.ndarray) -> np.ndarray:
    """Round a float32 buffer half away from zero, in place; returns it."""
    # 0.5 carrying x's sign bit, as np.copysign(0.5, x) gives, from two integer ops
    half = x.view(np.uint32) & _SIGN_BIT
    half |= _HALF_BITS
    x += half.view(np.float32)
    return np.trunc(x, out=x)


def _as_array(w) -> np.ndarray:
    data = w.data if isinstance(w, Tensor) else w
    return np.asarray(data, dtype=np.float32)


def quantize(w, n_bits: int, row_wise: bool = False) -> QuantizedTensor:
    """Symmetric weight quantization to 2, 4 or 8 bits, one scale per tensor
    or, with row_wise, one per row of a 2-D tensor.

    2 bits take ternary codes with the fixed-threshold heuristic:
    delta = 0.7 * ||w||_1 / dim(w); codes are sign(w) where |w| exceeds
    delta, else 0; alpha is the mean |w_i| over the above-threshold set,
    which solves the scale least-squares exactly for fixed codes. An empty
    above-threshold set gets alpha 0. 4 and 8 bits take the linear grid:
    alpha = max|w| / (2^(n_bits-1) - 1); codes round half away from zero
    and clamp to the symmetric integer range. An all-zero tensor gets
    alpha 0 and zero codes.
    """
    if n_bits not in PACKED_BITS:
        raise ValueError(f"weights quantize to one of {PACKED_BITS} bits, got {n_bits}")
    arr = _as_array(w)
    if row_wise and arr.ndim != 2:
        raise ValueError(f"row-wise quantization needs a 2-D tensor, got {arr.shape}")
    rows = arr if row_wise else arr.reshape(1, -1)  # per tensor: one row, one scale
    if n_bits == 2:
        absw = np.abs(rows)
        delta = (np.float32(0.7) * absw.sum(axis=1, keepdims=True)
                 / np.float32(max(rows.shape[1], 1)))
        codes = (rows > delta).view(np.int8) - (rows < -delta).view(np.int8)
        above = absw > delta
        # one count per row; over a whole tensor, count_nonzero without an axis is 10x faster
        counts = np.asarray(np.count_nonzero(above, axis=1 if row_wise else None), np.float32)
        absw *= above  # sum at full length, not absw[above]: the pairwise order fixes alpha's bits
        alpha = np.where(counts > 0, absw.sum(axis=1) / np.maximum(counts, 1.0), 0.0)
    else:
        th = 2 ** (n_bits - 1) - 1
        alpha = np.abs(rows).max(axis=1, initial=0.0) / np.float32(th)
        # a zero scale (all-zero row, or max so small the scale underflows) gets zero codes
        codes = _round_half_away(rows / np.where(alpha > 0, alpha, np.float32(1.0))[:, None])
        codes[alpha == 0] = 0.0
        codes = np.clip(codes, -th, th, out=codes).astype(np.int8)
    return QuantizedTensor(alpha if row_wise else alpha[0], codes.reshape(arr.shape), n_bits,
                           arr.shape)


def quantize_activation(x: Tensor, a_bits: int) -> Tensor:
    """8-bit symmetric fake-quantization of an activation tensor, one scale per token.

    Each row of the last dimension (one position's features) gets its own
    dynamic scale alpha = max|row| / 127; codes round half away from zero
    and clamp to [-127, 127]. A row whose scale is 0 (all zeros, or so small
    the scale underflows) passes through unchanged. Because no scale spans
    two rows, a sequence's values never depend on the other sequences or
    the padding in its batch. 32 bits is the identity. Gradients pass
    straight through. An output the tape records links to its int8 codes and
    scales, a row-wise QuantizedTensor over [rows, d], unless a row's scale
    is 0 or not finite: then the ops that read it keep its float32 values.
    """
    if a_bits == 32:
        return x
    if a_bits != 8:
        raise ValueError(f"a_bits must be one of {ALLOWED_ACTIVATION_BITS}, got {a_bits}")
    if x.size == 0:
        return x
    data = x.data
    alpha = np.maximum.reduce(np.abs(data), axis=-1, keepdims=True, initial=0.0)
    alpha /= np.float32(127)
    any_zero = np.count_nonzero(alpha) < alpha.size
    if any_zero:
        zero = alpha == 0.0
        alpha[zero] = 1.0
    # round, clamp (keeping NaN and -0.0) and rescale in place on the output buffer,
    # which straight_through keeps
    vals = _round_half_away(data / alpha)
    vals.clip(_CODE_MIN, _CODE_MAX, out=vals)
    link = None
    if x.requires_grad and active_tape() is not None and not any_zero \
            and np.isfinite(alpha).all():
        d = data.shape[-1]
        link = QuantizedTensor(alpha.reshape(-1), vals.reshape(-1, d), 8, (vals.size // d, d))
    vals *= alpha
    if any_zero:
        np.copyto(vals, data, where=zero)
    return straight_through(x, vals, link)


def quantize_params(params: dict, categories: dict, qconfig: QuantConfig) -> dict:
    """Quantize a named parameter set for storage.

    Returns a dict mapping each name to a QuantizedTensor (covered
    categories below 32 bits) or the original Tensor (passthrough).
    Tensors of at least PARALLEL_MIN_SIZE elements quantize largest first
    on one thread per CPU the process may use, the caller and helpers, at
    most one per such tensor; numpy releases the GIL in their array passes.
    The caller then quantizes the smaller ones. With one CPU, or no tensor
    that large, no thread starts, and no helper outlives the call.
    """
    jobs, large, small = {}, [], []
    for name, t in params.items():
        if name not in categories:
            raise PolicyError(f"parameter {name!r} not covered by any category")
        bits = qconfig.bits_for(categories[name])
        if bits < 32:
            jobs[name] = (t, bits, qconfig.row_wise_for(t.shape))
            (large if math.prod(t.shape) >= PARALLEL_MIN_SIZE else small).append(name)
    large.sort(key=lambda name: -math.prod(jobs[name][0].shape))
    pending = iter(large)  # a list iterator: concurrent next() calls take distinct names

    def drain() -> list:
        return [(name, quantize(*jobs[name])) for name in pending]

    helpers = min(len(large), usable_cpus()) - 1 if len(large) > 1 else 0
    if helpers:
        # deferred: the import (logging and all) costs about 0.6 MB of peak RSS,
        # which training and decoding, whose tensors stay small, do not pay
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(helpers) if helpers else nullcontext() as pool:
        drained = [pool.submit(drain) for _ in range(helpers)]
        done = dict(drain())
        done.update((name, quantize(*jobs[name])) for name in small)
        for future in drained:
            done.update(future.result())
    return {name: done.get(name, t) for name, t in params.items()}


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask's, which
    taskset or a container's cpuset can make smaller than os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def quantize_model(model, qconfig: QuantConfig):
    """Build the quantized view of a model for forward passes.

    Every parameter that quantize_params stores quantized is replaced by its
    dequantized values wired through a straight-through node, so gradients
    land on the master tensors; a recorded node links to its QuantizedTensor
    (Tensor.quant). Excluded categories share the master
    tensors; with all bit widths at 32 the view's forward is bit-identical
    to the original.
    """
    from .model import SeqModel, param_specs  # deferred: model imports this module

    categories = {name: cat for name, _, cat in param_specs(model.config)}
    stored = quantize_params(model.params, categories, qconfig)
    return SeqModel(model.config, {
        name: straight_through(model.params[name], q.values(), q)
        if isinstance(q, QuantizedTensor) else q
        for name, q in stored.items()
    })


# ---------------------------------------------------------------------------
# bit packing (normative storage layout)


def _code_table(bits: int) -> np.ndarray:
    """Row b holds byte b's 8 // bits int8 codes, lowest field first."""
    fields = (np.arange(256)[:, None] >> (np.arange(8 // bits) * bits)) & ((1 << bits) - 1)
    return np.where(fields >= 1 << (bits - 1), fields - (1 << bits), fields).astype(np.int8)


_CODE_TABLES = {bits: _code_table(bits) for bits in PACKED_BITS}
_VALUE_TABLES = {bits: table.astype(np.float32) for bits, table in _CODE_TABLES.items()}
_GATHER_CHUNK = 1 << 16  # bytes per gather


def _gather(table: np.ndarray, u: np.ndarray, count: int) -> np.ndarray:
    """The first count entries, flat, of the rows of a 256-row table that the bytes u pick.
    It gathers in chunks, so that its intp copy of the indices stays small, and in mode
    "wrap", a no-op for byte indices that, unlike "raise", writes straight into out."""
    per = table.shape[1]
    out = np.empty(count, table.dtype)
    whole, tail = u[: count // per], count % per  # tail: codes in a last byte that pads
    grid = out[: count - tail].reshape(-1, per)
    for s in range(0, whole.size, _GATHER_CHUNK):
        c = slice(s, s + _GATHER_CHUNK)
        np.take(table, whole[c], axis=0, out=grid[c], mode="wrap")
    if tail:
        out[-tail:] = table[u[whole.size], :tail]
    return out


def pack_codes(codes: np.ndarray, bits: int) -> bytes:
    """Pack integer codes as bits-wide two's-complement fields.

    Layout is little-endian: the lowest-index code occupies the least
    significant bits of each byte. 2-bit codes pack four per byte; a code
    outside the bits-wide two's-complement range raises ValueError.
    """
    if bits not in PACKED_BITS:
        raise ValueError(f"packable widths are {PACKED_BITS}; got {bits}")
    flat = np.asarray(codes).reshape(-1)
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if flat.size and (flat.min() < lo or flat.max() > hi):
        raise ValueError(f"codes [{flat.min()}, {flat.max()}] exceed {bits}-bit [{lo}, {hi}]")
    u = flat.astype(np.int8, copy=False).view(np.uint8)  # masked, the low bits are the field
    if bits == 8:
        return u.tobytes()
    pad = -len(u) % 4
    if pad:
        u = np.concatenate([u, np.zeros(pad, np.uint8)])
    # 4 codes per little-endian word, each byte masked to its field
    w = u.view("<u4") & np.uint32(0x03030303 if bits == 2 else 0x0F0F0F0F)
    if bits == 2:
        # fields 0-3 land at bits 24, 26, 28 and 30; every partial product below
        # bit 32 sits at its own even offset, so no two overlap and nothing carries
        w *= np.uint32(0x01041040)
        w >>= np.uint32(24)
        packed = w.astype(np.uint8).tobytes()
    else:
        w |= w >> 4  # fields 0 and 1 meet in byte 0, fields 2 and 3 in byte 2
        w &= np.uint32(0x00FF00FF)  # drop the copies left in bytes 1 and 3
        w |= w >> 8  # byte 2's pair joins byte 0's in the word's low bits
        packed = w.astype("<u2").tobytes()
    return packed[: -(-len(flat) * bits // 8)] if pad else packed


def unpack_codes(buf: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of pack_codes: count int8 codes; ValueError if buf holds fewer."""
    if bits not in PACKED_BITS:
        raise ValueError(f"packable widths are {PACKED_BITS}; got {bits}")
    u = np.frombuffer(buf, dtype=np.uint8)
    if len(u) * 8 < count * bits:
        raise ValueError(f"{len(u)} bytes hold {len(u) * 8 // bits} {bits}-bit codes, not {count}")
    return _gather(_CODE_TABLES[bits], u, count)


def packed_size(count: int, bits: int, n_scales: int) -> int:
    """Serialized bytes of count packed codes plus their float32 scales."""
    return -(-count * bits // 8) + 4 * n_scales
