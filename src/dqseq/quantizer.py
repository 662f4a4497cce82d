"""Symmetric low-bit weight and activation quantization.

Two code assignments: linear grids for 4 bits and up, and ternary
threshold codes for 2 bits. Forward values are dequantized back to float32;
gradients pass straight through to the full-precision master tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, straight_through

ALLOWED_WEIGHT_BITS = (2, 4, 8, 32)
ALLOWED_ACTIVATION_BITS = (8, 32)
PACKED_BITS = (2, 4, 8)  # code widths the storage layout packs

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


@dataclass
class QuantizedTensor:
    """Integer codes plus scale; value = alpha * codes, element by element.

    alpha is a float32 scalar, or a per-row float32 vector when the tensor
    was quantized row-wise.
    """

    alpha: np.ndarray
    codes: np.ndarray
    bits: int
    shape: tuple[int, ...]

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float32)
        self.codes = np.asarray(self.codes, dtype=np.int8)
        self.shape = tuple(self.shape)
        if self.codes.shape != self.shape:
            raise ValueError(f"codes shape {self.codes.shape} != {self.shape}")
        if np.any(self.alpha < 0):
            raise ValueError("alpha must be nonnegative")
        if self.alpha.ndim > 1 or (
            self.alpha.ndim == 1 and (len(self.shape) != 2 or self.alpha.size != self.shape[0])
        ):
            raise ValueError(
                f"alpha of shape {self.alpha.shape} fits neither one scale nor one per row "
                f"of shape {self.shape}"
            )

    @property
    def n_scales(self) -> int:
        return int(self.alpha.size)

    def values(self) -> np.ndarray:
        if self.alpha.ndim == 0:
            return (self.alpha * self.codes).astype(np.float32, copy=False)
        return (self.alpha[:, None] * self.codes).astype(np.float32, copy=False)


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.floor(np.abs(x) + np.float32(0.5))


def _as_array(w) -> np.ndarray:
    data = w.data if isinstance(w, Tensor) else w
    return np.asarray(data, dtype=np.float32)


def linear_quantize(w, n_bits: int, row_wise: bool = False) -> QuantizedTensor:
    """Symmetric linear quantization to n_bits >= 3.

    alpha = max|w| / (2^(n_bits-1) - 1); codes round half away from zero
    and clamp to the symmetric integer range. An all-zero tensor gets
    alpha 0 and zero codes.
    """
    if n_bits == 2:
        raise ValueError("2-bit weights use ternary codes: call twn_quantize")
    if not 3 <= n_bits <= 8:
        raise ValueError(f"linear_quantize supports 3..8 bits, got {n_bits}")
    arr = _as_array(w)
    th = 2 ** (n_bits - 1) - 1
    if row_wise:
        if arr.ndim != 2:
            raise ValueError(f"row-wise quantization needs a 2-D tensor, got {arr.shape}")
        m = np.abs(arr).max(axis=1)
        alpha = (m / np.float32(th)).astype(np.float32)
        safe = np.where(alpha > 0, alpha, np.float32(1.0))
        codes = _round_half_away(arr / safe[:, None])
        codes[alpha == 0] = 0.0
    else:
        m = np.abs(arr).max() if arr.size else np.float32(0.0)
        alpha = np.float32(m / np.float32(th))
        if alpha == 0.0:  # all-zero input, or max so small the scale underflows
            return QuantizedTensor(np.float32(0.0), np.zeros(arr.shape, np.int8), n_bits, arr.shape)
        codes = _round_half_away(arr / alpha)
    codes = np.clip(codes, -th, th).astype(np.int8)
    return QuantizedTensor(alpha, codes, n_bits, arr.shape)


def twn_quantize(w, row_wise: bool = False) -> QuantizedTensor:
    """Ternary quantization with the fixed-threshold heuristic.

    delta = 0.7 * ||w||_1 / dim(w); codes are sign(w) where |w| exceeds
    delta, else 0; alpha is the mean |w_i| over the above-threshold set,
    which solves the scale least-squares exactly for fixed codes. An empty
    above-threshold set gets alpha 0.
    """
    arr = _as_array(w)
    if row_wise:
        if arr.ndim != 2:
            raise ValueError(f"row-wise quantization needs a 2-D tensor, got {arr.shape}")
        absw = np.abs(arr)
        delta = np.float32(0.7) * absw.sum(axis=1) / np.float32(arr.shape[1])
        above = absw > delta[:, None]
        codes = (np.sign(arr) * above).astype(np.int8)
        counts = above.sum(axis=1).astype(np.float32)
        sums = (absw * above).sum(axis=1)
        alpha = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.0).astype(np.float32)
        return QuantizedTensor(alpha, codes, 2, arr.shape)
    absw = np.abs(arr)
    if arr.size == 0:
        return QuantizedTensor(np.float32(0.0), np.zeros(arr.shape, np.int8), 2, arr.shape)
    delta = np.float32(0.7) * absw.sum() / np.float32(arr.size)
    above = absw > delta
    codes = (np.sign(arr) * above).astype(np.int8)
    k = int(above.sum())
    alpha = np.float32((absw * above).sum() / np.float32(k)) if k else np.float32(0.0)
    return QuantizedTensor(alpha, codes, 2, arr.shape)


def quantize(w, n_bits: int, row_wise: bool = False) -> QuantizedTensor:
    """Dispatch to the code assignment for the requested width."""
    if n_bits == 2:
        return twn_quantize(w, row_wise=row_wise)
    return linear_quantize(w, n_bits, row_wise=row_wise)


def quantize_activation(x: Tensor, a_bits: int) -> Tensor:
    """8-bit symmetric fake-quantization of an activation tensor, one scale per token.

    Each row of the last dimension (one position's features) gets its own
    dynamic scale alpha = max|row| / 127; codes round half away from zero
    and clamp to [-127, 127]. A row whose scale is 0 (all zeros, or so small
    the scale underflows) passes through unchanged. Because no scale spans
    two rows, a sequence's values never depend on the other sequences or
    the padding in its batch. 32 bits is the identity. Gradients pass
    straight through.
    """
    if a_bits == 32:
        return x
    if a_bits != 8:
        raise ValueError(f"a_bits must be one of {ALLOWED_ACTIVATION_BITS}, got {a_bits}")
    if x.size == 0:
        return x
    data = x.data
    alpha = np.abs(data).max(axis=-1, keepdims=True)
    alpha /= np.float32(127)
    zero = alpha == 0.0
    any_zero = bool(zero.any())
    if any_zero:
        alpha[zero] = 1.0
    # round half away from zero, clamp and rescale, in place on the output buffer
    vals = data / alpha
    sign = np.sign(vals)
    np.abs(vals, out=vals)
    vals += np.float32(0.5)
    np.floor(vals, out=vals)
    vals *= sign
    np.clip(vals, -127, 127, out=vals)
    vals *= alpha
    if any_zero:
        np.copyto(vals, data, where=zero)
    return straight_through(x, vals)


def quantize_params(params: dict, categories: dict, qconfig: QuantConfig) -> dict:
    """Quantize a named parameter set for storage.

    Returns a dict mapping each name to a QuantizedTensor (covered
    categories below 32 bits) or the original Tensor (passthrough).
    """
    out = {}
    for name, t in params.items():
        if name not in categories:
            raise PolicyError(f"parameter {name!r} not covered by any category")
        bits = qconfig.bits_for(categories[name])
        out[name] = t if bits == 32 else quantize(t, bits, qconfig.row_wise_for(t.shape))
    return out


def quantize_model(model, qconfig: QuantConfig):
    """Build the quantized view of a model for forward passes.

    Every parameter that quantize_params stores quantized is replaced by its
    dequantized values wired through a straight-through node, so gradients
    land on the master tensors. Excluded categories share the master
    tensors; with all bit widths at 32 the view's forward is bit-identical
    to the original.
    """
    from .model import SeqModel, param_specs  # deferred: model imports this module

    categories = {name: cat for name, _, cat in param_specs(model.config)}
    stored = quantize_params(model.params, categories, qconfig)
    return SeqModel(model.config, {
        name: straight_through(model.params[name], q.values())
        if isinstance(q, QuantizedTensor) else q
        for name, q in stored.items()
    })


# ---------------------------------------------------------------------------
# bit packing (normative storage layout)


def pack_codes(codes: np.ndarray, bits: int) -> bytes:
    """Pack integer codes as bits-wide two's-complement fields.

    Layout is little-endian: the lowest-index code occupies the least
    significant bits of each byte. 2-bit codes pack four per byte.
    """
    if bits not in PACKED_BITS:
        raise ValueError(f"packable widths are {PACKED_BITS}; got {bits}")
    flat = np.asarray(codes, dtype=np.int16).reshape(-1)
    u = (flat & ((1 << bits) - 1)).astype(np.uint8)
    per = 8 // bits
    if per > 1:
        pad = (-len(u)) % per
        if pad:
            u = np.concatenate([u, np.zeros(pad, np.uint8)])
        u = u.reshape(-1, per)
        shifts = np.arange(per, dtype=np.uint8) * bits
        u = np.bitwise_or.reduce(u << shifts, axis=1).astype(np.uint8)
    return u.tobytes()


def unpack_codes(buf: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of pack_codes; returns int8 codes of the requested length."""
    if bits not in PACKED_BITS:
        raise ValueError(f"packable widths are {PACKED_BITS}; got {bits}")
    u = np.frombuffer(buf, dtype=np.uint8)
    per = 8 // bits
    if per > 1:
        shifts = np.arange(per, dtype=np.uint8) * bits
        u = ((u[:, None] >> shifts) & ((1 << bits) - 1)).reshape(-1)
    vals = u[:count].astype(np.int16)
    sign_bit = 1 << (bits - 1)
    vals[vals >= sign_bit] -= 1 << bits
    return vals.astype(np.int8)


def packed_size(count: int, bits: int, n_scales: int) -> int:
    """Serialized bytes of count packed codes plus their float32 scales."""
    return -(-count * bits // 8) + 4 * n_scales
