"""A small pre-layer-norm encoder-decoder transformer on the tensor engine.

The forward pass returns a trace of everything the distillation losses
consume: logits, per-layer pre-softmax attention scores (encoder self,
decoder self, cross) and per-layer hidden states, plus the validity masks
that say which positions are real. The token embedding table is shared by
the encoder input, decoder input, and output projection. Greedy decoding
encodes the sources once and then runs the decoder one position at a time,
caching each layer's self-attention keys and values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quantizer import EMBEDDING, EXCLUDED, WEIGHT, quantize_activation
from .tensor import (
    ShapeError,
    Tensor,
    add,
    add_bias,
    dropout,
    embedding_gather,
    gelu,
    layer_norm,
    masked_fill,
    matmul,
    no_grad,
    reshape,
    scale,
    softmax,
    transpose,
)

# additive mask value carried by attention scores at invalid key positions
MASK_VALUE = -1e9

LN_EPS = 1e-5
INIT_STD = 0.02


class ConfigError(ValueError):
    """Invalid model configuration."""


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    max_positions: int = 64
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.vocab_size < 5:
            raise ConfigError(f"vocab_size must be >= 5, got {self.vocab_size}")
        if self.n_enc_layers < 1 or self.n_dec_layers < 1:
            raise ConfigError("layer counts must be >= 1")
        if self.d_model < 1 or self.d_ff < 1 or self.max_positions < 2:
            raise ConfigError("dimensions must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"n_heads {self.n_heads} must divide d_model {self.d_model}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


def _attn_specs(prefix: str, d: int):
    for part in ("wq", "wk", "wv", "wo"):
        yield f"{prefix}.{part}", (d, d), WEIGHT
    for part in ("bq", "bk", "bv", "bo"):
        yield f"{prefix}.{part}", (d,), EXCLUDED


def _ln_specs(prefix: str, d: int):
    yield f"{prefix}.gain", (d,), EXCLUDED
    yield f"{prefix}.bias", (d,), EXCLUDED


def _ffn_specs(prefix: str, d: int, f: int):
    yield f"{prefix}.w1", (d, f), WEIGHT
    yield f"{prefix}.b1", (f,), EXCLUDED
    yield f"{prefix}.w2", (f, d), WEIGHT
    yield f"{prefix}.b2", (d,), EXCLUDED


def _layer_specs(stack: str, i: int, d: int, f: int):
    """Layer i of the "enc" or "dec" stack; decoder layers add cross-attention."""
    p = f"{stack}.{i}"
    yield from _ln_specs(f"{p}.ln1", d)
    yield from _attn_specs(f"{p}.attn", d)
    yield from _ln_specs(f"{p}.ln2", d)
    if stack == "dec":
        yield from _attn_specs(f"{p}.cross", d)
        yield from _ln_specs(f"{p}.ln3", d)
    yield from _ffn_specs(f"{p}.ffn", d, f)


def param_specs(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, category) for every parameter, in canonical order."""
    d, f = config.d_model, config.d_ff
    specs = [
        ("embed.tok", (config.vocab_size, d), EMBEDDING),
        ("embed.pos", (config.max_positions, d), EXCLUDED),
    ]
    for stack, n in (("enc", config.n_enc_layers), ("dec", config.n_dec_layers)):
        for i in range(n):
            specs.extend(_layer_specs(stack, i, d, f))
        specs.extend(_ln_specs(f"{stack}.final_ln", d))
    return specs


class SeqModel:
    """Configuration plus a named parameter dict."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    def parameters(self):
        return self.params.values()

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def copy(self) -> "SeqModel":
        """Deep copy: fresh storage, same values, trainable."""
        return SeqModel(
            self.config,
            {k: Tensor(v.data.copy(), requires_grad=True, name=k) for k, v in self.params.items()},
        )


def init_model(config: ModelConfig, seed: int) -> SeqModel:
    """Seeded init: scaled normal for matrices, ones for gains, zeros for biases."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape, _ in param_specs(config):
        if len(shape) == 2:
            data = rng.normal(0.0, INIT_STD, size=shape).astype(np.float32)
        elif name.endswith(".gain"):
            data = np.ones(shape, np.float32)
        else:
            data = np.zeros(shape, np.float32)
        params[name] = Tensor(data, requires_grad=True, name=name)
    return SeqModel(config, params)


@dataclass
class ForwardTrace:
    """Everything a distillation loss consumes from one forward pass."""

    logits: Tensor
    enc_attn: list[Tensor] = field(default_factory=list)  # [B, H, Ls, Ls] per layer
    dec_attn: list[Tensor] = field(default_factory=list)  # [B, H, Lt, Lt]
    cross_attn: list[Tensor] = field(default_factory=list)  # [B, H, Lt, Ls]
    enc_hidden: list[Tensor] = field(default_factory=list)  # [B, Ls, D] per layer
    dec_hidden: list[Tensor] = field(default_factory=list)  # [B, Lt, D]
    src_valid: np.ndarray | None = None  # [B, Ls] bool
    tgt_valid: np.ndarray | None = None  # [B, Lt] bool


def _as_ids(x, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ShapeError(f"{what} must be a nonempty [batch, length] id array, got {arr.shape}")
    return arr


def _check_length(cfg: ModelConfig, what: str, length: int) -> None:
    if length > cfg.max_positions:
        raise ShapeError(
            f"{what} length {length} exceeds max_positions={cfg.max_positions}"
        )


def _linear(x: Tensor, p: dict, w_name: str, b_name: str) -> Tensor:
    """x @ w + b; x is already quantized to the activation bit width."""
    return add_bias(matmul(x, p[w_name]), p[b_name])


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    b, l, d = x.shape
    return transpose(reshape(x, (b, l, n_heads, d // n_heads)), (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    b, h, l, dh = x.shape
    return reshape(transpose(x, (0, 2, 1, 3)), (b, l, h * dh))


def _keys_values(p, prefix, source: Tensor, cfg) -> tuple[Tensor, Tensor]:
    """Split-head keys and values [B, H, L, dh] of one attention block over a
    quantized source."""
    k = _split_heads(_linear(source, p, f"{prefix}.wk", f"{prefix}.bk"), cfg.n_heads)
    v = _split_heads(_linear(source, p, f"{prefix}.wv", f"{prefix}.bv"), cfg.n_heads)
    return k, v


class _KVCache:
    """Self-attention keys and values of one decoder layer, one position at a
    time. Appending copies arrays off the tape, so the cache carries no
    gradient: it is for inference only."""

    def __init__(self):
        self.k: Tensor | None = None  # [B, H, positions so far, dh]
        self.v: Tensor | None = None

    def append(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Add the newest positions' keys and values; return all of them."""
        if self.k is not None:
            k = Tensor(np.concatenate([self.k.data, k.data], axis=2))
            v = Tensor(np.concatenate([self.v.data, v.data], axis=2))
        self.k, self.v = k, v
        return k, v


def _attention(p, prefix, ln_prefix, x, kv, key_mask, cfg, a_bits, drop, rng, cache=None):
    """One residual attention block. Returns (new_x, masked pre-softmax scores).

    kv is a (keys, values) pair computed elsewhere, as cross-attention's are
    from the encoder memory, or None for self-attention over x, whose keys
    and values are then appended to `cache` (the earlier positions') when
    one is given.
    """
    xn = layer_norm(x, p[f"{ln_prefix}.gain"], p[f"{ln_prefix}.bias"], LN_EPS)
    xq = quantize_activation(xn, a_bits)  # once for queries, keys and values
    q = _split_heads(_linear(xq, p, f"{prefix}.wq", f"{prefix}.bq"), cfg.n_heads)
    if kv is None:
        kv = _keys_values(p, prefix, xq, cfg)
        if cache is not None:
            kv = cache.append(*kv)
    k, v = kv
    raw = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(cfg.head_dim))
    scores = masked_fill(raw, key_mask, MASK_VALUE)
    probs = dropout(softmax(scores, axis=-1), drop, rng)
    ctx = _merge_heads(matmul(probs, v))
    out = _linear(quantize_activation(ctx, a_bits), p, f"{prefix}.wo", f"{prefix}.bo")
    return add(x, dropout(out, drop, rng)), scores


def _ffn(p, prefix, ln_prefix, x, a_bits, drop, rng):
    xn = layer_norm(x, p[f"{ln_prefix}.gain"], p[f"{ln_prefix}.bias"], LN_EPS)
    h = gelu(_linear(quantize_activation(xn, a_bits), p, f"{prefix}.w1", f"{prefix}.b1"))
    out = _linear(quantize_activation(h, a_bits), p, f"{prefix}.w2", f"{prefix}.b2")
    return add(x, dropout(out, drop, rng))


def _embed(p, ids: np.ndarray, start: int, d_model: int, drop, rng) -> Tensor:
    """Token plus positional embeddings of ids at positions start, start + 1, ..."""
    b, l = ids.shape
    tok = scale(embedding_gather(p["embed.tok"], ids), math.sqrt(d_model))
    positions = np.broadcast_to(np.arange(start, start + l, dtype=np.int64), (b, l))
    pos = embedding_gather(p["embed.pos"], positions)
    return dropout(add(tok, pos), drop, rng)


@dataclass
class Encoded:
    """The encoder's output for a batch of sources: everything a decoder pass
    over them reads, computed once."""

    src_valid: np.ndarray  # [B, Ls] bool
    cross_kv: list[tuple[Tensor, Tensor]]  # per decoder layer: keys, values [B, H, Ls, dh]
    enc_attn: list[Tensor]  # [B, H, Ls, Ls] per encoder layer
    enc_hidden: list[Tensor]  # [B, Ls, D] per encoder layer

    @property
    def key_mask(self) -> np.ndarray:
        return self.src_valid[:, None, None, :]


def encode(
    model: SeqModel,
    src_ids,
    pad_id: int,
    *,
    a_bits: int = 32,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Encoded:
    """Encoder pass over a batch of sources, plus each decoder layer's
    cross-attention keys and values over the encoder memory."""
    cfg, p = model.config, model.params
    src = _as_ids(src_ids, "src_ids")
    _check_length(cfg, "src", src.shape[1])
    drop = cfg.dropout_rate if training else 0.0
    enc = Encoded(src != pad_id, [], [], [])
    x = _embed(p, src, 0, cfg.d_model, drop, rng)
    for i in range(cfg.n_enc_layers):
        x, scores = _attention(
            p, f"enc.{i}.attn", f"enc.{i}.ln1", x, None, enc.key_mask, cfg, a_bits, drop, rng
        )
        x = _ffn(p, f"enc.{i}.ffn", f"enc.{i}.ln2", x, a_bits, drop, rng)
        enc.enc_attn.append(scores)
        enc.enc_hidden.append(x)
    memory = layer_norm(x, p["enc.final_ln.gain"], p["enc.final_ln.bias"], LN_EPS)
    memory_q = quantize_activation(memory, a_bits)
    enc.cross_kv = [
        _keys_values(p, f"dec.{i}.cross", memory_q, cfg) for i in range(cfg.n_dec_layers)
    ]
    return enc


def _decode(model, enc, tgt, start, self_key_mask, caches, a_bits, drop, rng, trace) -> None:
    """Decoder pass over target positions start, start + 1, ...; fills trace's
    decoder fields and logits. caches holds one _KVCache per layer, or None."""
    cfg, p = model.config, model.params
    y = _embed(p, tgt, start, cfg.d_model, drop, rng)
    for i in range(cfg.n_dec_layers):
        y, self_scores = _attention(
            p, f"dec.{i}.attn", f"dec.{i}.ln1", y, None, self_key_mask, cfg, a_bits, drop, rng,
            caches[i],
        )
        y, cross_scores = _attention(
            p, f"dec.{i}.cross", f"dec.{i}.ln2", y, enc.cross_kv[i], enc.key_mask, cfg, a_bits,
            drop, rng,
        )
        y = _ffn(p, f"dec.{i}.ffn", f"dec.{i}.ln3", y, a_bits, drop, rng)
        trace.dec_attn.append(self_scores)
        trace.cross_attn.append(cross_scores)
        trace.dec_hidden.append(y)
    out = layer_norm(y, p["dec.final_ln.gain"], p["dec.final_ln.bias"], LN_EPS)

    # tied output projection against the token table
    out_q = quantize_activation(out, a_bits)
    trace.logits = matmul(out_q, transpose(p["embed.tok"]))


def forward(
    model: SeqModel,
    src_ids,
    tgt_ids,
    pad_id: int,
    *,
    a_bits: int = 32,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> ForwardTrace:
    """Full encoder-decoder pass over a batch of id sequences.

    src_ids/tgt_ids are [batch, length] (or single sequences); tgt_ids is
    the decoder input, already shifted to start with BOS. Pad positions are
    masked out of attention keys and 8-bit activation scales are per
    position, so at any a_bits, appending padding or batching with other
    sequences changes the outputs at real positions only by the float
    rounding of differently shaped matmuls. Decoder self-attention is
    causal.
    """
    cfg = model.config
    src = _as_ids(src_ids, "src_ids")
    tgt = _as_ids(tgt_ids, "tgt_ids")
    if src.shape[0] != tgt.shape[0]:
        raise ShapeError(f"batch mismatch: {src.shape[0]} src rows vs {tgt.shape[0]} tgt rows")
    _check_length(cfg, "tgt", tgt.shape[1])
    enc = encode(model, src, pad_id, a_bits=a_bits, training=training, rng=rng)
    tgt_valid = tgt != pad_id
    trace = ForwardTrace(
        logits=None, enc_attn=enc.enc_attn, enc_hidden=enc.enc_hidden,
        src_valid=enc.src_valid, tgt_valid=tgt_valid,
    )
    lt = tgt.shape[1]
    causal = np.tril(np.ones((lt, lt), dtype=bool))
    self_key_mask = tgt_valid[:, None, None, :] & causal[None, None, :, :]
    drop = cfg.dropout_rate if training else 0.0
    _decode(model, enc, tgt, 0, self_key_mask, [None] * cfg.n_dec_layers, a_bits, drop, rng,
            trace)
    return trace


class DecodeState:
    """What one-position decoder steps carry from call to call: the encoded
    sources, and the earlier positions' validity and self-attention keys
    and values."""

    def __init__(self, enc: Encoded):
        self.enc = enc
        self.tgt_valid = np.zeros((enc.src_valid.shape[0], 0), dtype=bool)
        self.caches = [_KVCache() for _ in enc.cross_kv]  # one per decoder layer


def decode_step(model: SeqModel, state: DecodeState, ids, pad_id: int,
                a_bits: int = 32) -> ForwardTrace:
    """Decoder pass over one new position per row, reading the earlier
    positions from state and appending this one's to it.

    ids holds each row's newest decoder input token. The returned trace has
    logits [B, 1, V]; up to float rounding they equal the last position of
    forward() over the whole prefix, because causal attention lets a
    position see exactly the ones before it. Inference only: the cache is
    off the tape.
    """
    tok = np.asarray(ids, dtype=np.int64).reshape(-1, 1)
    start = state.tgt_valid.shape[1]
    _check_length(model.config, "tgt", start + 1)
    state.tgt_valid = np.concatenate([state.tgt_valid, tok != pad_id], axis=1)
    trace = ForwardTrace(logits=None, src_valid=state.enc.src_valid, tgt_valid=state.tgt_valid)
    _decode(model, state.enc, tok, start, state.tgt_valid[:, None, None, :], state.caches,
            a_bits, 0.0, None, trace)
    return trace


def greedy_decode_batch(
    model: SeqModel,
    src_seqs: list[list[int]],
    bos_id: int,
    eos_id: int,
    max_len: int,
    pad_id: int,
    a_bits: int = 32,
) -> list[list[int]]:
    """Greedy decoding of a batch in lockstep; ties pick the lowest token id.

    The sources are encoded once; each step then runs the decoder over one
    new position, reusing the earlier positions' keys and values.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    n = len(src_seqs)
    outs: list[list[int]] = [[] for _ in range(n)]
    steps = min(max_len, model.config.max_positions - 1)
    if steps == 0 or n == 0:
        return outs
    width = max(len(s) for s in src_seqs)
    src = np.full((n, width), pad_id, dtype=np.int64)
    for r, s in enumerate(src_seqs):
        src[r, : len(s)] = s
    nxt = np.full(n, bos_id, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    with no_grad():
        state = DecodeState(encode(model, src, pad_id, a_bits=a_bits))
        for _ in range(steps):
            logits = decode_step(model, state, nxt, pad_id, a_bits=a_bits).logits
            nxt = logits.data[:, -1, :].argmax(axis=1)  # argmax -> lowest id on ties
            for r in range(n):
                if done[r]:
                    continue
                if nxt[r] == eos_id:
                    done[r] = True
                else:
                    outs[r].append(int(nxt[r]))
            if done.all():
                break
    return outs
