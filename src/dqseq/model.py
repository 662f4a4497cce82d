"""A small pre-layer-norm encoder-decoder transformer on the tensor engine.

The forward pass returns a trace of everything the distillation losses
consume: logits, per-layer pre-softmax attention scores (encoder self,
decoder self, cross) and per-layer hidden states, plus the validity masks
that say which positions are real. The token embedding table is shared by
the encoder input, decoder input, and output projection.
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


def param_specs(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, category) for every parameter, in canonical order."""
    d, f = config.d_model, config.d_ff
    specs = [
        ("embed.tok", (config.vocab_size, d), EMBEDDING),
        ("embed.pos", (config.max_positions, d), EXCLUDED),
    ]
    for i in range(config.n_enc_layers):
        specs.extend(_ln_specs(f"enc.{i}.ln1", d))
        specs.extend(_attn_specs(f"enc.{i}.attn", d))
        specs.extend(_ln_specs(f"enc.{i}.ln2", d))
        specs.extend(_ffn_specs(f"enc.{i}.ffn", d, f))
    specs.extend(_ln_specs("enc.final_ln", d))
    for i in range(config.n_dec_layers):
        specs.extend(_ln_specs(f"dec.{i}.ln1", d))
        specs.extend(_attn_specs(f"dec.{i}.attn", d))
        specs.extend(_ln_specs(f"dec.{i}.ln2", d))
        specs.extend(_attn_specs(f"dec.{i}.cross", d))
        specs.extend(_ln_specs(f"dec.{i}.ln3", d))
        specs.extend(_ffn_specs(f"dec.{i}.ffn", d, f))
    specs.extend(_ln_specs("dec.final_ln", d))
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


def _linear(x: Tensor, p: dict, w_name: str, b_name: str, a_bits: int) -> Tensor:
    return add_bias(matmul(quantize_activation(x, a_bits), p[w_name]), p[b_name])


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    b, l, d = x.shape
    return transpose(reshape(x, (b, l, n_heads, d // n_heads)), (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    b, h, l, dh = x.shape
    return reshape(transpose(x, (0, 2, 1, 3)), (b, l, h * dh))


def _attention(p, prefix, ln_prefix, x, kv, key_mask, cfg, a_bits, drop, rng):
    """One residual attention block. Returns (new_x, masked pre-softmax scores)."""
    xn = layer_norm(x, p[f"{ln_prefix}.gain"], p[f"{ln_prefix}.bias"], LN_EPS)
    source = xn if kv is None else kv
    q = _split_heads(_linear(xn, p, f"{prefix}.wq", f"{prefix}.bq", a_bits), cfg.n_heads)
    k = _split_heads(_linear(source, p, f"{prefix}.wk", f"{prefix}.bk", a_bits), cfg.n_heads)
    v = _split_heads(_linear(source, p, f"{prefix}.wv", f"{prefix}.bv", a_bits), cfg.n_heads)
    raw = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(cfg.head_dim))
    scores = masked_fill(raw, key_mask, MASK_VALUE)
    probs = dropout(softmax(scores, axis=-1), drop, rng)
    ctx = _merge_heads(matmul(probs, v))
    out = _linear(ctx, p, f"{prefix}.wo", f"{prefix}.bo", a_bits)
    return add(x, dropout(out, drop, rng)), scores


def _ffn(p, prefix, ln_prefix, x, a_bits, drop, rng):
    xn = layer_norm(x, p[f"{ln_prefix}.gain"], p[f"{ln_prefix}.bias"], LN_EPS)
    h = gelu(_linear(xn, p, f"{prefix}.w1", f"{prefix}.b1", a_bits))
    out = _linear(h, p, f"{prefix}.w2", f"{prefix}.b2", a_bits)
    return add(x, dropout(out, drop, rng))


def _embed(p, ids: np.ndarray, d_model: int, drop, rng) -> Tensor:
    b, l = ids.shape
    tok = scale(embedding_gather(p["embed.tok"], ids), math.sqrt(d_model))
    positions = np.broadcast_to(np.arange(l, dtype=np.int64), (b, l))
    pos = embedding_gather(p["embed.pos"], positions)
    return dropout(add(tok, pos), drop, rng)


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
    masked out of attention keys, so appending padding never changes the
    outputs at real positions. Decoder self-attention is causal.
    """
    cfg, p = model.config, model.params
    src = _as_ids(src_ids, "src_ids")
    tgt = _as_ids(tgt_ids, "tgt_ids")
    if src.shape[0] != tgt.shape[0]:
        raise ShapeError(f"batch mismatch: {src.shape[0]} src rows vs {tgt.shape[0]} tgt rows")
    if src.shape[1] > cfg.max_positions or tgt.shape[1] > cfg.max_positions:
        raise ShapeError(
            f"sequence length exceeds max_positions={cfg.max_positions}: "
            f"src {src.shape[1]}, tgt {tgt.shape[1]}"
        )
    drop = cfg.dropout_rate if training else 0.0
    src_valid = src != pad_id
    tgt_valid = tgt != pad_id

    trace = ForwardTrace(logits=None, src_valid=src_valid, tgt_valid=tgt_valid)

    # encoder
    x = _embed(p, src, cfg.d_model, drop, rng)
    src_key_mask = src_valid[:, None, None, :]
    for i in range(cfg.n_enc_layers):
        x, scores = _attention(
            p, f"enc.{i}.attn", f"enc.{i}.ln1", x, None, src_key_mask, cfg, a_bits, drop, rng
        )
        x = _ffn(p, f"enc.{i}.ffn", f"enc.{i}.ln2", x, a_bits, drop, rng)
        trace.enc_attn.append(scores)
        trace.enc_hidden.append(x)
    memory = layer_norm(x, p["enc.final_ln.gain"], p["enc.final_ln.bias"], LN_EPS)

    # decoder
    lt = tgt.shape[1]
    causal = np.tril(np.ones((lt, lt), dtype=bool))
    self_key_mask = tgt_valid[:, None, None, :] & causal[None, None, :, :]
    y = _embed(p, tgt, cfg.d_model, drop, rng)
    for i in range(cfg.n_dec_layers):
        y, self_scores = _attention(
            p, f"dec.{i}.attn", f"dec.{i}.ln1", y, None, self_key_mask, cfg, a_bits, drop, rng
        )
        y, cross_scores = _attention(
            p, f"dec.{i}.cross", f"dec.{i}.ln2", y, memory, src_key_mask, cfg, a_bits, drop, rng
        )
        y = _ffn(p, f"dec.{i}.ffn", f"dec.{i}.ln3", y, a_bits, drop, rng)
        trace.dec_attn.append(self_scores)
        trace.cross_attn.append(cross_scores)
        trace.dec_hidden.append(y)
    out = layer_norm(y, p["dec.final_ln.gain"], p["dec.final_ln.bias"], LN_EPS)

    # tied output projection against the token table
    out_q = quantize_activation(out, a_bits)
    trace.logits = matmul(out_q, transpose(p["embed.tok"]))
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
    """Greedy decoding of a batch in lockstep; ties pick the lowest token id."""
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
    tgt = np.full((n, 1), bos_id, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    for _ in range(steps):
        trace = forward(model, src, tgt, pad_id, a_bits=a_bits)
        nxt = trace.logits.data[:, -1, :].argmax(axis=1)  # argmax -> lowest id on ties
        for r in range(n):
            if done[r]:
                continue
            if nxt[r] == eos_id:
                done[r] = True
            else:
                outs[r].append(int(nxt[r]))
        if done.all():
            break
        tgt = np.concatenate([tgt, nxt[:, None]], axis=1)
    return outs
