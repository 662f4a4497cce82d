"""A small pre-layer-norm encoder-decoder transformer on the tensor engine.

The forward pass returns a trace of everything the distillation losses
consume: logits, per-layer pre-softmax attention scores (encoder self,
decoder self, cross) and per-layer hidden states, plus the validity masks
that say which positions are real. Between the attention blocks the
residual stream is packed: one [N, D] row per real position of the batch,
so embeddings, layer norms, activation quantization, linears and GELU
never touch padding. Only attention sees the padded [B, L] layout: linear
writes the real rows' queries, keys and values into zero-filled per-head
arrays, and attention_context returns the real rows alone. The trace lays
the hidden states and logits out padded again, with zeros at padding. The
token embedding table is shared by the encoder input, decoder input, and
output projection. encode returns the one DecodeState that every decoder
pass reads: the source mask and each decoder layer's cross-attention keys
and values. forward runs the decoder once over whole targets. Greedy
decoding encodes the sources once and then runs the decoder one position
at a time over the rows that have not yet emitted EOS, in the padded
layout, where every position is real; the state also carries those rows'
per-head self-attention keys and values, which start at zero positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quantizer import EMBEDDING, EXCLUDED, WEIGHT, quantize_activation
from .tasks import pad_batch
from .tensor import (
    ShapeError,
    Tensor,
    add,
    attention_context,
    attention_scores,
    dropout,
    embedding_gather,
    gelu,
    layer_norm,
    linear,
    matmul,
    no_grad,
    pad_rows,
    transpose,
)

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
        if self.d_model < 1 or self.d_ff < 1 or self.n_heads < 1 or self.max_positions < 2:
            raise ConfigError("dimensions must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"n_heads {self.n_heads} must divide d_model {self.d_model}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")


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
    """Everything a distillation loss consumes from one forward pass. encode
    and the decoder append packed hidden rows; forward lays them and the
    logits out padded last, with exact zeros at padding."""

    logits: Tensor | None = None
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


def _keys_values(p, prefix, source: Tensor, n_heads: int, rows) -> tuple[Tensor, Tensor]:
    """Per-head keys [B, H, dh, L] and values [B, H, L, dh] of one attention
    block over a quantized source (packed at rows, if given; see linear)."""
    return (linear(source, p[f"{prefix}.wk"], p[f"{prefix}.bk"], n_heads, True, rows),
            linear(source, p[f"{prefix}.wv"], p[f"{prefix}.bv"], n_heads, False, rows))


def _attention(p, prefix, ln_prefix, x, kv, key_mask, cfg, a_bits, drop, rng, rows, past=None):
    """One residual attention block over x, the packed rows of the real
    positions rows marks ([B, L] boolean), or with rows None, [B, L, D].
    Returns (new_x, masked pre-softmax scores, the (keys, values) pair it
    attended to).

    kv is a (keys, values) pair computed elsewhere, as cross-attention's are
    from the encoder memory, or None for self-attention over x, whose keys
    and values then extend the `past` pair (the earlier positions') when one
    is given. Extending copies arrays off the tape: it is for inference only.
    """
    xn = layer_norm(x, p[f"{ln_prefix}.gain"], p[f"{ln_prefix}.bias"], LN_EPS)
    xq = quantize_activation(xn, a_bits)  # once for queries, keys and values
    q = linear(xq, p[f"{prefix}.wq"], p[f"{prefix}.bq"], cfg.n_heads, False, rows)
    if kv is None:
        kv = _keys_values(p, prefix, xq, cfg.n_heads, rows)
        if past is not None:
            kv = (Tensor(np.concatenate([past[0].data, kv[0].data], axis=3)),
                  Tensor(np.concatenate([past[1].data, kv[1].data], axis=2)))
    k, v = kv
    scores = attention_scores(q, k, key_mask)
    ctx = attention_context(scores, v, drop, rng, rows)
    out = linear(quantize_activation(ctx, a_bits), p[f"{prefix}.wo"], p[f"{prefix}.bo"])
    return add(x, dropout(out, drop, rng, rows)), scores, kv


def _ffn(p, prefix, ln_prefix, x, a_bits, drop, rng, rows):
    xn = layer_norm(x, p[f"{ln_prefix}.gain"], p[f"{ln_prefix}.bias"], LN_EPS)
    h = gelu(linear(quantize_activation(xn, a_bits), p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
    out = linear(quantize_activation(h, a_bits), p[f"{prefix}.w2"], p[f"{prefix}.b2"])
    return add(x, dropout(out, drop, rng, rows))


def _embed(p, ids: np.ndarray, rows, start: int, d_model: int, drop, rng) -> Tensor:
    """Token plus positional embeddings of ids at positions start, start + 1, ...:
    of the positions rows marks, packed, or with rows None, of all of them."""
    positions = np.broadcast_to(np.arange(start, start + ids.shape[1]), ids.shape)
    if rows is not None:
        ids, positions = ids[rows], positions[rows]
    x = embedding_gather(p["embed.tok"], ids, math.sqrt(d_model), p["embed.pos"], positions)
    return dropout(x, drop, rng, rows)


class DecodeState:
    """The encoder's output as every decoder pass reads it, and what
    one-position decoder steps carry from call to call. Per row: the source
    mask, each decoder layer's cross-attention keys [B, H, dh, Ls] and values
    [B, H, Ls, dh] over the encoder memory (zero at padding), the decoder
    inputs' validity so far, and each layer's per-head self-attention keys
    and values, which start at zero positions. keep() drops the other rows."""

    def __init__(self, src_valid: np.ndarray, cross_kv: list[tuple[Tensor, Tensor]]):
        self.src_valid, self.cross_kv = src_valid, cross_kv
        self.tgt_valid = np.zeros((src_valid.shape[0], 0), dtype=bool)
        # per decoder layer: keys [B, H, dh, 0] and values [B, H, 0, dh], cut from the cross pair
        self.self_kv = [(Tensor(k.data[..., :0]), Tensor(v.data[:, :, :0])) for k, v in cross_kv]

    def keep(self, rows: np.ndarray) -> None:
        """Keep only `rows` (a boolean mask or indices over the current rows)."""
        self.src_valid, self.tgt_valid = self.src_valid[rows], self.tgt_valid[rows]
        self.cross_kv, self.self_kv = (
            [(Tensor(k.data[rows]), Tensor(v.data[rows])) for k, v in pairs]
            for pairs in (self.cross_kv, self.self_kv)
        )


def encode(
    model: SeqModel,
    src_ids,
    pad_id: int,
    trace: ForwardTrace,
    *,
    a_bits: int = 32,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> DecodeState:
    """Encoder pass over a batch of sources. Sets trace's src_valid and
    appends each encoder layer's scores and hidden states, the real
    positions' rows packed [N, D], to it; returns the DecodeState whose
    cross-attention keys and values each decoder layer reads."""
    cfg, p = model.config, model.params
    src = _as_ids(src_ids, "src_ids")
    _check_length(cfg, "src", src.shape[1])
    drop = cfg.dropout_rate if training else 0.0
    rows = trace.src_valid = src != pad_id
    key_mask = rows[:, None, None, :]
    x = _embed(p, src, rows, 0, cfg.d_model, drop, rng)
    for i in range(cfg.n_enc_layers):
        x, scores, _ = _attention(
            p, f"enc.{i}.attn", f"enc.{i}.ln1", x, None, key_mask, cfg, a_bits, drop, rng, rows
        )
        x = _ffn(p, f"enc.{i}.ffn", f"enc.{i}.ln2", x, a_bits, drop, rng, rows)
        trace.enc_attn.append(scores)
        trace.enc_hidden.append(x)
    memory = layer_norm(x, p["enc.final_ln.gain"], p["enc.final_ln.bias"], LN_EPS)
    memory_q = quantize_activation(memory, a_bits)
    return DecodeState(rows, [_keys_values(p, f"dec.{i}.cross", memory_q, cfg.n_heads, rows)
                              for i in range(cfg.n_dec_layers)])


def _decode(model, state, tgt, start, self_key_mask, a_bits, drop, rng, trace, rows=None,
            pasts=None):
    """Decoder pass over target positions start, start + 1, ...; fills trace's
    decoder fields and logits, packed at rows if given (as _attention's x).
    state gives the source mask and cross-attention keys and values; pasts,
    if given, one self-attention (keys, values) pair per layer of the earlier
    positions. Returns the self-attention pairs each layer attended to."""
    cfg, p = model.config, model.params
    src_key_mask = state.src_valid[:, None, None, :]
    self_kv = []
    y = _embed(p, tgt, rows, start, cfg.d_model, drop, rng)
    for i in range(cfg.n_dec_layers):
        y, self_scores, kv = _attention(
            p, f"dec.{i}.attn", f"dec.{i}.ln1", y, None, self_key_mask, cfg, a_bits, drop, rng,
            rows, pasts[i] if pasts else None,
        )
        y, cross_scores, _ = _attention(
            p, f"dec.{i}.cross", f"dec.{i}.ln2", y, state.cross_kv[i], src_key_mask, cfg,
            a_bits, drop, rng, rows,
        )
        self_kv.append(kv)
        y = _ffn(p, f"dec.{i}.ffn", f"dec.{i}.ln3", y, a_bits, drop, rng, rows)
        trace.dec_attn.append(self_scores)
        trace.cross_attn.append(cross_scores)
        trace.dec_hidden.append(y)
    out = layer_norm(y, p["dec.final_ln.gain"], p["dec.final_ln.bias"], LN_EPS)

    # tied output projection against the token table
    out_q = quantize_activation(out, a_bits)
    trace.logits = matmul(out_q, transpose(p["embed.tok"]))
    return self_kv


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
    the decoder input, already shifted to start with BOS. Every position-wise
    op (embeddings, layer norms, 8-bit activation quantization with its
    per-position scales, linears, GELU) runs on the real positions only, as
    one packed matrix, so padding takes no part in them, exactly. Pad
    positions are masked out of attention keys, and only attention's softmax
    sums and products over the keys still see the padded width: at any
    a_bits, appending padding or batching with other sequences changes the
    outputs at real positions only by their float rounding. The trace's
    hidden states and logits are exact zeros at padding. Decoder
    self-attention is causal.
    """
    cfg = model.config
    src = _as_ids(src_ids, "src_ids")
    tgt = _as_ids(tgt_ids, "tgt_ids")
    if src.shape[0] != tgt.shape[0]:
        raise ShapeError(f"batch mismatch: {src.shape[0]} src rows vs {tgt.shape[0]} tgt rows")
    _check_length(cfg, "tgt", tgt.shape[1])
    tgt_valid = tgt != pad_id
    trace = ForwardTrace(tgt_valid=tgt_valid)
    state = encode(model, src, pad_id, trace, a_bits=a_bits, training=training, rng=rng)
    lt = tgt.shape[1]
    causal = np.tril(np.ones((lt, lt), dtype=bool))
    self_key_mask = tgt_valid[:, None, None, :] & causal[None, None, :, :]
    drop = cfg.dropout_rate if training else 0.0
    _decode(model, state, tgt, 0, self_key_mask, a_bits, drop, rng, trace, tgt_valid)
    # laid out padded only now, after the whole decoder: each hidden state's
    # gradient then sums its terms in the order a padded forward's did
    trace.logits = pad_rows(trace.logits, tgt_valid)
    trace.enc_hidden = [pad_rows(h, state.src_valid) for h in trace.enc_hidden]
    trace.dec_hidden = [pad_rows(h, tgt_valid) for h in trace.dec_hidden]
    return trace


def decode_step(model: SeqModel, state: DecodeState, ids, pad_id: int,
                a_bits: int = 32) -> ForwardTrace:
    """Decoder pass over one new position per row, reading the earlier
    positions from state and appending this one's to it.

    ids holds the newest decoder input token of each of state's rows. The
    returned trace has logits [B, 1, V]; up to float rounding they equal the
    last position of forward() over the whole prefix, because causal
    attention lets a position see exactly the ones before it. Inference
    only: the state's keys and values are off the tape.
    """
    tok = np.asarray(ids, dtype=np.int64).reshape(-1, 1)
    rows, start = state.tgt_valid.shape
    if tok.shape[0] != rows:
        raise ShapeError(f"decode_step got {tok.shape[0]} ids for {rows} rows")
    _check_length(model.config, "tgt", start + 1)
    state.tgt_valid = np.concatenate([state.tgt_valid, tok != pad_id], axis=1)
    trace = ForwardTrace(src_valid=state.src_valid, tgt_valid=state.tgt_valid)
    state.self_kv = _decode(model, state, tok, start, state.tgt_valid[:, None, None, :], a_bits,
                            0.0, None, trace, pasts=state.self_kv)
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
    new position of the rows still decoding, reusing their earlier
    positions' keys and values. A row leaves the decode state at the step it
    emits eos_id. At one position each row is computed on its own, so a
    row's logits do not change when other rows leave.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    n = len(src_seqs)
    steps = min(max_len, model.config.max_positions - 1)
    if steps == 0 or n == 0:
        return [[] for _ in range(n)]
    src = pad_batch(src_seqs, pad_id)
    tokens = np.empty((n, steps), dtype=np.int64)
    lengths = np.full(n, steps)
    rows = np.arange(n)  # the batch indices of the rows still decoding
    nxt = np.full(n, bos_id, dtype=np.int64)
    with no_grad():
        state = encode(model, src, pad_id, ForwardTrace(), a_bits=a_bits)
        for t in range(steps):
            logits = decode_step(model, state, nxt, pad_id, a_bits=a_bits).logits
            nxt = logits.data[:, -1, :].argmax(axis=1)  # argmax -> lowest id on ties
            tokens[rows, t] = nxt
            going = nxt != eos_id
            if not going.all():
                lengths[rows[~going]] = t
                if not going.any():
                    break
                rows, nxt = rows[going], nxt[going]
                state.keep(going)
    return [tokens[r, : lengths[r]].tolist() for r in range(n)]
