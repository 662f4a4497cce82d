"""Independent reference implementations used as test oracles.

Everything here is written directly from the defining formulas in float64,
with no imports from the package under test, so that agreement between the
two is evidence rather than tautology.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# finite differences


def fd_grad(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at float64 point x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        gf[i] = (up - down) / (2.0 * h)
    return g


def rel_err(a, b, floor):
    """Max elementwise |a-b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


# ---------------------------------------------------------------------------
# float64 forward references for the engine ops


def ref_softmax(x, axis=-1):
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def ref_gelu(x):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def ref_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def ref_mse(a, b, mask=None):
    d = a - b
    if mask is None:
        return (d * d).mean()
    m = mask.astype(np.float64)
    return (d * d * m).sum() / m.sum()


def ref_cross_entropy(logits, targets, ignore_id=None):
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    t = np.asarray(targets)
    valid = np.ones(len(t), bool) if ignore_id is None else (t != ignore_id)
    rows = np.arange(len(t))[valid]
    return -logp[rows, t[valid]].mean()


# ---------------------------------------------------------------------------
# quantization formula transcriptions (float32, to allow bit-exact checks)


def round_half_away(x):
    return np.sign(x) * np.floor(np.abs(x) + np.float32(0.5))


def ref_linear_quantize(w, n_bits):
    """alpha = max|w| / (2^(n-1) - 1); codes = clamp(round(w / alpha))."""
    w = np.asarray(w, dtype=np.float32)
    th = 2 ** (n_bits - 1) - 1
    m = np.abs(w).max() if w.size else np.float32(0.0)
    alpha = np.float32(m / np.float32(th))
    if alpha == 0.0:
        return np.float32(0.0), np.zeros(w.shape, np.int8)
    codes = np.clip(round_half_away(w / alpha), -th, th).astype(np.int8)
    return alpha, codes


def ref_quantize_activation(x):
    """Per-token 8-bit activation codes, in float64: alpha = max|row| / 127
    over the last dimension; codes = clamp(round_half_away(x / alpha), ±127).
    Returns (alpha [..., 1], integer codes); a row with alpha 0 gets zero codes."""
    x = np.asarray(x, dtype=np.float64)
    alpha = np.abs(x).max(axis=-1, keepdims=True) / 127.0
    scaled = x / np.where(alpha > 0, alpha, 1.0)
    codes = np.clip(np.sign(scaled) * np.floor(np.abs(scaled) + 0.5), -127, 127)
    codes[np.broadcast_to(alpha == 0, x.shape)] = 0
    return alpha, codes.astype(np.int64)


def ref_twn_quantize(w):
    """delta = 0.7 * ||w||_1 / dim(w); codes threshold at delta;
    alpha = ||w * codes||_1 / ||codes||_1."""
    w = np.asarray(w, dtype=np.float32)
    n = w.size
    absw = np.abs(w)
    delta = np.float32(0.7) * absw.sum() / np.float32(n)
    codes = np.zeros(w.shape, np.int8)
    codes[w > delta] = 1
    codes[w < -delta] = -1
    k = int(np.abs(codes).sum())
    if k == 0:
        return np.float32(0.0), codes
    alpha = np.float32(np.abs(w * codes).sum() / np.float32(k))
    return alpha, codes


# ---------------------------------------------------------------------------
# metric oracles


def brute_force_lcs(a, b):
    """LCS length by exhaustive subsequence enumeration over the shorter side."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    n = len(short)
    best = 0

    def is_subseq(sub, seq):
        it = iter(seq)
        return all(tok in it for tok in sub)

    for mask in range(1 << n):
        sub = [short[i] for i in range(n) if mask >> i & 1]
        if len(sub) > best and is_subseq(sub, long_):
            best = len(sub)
    return best

# ---------------------------------------------------------------------------
# float64 reference transformer forward and distillation loss stack
#
# Mirrors dqseq.model.forward (a_bits=32, no dropout) and
# dqseq.distiller.total_loss, written independently in plain numpy so the
# engine's float32 gradients can be checked against float64 central
# differences of this function.

MASK_VALUE = -1e9


def _ref_split(x, n_heads):
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _ref_merge(x):
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


def _ref_attention(p, prefix, ln_prefix, x, kv, key_mask, cfg):
    xn = ref_layer_norm(x, p[f"{ln_prefix}.gain"], p[f"{ln_prefix}.bias"])
    source = xn if kv is None else kv
    q = _ref_split(xn @ p[f"{prefix}.wq"] + p[f"{prefix}.bq"], cfg.n_heads)
    k = _ref_split(source @ p[f"{prefix}.wk"] + p[f"{prefix}.bk"], cfg.n_heads)
    v = _ref_split(source @ p[f"{prefix}.wv"] + p[f"{prefix}.bv"], cfg.n_heads)
    raw = q @ k.transpose(0, 1, 3, 2) / math.sqrt(cfg.head_dim)
    scores = np.where(key_mask, raw, MASK_VALUE)
    ctx = _ref_merge(ref_softmax(scores, axis=-1) @ v)
    out = ctx @ p[f"{prefix}.wo"] + p[f"{prefix}.bo"]
    return x + out, scores


def _ref_ffn(p, prefix, ln_prefix, x):
    xn = ref_layer_norm(x, p[f"{ln_prefix}.gain"], p[f"{ln_prefix}.bias"])
    h = ref_gelu(xn @ p[f"{prefix}.w1"] + p[f"{prefix}.b1"])
    return x + h @ p[f"{prefix}.w2"] + p[f"{prefix}.b2"]


def _ref_embed(p, ids, d_model):
    return p["embed.tok"][ids] * math.sqrt(d_model) + p["embed.pos"][np.arange(ids.shape[1])]


def ref_forward(cfg, p, src, tgt, pad_id):
    """Trace dict in float64 matching ForwardTrace's fields."""
    src = np.asarray(src, np.int64)
    tgt = np.asarray(tgt, np.int64)
    src_valid = src != pad_id
    tgt_valid = tgt != pad_id
    trace = {
        "enc_attn": [], "dec_attn": [], "cross_attn": [],
        "enc_hidden": [], "dec_hidden": [],
        "src_valid": src_valid, "tgt_valid": tgt_valid,
    }
    src_key_mask = src_valid[:, None, None, :]
    x = _ref_embed(p, src, cfg.d_model)
    for i in range(cfg.n_enc_layers):
        x, scores = _ref_attention(p, f"enc.{i}.attn", f"enc.{i}.ln1", x, None, src_key_mask, cfg)
        x = _ref_ffn(p, f"enc.{i}.ffn", f"enc.{i}.ln2", x)
        trace["enc_attn"].append(scores)
        trace["enc_hidden"].append(x)
    memory = ref_layer_norm(x, p["enc.final_ln.gain"], p["enc.final_ln.bias"])

    lt = tgt.shape[1]
    causal = np.tril(np.ones((lt, lt), dtype=bool))
    self_key_mask = tgt_valid[:, None, None, :] & causal[None, None, :, :]
    y = _ref_embed(p, tgt, cfg.d_model)
    for i in range(cfg.n_dec_layers):
        y, s1 = _ref_attention(p, f"dec.{i}.attn", f"dec.{i}.ln1", y, None, self_key_mask, cfg)
        y, s2 = _ref_attention(p, f"dec.{i}.cross", f"dec.{i}.ln2", y, memory, src_key_mask, cfg)
        y = _ref_ffn(p, f"dec.{i}.ffn", f"dec.{i}.ln3", y)
        trace["dec_attn"].append(s1)
        trace["cross_attn"].append(s2)
        trace["dec_hidden"].append(y)
    out = ref_layer_norm(y, p["dec.final_ln.gain"], p["dec.final_ln.bias"])
    trace["logits"] = out @ p["embed.tok"].T
    return trace


def ref_distill_components(s, t, labels, enc_map, dec_map, pad_id):
    """Task CE and each distillation component on ref_forward trace dicts.

    Keys follow LossBreakdown: task, logits, then the three attention and
    the two hidden-state families, each summed over student layers.
    """
    labels = np.asarray(labels, np.int64)
    b, lt, v = s["logits"].shape
    task = ref_cross_entropy(s["logits"].reshape(b * lt, v), labels.reshape(-1), ignore_id=pad_id)

    sv, tv = s["src_valid"], s["tgt_valid"]
    causal = np.tril(np.ones((lt, lt), dtype=bool))
    ea_m = sv[:, None, :, None] & sv[:, None, None, :]
    da_m = tv[:, None, :, None] & tv[:, None, None, :] & causal[None, None]
    ca_m = tv[:, None, :, None] & sv[:, None, None, :]

    def masked(pairs, mask3):
        return sum(
            ref_mse(a, b_, mask=np.broadcast_to(mask3, a.shape)) for a, b_ in pairs
        )

    return {
        "task": task,
        "logits": ref_mse(s["logits"], t["logits"],
                          mask=np.broadcast_to(tv[:, :, None], s["logits"].shape)),
        "enc_attn": masked([(s["enc_attn"][i], t["enc_attn"][m]) for i, m in enumerate(enc_map)], ea_m),
        "dec_attn": masked([(s["dec_attn"][i], t["dec_attn"][m]) for i, m in enumerate(dec_map)], da_m),
        "cross_attn": masked([(s["cross_attn"][i], t["cross_attn"][m]) for i, m in enumerate(dec_map)], ca_m),
        "enc_hidden": masked([(s["enc_hidden"][i], t["enc_hidden"][m]) for i, m in enumerate(enc_map)], sv[:, :, None]),
        "dec_hidden": masked([(s["dec_hidden"][i], t["dec_hidden"][m]) for i, m in enumerate(dec_map)], tv[:, :, None]),
    }


def ref_distill_total(s, t, labels, enc_map, dec_map, pad_id):
    """Task CE plus the full distillation stack on ref_forward trace dicts."""
    return sum(ref_distill_components(s, t, labels, enc_map, dec_map, pad_id).values())


def fd_param_grad(f, w, idx, h=1e-5):
    """Central difference of scalar f() wrt w.flat[idx], mutating w in place."""
    orig = w.flat[idx]
    w.flat[idx] = orig + h
    fp = f()
    w.flat[idx] = orig - h
    fm = f()
    w.flat[idx] = orig
    return (fp - fm) / (2.0 * h)


# ---------------------------------------------------------------------------
# greedy decoding by full recompute


def ref_greedy_full(forward_fn, src_seqs, bos_id, eos_id, steps, pad_id):
    """Greedy decoding that reruns the whole model at every step.

    forward_fn(src, tgt) maps [B, Ls] and [B, t] id arrays to logits
    [B, t, V]; each step takes the argmax of the last position (the lowest
    id on ties) and feeds it back, for at most `steps` steps or until every
    row has emitted eos_id. Returns (token lists without eos, the
    last-position logits of every step).
    """
    n = len(src_seqs)
    src = np.full((n, max(len(s) for s in src_seqs)), pad_id, np.int64)
    for r, s in enumerate(src_seqs):
        src[r, : len(s)] = s
    tgt = np.full((n, 1), bos_id, np.int64)
    outs = [[] for _ in range(n)]
    done = np.zeros(n, bool)
    step_logits = []
    for _ in range(steps):
        last = np.asarray(forward_fn(src, tgt))[:, -1, :]
        step_logits.append(last)
        nxt = last.argmax(axis=1)
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
    return outs, step_logits
