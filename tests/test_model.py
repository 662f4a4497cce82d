"""Model: config validation, forward trace semantics, decoding, param counts."""

import numpy as np
import pytest

from dqseq import model
from dqseq.model import (
    MASK_VALUE,
    ConfigError,
    DecodeState,
    ModelConfig,
    SeqModel,
    decode_step,
    encode,
    forward,
    greedy_decode_batch,
    init_model,
    param_specs,
)
from dqseq.metrics import footprint
from dqseq.quantizer import QuantConfig, quantize_model
from dqseq.tasks import BOS, EOS
from dqseq.tensor import ShapeError, Tape, backward, sum_all

import oracles

PAD = 0

TOY = ModelConfig(vocab_size=16, d_model=32, n_heads=4, d_ff=64,
                  n_enc_layers=2, n_dec_layers=2, max_positions=32)


def toy_model(seed=0, cfg=TOY):
    return init_model(cfg, seed)


def rand_batch(rng, cfg, b=3, ls=7, lt=5):
    src = rng.integers(4, cfg.vocab_size, size=(b, ls))
    tgt = rng.integers(4, cfg.vocab_size, size=(b, lt))
    tgt[:, 0] = 1
    return src, tgt


# ---------------------------------------------------------------------------
# config and init


def test_config_validation():
    with pytest.raises(ConfigError, match="divide"):
        ModelConfig(vocab_size=16, d_model=30, n_heads=4)
    with pytest.raises(ConfigError, match="layer"):
        ModelConfig(vocab_size=16, n_enc_layers=0)
    with pytest.raises(ConfigError, match="vocab"):
        ModelConfig(vocab_size=3)


def test_init_is_deterministic():
    a, b = toy_model(7), toy_model(7)
    c = toy_model(8)
    assert all(np.array_equal(a.params[k].data, b.params[k].data) for k in a.params)
    assert any(not np.array_equal(a.params[k].data, c.params[k].data) for k in a.params)


def test_init_structure():
    m = toy_model()
    assert m.params["enc.0.ln1.gain"].data.tolist() == [1.0] * 32
    assert not m.params["enc.0.attn.bq"].data.any()
    names = {n for n, _, _ in param_specs(TOY)}
    assert names == set(m.params)
    # the single shared table is both embedding and output projection
    assert sum(1 for n in names if n.startswith("embed.tok")) == 1


# ---------------------------------------------------------------------------
# forward semantics


def test_forward_shapes_and_trace_lengths():
    m = toy_model()
    rng = np.random.default_rng(0)
    src, tgt = rand_batch(rng, TOY)
    tr = forward(m, src, tgt, PAD)
    assert tr.logits.shape == (3, 5, 16)
    assert len(tr.enc_attn) == len(tr.enc_hidden) == 2
    assert len(tr.dec_attn) == len(tr.cross_attn) == len(tr.dec_hidden) == 2
    assert tr.enc_attn[0].shape == (3, 4, 7, 7)
    assert tr.dec_attn[0].shape == (3, 4, 5, 5)
    assert tr.cross_attn[1].shape == (3, 4, 5, 7)
    assert tr.enc_hidden[0].shape == (3, 7, 32)
    assert tr.dec_hidden[1].shape == (3, 5, 32)
    assert np.all(np.isfinite(tr.logits.data))


def test_forward_rejects_bad_inputs():
    m = toy_model()
    with pytest.raises(ShapeError, match="max_positions"):
        forward(m, np.ones((1, 40), np.int64), np.ones((1, 2), np.int64), PAD)
    with pytest.raises(IndexError):
        forward(m, np.full((1, 3), 99, np.int64), np.ones((1, 2), np.int64), PAD)
    with pytest.raises(ShapeError, match="batch"):
        forward(m, np.ones((2, 3), np.int64), np.ones((1, 2), np.int64), PAD)


def test_forward_is_deterministic():
    m = toy_model()
    rng = np.random.default_rng(1)
    src, tgt = rand_batch(rng, TOY)
    a = forward(m, src, tgt, PAD).logits.data
    b = forward(m, src, tgt, PAD).logits.data
    assert np.array_equal(a, b)


def test_decoder_causality_exact():
    m = toy_model()
    rng = np.random.default_rng(2)
    src, tgt = rand_batch(rng, TOY, b=2, ls=6, lt=6)
    base = forward(m, src, tgt, PAD)
    altered = tgt.copy()
    altered[:, 4] = (altered[:, 4] % 12) + 4  # change a later input token
    assert not np.array_equal(altered, tgt)
    out = forward(m, src, altered, PAD)
    assert np.array_equal(base.logits.data[:, :4], out.logits.data[:, :4])
    assert not np.allclose(base.logits.data[:, 4:], out.logits.data[:, 4:])


def test_padding_invariance():
    m = toy_model()
    rng = np.random.default_rng(3)
    src, tgt = rand_batch(rng, TOY, b=2, ls=5)
    base = forward(m, src, tgt, PAD)
    padded = np.concatenate([src, np.full((2, 3), PAD, np.int64)], axis=1)
    out = forward(m, padded, tgt, PAD)
    assert np.allclose(base.logits.data, out.logits.data, atol=1e-5)
    assert np.allclose(
        base.enc_hidden[-1].data, out.enc_hidden[-1].data[:, :5], atol=1e-5
    )


def test_attention_scores_carry_mask_value():
    m = toy_model()
    src = np.array([[4, 5, PAD, PAD], [6, 7, 8, PAD]], np.int64)
    tgt = np.array([[1, 4, 5], [1, 6, PAD]], np.int64)
    tr = forward(m, src, tgt, PAD)
    ea = tr.enc_attn[0].data
    assert np.all(ea[0, :, :, 2:] == np.float32(MASK_VALUE))
    assert np.all(ea[1, :, :, 3] == np.float32(MASK_VALUE))
    assert np.all(ea[1, :, :, :3] != np.float32(MASK_VALUE))
    da = tr.dec_attn[0].data
    future = ~np.tril(np.ones((3, 3), bool))
    assert np.all(da[:, :, future] == np.float32(MASK_VALUE))
    assert np.all(da[1, :, :, 2] == np.float32(MASK_VALUE))  # padded tgt key
    ca = tr.cross_attn[0].data
    assert np.all(ca[0, :, :, 2:] == np.float32(MASK_VALUE))


def test_batch_permutation_permutes_trace():
    m = toy_model()
    rng = np.random.default_rng(4)
    src, tgt = rand_batch(rng, TOY, b=4)
    perm = np.array([2, 0, 3, 1])
    a = forward(m, src, tgt, PAD)
    b = forward(m, src[perm], tgt[perm], PAD)
    assert np.allclose(a.logits.data[perm], b.logits.data, atol=1e-6)
    assert np.allclose(a.enc_attn[0].data[perm], b.enc_attn[0].data, atol=1e-6)


def test_gradients_flow_to_all_parameters():
    m = toy_model()
    rng = np.random.default_rng(5)
    src, tgt = rand_batch(rng, TOY, b=2)
    with Tape():
        tr = forward(m, src, tgt, PAD)
        backward(sum_all(tr.logits))
    missing = [k for k, t in m.params.items() if t.grad is None]
    assert missing == []


def test_dropout_needs_rng_and_changes_output():
    cfg = ModelConfig(vocab_size=16, d_model=32, n_heads=4, d_ff=64,
                      n_enc_layers=1, n_dec_layers=1, max_positions=32,
                      dropout_rate=0.3)
    m = init_model(cfg, 0)
    rng = np.random.default_rng(6)
    src, tgt = rand_batch(rng, cfg, b=2)
    with pytest.raises(ValueError, match="rng"):
        forward(m, src, tgt, PAD, training=True)
    a = forward(m, src, tgt, PAD, training=True, rng=np.random.default_rng(1))
    b = forward(m, src, tgt, PAD)  # inference: dropout off
    c = forward(m, src, tgt, PAD)
    assert not np.allclose(a.logits.data, b.logits.data)
    assert np.array_equal(b.logits.data, c.logits.data)


# ---------------------------------------------------------------------------
# quantized views


def test_quantize_model_identity_at_32_bits():
    m = toy_model()
    view = quantize_model(m, QuantConfig())
    assert all(view.params[k] is m.params[k] for k in m.params)
    rng = np.random.default_rng(7)
    src, tgt = rand_batch(rng, TOY, b=2)
    assert np.array_equal(
        forward(m, src, tgt, PAD).logits.data, forward(view, src, tgt, PAD).logits.data
    )


def test_quantize_model_covers_and_is_pure():
    m = toy_model()
    q = QuantConfig(2, 8, 8)
    v1 = quantize_model(m, q)
    v2 = quantize_model(m, q)
    cats = dict((n, c) for n, _, c in param_specs(TOY))
    for name in m.params:
        a, b = v1.params[name], v2.params[name]
        assert np.array_equal(a.data, b.data)
        if cats[name] == "excluded":
            assert a is m.params[name]
        else:
            assert a is not m.params[name]
            assert not np.array_equal(a.data, m.params[name].data)


def test_quantized_view_trains_master():
    m = toy_model()
    rng = np.random.default_rng(8)
    src, tgt = rand_batch(rng, TOY, b=2)
    with Tape():
        view = quantize_model(m, QuantConfig(8, 8, 8))
        tr = forward(view, src, tgt, PAD, a_bits=8)
        backward(sum_all(tr.logits))
    assert m.params["enc.0.attn.wq"].grad is not None
    assert m.params["embed.tok"].grad is not None


# ---------------------------------------------------------------------------
# decoding


def test_greedy_ties_pick_lowest_id():
    m = toy_model()
    for t in m.params.values():  # all-zero net scores every token equally
        t.data = np.zeros_like(t.data)
    out = greedy_decode_batch(m, [[4, 5]], bos_id=1, eos_id=2, max_len=3, pad_id=PAD)
    assert out == [[0, 0, 0]]


def test_greedy_zero_max_len():
    m = toy_model()
    assert greedy_decode_batch(m, [[4, 5]], 1, 2, 0, PAD) == [[]]


def test_greedy_stops_at_eos():
    m = toy_model()
    for t in m.params.values():
        t.data = np.zeros_like(t.data)
    # decoder output is exactly final_ln.bias; align only eos with it
    m.params["dec.final_ln.bias"].data[:] = 1.0
    m.params["embed.tok"].data[2] = 1.0
    out = greedy_decode_batch(m, [[4, 5, 6]], 1, 2, 8, PAD)
    assert out == [[]]


def test_greedy_batch_matches_single(briefly_trained):
    # per-token activation scales keep 8-bit decodes independent of the batch
    teacher, dev = briefly_trained
    srcs = [s for s, _ in dev.pairs]
    cap = teacher.config.max_positions - 1
    for q in (QuantConfig(), QuantConfig(8, 8, 8), QuantConfig(2, 2, 8)):
        view = quantize_model(teacher, q)
        singles = [greedy_decode_batch(view, [s], BOS, EOS, cap, PAD, a_bits=q.a_bits)[0]
                   for s in srcs]
        assert greedy_decode_batch(view, srcs, BOS, EOS, cap, PAD, a_bits=q.a_bits) == singles, q


# Largest last-position logit gap allowed between cached and recomputed
# decoding. At 32 bits the two differ only by float rounding (a 1-row and an
# L-row matmul sum in different orders; 1.4e-6 was measured here). At 8 bits
# such a difference can flip an activation code by one step, which moved
# logits by up to 6e-3 on this dev set; tokens must still agree exactly.
LOGIT_TOL = {32: 1e-5, 8: 1e-2}


@pytest.mark.parametrize("q", [
    QuantConfig(), QuantConfig(8, 8, 8), QuantConfig(4, 4, 8), QuantConfig(2, 2, 8),
    QuantConfig(2, 2, 8, row_wise=True),
], ids=lambda q: q.label + ("-rows" if q.row_wise else ""))
def test_incremental_decode_matches_full_recompute(briefly_trained, q, monkeypatch):
    teacher, dev = briefly_trained
    view = quantize_model(teacher, q)
    srcs = [s for s, _ in dev.pairs]
    cap = view.config.max_positions - 1
    want, want_logits = oracles.ref_greedy_full(
        lambda src, tgt: forward(view, src, tgt, PAD, a_bits=q.a_bits).logits.data,
        srcs, BOS, EOS, cap, PAD,
    )
    got_logits = []
    step = model.decode_step

    def recording_step(*args, **kwargs):
        trace = step(*args, **kwargs)
        got_logits.append(trace.logits.data[:, -1, :])
        return trace

    monkeypatch.setattr(model, "decode_step", recording_step)
    assert greedy_decode_batch(view, srcs, BOS, EOS, cap, PAD, a_bits=q.a_bits) == want
    assert len(got_logits) == len(want_logits)
    gap = max(float(np.abs(g - w).max()) for g, w in zip(got_logits, want_logits))
    assert gap <= LOGIT_TOL[q.a_bits], gap


def test_decode_step_rejects_positions_past_max():
    m = toy_model()
    state = DecodeState(encode(m, [[4, 5]], PAD))
    for _ in range(TOY.max_positions):
        decode_step(m, state, [BOS], PAD)
    with pytest.raises(ShapeError, match="max_positions"):
        decode_step(m, state, [BOS], PAD)


# ---------------------------------------------------------------------------
# parameter counting: footprint at 32 bits is 4 bytes per parameter


def test_count_parameters_matches_hand_formula():
    cfg = ModelConfig(vocab_size=32, d_model=64, n_heads=4, d_ff=256,
                      n_enc_layers=2, n_dec_layers=2, max_positions=64)
    d, f, v, p = 64, 256, 32, 64
    enc_w = 4 * d * d + d * f + f * d
    dec_w = 8 * d * d + d * f + f * d
    enc_x = 4 * d + (f + d) + 2 * (2 * d)
    dec_x = 8 * d + (f + d) + 3 * (2 * d)
    fp = footprint(cfg, QuantConfig())
    assert fp.weight_bytes == 4 * (2 * enc_w + 2 * dec_w)
    assert fp.embedding_bytes == 4 * v * d
    assert fp.excluded_bytes == 4 * (p * d + 2 * enc_x + 2 * dec_x + 2 * (2 * d))
    assert fp.total_bytes == 4 * sum(t.data.size for t in init_model(cfg, 0).params.values())


def test_count_parameters_at_bart_base_dims():
    cfg = ModelConfig(vocab_size=50265, d_model=768, n_heads=12, d_ff=3072,
                      n_enc_layers=6, n_dec_layers=6, max_positions=1026)
    total = footprint(cfg, QuantConfig()).total_bytes / 4
    reference = 531 * 2**20 / 4  # 531 MiB of float32
    assert abs(total - reference) / reference < 0.05
