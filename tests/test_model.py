"""Model: config validation, forward trace semantics, decoding, param counts."""

import hashlib
import json

import numpy as np
import pytest

from dqseq import model
from dqseq.model import (
    ConfigError,
    ForwardTrace,
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
from dqseq.tasks import BOS, EOS, generate_task, seq2seq_batch
from dqseq.tensor import MASK_VALUE, ShapeError, Tape, backward, no_grad

import oracles
from conftest import LADDER_TASK, padded
from tape_ops import sum_all

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
    assert tr.logits.shape == (3 * 5, 16)  # no padding: every position is a packed row
    assert len(tr.enc_attn) == len(tr.enc_hidden) == 2
    assert len(tr.dec_attn) == len(tr.cross_attn) == len(tr.dec_hidden) == 2
    assert tr.enc_attn[0].shape == (3, 4, 7, 7)
    assert tr.dec_attn[0].shape == (3, 4, 5, 5)
    assert tr.cross_attn[1].shape == (3, 4, 5, 7)
    assert tr.enc_hidden[0].shape == (3 * 7, 32)
    assert tr.dec_hidden[1].shape == (3 * 5, 32)
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
    a, b = (padded(t.logits, t.tgt_valid) for t in (base, out))
    assert np.array_equal(a[:, :4], b[:, :4])
    assert not np.allclose(a[:, 4:], b[:, 4:])


def test_padding_invariance():
    m = toy_model()
    rng = np.random.default_rng(3)
    src, tgt = rand_batch(rng, TOY, b=2, ls=5)
    base = forward(m, src, tgt, PAD)
    wider = np.concatenate([src, np.full((2, 3), PAD, np.int64)], axis=1)
    out = forward(m, wider, tgt, PAD)
    # the packed rows are the real positions': the same rows at either width
    assert np.allclose(base.logits.data, out.logits.data, atol=1e-5)
    assert np.allclose(base.enc_hidden[-1].data, out.enc_hidden[-1].data, atol=1e-5)


def test_trace_is_exact_zero_at_padding():
    # position-wise ops run on the real positions only, and the trace keeps
    # their hidden states and logits packed: a padded position has no row at
    # all, and every real position's row is finite and nonzero
    m = toy_model()
    src = np.array([[4, 5, PAD, PAD], [6, 7, 8, 9], [PAD, 5, 6, PAD]], np.int64)
    tgt = np.array([[1, 4, PAD], [1, 6, 7], [1, PAD, 5]], np.int64)
    for q in (QuantConfig(), QuantConfig(2, 2, 8)):
        tr = forward(quantize_model(m, q), src, tgt, PAD, a_bits=q.a_bits)
        for pad, fields in ((src == PAD, tr.enc_hidden), (tgt == PAD, tr.dec_hidden + [tr.logits])):
            for t in fields:
                assert len(t.data) == np.count_nonzero(~pad)
                assert np.isfinite(t.data).all() and t.data.any(axis=-1).all()


def test_a_width_one_batch_runs_as_with_one_more_padding_column():
    # a width-1 batch multiplies its real rows in one GEMM, as any wider batch
    # does; a padded width-1 forward ran one gemv per row and rounded differently
    rng = np.random.default_rng(8)
    src, tgt = rng.integers(4, TOY.vocab_size, size=(6, 1)), np.ones((6, 1), np.int64)
    wider = [np.pad(ids, ((0, 0), (0, 1)), constant_values=PAD) for ids in (src, tgt)]
    for q in (QuantConfig(), QuantConfig(2, 2, 8)):
        view = quantize_model(toy_model(), q)
        a = forward(view, src, tgt, PAD, a_bits=q.a_bits)
        b = forward(view, *wider, PAD, a_bits=q.a_bits)
        for x, y in zip([a.logits, *a.enc_hidden, *a.dec_hidden],
                        [b.logits, *b.enc_hidden, *b.dec_hidden]):
            assert x.data.tobytes() == y.data.tobytes(), q.label  # the same packed rows


def test_an_all_padding_source_row_attends_to_zero_values():
    # no task makes one, but greedy decoding of an empty source does: every key
    # is masked, so its cross-attention is the mean of its values, all zeros,
    # and its decode does not depend on the width or the other rows
    view = quantize_model(toy_model(seed=2), QuantConfig(2, 2, 8))
    state = encode(view, [[PAD, PAD], [4, 5]], PAD, ForwardTrace(), a_bits=8)
    assert all(not k.data[0].any() and not v.data[0].any() for k, v in state.cross_kv)
    tr = forward(view, [[PAD, PAD], [4, 5]], [[BOS, 4], [BOS, 6]], PAD, a_bits=8)
    assert np.isfinite(tr.logits.data).all()
    assert padded(tr.logits, tr.tgt_valid)[0].any(axis=-1).all()
    empty = forward(view, [[PAD, PAD]], [[PAD, PAD]], PAD, a_bits=8)  # no real position at all
    assert empty.logits.shape == (0, TOY.vocab_size) and empty.enc_hidden[0].shape == (0, 32)

    def logits(other, steps=4):
        state = encode(view, [[PAD] * len(other), other], PAD, ForwardTrace(), a_bits=8)
        ids, out = np.full(2, BOS), []
        for _ in range(steps):
            step = decode_step(view, state, ids, PAD, a_bits=8).logits.data[:, -1]
            ids = step.argmax(axis=1)
            out.append(step[0])
        return np.stack(out)

    want = logits([4, 5])
    assert np.isfinite(want).all()
    for other in ([6], [7, 8, 9, 10, 11]):
        assert logits(other).tobytes() == want.tobytes()
    assert greedy_decode_batch(view, [[], [4, 5]], BOS, EOS, 4, PAD, a_bits=8)[0] == \
        greedy_decode_batch(view, [[], [6]], BOS, EOS, 4, PAD, a_bits=8)[0]


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
    assert np.allclose(padded(a.logits, a.tgt_valid)[perm], padded(b.logits, b.tgt_valid),
                       atol=1e-6)
    assert np.allclose(a.enc_attn[0].data[perm], b.enc_attn[0].data, atol=1e-6)


def test_a_frozen_teachers_trace_of_a_row_is_the_same_in_any_batch(briefly_trained):
    # what a per-row cache of the teacher's trace reads: at one padded width a
    # row's every trace field is bit-equal in batches of 32, 7, 2 and 1 rows.
    # A one-token source alone is the exception: its encoder runs on one packed
    # row, and OpenBLAS hands one-row products to gemv, which rounds otherwise
    teacher, _ = briefly_trained
    pairs = generate_task(LADDER_TASK).train.pairs
    src, dec_in, _ = seq2seq_batch(pairs)  # one padded width for every batch below
    seen, differ = {}, set()
    with no_grad():
        for b in (32, 7, 2, 1):
            for start in range(0, len(pairs), b):
                rows = np.arange(start, min(start + b, len(pairs)))
                tr = forward(teacher, src[rows], dec_in[rows], PAD)
                sv, tv = tr.src_valid, tr.tgt_valid
                causal = np.tril(np.ones((tv.shape[1],) * 2, bool))
                for maps, queries, keys in ((tr.enc_attn, sv, sv[:, None, :]),
                                            (tr.dec_attn, tv, tv[:, None, :] & causal),
                                            (tr.cross_attn, tv, sv[:, None, :])):
                    keep = np.broadcast_to(keys[:, None], maps[0].shape)  # [B, H, Lq, Lk]
                    padded_query = keep & ~queries[:, None, :, None]
                    for s in maps:
                        assert (s.data[~keep] == np.float32(MASK_VALUE)).all()
                        assert s.data[padded_query].tobytes() == bytes(4 * padded_query.sum())
                fields = [*(padded(t, tv) for t in [tr.logits, *tr.dec_hidden]),
                          *(padded(t, sv) for t in tr.enc_hidden),
                          *(t.data for t in [*tr.enc_attn, *tr.dec_attn, *tr.cross_attn])]
                for i, r in enumerate(rows):
                    bits = b"".join(f[i].tobytes() for f in fields)
                    if seen.setdefault(r, bits) != bits:
                        differ.add(r)
    assert len(seen) == len(pairs)
    assert differ == {r for r, (s, _) in enumerate(pairs) if len(s) == 1}


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

    def full_logits(src, tgt):
        trace = forward(view, src, tgt, PAD, a_bits=q.a_bits)
        return padded(trace.logits, trace.tgt_valid)

    want, want_logits = oracles.ref_greedy_full(full_logits, srcs, BOS, EOS, cap, PAD)
    got_logits = []
    step = model.decode_step

    def recording_step(*args, **kwargs):
        trace = step(*args, **kwargs)
        got_logits.append(trace.logits.data[:, -1, :])
        return trace

    monkeypatch.setattr(model, "decode_step", recording_step)
    assert greedy_decode_batch(view, srcs, BOS, EOS, cap, PAD, a_bits=q.a_bits) == want
    assert len(got_logits) == len(want_logits)
    # step t decodes the rows that have not emitted EOS before it, in batch order
    lengths = np.array([len(w) for w in want])
    gap = max(float(np.abs(g - w[lengths >= t]).max())
              for t, (g, w) in enumerate(zip(got_logits, want_logits)))
    assert gap <= LOGIT_TOL[q.a_bits], gap


# sha256 of the json token lists that greedy decoding of the briefly trained
# teacher's dev sources gave when every decode step still ran every row
DECODE_SHA256 = {
    "32-32-32": "53d3ad9423a2a46b5d24283580bab55df2227c3e531bc2550d8d8619ac61333b",
    "8-8-8": "351ba4f9644aa3f904e6b4de34884c52455600c8ebb0f564628ec0335338edfc",
    "2-2-8": "0342654ff174c3efcec1831eb840f8c2eefbf6c6508dcc398b8d0e572ba21cc6",
}


@pytest.mark.parametrize("q", [QuantConfig(), QuantConfig(8, 8, 8), QuantConfig(2, 2, 8)],
                         ids=lambda q: q.label)
def test_decode_steps_run_only_the_rows_still_decoding(briefly_trained, q, monkeypatch):
    teacher, dev = briefly_trained
    view = quantize_model(teacher, q)
    srcs = [s for s, _ in dev.pairs]
    cap = view.config.max_positions - 1
    seen = []  # per step: the source mask and the ids of the rows decode_step got
    step = model.decode_step

    def recording_step(m, state, ids, *args, **kwargs):
        seen.append((state.src_valid.copy(), np.asarray(ids).tolist()))
        return step(m, state, ids, *args, **kwargs)

    monkeypatch.setattr(model, "decode_step", recording_step)
    outs = greedy_decode_batch(view, srcs, BOS, EOS, cap, PAD, a_bits=q.a_bits)
    assert hashlib.sha256(json.dumps(outs).encode()).hexdigest() == DECODE_SHA256[q.label]
    src_valid = encode(view, [s + [PAD] * (max(map(len, srcs)) - len(s)) for s in srcs],
                       PAD, ForwardTrace()).src_valid
    for t, (valid, ids) in enumerate(seen):
        live = [r for r, o in enumerate(outs) if len(o) >= t]  # no EOS before step t
        assert np.array_equal(valid, src_valid[live]), t
        assert ids == [BOS if t == 0 else outs[r][t - 1] for r in live], t
    rows = sum(len(ids) for _, ids in seen)
    assert rows == sum(min(len(o) + 1, cap) for o in outs) < len(outs) * cap


def test_keep_before_the_first_step_decodes_as_the_kept_rows_alone():
    view = quantize_model(toy_model(seed=4), QuantConfig(2, 2, 8))
    src = np.random.default_rng(6).integers(4, TOY.vocab_size, size=(5, 6))
    src[1, 3:] = src[3, 4:] = PAD
    going = np.array([True, False, True, True, False])

    def tokens(state, steps=6):
        ids, out = np.full(state.tgt_valid.shape[0], BOS), []
        for _ in range(steps):
            ids = decode_step(view, state, ids, PAD, a_bits=8).logits.data[:, -1].argmax(axis=1)
            out.append(ids)
        return np.stack(out, axis=1)

    want = tokens(encode(view, src[going], PAD, ForwardTrace(), a_bits=8))
    for rows in (going, np.flatnonzero(going)):
        state = encode(view, src, PAD, ForwardTrace(), a_bits=8)
        state.keep(rows)  # before any decode_step: the caches are still empty
        assert np.array_equal(tokens(state), want)


def test_decode_step_rejects_positions_past_max():
    m = toy_model()
    state = encode(m, [[4, 5]], PAD, ForwardTrace())
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
