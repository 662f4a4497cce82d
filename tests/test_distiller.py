"""Distiller: layer selection, student init, loss identities, gradients."""

import numpy as np
import pytest

from dqseq.distiller import (
    DistillConfig,
    LayerMap,
    init_student,
    select_layers,
    task_loss,
    total_loss,
)
from dqseq.model import ForwardTrace, ModelConfig, forward, init_model, param_specs
from dqseq.tensor import Tape, Tensor, backward

from oracles import fd_param_grad, ref_distill_components, ref_distill_total, ref_forward, rel_err

PAD = 0

DEEP = ModelConfig(vocab_size=16, d_model=16, n_heads=2, d_ff=32,
                   n_enc_layers=4, n_dec_layers=4, max_positions=16)


def batch(rng, cfg, b=2, ls=6, lt=5):
    """Random batch with trailing padding on one row of each side."""
    src = rng.integers(4, cfg.vocab_size, size=(b, ls))
    src[-1, -2:] = PAD
    dec_in = rng.integers(4, cfg.vocab_size, size=(b, lt))
    dec_in[:, 0] = 1
    dec_in[-1, -1:] = PAD
    labels = np.concatenate([dec_in[:, 1:], np.full((b, 1), PAD, np.int64)], axis=1)
    labels[0, -1] = 2
    return src, dec_in, labels


def traces(teacher, student, src, dec_in):
    return (
        forward(student, src, dec_in, PAD),
        forward(teacher, src, dec_in, PAD),
    )


ATTN = ("enc_attn", "dec_attn", "cross_attn")
HIDDEN = ("enc_hidden", "dec_hidden")


def components(st, tt, labels, lmap, names):
    """The named total_loss components as floats."""
    bd = total_loss(st, tt, labels, lmap, PAD)
    return [getattr(bd, n).item() for n in names]


# ---------------------------------------------------------------------------
# layer selection


def test_select_layers_fixtures():
    assert select_layers(6, 3) == [0, 3, 5]
    assert select_layers(6, 2) == [0, 5]
    assert select_layers(6, 1) == [5]
    assert select_layers(6, 6) == [0, 1, 2, 3, 4, 5]
    assert select_layers(4, 3) == [0, 2, 3]
    assert select_layers(1, 1) == [0]
    assert select_layers(3, 2) == [0, 2]


def test_select_layers_rounds_half_up():
    # 1 * (6-1)/(3-1) = 2.5 must go to 3, not to the even neighbour
    assert select_layers(6, 3)[1] == 3


def test_select_layers_endpoints_anchored():
    for t in range(2, 9):
        for s in range(2, t + 1):
            picks = select_layers(t, s)
            assert picks[0] == 0 and picks[-1] == t - 1
            assert picks == sorted(set(picks))


def test_select_layers_validation():
    with pytest.raises(ValueError):
        select_layers(6, 0)
    with pytest.raises(ValueError):
        select_layers(3, 4)


# ---------------------------------------------------------------------------
# student initialization


def test_init_student_copies_mapped_layers():
    teacher = init_model(DEEP, seed=3)
    student, lmap = init_student(teacher, DistillConfig(enc_layers=2, dec_layers=3))
    assert lmap == LayerMap(enc=(0, 3), dec=(0, 2, 3))
    assert student.config.n_enc_layers == 2 and student.config.n_dec_layers == 3
    assert set(student.params) == {n for n, _, _ in param_specs(student.config)}
    for i, m in enumerate(lmap.enc):
        for suffix in ("ln1.gain", "attn.wq", "attn.bo", "ffn.w2"):
            assert np.array_equal(
                student.params[f"enc.{i}.{suffix}"].data,
                teacher.params[f"enc.{m}.{suffix}"].data,
            )
    for i, m in enumerate(lmap.dec):
        assert np.array_equal(
            student.params[f"dec.{i}.cross.wv"].data,
            teacher.params[f"dec.{m}.cross.wv"].data,
        )
    assert np.array_equal(student.params["embed.tok"].data, teacher.params["embed.tok"].data)
    assert np.array_equal(
        student.params["dec.final_ln.gain"].data, teacher.params["dec.final_ln.gain"].data
    )


def test_init_student_shares_no_storage():
    teacher = init_model(DEEP, seed=3)
    student, _ = init_student(teacher, DistillConfig(enc_layers=4, dec_layers=4))
    for name, t in student.params.items():
        assert t.requires_grad
        assert not np.shares_memory(t.data, teacher.params[name].data)
    student.params["embed.tok"].data[0, 0] += 1.0
    assert teacher.params["embed.tok"].data[0, 0] != student.params["embed.tok"].data[0, 0]


def test_init_student_rejects_deeper_student():
    teacher = init_model(DEEP, seed=3)
    with pytest.raises(ValueError, match="exceeds"):
        init_student(teacher, DistillConfig(enc_layers=5, dec_layers=1))
    with pytest.raises(ValueError):
        DistillConfig(enc_layers=0, dec_layers=1)


# ---------------------------------------------------------------------------
# loss identities


def test_full_depth_clone_has_zero_distillation_loss():
    teacher = init_model(DEEP, seed=5)
    student, lmap = init_student(teacher, DistillConfig(enc_layers=4, dec_layers=4))
    src, dec_in, labels = batch(np.random.default_rng(0), DEEP)
    st, tt = traces(teacher, student, src, dec_in)
    bd = total_loss(st, tt, labels, lmap, PAD)
    for part in (bd.logits, bd.enc_attn, bd.dec_attn, bd.cross_attn, bd.enc_hidden, bd.dec_hidden):
        assert part.item() == 0.0
    assert bd.dist.item() == 0.0
    assert bd.total.item() == bd.task.item()
    assert bd.task.item() > 0.0


def test_total_is_exact_sum_of_components():
    teacher = init_model(DEEP, seed=5)
    scfg = ModelConfig(vocab_size=16, d_model=16, n_heads=2, d_ff=32,
                       n_enc_layers=2, n_dec_layers=2, max_positions=16)
    student = init_model(scfg, seed=9)
    lmap = LayerMap(enc=tuple(select_layers(4, 2)), dec=tuple(select_layers(4, 2)))
    src, dec_in, labels = batch(np.random.default_rng(1), DEEP)
    st, tt = traces(teacher, student, src, dec_in)
    bd = total_loss(st, tt, labels, lmap, PAD)

    f32 = np.float32
    attn = f32(f32(f32(bd.enc_attn.item()) + f32(bd.dec_attn.item())) + f32(bd.cross_attn.item()))
    hid = f32(f32(bd.enc_hidden.item()) + f32(bd.dec_hidden.item()))
    dist = f32(f32(f32(bd.logits.item()) + attn) + hid)
    assert f32(bd.dist.item()) == dist
    assert f32(bd.total.item()) == f32(f32(bd.task.item()) + dist)
    for v in bd.to_floats().values():
        assert np.isfinite(v)


def test_component_losses_are_positive_for_distinct_models():
    teacher = init_model(DEEP, seed=5)
    student = init_model(DEEP, seed=6)
    lmap = LayerMap(enc=(0, 1, 2, 3), dec=(0, 1, 2, 3))
    src, dec_in, labels = batch(np.random.default_rng(2), DEEP)
    st, tt = traces(teacher, student, src, dec_in)
    bd = total_loss(st, tt, labels, lmap, PAD)
    for name, v in bd.to_floats().items():
        assert v > 0.0, name


def test_no_teacher_reduces_to_task_loss():
    student = init_model(DEEP, seed=6)
    src, dec_in, labels = batch(np.random.default_rng(3), DEEP)
    st = forward(student, src, dec_in, PAD)
    bd = total_loss(st, None, labels, None, PAD)
    assert bd.dist.item() == 0.0
    assert bd.total.item() == bd.task.item()
    with pytest.raises(ValueError, match="layer map"):
        tt = forward(init_model(DEEP, seed=7), src, dec_in, PAD)
        total_loss(st, tt, labels, None, PAD)


def test_task_loss_ignores_pad_labels():
    student = init_model(DEEP, seed=6)
    src, dec_in, labels = batch(np.random.default_rng(4), DEEP)
    st = forward(student, src, dec_in, PAD)
    before = task_loss(st, labels, PAD).item()
    bumped = labels.copy()
    bumped[labels == PAD] = 9  # pretend pads were real tokens
    after = task_loss(st, bumped, PAD).item()
    assert before != after
    relabeled = labels.copy()
    assert task_loss(st, relabeled, PAD).item() == before


def test_constant_offset_fixtures():
    teacher = init_model(DEEP, seed=5)
    student, lmap = init_student(teacher, DistillConfig(enc_layers=4, dec_layers=4))
    src, dec_in, labels = batch(np.random.default_rng(9), DEEP)
    st, tt = traces(teacher, student, src, dec_in)
    tt.logits.data += 1.0
    assert components(st, tt, labels, lmap, ["logits"]) == [pytest.approx(1.0)]
    for h in tt.enc_hidden:
        h.data += 1.0
    eh, dh = components(st, tt, labels, lmap, HIDDEN)
    # unit offset on every encoder layer, summed over 4 layers
    assert eh == pytest.approx(4.0)
    assert dh == 0.0


def test_single_layer_hidden_fixture():
    valid = np.ones((1, 2), dtype=bool)

    def trace(hidden):
        full = lambda *shape, v=0.0: Tensor(np.full(shape, v, np.float32))
        return ForwardTrace(
            logits=full(2, 5),
            enc_attn=[full(1, 1, 2, 2)], dec_attn=[full(1, 1, 2, 2)], cross_attn=[full(1, 1, 2, 2)],
            enc_hidden=[full(2, 3, v=hidden)], dec_hidden=[full(2, 3, v=hidden)],
            src_valid=valid, tgt_valid=valid,
        )

    labels = np.array([[4, 2]], np.int64)
    st, tt = trace(0.0), trace(1.0)
    lmap = LayerMap(enc=(0,), dec=(0,))
    assert components(st, tt, labels, lmap, HIDDEN) == [1.0, 1.0]
    assert components(st, tt, labels, lmap, ("logits",) + ATTN) == [0.0] * 4


def test_layer_map_selects_which_teacher_layers_participate():
    teacher = init_model(DEEP, seed=5)
    student, lmap = init_student(teacher, DistillConfig(enc_layers=1, dec_layers=1))
    assert lmap == LayerMap(enc=(3,), dec=(3,))
    src, dec_in, labels = batch(np.random.default_rng(10), DEEP)
    st, tt = traces(teacher, student, src, dec_in)
    base = components(st, tt, labels, lmap, ATTN)
    for i in range(3):  # unmapped layers must not participate
        tt.enc_attn[i].data[:] += 100.0
        tt.dec_attn[i].data[:] += 100.0
        tt.cross_attn[i].data[:] += 100.0
    assert components(st, tt, labels, lmap, ATTN) == base
    tt.enc_attn[3].data[:, :, 0, 0] += 1.0
    assert components(st, tt, labels, lmap, ["enc_attn"])[0] != base[0]


def test_loss_components_match_float64_reference():
    # enc and dec maps differ, so a family wired to the other stack's map
    # or to another family's mask cannot match the reference
    tcfg = ModelConfig(vocab_size=16, d_model=16, n_heads=2, d_ff=32,
                       n_enc_layers=4, n_dec_layers=3, max_positions=16)
    teacher = init_model(tcfg, seed=5)
    student, lmap = init_student(teacher, DistillConfig(enc_layers=2, dec_layers=2))
    assert lmap == LayerMap(enc=(0, 3), dec=(0, 2))
    rng = np.random.default_rng(12)
    for t in student.params.values():
        t.data += rng.standard_normal(t.data.shape).astype(np.float32) * 0.05
    src, dec_in, labels = batch(rng, tcfg, b=3)
    st, tt = traces(teacher, student, src, dec_in)
    bd = total_loss(st, tt, labels, lmap, PAD)

    as64 = lambda m: {k: v.data.astype(np.float64) for k, v in m.params.items()}
    want = ref_distill_components(
        ref_forward(student.config, as64(student), src, dec_in, PAD),
        ref_forward(tcfg, as64(teacher), src, dec_in, PAD),
        labels, lmap.enc, lmap.dec, PAD,
    )
    assert list(want) == [f for f in bd.to_floats() if f not in ("dist", "total")]
    for name, ref in want.items():
        got = getattr(bd, name).item()
        assert ref > 0.0, name
        assert abs(got - ref) <= 1e-4 * ref, (name, got, ref)
    assert abs(bd.total.item() - sum(want.values())) <= 1e-4 * sum(want.values())


# ---------------------------------------------------------------------------
# masking semantics: invalid positions must not influence the losses


def test_trace_holds_the_real_positions_rows_of_the_float64_reference():
    # the logits and hidden states the losses match are the real positions'
    # rows, packed in C order: padding has no row to leak into a mean
    teacher = init_model(DEEP, seed=5)
    src, dec_in, _ = batch(np.random.default_rng(5), DEEP)
    tr = forward(teacher, src, dec_in, PAD)
    ref = ref_forward(DEEP, {k: v.data.astype(np.float64) for k, v in teacher.params.items()},
                      src, dec_in, PAD)
    sv, tv = tr.src_valid, tr.tgt_valid
    assert not sv.all() and not tv.all()
    fields = [(tr.logits, ref["logits"], tv)]
    fields += [(h, r, sv) for h, r in zip(tr.enc_hidden, ref["enc_hidden"], strict=True)]
    fields += [(h, r, tv) for h, r in zip(tr.dec_hidden, ref["dec_hidden"], strict=True)]
    for got, want, valid in fields:
        assert got.shape == (np.count_nonzero(valid), want.shape[-1])
        want = want[valid]
        assert np.abs(got.data - want).max() <= 1e-4 * np.abs(want).max()


def pad_col(a):
    """`a` with one more all-padding column: more padded positions, same real ones."""
    return np.concatenate([a, np.full((a.shape[0], 1), PAD, a.dtype)], axis=1)


def test_logits_loss_ignores_padded_target_positions():
    teacher = init_model(DEEP, seed=5)
    student = init_model(DEEP, seed=6)
    lmap = LayerMap(enc=(0, 1, 2, 3), dec=(0, 1, 2, 3))
    src, dec_in, labels = batch(np.random.default_rng(5), DEEP)
    st, tt = traces(teacher, student, src, dec_in)
    base = components(st, tt, labels, lmap, ["logits"])
    st2, tt2 = traces(teacher, student, src, pad_col(dec_in))
    assert (~st2.tgt_valid).sum() > (~st.tgt_valid).sum()
    assert tt2.logits.shape == tt.logits.shape
    assert components(st2, tt2, pad_col(labels), lmap, ["logits"]) == base


def test_attention_loss_masks_padded_and_future_keys():
    teacher = init_model(DEEP, seed=5)
    student = init_model(DEEP, seed=6)
    lmap = LayerMap(enc=(0, 1, 2, 3), dec=(0, 1, 2, 3))
    src, dec_in, labels = batch(np.random.default_rng(6), DEEP)
    st, tt = traces(teacher, student, src, dec_in)
    base = components(st, tt, labels, lmap, ATTN)

    # poke a future key in decoder self-attention: (query 0, key 3)
    tt.dec_attn[1].data[:, :, 0, 3] += 50.0
    # poke a padded source key in cross-attention for the padded row
    pad_col = np.where(~st.src_valid[-1])[0][0]
    tt.cross_attn[0].data[-1, :, :, pad_col] += 50.0
    same = components(st, tt, labels, lmap, ATTN)
    assert same == base

    # a causally valid, unpadded entry must move the decoder component
    tt.dec_attn[1].data[0, :, 3, 0] += 50.0
    moved = components(st, tt, labels, lmap, ATTN)
    assert moved[1] != base[1]
    assert moved[0] == base[0] and moved[2] == base[2]


def test_hidden_loss_masks_padded_positions():
    teacher = init_model(DEEP, seed=5)
    student = init_model(DEEP, seed=6)
    lmap = LayerMap(enc=(0, 1, 2, 3), dec=(0, 1, 2, 3))
    src, dec_in, labels = batch(np.random.default_rng(7), DEEP)
    st, tt = traces(teacher, student, src, dec_in)
    base = components(st, tt, labels, lmap, HIDDEN)
    st2, tt2 = traces(teacher, student, pad_col(src), pad_col(dec_in))
    assert (~st2.src_valid).sum() > (~st.src_valid).sum()
    assert [h.shape for h in tt2.enc_hidden + tt2.dec_hidden] == \
        [h.shape for h in tt.enc_hidden + tt.dec_hidden]
    assert components(st2, tt2, pad_col(labels), lmap, HIDDEN) == base


# ---------------------------------------------------------------------------
# gradients


def test_frozen_teacher_receives_no_gradient():
    teacher = init_model(DEEP, seed=5)
    for t in teacher.params.values():
        t.requires_grad = False
    student, lmap = init_student(teacher, DistillConfig(enc_layers=2, dec_layers=2))
    for t in student.params.values():
        t.data += 0.01  # move off the clone point so dist gradients are nonzero
    src, dec_in, labels = batch(np.random.default_rng(8), DEEP)
    with Tape():
        st, tt = traces(teacher, student, src, dec_in)
        bd = total_loss(st, tt, labels, lmap, PAD)
        backward(bd.total)
    for name, t in teacher.params.items():
        assert t.grad is None, name
    for name, t in student.params.items():
        assert t.grad is not None, name
        assert np.isfinite(t.grad).all(), name


def test_end_to_end_gradients_match_float64_reference():
    cfg = ModelConfig(vocab_size=10, d_model=8, n_heads=2, d_ff=16,
                      n_enc_layers=1, n_dec_layers=1, max_positions=8)
    teacher = init_model(cfg, seed=0)
    for t in teacher.params.values():
        t.requires_grad = False
    student = init_model(cfg, seed=1)
    lmap = LayerMap(enc=(0,), dec=(0,))

    src = np.array([[4, 5, 6, 0], [7, 8, 9, 5]], np.int64)
    dec_in = np.array([[1, 4, 5], [1, 6, 0]], np.int64)
    labels = np.array([[4, 5, 2], [6, 2, 0]], np.int64)

    with Tape():
        st, tt = traces(teacher, student, src, dec_in)
        bd = total_loss(st, tt, labels, lmap, PAD)
        backward(bd.total)

    p64 = {k: v.data.astype(np.float64) for k, v in student.params.items()}
    t64 = {k: v.data.astype(np.float64) for k, v in teacher.params.items()}
    ttrace = ref_forward(cfg, t64, src, dec_in, PAD)

    def loss64():
        strace = ref_forward(cfg, p64, src, dec_in, PAD)
        return ref_distill_total(strace, ttrace, labels, lmap.enc, lmap.dec, PAD)

    rng = np.random.default_rng(42)
    checked = 0
    for name, tensor in student.params.items():
        grad = tensor.grad
        idxs = rng.choice(tensor.data.size, size=min(3, tensor.data.size), replace=False)
        for idx in idxs:
            fd = fd_param_grad(loss64, p64[name], int(idx))
            floor = max(1e-6, 1e-2 * abs(fd))
            assert rel_err(grad.flat[idx], fd, floor) <= 1e-3, (name, idx, grad.flat[idx], fd)
            checked += 1
    assert checked >= 100
