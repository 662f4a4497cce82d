"""Trainer: schedule, optimizer, step semantics, mode guards, smoke runs."""

import gc
import json
import weakref

import numpy as np
import pytest

from dqseq import trainer
from dqseq.distiller import DistillConfig, LayerMap
from dqseq.model import ModelConfig, forward, init_model
from dqseq.quantizer import QuantConfig, linear_quantize
from dqseq.tasks import TaskSpec, generate_task, seq2seq_batch
from dqseq.tensor import Tape, Tensor, backward, mul, sub, sum_all, straight_through
from dqseq.trainer import (
    Adam,
    CheckpointMeta,
    TrainConfig,
    TrainError,
    clip_scale,
    distillation_aware_step,
    evaluate,
    global_grad_norm,
    lr_schedule,
    train,
)

SMALL = ModelConfig(vocab_size=16, d_model=16, n_heads=2, d_ff=32,
                    n_enc_layers=1, n_dec_layers=1, max_positions=16)


def small_splits(kind="copy", seed=0):
    return generate_task(TaskSpec(kind=kind, vocab_size=16, min_len=1, max_len=6,
                                  train_size=48, dev_size=12, test_size=12, seed=seed))


# ---------------------------------------------------------------------------
# config and schedule


def test_train_config_validation():
    with pytest.raises(TrainError, match="mode"):
        TrainConfig(mode="finetune")
    with pytest.raises(TrainError, match="warmup"):
        TrainConfig(mode="teacher", warmup_fraction=1.0)
    with pytest.raises(TrainError, match="positive"):
        TrainConfig(mode="teacher", epochs=0)


def test_lr_schedule_endpoints_and_peak():
    base = 3e-4
    assert lr_schedule(0, 100, base, 0.05) == 0.0
    assert lr_schedule(5, 100, base, 0.05) == base  # warmup boundary
    assert lr_schedule(100, 100, base, 0.05) == 0.0
    assert lr_schedule(2, 100, base, 0.05) == pytest.approx(base * 2 / 5)
    mid = (5 + 100) // 2
    assert lr_schedule(mid, 100, base, 0.05) == pytest.approx(
        base * (100 - mid) / 95
    )


def test_lr_schedule_no_warmup_starts_at_peak():
    assert lr_schedule(0, 10, 1.0, 0.0) == 1.0
    assert lr_schedule(10, 10, 1.0, 0.0) == 0.0


def test_lr_schedule_validates_range():
    with pytest.raises(ValueError):
        lr_schedule(-1, 10, 1.0, 0.1)
    with pytest.raises(ValueError):
        lr_schedule(11, 10, 1.0, 0.1)


# ---------------------------------------------------------------------------
# optimizer


def test_adam_first_step_is_signed_lr():
    # with zero state, mhat = g and vhat = g^2, so the step is lr * sign(g)
    p = {"w": Tensor(np.array([1.0, -2.0, 3.0], np.float32), requires_grad=True)}
    p["w"].grad = np.array([0.5, -4.0, 0.0], np.float32)
    opt = Adam(p)
    opt.update(p, lr=0.1)
    assert opt.step_count == 1
    np.testing.assert_allclose(p["w"].data, [0.9, -1.9, 3.0], rtol=1e-5)


def test_adam_state_mirrors_param_shapes():
    p = {"a": Tensor(np.zeros((2, 3), np.float32)), "b": Tensor(np.zeros(5, np.float32))}
    opt = Adam(p)
    assert opt.m["a"].shape == (2, 3) and opt.v["b"].shape == (5,)


def test_adam_does_not_mutate_gradients():
    p = {"w": Tensor(np.ones(4, np.float32), requires_grad=True)}
    g = np.full(4, 100.0, np.float32)
    p["w"].grad = g
    opt = Adam(p)
    opt.update(p, lr=0.1, grad_scale=0.001)
    assert p["w"].grad is g
    np.testing.assert_array_equal(g, np.full(4, 100.0, np.float32))


def test_grad_norm_and_clip_scale():
    p = {"a": Tensor(np.zeros(2, np.float32)), "b": Tensor(np.zeros(1, np.float32))}
    p["a"].grad = np.array([3.0, 0.0], np.float32)
    p["b"].grad = np.array([4.0], np.float32)
    assert global_grad_norm(p) == pytest.approx(5.0)
    assert clip_scale(5.0, 1.0) == pytest.approx(0.2)
    assert clip_scale(0.5, 1.0) == 1.0


# ---------------------------------------------------------------------------
# straight-through estimator probe


def test_ste_scalar_probe_gradient_is_exact():
    # loss = (alpha*b - c)^2 must deliver d(loss)/dw = 2(alpha*b - c) through
    # the rounding, as if quantization were the identity
    w = Tensor(np.array([0.4], np.float32), requires_grad=True)
    c = Tensor(np.array([0.1], np.float32))
    q = linear_quantize(w.data, 8)
    with Tape():
        wq = straight_through(w, q.values())
        d = sub(wq, c)
        loss = sum_all(mul(d, d))
        backward(loss)
    expected = np.float32(2.0) * (q.values()[0] - np.float32(0.1))
    assert w.grad[0] == expected


# ---------------------------------------------------------------------------
# one training step


def step_setup(qbits=(32, 32, 32)):
    teacher = init_model(SMALL, seed=0)
    for t in teacher.params.values():
        t.requires_grad = False
    master = teacher.copy()
    splits = small_splits()
    batch = seq2seq_batch(splits.train.pairs[:8])
    return teacher, master, batch, QuantConfig(*qbits)


def test_step_at_clone_has_zero_distillation_loss():
    teacher, master, batch, qc = step_setup()
    opt = Adam(master.params)
    bd = distillation_aware_step(
        master, teacher, batch, qc, LayerMap((0,), (0,)), opt, lr=1e-3
    )
    assert bd.dist.item() == 0.0
    assert bd.total.item() == bd.task.item() > 0.0


def test_step_updates_master_not_teacher():
    teacher, master, batch, qc = step_setup(qbits=(8, 8, 8))
    before = {k: v.data.copy() for k, v in teacher.params.items()}
    opt = Adam(master.params)
    distillation_aware_step(master, teacher, batch, qc, LayerMap((0,), (0,)), opt, lr=1e-3)
    for k, v in teacher.params.items():
        np.testing.assert_array_equal(v.data, before[k])
    changed = sum(
        not np.array_equal(master.params[k].data, before[k]) for k in master.params
    )
    assert changed == len(master.params)  # every master tensor moved


def test_step_aborts_on_nonfinite_loss():
    teacher, master, batch, qc = step_setup()
    master.params["embed.tok"].data[:] = 2e30  # overflow in the first matmul
    opt = Adam(master.params)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainError, match="non-finite"):
            distillation_aware_step(
                master, teacher, batch, qc, LayerMap((0,), (0,)), opt, lr=1e-3
            )


def test_step_frees_its_activations_without_gc(monkeypatch):
    # the tape is emptied after backward, so nothing waits for the cyclic GC
    teacher, master, batch, qc = step_setup(qbits=(2, 2, 8))
    logits = []
    real_forward = trainer.forward

    def recording_forward(*args, **kwargs):
        trace = real_forward(*args, **kwargs)
        logits.append(weakref.ref(trace.logits))
        return trace

    monkeypatch.setattr(trainer, "forward", recording_forward)
    opt = Adam(master.params)
    gc.disable()
    try:
        bd = distillation_aware_step(master, teacher, batch, qc, LayerMap((0,), (0,)), opt, 1e-3)
        del bd
        assert len(logits) == 2  # student and teacher
        assert all(ref() is None for ref in logits)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_empty_dataset_errors():
    model = init_model(SMALL, seed=0)
    ds = small_splits().dev
    ds.pairs = []
    with pytest.raises(TrainError, match="empty"):
        evaluate(model, ds)


def test_evaluate_all32_view_matches_plain():
    model = init_model(SMALL, seed=0)
    dev = small_splits().dev
    plain = evaluate(model, dev)
    viewed = evaluate(model, dev, qconfig=QuantConfig(32, 32, 32))
    assert plain == viewed
    assert 0.0 <= plain.token_acc <= 1.0
    assert plain.n_examples == len(dev)


def test_evaluate_is_independent_of_batch_size(briefly_trained):
    teacher, dev = briefly_trained
    q = QuantConfig(2, 2, 8)
    assert evaluate(teacher, dev, q, batch_size=1) == evaluate(teacher, dev, q, batch_size=32)


# ---------------------------------------------------------------------------
# train() mode guards


def test_mode_guards():
    splits = small_splits()
    teacher = init_model(SMALL, seed=0)
    t = lambda **kw: TrainConfig(epochs=1, **kw)
    with pytest.raises(TrainError, match="drop the teacher"):
        train(teacher, t(mode="teacher"), splits, model_config=SMALL)
    with pytest.raises(TrainError, match="model_config"):
        train(None, t(mode="teacher"), splits)
    with pytest.raises(TrainError, match="needs a trained teacher"):
        train(None, t(mode="dq"), splits, qconfig=QuantConfig(8, 8, 8),
              dconfig=DistillConfig(1, 1))
    with pytest.raises(TrainError, match="full precision"):
        train(teacher, t(mode="distill_only"), splits,
              qconfig=QuantConfig(8, 8, 8), dconfig=DistillConfig(1, 1))
    with pytest.raises(TrainError, match="keeps the teacher depth"):
        train(teacher, t(mode="quant_only"), splits,
              qconfig=QuantConfig(8, 8, 8), dconfig=DistillConfig(1, 2))
    with pytest.raises(TrainError, match="quant config"):
        train(teacher, t(mode="dq"), splits, dconfig=DistillConfig(1, 1))
    with pytest.raises(TrainError, match="distill config"):
        train(teacher, t(mode="dq"), splits, qconfig=QuantConfig(8, 8, 8))


def test_vocab_mismatch_rejected():
    splits = generate_task(TaskSpec(kind="copy", vocab_size=20, min_len=1, max_len=6,
                                    train_size=24, dev_size=8, test_size=8))
    with pytest.raises(TrainError, match="vocab"):
        train(None, TrainConfig(mode="teacher", epochs=1), splits, model_config=SMALL)


def test_direct_quant_is_zero_step_copy_of_teacher():
    splits = small_splits()
    teacher = init_model(SMALL, seed=0)
    model, meta = train(teacher, TrainConfig(mode="direct_quant"), splits,
                        qconfig=QuantConfig(2, 2, 8))
    assert meta.step == 0
    assert len(meta.history) == 1 and meta.best_epoch == 0
    for k in teacher.params:
        np.testing.assert_array_equal(model.params[k].data, teacher.params[k].data)
        assert model.params[k].data is not teacher.params[k].data


# ---------------------------------------------------------------------------
# train() smoke runs


def test_teacher_training_runs_and_improves(tmp_path):
    splits = small_splits()
    log = tmp_path / "log.jsonl"
    cfg = TrainConfig(mode="teacher", epochs=4, learning_rate=1e-3, seed=0)
    model, meta = train(None, cfg, splits, model_config=SMALL, log_path=str(log))
    assert len(meta.history) == 4
    assert meta.step == 4 * 2  # ceil(48/32) = 2 steps per epoch
    assert meta.history[-1]["total"] < meta.history[0]["total"]
    assert meta.best_epoch == int(
        np.argmax([h["dev_rouge_l"] for h in meta.history])
    )
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(lines) == 4
    assert {"step", "lr", "total", "task", "dist", "dev_rouge_l"} <= set(lines[0])
    assert all(np.isfinite(v.data).all() for v in model.params.values())


def test_training_is_deterministic():
    splits = small_splits()
    cfg = TrainConfig(mode="teacher", epochs=2, seed=3)
    _, m1 = train(None, cfg, splits, model_config=SMALL)
    _, m2 = train(None, cfg, splits, model_config=SMALL)
    assert m1.history == m2.history


def test_dq_training_keeps_teacher_frozen():
    splits = small_splits()
    teacher = init_model(SMALL, seed=0)
    before = {k: v.data.copy() for k, v in teacher.params.items()}
    _, meta = train(teacher, TrainConfig(mode="dq", epochs=2, seed=1), splits,
                    qconfig=QuantConfig(8, 8, 8), dconfig=DistillConfig(1, 1))
    for k, v in teacher.params.items():
        np.testing.assert_array_equal(v.data, before[k])
    assert meta.history[0]["dist"] > 0.0


def test_train_leaves_teacher_flags_untouched():
    splits = small_splits()
    teacher = init_model(SMALL, seed=0)
    train(teacher, TrainConfig(mode="dq", epochs=1, seed=1), splits,
          qconfig=QuantConfig(8, 8, 8), dconfig=DistillConfig(1, 1))
    for name, t in teacher.params.items():
        assert t.requires_grad, name
        assert t.grad is None, name


def test_sf_mode_records_zero_distillation():
    splits = small_splits()
    teacher = init_model(SMALL, seed=0)
    _, meta = train(teacher, TrainConfig(mode="sf", epochs=2, seed=1), splits,
                    qconfig=QuantConfig(8, 8, 8), dconfig=DistillConfig(1, 1))
    for h in meta.history:
        assert h["dist"] == 0.0
        assert h["total"] == h["task"]


def test_quant_only_defaults_to_teacher_depth():
    splits = small_splits()
    teacher = init_model(SMALL, seed=0)
    model, meta = train(teacher, TrainConfig(mode="quant_only", epochs=1, seed=1),
                        splits, qconfig=QuantConfig(8, 8, 8))
    assert model.config.n_enc_layers == teacher.config.n_enc_layers
    assert isinstance(meta, CheckpointMeta)
    assert meta.distill_config == DistillConfig(1, 1)
