"""Trainer: schedule, optimizer, step semantics, mode guards, smoke runs."""

import dataclasses
import gc
import json
import platform
import statistics
import weakref

import numpy as np
import pytest

from dqseq import trainer
from dqseq.distiller import DistillConfig, LayerMap
from dqseq.model import ModelConfig, forward, init_model
from dqseq.quantizer import QuantConfig, quantize, quantize_model
from dqseq.tasks import PAD, TaskSpec, generate_task, seq2seq_batch
from dqseq.tensor import Tape, Tensor, add, backward, straight_through
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

from tape_ops import mul, sum_all

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


def test_train_config_refuses_an_unknown_eval_metric():
    # refused at construction, not by a KeyError after the first epoch's evaluation
    with pytest.raises(TrainError, match="'token_acc', 'seq_acc', 'rouge_1', 'rouge_2', "
                                         "'rouge_l'.*'bleu'"):
        TrainConfig("teacher", eval_metric="bleu")
    for name in trainer.EVAL_METRICS:
        assert TrainConfig("teacher", eval_metric=name).eval_metric == name


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


def test_adam_in_place_matches_the_out_of_place_formula():
    # m and v updated in place round as b1*m + (1-b1)*g and b2*v + (1-b2)*g*g do
    rng = np.random.default_rng(3)
    shapes = {"w": (4, 6), "b": (6,)}
    p = {k: Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
         for k, s in shapes.items()}
    ref = {k: t.data.copy() for k, t in p.items()}
    m = {k: np.zeros(s, np.float32) for k, s in shapes.items()}
    v = {k: np.zeros(s, np.float32) for k, s in shapes.items()}
    b1, b2, eps = trainer.ADAM_BETA1, trainer.ADAM_BETA2, trainer.ADAM_EPS
    opt = Adam(p)
    for step in range(1, 6):
        lr, scale = 1e-2 / step, 0.5 + 0.25 * step
        for t in p.values():
            t.grad = (rng.normal(size=t.shape) * 10.0 ** rng.integers(-6, 3)).astype(np.float32)
        for k, t in p.items():
            g = t.grad * scale
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * g * g
            c1, c2 = 1.0 - b1**step, 1.0 - b2**step
            ref[k] -= (lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + eps)).astype(np.float32)
        opt.update(p, lr, scale)
        for k, t in p.items():
            assert np.array_equal(opt.m[k], m[k]) and np.array_equal(opt.v[k], v[k])
            assert np.array_equal(t.data, ref[k])


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
    q = quantize(w.data, 8)
    with Tape():
        wq = straight_through(w, q.values())
        d = add(wq, -0.1)  # c = 0.1
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
    master.params["embed.tok"].data[:] = 2e30  # the logits' squared error overflows
    opt = Adam(master.params)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainError, match="non-finite") as info:
            distillation_aware_step(
                master, teacher, batch, qc, LayerMap((0,), (0,)), opt, lr=1e-3
            )
    assert str(info.value).endswith("op 'mse' (node 48)"), info.value


@pytest.mark.parametrize("qbits, node", [((32, 32, 32), 12), ((2, 2, 8), 32)])
def test_nonfinite_diagnostic_names_an_output_no_one_keeps(qbits, node):
    # the first non-finite output is the ffn's first linear, which nothing
    # reads once gelu has run; naming it must not cost the caller rng draws
    cfg = dataclasses.replace(SMALL, dropout_rate=0.1)
    teacher = init_model(cfg, seed=0)
    for t in teacher.params.values():
        t.requires_grad = False
    master = teacher.copy()
    batch = seq2seq_batch(small_splits().train.pairs[:8])
    master.params["enc.0.ffn.b1"].data[:] = np.inf
    rng, fresh = np.random.default_rng(7), np.random.default_rng(7)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainError, match="non-finite") as info:
            distillation_aware_step(master, teacher, batch, QuantConfig(*qbits),
                                    LayerMap((0,), (0,)), Adam(master.params), 1e-3, rng=rng)
        forward(quantize_model(master, QuantConfig(*qbits)), *batch[:2], PAD, training=True,
                rng=fresh, a_bits=qbits[2])
    assert str(info.value).endswith(f"op 'linear' (node {node})"), info.value
    assert rng.integers(1 << 62) == fresh.integers(1 << 62)


def test_step_frees_its_activations_without_gc(monkeypatch):
    # nodes hold no outputs and backward consumes the tape, so nothing waits for the cyclic GC
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


def test_dq_step_tape_nodes_at_ladder_shape(monkeypatch, ladder_dq_inputs):
    # one node per linear and two per attention core keep each block's
    # intermediates off the tape; the split-head chains recorded 263 nodes
    teacher, student, lmap, batch = ladder_dq_inputs
    sizes = []

    class CountingTape(Tape):
        def __exit__(self, *exc):
            sizes.append(len(self.nodes))
            return super().__exit__(*exc)

    monkeypatch.setattr(trainer, "Tape", CountingTape)
    distillation_aware_step(student, teacher, batch, QuantConfig(2, 2, 8), lmap,
                            Adam(student.params), 1e-3)
    assert len(sizes) == 1 and sizes[0] <= 160, sizes


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc malloc's thresholds")
def test_warm_dq_steps_keep_their_heap_mapped(ladder_dq_inputs):
    # backward frees the step's activations; with the heap top trimmed after
    # every step, the next forward faulted about 1,400 pages back in
    import resource

    teacher, student, lmap, batch = ladder_dq_inputs
    opt = Adam(student.params)

    def step():
        distillation_aware_step(student, teacher, batch, QuantConfig(2, 2, 8), lmap, opt, 1e-3)

    for _ in range(3):
        step()
    faults = []
    for _ in range(10):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        step()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert statistics.median(faults) <= 50, faults


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


@pytest.mark.parametrize("mode", ["direct_quant", "dq"])
def test_log_lines_are_the_history(tmp_path, mode):
    log = tmp_path / f"{mode}.log"
    _, meta = train(init_model(SMALL, seed=0), TrainConfig(mode=mode, epochs=1), small_splits(),
                    qconfig=QuantConfig(2, 2, 8), dconfig=DistillConfig(1, 1), log_path=str(log))
    assert [json.loads(line) for line in log.read_text().splitlines()] == meta.history


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
