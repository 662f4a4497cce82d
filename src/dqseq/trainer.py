"""Training loops: teacher pretraining and distillation-aware quantization.

The compression step quantizes the full-precision master, forwards the
quantized view, scores it against the frozen teacher, and applies the
update to the master parameters through the straight-through estimator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .distiller import DistillConfig, LayerMap, LossBreakdown, init_student, total_loss
from .metrics import accuracy, rouge_scores
from .model import ModelConfig, SeqModel, forward, greedy_decode_batch, init_model
from .quantizer import QuantConfig, quantize_model
from .tasks import BOS, EOS, PAD, Dataset, Splits, detokenize, seq2seq_batch
from .tensor import Tape, Tensor, backward, no_grad

MODES = ("teacher", "dq", "quant_only", "distill_only", "sf", "direct_quant")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainError(RuntimeError):
    """Inconsistent training request or aborted run."""


@dataclass(frozen=True)
class TrainConfig:
    mode: str
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 3e-4
    warmup_fraction: float = 0.05
    grad_clip: float = 1.0
    seed: int = 0
    eval_metric: str = "rouge_l"

    def __post_init__(self):
        if self.mode not in MODES:
            raise TrainError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.epochs < 1 or self.batch_size < 1 or self.learning_rate <= 0:
            raise TrainError("epochs, batch_size, learning_rate must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise TrainError(f"warmup_fraction must lie in [0, 1), got {self.warmup_fraction}")


@dataclass
class CheckpointMeta:
    """Everything needed to rebuild and re-evaluate a trained model."""

    model_config: ModelConfig
    quant_config: QuantConfig
    distill_config: DistillConfig | None
    train_config: TrainConfig
    step: int = 0
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0


@dataclass
class EvalReport:
    token_acc: float
    seq_acc: float
    rouge_1: float
    rouge_2: float
    rouge_l: float
    n_examples: int

    def to_dict(self) -> dict[str, float]:
        return {
            "token_acc": self.token_acc,
            "seq_acc": self.seq_acc,
            "rouge_1": self.rouge_1,
            "rouge_2": self.rouge_2,
            "rouge_l": self.rouge_l,
        }


def lr_schedule(step: int, total_steps: int, base_lr: float, warmup_fraction: float) -> float:
    """Linear warmup to base_lr, then linear decay to zero at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup = int(total_steps * warmup_fraction)
    if warmup > 0 and step < warmup:
        return base_lr * step / warmup
    remaining = total_steps - warmup
    if remaining <= 0:
        return base_lr
    return base_lr * (total_steps - step) / remaining


class Adam:
    """Adam with bias correction; state lives per parameter name."""

    def __init__(self, params: dict[str, Tensor]):
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.step_count = 0

    def update(self, params: dict[str, Tensor], lr: float, grad_scale: float = 1.0) -> None:
        """One update from the .grad fields; gradients are read, never written."""
        self.step_count += 1
        c1 = 1.0 - ADAM_BETA1**self.step_count
        c2 = 1.0 - ADAM_BETA2**self.step_count
        for name, t in params.items():
            if t.grad is None:
                continue
            g = t.grad * grad_scale
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * g * g
            step = lr * (self.m[name] / c1) / (np.sqrt(self.v[name] / c2) + ADAM_EPS)
            t.data -= step.astype(np.float32)


def global_grad_norm(params: dict[str, Tensor]) -> float:
    total = 0.0
    for t in params.values():
        if t.grad is not None:
            total += float((t.grad.astype(np.float64) ** 2).sum())
    return math.sqrt(total)


def clip_scale(norm: float, max_norm: float) -> float:
    if max_norm <= 0 or norm <= max_norm:
        return 1.0
    return max_norm / (norm + 1e-12)


def distillation_aware_step(
    master: SeqModel,
    teacher: SeqModel | None,
    batch: tuple[np.ndarray, np.ndarray, np.ndarray],
    qconfig: QuantConfig,
    layer_map: LayerMap | None,
    optimizer: Adam,
    lr: float,
    grad_clip: float = 1.0,
    task_only: bool = False,
    rng: np.random.Generator | None = None,
) -> LossBreakdown:
    """Quantize, forward, distill, backprop, update the master. One step.

    With task_only (teacher pretraining, shrink-and-finetune) the teacher
    forward is skipped and the distillation components are zero constants.
    The teacher forward runs off the tape, so no gradient reaches the teacher.
    """
    src, dec_in, labels = batch
    master.zero_grad()
    with Tape() as tape:
        view = quantize_model(master, qconfig)
        strace = forward(view, src, dec_in, PAD, a_bits=qconfig.a_bits, training=True, rng=rng)
        if teacher is None or task_only:
            bd = total_loss(strace, None, labels, None, PAD)
        else:
            with no_grad():
                ttrace = forward(teacher, src, dec_in, PAD)
            bd = total_loss(strace, ttrace, labels, layer_map, PAD)
    if not np.isfinite(bd.total.item()):
        where = tape.first_nonfinite()
        at = f"first non-finite tensor from op {where[1]!r} (node {where[0]})" if where else "origin unknown"
        raise TrainError(f"non-finite loss {bd.total.item()}: {at}")
    backward(bd.total)
    scale = clip_scale(global_grad_norm(master.params), grad_clip)
    optimizer.update(master.params, lr, scale)
    # Each output tensor refers back to its tape and the tape's nodes to the
    # outputs; emptying the tape breaks that cycle, so the step's activations
    # are freed now rather than at some later GC pass. Freeing them after the
    # update, with the optimizer's new state allocated above them, keeps
    # glibc from trimming the heap and faulting the pages in again next step.
    tape.nodes.clear()
    return bd


def evaluate(
    model: SeqModel,
    dataset: Dataset,
    qconfig: QuantConfig = QuantConfig(),
    batch_size: int = 32,
) -> EvalReport:
    """Greedy-decode every example and score against the references.

    Decoding runs through the quantized view with the configured activation
    bits, matching the deployed artifact; at 32 bits the view holds the
    model's own tensors.
    """
    if len(dataset) == 0:
        raise TrainError("cannot evaluate on an empty dataset")
    view = quantize_model(model, qconfig)
    preds: list[list[int]] = []
    refs: list[list[int]] = []
    cap = model.config.max_positions - 1
    for start in range(0, len(dataset), batch_size):
        chunk = dataset.pairs[start : start + batch_size]
        srcs = [s for s, _ in chunk]
        preds += greedy_decode_batch(view, srcs, BOS, EOS, cap, PAD, a_bits=qconfig.a_bits)
        refs += [t[:-1] if t and t[-1] == EOS else list(t) for _, t in chunk]
    token_acc, seq_acc = accuracy(preds, refs, PAD)
    r1 = r2 = rl = 0.0
    for p, r in zip(preds, refs):
        s = rouge_scores(detokenize(p).split(), detokenize(r).split())
        r1, r2, rl = r1 + s.r1, r2 + s.r2, rl + s.rl
    n = len(preds)
    return EvalReport(token_acc, seq_acc, r1 / n, r2 / n, rl / n, n)


def _resolve_mode(teacher, tconfig, model_config, qconfig, dconfig):
    """Per-mode wiring: student model, layer map, loss shape, quantization."""
    mode = tconfig.mode
    if mode == "teacher":
        if teacher is not None:
            raise TrainError("mode=teacher trains from scratch, drop the teacher argument")
        if model_config is None:
            raise TrainError("mode=teacher needs a model_config")
        student = init_model(model_config, tconfig.seed)
        return student, None, QuantConfig(), None, True
    if teacher is None:
        raise TrainError(f"mode={mode} needs a trained teacher")
    tshape = (teacher.config.n_enc_layers, teacher.config.n_dec_layers)
    if mode == "quant_only":
        if dconfig is not None and (dconfig.enc_layers, dconfig.dec_layers) != tshape:
            raise TrainError("mode=quant_only keeps the teacher depth; drop distill config")
        dconfig = DistillConfig(*tshape)
    if dconfig is None:
        raise TrainError(f"mode={mode} needs a distill config")
    if mode == "distill_only":
        if qconfig is not None and qconfig.any_quantized():
            raise TrainError("mode=distill_only is full precision; got a quantized config")
        qconfig = QuantConfig()
    if qconfig is None:
        raise TrainError(f"mode={mode} needs a quant config")
    student, lmap = init_student(teacher, dconfig)
    return student, lmap, qconfig, dconfig, mode == "sf"


def train(
    teacher: SeqModel | None,
    tconfig: TrainConfig,
    splits: Splits,
    model_config: ModelConfig | None = None,
    qconfig: QuantConfig | None = None,
    dconfig: DistillConfig | None = None,
    log_path: str | None = None,
) -> tuple[SeqModel, CheckpointMeta]:
    """Run one training job and return the best master model with its meta.

    The best epoch is picked by tconfig.eval_metric on the dev split, scored
    through the quantized view whenever quantization is configured. The
    returned model is the full-precision master snapshot of that epoch.
    """
    mode = tconfig.mode
    if mode == "direct_quant":
        if teacher is None:
            raise TrainError("mode=direct_quant needs a trained teacher")
        if qconfig is None:
            raise TrainError("mode=direct_quant needs a quant config")
        master = teacher.copy()
        meta = CheckpointMeta(master.config, qconfig, None, tconfig)
        report = evaluate(master, splits.dev, qconfig)
        meta.history.append({"epoch": 0, "step": 0, "lr": 0.0, **_zero_losses(), **_dev(report)})
        return master, meta

    master, lmap, qconfig, dconfig, task_only = _resolve_mode(
        teacher, tconfig, model_config, qconfig, dconfig
    )
    for ds in (splits.train, splits.dev):
        if ds.vocab_size != master.config.vocab_size:
            raise TrainError(
                f"dataset vocab {ds.vocab_size} != model vocab {master.config.vocab_size}"
            )

    rng = np.random.default_rng(tconfig.seed)
    optimizer = Adam(master.params)
    n = len(splits.train)
    steps_per_epoch = math.ceil(n / tconfig.batch_size)
    total_steps = tconfig.epochs * steps_per_epoch

    meta = CheckpointMeta(master.config, qconfig, dconfig, tconfig)
    best_metric = -math.inf
    best_params: dict[str, np.ndarray] = {}
    log = open(log_path, "w") if log_path else None
    try:
        step = 0
        for epoch in range(tconfig.epochs):
            order = rng.permutation(n)
            sums = _zero_losses()
            last_lr = 0.0
            for b in range(steps_per_epoch):
                rows = order[b * tconfig.batch_size : (b + 1) * tconfig.batch_size]
                batch = seq2seq_batch([splits.train.pairs[i] for i in rows])
                last_lr = lr_schedule(
                    step, total_steps, tconfig.learning_rate, tconfig.warmup_fraction
                )
                bd = distillation_aware_step(
                    master, teacher, batch, qconfig, lmap, optimizer, last_lr,
                    tconfig.grad_clip, task_only, rng,
                )
                step += 1
                for k, v in bd.to_floats().items():
                    sums[k] += v
            report = evaluate(master, splits.dev, qconfig)
            record = {
                "epoch": epoch,
                "step": step,
                "lr": last_lr,
                **{k: v / steps_per_epoch for k, v in sums.items()},
                **_dev(report),
            }
            meta.history.append(record)
            meta.step = step
            if log:
                log.write(json.dumps(record) + "\n")
                log.flush()
            metric = record[f"dev_{tconfig.eval_metric}"]
            if metric > best_metric:
                best_metric = metric
                meta.best_epoch = epoch
                best_params = {k: t.data.copy() for k, t in master.params.items()}
    finally:
        if log:
            log.close()

    for k, t in master.params.items():
        t.data = best_params[k]
    return master, meta


def _zero_losses() -> dict[str, float]:
    return dict.fromkeys((f.name for f in fields(LossBreakdown)), 0.0)


def _dev(report: EvalReport) -> dict[str, float]:
    return {f"dev_{k}": v for k, v in report.to_dict().items()}
