"""Teacher-to-student distillation: layer selection and the loss stack.

The student copies a depth-wise subset of teacher layers and then matches
the teacher's logits, attention score maps, and hidden states at the
selected layers. Every component is a sum over student layers of per-layer
mean squared error. The logits and hidden states hold the real positions'
rows alone; the attention maps keep the padded layout, so their invalid
entries (padded or causally masked keys, padded queries) are masked out of
the means.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .model import ForwardTrace, SeqModel, param_specs
from .tensor import Tensor, add, cross_entropy, mse


@dataclass(frozen=True)
class DistillConfig:
    """Student depth. Width always matches the teacher."""

    enc_layers: int
    dec_layers: int

    def __post_init__(self):
        if self.enc_layers < 1 or self.dec_layers < 1:
            raise ValueError("student needs at least one layer per stack")


@dataclass(frozen=True)
class LayerMap:
    """Student-layer index -> teacher-layer index, per stack."""

    enc: tuple[int, ...]
    dec: tuple[int, ...]


def select_layers(teacher_layers: int, student_layers: int) -> list[int]:
    """Evenly spaced teacher layers for the student to inherit and match.

    A single-layer student takes the teacher's last layer; otherwise
    student layer i maps to round(i * (teacher-1) / (student-1)), rounding
    half away from zero, which keeps the first and last layers anchored.
    """
    if not 1 <= student_layers <= teacher_layers:
        raise ValueError(
            f"student layer count {student_layers} must lie in [1, {teacher_layers}]"
        )
    if student_layers == 1:
        return [teacher_layers - 1]
    span = (teacher_layers - 1) / (student_layers - 1)
    return [int(np.floor(i * span + 0.5)) for i in range(student_layers)]


def init_student(teacher: SeqModel, config: DistillConfig) -> tuple[SeqModel, LayerMap]:
    """Build a student whose layers are deep copies of mapped teacher layers.

    Embeddings and final layer norms copy over directly. The returned
    student shares no storage with the teacher.
    """
    tcfg = teacher.config
    if config.enc_layers > tcfg.n_enc_layers or config.dec_layers > tcfg.n_dec_layers:
        raise ValueError(
            f"student depth {config.enc_layers}+{config.dec_layers} exceeds teacher "
            f"{tcfg.n_enc_layers}+{tcfg.n_dec_layers}"
        )
    lmap = LayerMap(
        enc=tuple(select_layers(tcfg.n_enc_layers, config.enc_layers)),
        dec=tuple(select_layers(tcfg.n_dec_layers, config.dec_layers)),
    )
    scfg = replace(tcfg, n_enc_layers=config.enc_layers, n_dec_layers=config.dec_layers)
    params: dict[str, Tensor] = {}
    for name, _, _ in param_specs(scfg):
        src_name = name
        for stack, mapping in (("enc.", lmap.enc), ("dec.", lmap.dec)):
            if name.startswith(stack) and name[len(stack)].isdigit():
                idx, rest = name[len(stack):].split(".", 1)
                src_name = f"{stack}{mapping[int(idx)]}.{rest}"
                break
        params[name] = Tensor(
            teacher.params[src_name].data.copy(), requires_grad=True, name=name
        )
    return SeqModel(scfg, params), lmap


@dataclass
class LossBreakdown:
    """Scalar loss tensors for one training step.

    dist is logits + (attention sum) + (hidden sum); total is task + dist,
    built with exactly that association so the identities hold bit-for-bit.
    """

    task: Tensor
    logits: Tensor
    enc_attn: Tensor
    dec_attn: Tensor
    cross_attn: Tensor
    enc_hidden: Tensor
    dec_hidden: Tensor
    dist: Tensor
    total: Tensor

    def to_floats(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name).item() for f in fields(self)}


def _layer_sum(terms: list[Tensor]) -> Tensor:
    acc = terms[0]
    for t in terms[1:]:
        acc = add(acc, t)
    return acc


def _layer_mse(students: list[Tensor], teachers: list[Tensor], mask=None) -> Tensor:
    """Sum over layers of the MSE, at the elements the mask, if given, marks valid."""
    return _layer_sum([mse(s, t, None if mask is None else np.broadcast_to(mask, s.shape))
                       for s, t in zip(students, teachers)])


def task_loss(student: ForwardTrace, labels: np.ndarray, pad_id: int) -> Tensor:
    """Cross-entropy of the gold labels at the real decoder positions (the
    packed logits' rows), ignoring pad_id labels."""
    return cross_entropy(student.logits, labels[student.tgt_valid], ignore_id=pad_id)


def total_loss(
    student: ForwardTrace,
    teacher: ForwardTrace | None,
    labels: np.ndarray,
    layer_map: LayerMap | None,
    pad_id: int,
) -> LossBreakdown:
    """Task loss plus, when a teacher is given, the full distillation stack.

    The logits and every mapped student layer's attention scores and hidden
    states are matched to the teacher's by MSE, the attention scores masked
    to their valid entries. Without a teacher
    every distillation component is a zero constant and total reduces to
    the task loss.
    """
    task = task_loss(student, labels, pad_id)
    if teacher is None:
        zero = Tensor(np.float32(0.0))
        return LossBreakdown(task, *[zero] * 7, add(task, zero))
    if layer_map is None:
        raise ValueError("distillation against a teacher needs a layer map")
    sv, tv = student.src_valid, student.tgt_valid
    causal = np.tril(np.ones((tv.shape[1], tv.shape[1]), dtype=bool))
    masks = {  # attention map -> validity mask, broadcastable to its [B, H, Lq, Lk] scores
        "enc_attn": sv[:, None, :, None] & sv[:, None, None, :],
        "dec_attn": tv[:, None, :, None] & tv[:, None, None, :] & causal,
        "cross_attn": tv[:, None, :, None] & sv[:, None, None, :],
    }
    lg = _layer_mse([student.logits], [teacher.logits])
    ea, da, ca, eh, dh = (
        _layer_mse(getattr(student, name), [getattr(teacher, name)[m] for m in stack],
                   masks.get(name))
        for name, stack in (
            ("enc_attn", layer_map.enc), ("dec_attn", layer_map.dec),
            ("cross_attn", layer_map.dec), ("enc_hidden", layer_map.enc),
            ("dec_hidden", layer_map.dec),
        )
    )
    dist = add(add(lg, _layer_sum([ea, da, ca])), _layer_sum([eh, dh]))
    total = add(task, dist)
    return LossBreakdown(task, lg, ea, da, ca, eh, dh, dist, total)
