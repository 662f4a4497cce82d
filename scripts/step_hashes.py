#!/usr/bin/env python3
"""Fixed-step hashes: train a few steps, print sha256s of what they produced.

    python3 scripts/step_hashes.py

At the acceptance ladder's shape, with dropout 0 and 0.1, it trains a
teacher for TEACHER_STEPS task-only steps, then a same-depth student for
DQ_STEPS distillation-aware steps at 2-2-8 and at 8-8-8. For each run it
hashes the parameters, every step's loss components, the greedy decodes
of the dev sources through the 8-bit-activation view, and the bytes that
save_checkpoint writes (through a temporary file) for the run's
quantize_params set: the teacher's float32 master, each student's packed
codes and scales. It also hashes the float32 weights that load_model builds
back from that file ("load"). Two checkouts whose arithmetic, quantizer and
codec agree bit for bit print the same hashes; run it in each, from the
checkout's root (``scripts/probe.py`` finds the package in its ``src/``),
and diff the output. The last line of stdout is one JSON object.
"""

import hashlib
import json
import os
import sys
import tempfile

import probe  # noqa: F401  one BLAS thread, and the checkout's src/ on sys.path

import numpy as np

from dqseq import trainer
from dqseq.checkpoint import load_model, save_checkpoint
from dqseq.distiller import DistillConfig, init_student
from dqseq.model import ModelConfig, greedy_decode_batch, init_model, param_specs
from dqseq.quantizer import QuantConfig, quantize_model, quantize_params
from dqseq.tasks import BOS, EOS, PAD, TaskSpec, generate_task, seq2seq_batch

SEED = 0
TEACHER_STEPS = 30
DQ_STEPS = 15
LOSS_FIELDS = ("total", "task", "logits", "enc_attn", "dec_attn", "cross_attn",
               "enc_hidden", "dec_hidden")


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _params_sha(model) -> str:
    return _sha(name.encode() + model.params[name].data.tobytes() for name in sorted(model.params))


def _run(model, teacher, lmap, qconfig, steps, lr, batches, rng) -> str:
    """Train `steps` steps in place; the sha256 of every step's loss components."""
    optimizer = trainer.Adam(model.params)
    losses = []
    for step in range(steps):
        src, dec_in, labels = batches[step % len(batches)]
        bd = trainer.distillation_aware_step(
            model, teacher, (src, dec_in, labels), qconfig, lmap, optimizer,
            lr * (steps - step) / steps, task_only=teacher is None, rng=rng)
        losses.extend(getattr(bd, f).data.tobytes() for f in LOSS_FIELDS)
    return _sha(losses)


def _decode_sha(model, qconfig, sources) -> str:
    view = quantize_model(model, qconfig)
    outs = greedy_decode_batch(view, sources, BOS, EOS, model.config.max_positions - 1,
                               PAD, a_bits=8)
    return _sha(np.asarray(o + [-1], np.int64).tobytes() for o in outs)


def _checkpoint_shas(model, qconfig, mode) -> tuple[str, str]:
    """The sha256s of the file save_checkpoint writes for model's quantize_params set
    and of the weights load_model builds from that file."""
    categories = {name: cat for name, _, cat in param_specs(model.config)}
    stored = quantize_params(model.params, categories, qconfig)
    meta = trainer.CheckpointMeta(model.config, qconfig, None, trainer.TrainConfig(mode))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.dqs")
        save_checkpoint(path, stored, meta)
        with open(path, "rb") as fh:
            saved = _sha([fh.read()])
        return saved, _params_sha(load_model(path)[0])


def main() -> int:
    splits = generate_task(TaskSpec("copy", vocab_size=16, max_len=12, train_size=256,
                                    dev_size=32, test_size=8, seed=SEED))
    pairs = splits.train.pairs
    batches = [seq2seq_batch(pairs[i : i + 32]) for i in range(0, len(pairs), 32)]
    sources = [s for s, _ in splits.dev.pairs]
    result = {}
    for rate in (0.0, 0.1):
        cfg = ModelConfig(16, 64, 4, 256, 2, 2, 16, dropout_rate=rate)
        rng = np.random.default_rng(SEED)
        teacher = init_model(cfg, SEED)
        loss = _run(teacher, None, None, QuantConfig(), TEACHER_STEPS, 3e-3, batches, rng)
        for t in teacher.params.values():
            t.requires_grad = False
        saved, loaded = _checkpoint_shas(teacher, QuantConfig(), "teacher")
        result[f"teacher/dropout={rate}"] = {
            "params": _params_sha(teacher), "losses": loss,
            "decode": _decode_sha(teacher, QuantConfig(32, 32, 8), sources),
            "checkpoint": saved, "load": loaded,
        }
        for bits in ((2, 2, 8), (8, 8, 8)):
            qconfig = QuantConfig(*bits)
            student, lmap = init_student(teacher, DistillConfig(2, 2))
            loss = _run(student, teacher, lmap, qconfig, DQ_STEPS, 1e-3, batches, rng)
            saved, loaded = _checkpoint_shas(student, qconfig, "dq")
            result[f"dq {qconfig.label}/dropout={rate}"] = {
                "params": _params_sha(student), "losses": loss,
                "decode": _decode_sha(student, qconfig, sources),
                "checkpoint": saved, "load": loaded,
            }
    for name, row in result.items():
        print(f"{name:>24}  params {row['params'][:16]}  losses {row['losses'][:16]}  "
              f"decode {row['decode'][:16]}  checkpoint {row['checkpoint'][:16]}  "
              f"load {row['load'][:16]}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
