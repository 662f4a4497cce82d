#!/usr/bin/env python3
"""Train the copy-task compression ladder and write a report table.

Produces one checkpoint, one training log, one manifest, and one CSV row per
configuration: the full-precision teacher, 8-8-8 and 2-2-8 students at full
depth, a 2-2-8 student with a single decoder layer, and the untrained direct
quantization baseline. harness.run_experiments runs the teacher first and
then the four students side by side, one process per CPU.
Run from a dqseq checkout's root; the package is imported from its ``src/``.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from dqseq.distiller import DistillConfig  # noqa: E402
from dqseq.harness import RunManifest, run_experiments, write_table  # noqa: E402
from dqseq.model import ModelConfig  # noqa: E402
from dqseq.quantizer import QuantConfig  # noqa: E402
from dqseq.tasks import TaskSpec  # noqa: E402
from dqseq.trainer import TrainConfig  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="runs/ladder")
    ap.add_argument("--task", default="copy", choices=("copy", "reverse", "sort", "add"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--teacher-epochs", type=int, default=60)
    ap.add_argument("--student-epochs", type=int, default=40)
    ap.add_argument("--lr", type=float, default=1e-3)
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    task = TaskSpec(args.task, vocab_size=16, min_len=1, max_len=12,
                    train_size=512, dev_size=64, test_size=64, seed=args.seed)
    teacher_arch = ModelConfig(vocab_size=16, d_model=64, n_heads=4, d_ff=256,
                               n_enc_layers=2, n_dec_layers=2, max_positions=16)
    path = lambda name, ext: os.path.join(args.out_dir, f"{name}.{ext}")
    teacher_ckpt = path("teacher", "ckpt")

    def tc(mode, epochs):
        return TrainConfig(mode, epochs=epochs, learning_rate=args.lr, seed=args.seed)

    def student(name, train_config, qconfig, dconfig=None):
        return name, RunManifest(task=task, train_config=train_config, quant_config=qconfig,
                                 distill_config=dconfig, teacher_path=teacher_ckpt,
                                 out_path=path(name, "ckpt"))

    rungs = dict([
        ("teacher", RunManifest(
            task=task, train_config=tc("teacher", args.teacher_epochs),
            model_config=teacher_arch, out_path=teacher_ckpt)),
        student("dq-8-8-8", tc("dq", args.student_epochs), QuantConfig(8, 8, 8), DistillConfig(2, 2)),
        student("dq-2-2-8", tc("dq", args.student_epochs), QuantConfig(2, 2, 8), DistillConfig(2, 2)),
        student("dq-2-2-8-half-depth", tc("dq", args.student_epochs), QuantConfig(2, 2, 8),
                DistillConfig(2, 1)),
        student("direct-2-2-8", TrainConfig("direct_quant", seed=args.seed), QuantConfig(2, 2, 8)),
    ])

    rows = run_experiments(list(rungs.values()), [path(name, "log") for name in rungs])
    for (name, manifest), row in zip(rungs.items(), rows):
        manifest.save(path(name, "json"))
        print(f"{row['config']:>14} {row['mode']:>13}  ratio {row['ratio']:6.2f}x  "
              f"test token acc {row['token_acc']:.4f}  rouge-L {row['rouge_l']:.4f}  "
              f"({manifest.wall_clock:.0f} s)")

    table = os.path.join(args.out_dir, "ladder.csv")
    write_table(list(rungs.values()), table)
    print(f"table: {table}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
