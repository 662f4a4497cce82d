#!/usr/bin/env python3
"""Train the copy-task compression ladder and write a report table.

Produces one checkpoint, one manifest, and one CSV row per configuration:
the full-precision teacher, 8-8-8 and 2-2-8 students at full depth, a
2-2-8 student with a single decoder layer, and the untrained direct
quantization baseline. Roughly five minutes on one CPU with the defaults.
Run from a dqseq checkout's root; the package is imported from its ``src/``.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from dqseq.distiller import DistillConfig  # noqa: E402
from dqseq.harness import RunManifest, run_experiment, write_table  # noqa: E402
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
    teacher_ckpt = os.path.join(args.out_dir, "teacher.ckpt")

    def tc(mode, epochs):
        return TrainConfig(mode, epochs=epochs, learning_rate=args.lr, seed=args.seed)

    rungs = [
        ("teacher", RunManifest(
            task=task, train_config=tc("teacher", args.teacher_epochs),
            model_config=teacher_arch, out_path=teacher_ckpt)),
        ("dq-8-8-8", RunManifest(
            task=task, train_config=tc("dq", args.student_epochs),
            quant_config=QuantConfig(8, 8, 8), distill_config=DistillConfig(2, 2),
            teacher_path=teacher_ckpt)),
        ("dq-2-2-8", RunManifest(
            task=task, train_config=tc("dq", args.student_epochs),
            quant_config=QuantConfig(2, 2, 8), distill_config=DistillConfig(2, 2),
            teacher_path=teacher_ckpt)),
        ("dq-2-2-8-half-depth", RunManifest(
            task=task, train_config=tc("dq", args.student_epochs),
            quant_config=QuantConfig(2, 2, 8), distill_config=DistillConfig(2, 1),
            teacher_path=teacher_ckpt)),
        ("direct-2-2-8", RunManifest(
            task=task, train_config=TrainConfig("direct_quant", seed=args.seed),
            quant_config=QuantConfig(2, 2, 8), teacher_path=teacher_ckpt)),
    ]

    done = []
    for name, manifest in rungs:
        if manifest.out_path is None:
            manifest.out_path = os.path.join(args.out_dir, f"{name}.ckpt")
        row = run_experiment(manifest, log_path=os.path.join(args.out_dir, f"{name}.log"))
        manifest.save(os.path.join(args.out_dir, f"{name}.json"))
        done.append(manifest)
        print(f"{row['config']:>14} {row['mode']:>13}  ratio {row['ratio']:6.2f}x  "
              f"test token acc {row['token_acc']:.4f}  rouge-L {row['rouge_l']:.4f}  "
              f"({manifest.wall_clock:.0f} s)")

    table = os.path.join(args.out_dir, "ladder.csv")
    write_table(done, table)
    print(f"table: {table}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
