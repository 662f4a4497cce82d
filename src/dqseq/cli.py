"""Command line: data generation, training, compression, evaluation, tables.

Every subcommand maps onto one harness call; nothing here adds behavior
beyond flag parsing and printing. Exit codes: 0 ok, 1 runtime failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .checkpoint import CheckpointError, load_checkpoint, load_model
from .distiller import DistillConfig
from .harness import HarnessError, RunManifest, run_experiment, write_table
from .metrics import bart_base_param_specs, footprint
from .model import ModelConfig
from .quantizer import PolicyError, QuantConfig
from .tasks import KINDS, TaskError, TaskSpec, generate_task
from .trainer import MODES, TrainConfig, TrainError, evaluate


def _add_task_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", choices=KINDS, default="copy")
    p.add_argument("--vocab-size", type=int, default=16)
    p.add_argument("--min-len", type=int, default=1)
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--train-size", type=int, default=512)
    p.add_argument("--dev-size", type=int, default=64)
    p.add_argument("--test-size", type=int, default=64)


def _add_bits_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--w-bits", type=int, default=32)
    p.add_argument("--e-bits", type=int, default=32)
    p.add_argument("--a-bits", type=int, default=32)
    p.add_argument("--row-wise", action="store_true",
                   help="per-row scales for 2-D tensors; compress stores it in the checkpoint")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=3e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log", help="per-epoch metrics log (one JSON record per line)")


def _task_spec(args) -> TaskSpec:
    return TaskSpec(args.task, args.vocab_size, args.min_len, args.max_len,
                    args.train_size, args.dev_size, args.test_size, args.seed)


def _qconfig(args) -> QuantConfig:
    return QuantConfig(args.w_bits, args.e_bits, args.a_bits, args.row_wise)


def _print_row(row: dict) -> None:
    for key, value in row.items():
        text = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"{key:>10}  {text}")


def _cmd_gen_data(args) -> int:
    spec = _task_spec(args)
    splits = generate_task(spec)
    if args.out:
        payload = {
            "spec": asdict(spec),
            "train": splits.train.pairs,
            "dev": splits.dev.pairs,
            "test": splits.test.pairs,
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh)
    print(f"{spec.kind}: train={len(splits.train)} dev={len(splits.dev)} "
          f"test={len(splits.test)} vocab={spec.vocab_size}")
    return 0


def _cmd_train_teacher(args) -> int:
    config = ModelConfig(
        vocab_size=args.vocab_size,
        d_model=args.d_model,
        n_heads=args.n_heads,
        d_ff=args.d_ff,
        n_enc_layers=args.enc_layers,
        n_dec_layers=args.dec_layers,
        max_positions=args.max_positions,
    )
    manifest = RunManifest(
        task=_task_spec(args),
        train_config=TrainConfig("teacher", epochs=args.epochs, batch_size=args.batch_size,
                                 learning_rate=args.lr, seed=args.seed),
        model_config=config,
        out_path=args.out,
    )
    row = run_experiment(manifest, log_path=args.log)
    if args.manifest:
        manifest.save(args.manifest)
    _print_row(row)
    return 0


def _cmd_compress(args) -> int:
    if not os.path.exists(args.teacher):
        raise HarnessError(f"teacher checkpoint not found: {args.teacher}")
    _, tmeta = load_checkpoint(args.teacher)
    tcfg = tmeta.model_config
    if args.mode in ("quant_only", "direct_quant"):
        dconfig = None
    else:
        enc = tcfg.n_enc_layers if args.enc_layers is None else args.enc_layers
        dec = tcfg.n_dec_layers if args.dec_layers is None else args.dec_layers
        dconfig = DistillConfig(enc, dec)
    manifest = RunManifest(
        task=_task_spec(args),
        train_config=TrainConfig(args.mode, epochs=args.epochs, batch_size=args.batch_size,
                                 learning_rate=args.lr, seed=args.seed),
        quant_config=_qconfig(args),
        distill_config=dconfig,
        teacher_path=args.teacher,
        out_path=args.out,
    )
    row = run_experiment(manifest, log_path=args.log)
    if args.manifest:
        manifest.save(args.manifest)
    _print_row(row)
    return 0


def _cmd_eval(args) -> int:
    model, meta = load_model(args.ckpt)
    spec = _task_spec(args)
    splits = generate_task(spec)
    dataset = getattr(splits, args.split)
    qconfig = _qconfig(args)
    if not qconfig.any_quantized():
        qconfig = meta.quant_config
    report = evaluate(model, dataset, qconfig)
    print(f"{args.ckpt} on {spec.kind}/{args.split} ({report.n_examples} examples), "
          f"weights {qconfig.label}")
    _print_row(report.to_dict())
    return 0


def _cmd_footprint(args) -> int:
    qconfig = _qconfig(args)
    if args.arch == "bart-base":
        enc = 6 if args.enc_layers is None else args.enc_layers
        dec = 6 if args.dec_layers is None else args.dec_layers
        target = bart_base_param_specs(enc, dec)
        baseline = bart_base_param_specs()
    else:
        enc = 2 if args.enc_layers is None else args.enc_layers
        dec = 2 if args.dec_layers is None else args.dec_layers
        target = ModelConfig(args.vocab_size, args.d_model, args.n_heads, args.d_ff,
                             enc, dec, args.max_positions)
        baseline = None
    fp = footprint(target, qconfig, baseline=baseline)
    print(f"{args.arch} {qconfig.label} {enc}-{dec}: "
          f"{fp.size_mib:.2f} MiB, ratio {fp.ratio:.2f}x")
    return 0


def _cmd_table(args) -> int:
    manifests = [RunManifest.load(path) for path in args.manifests]
    write_table(manifests, args.out)
    print(f"wrote {len(manifests)} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqseq",
        description="Train, compress, and measure small encoder-decoder models.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("gen-data", help="generate a synthetic task and print split sizes")
    _add_task_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the splits as JSON")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train-teacher", help="train a full-precision teacher")
    _add_task_flags(p)
    _add_train_flags(p)
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--n-heads", type=int, default=4)
    p.add_argument("--d-ff", type=int, default=128)
    p.add_argument("--enc-layers", type=int, default=2)
    p.add_argument("--dec-layers", type=int, default=2)
    p.add_argument("--max-positions", type=int, default=32)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--manifest", help="also record the run manifest here")
    p.set_defaults(func=_cmd_train_teacher)

    p = sub.add_parser("compress", help="distill and/or quantize against a teacher")
    _add_task_flags(p)
    _add_train_flags(p)
    _add_bits_flags(p)
    p.add_argument("--teacher", required=True, help="teacher checkpoint path")
    p.add_argument("--mode", choices=[m for m in MODES if m != "teacher"], default="dq")
    p.add_argument("--enc-layers", type=int, help="student depth (default: teacher's)")
    p.add_argument("--dec-layers", type=int, help="student depth (default: teacher's)")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--manifest", help="also record the run manifest here")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("eval", help="score a checkpoint on a generated task split")
    _add_task_flags(p)
    _add_bits_flags(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--split", choices=("train", "dev", "test"), default="test")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("footprint", help="size and compression-ratio arithmetic, no training")
    _add_bits_flags(p)
    p.add_argument("--arch", choices=("toy", "bart-base"), default="toy")
    p.add_argument("--enc-layers", type=int)
    p.add_argument("--dec-layers", type=int)
    p.add_argument("--vocab-size", type=int, default=16)
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--n-heads", type=int, default=4)
    p.add_argument("--d-ff", type=int, default=128)
    p.add_argument("--max-positions", type=int, default=32)
    p.set_defaults(func=_cmd_footprint)

    p = sub.add_parser("table", help="merge run manifests into one CSV")
    p.add_argument("manifests", nargs="+", help="manifest JSON files")
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return 0 if exc.code in (0, None) else int(exc.code)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (TaskError, TrainError, HarnessError, CheckpointError, PolicyError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
