#!/usr/bin/env python3
"""Heap peak of a training step at the ladder shape, and what it holds before backward, by op.

    python3 scripts/step_memory.py [--seed 0] [--warmup 2]

Run from a dqseq checkout's root; the package is imported from its ``src/``.
It builds a random-init model at the acceptance ladder's shape and 32 copy
rows, then measures two kinds of step: a task-only teacher step, and a 2-2-8
distillation-aware step of the model's 2+2 student against it (frozen).
Each kind runs ``--warmup`` steps, one more under tracemalloc to fix its
resting heap, then the measured one. The script reports the measured step's
heap peak above that resting heap, the heap's net growth when backward is
called, and what the step allocated and still holds at that point (the
tape, the traces and the losses) grouped by the op that allocated it: the
innermost public function of ``tensor.py`` or ``quantizer.py`` on the
allocation's stack, else the innermost dqseq function. Only allocation
sites that grew since the resting heap count, so the previous step's
gradients, which the step frees first, are left out. It wraps
``trainer.backward`` from outside ``src/``, as ``scripts/op_times.py``
does. The last line of stdout is one JSON object.
"""

import argparse
import ast
import json
import os
import sys
import tracemalloc
from collections import defaultdict

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as the benchmark runs

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

from dqseq import trainer  # noqa: E402
from dqseq.distiller import DistillConfig, init_student  # noqa: E402
from dqseq.model import ModelConfig, init_model  # noqa: E402
from dqseq.quantizer import QuantConfig  # noqa: E402
from dqseq.tasks import TaskSpec, generate_task, seq2seq_batch  # noqa: E402

LADDER = ModelConfig(16, 64, 4, 256, 2, 2, 16)
FRAMES = 32
OP_MODULES = ("tensor.py", "quantizer.py")


def _top_level_functions() -> dict[str, list[tuple[int, int, str]]]:
    """dqseq source file -> (first line, last line, name) of each module-level
    function; a method is filed under its class's name."""
    pkg = os.path.realpath(os.path.join(SRC, "dqseq"))
    spans = {}
    for fname in os.listdir(pkg):
        if fname.endswith(".py"):
            path = os.path.join(pkg, fname)
            with open(path) as fh:
                tree = ast.parse(fh.read())
            spans[path] = [(n.lineno, n.end_lineno, n.name) for n in tree.body
                           if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    return spans


SPANS = _top_level_functions()


def _owner(filename: str, lineno: int) -> str | None:
    for lo, hi, name in SPANS.get(os.path.realpath(filename), ()):
        if lo <= lineno <= hi:
            return name
    return None


def op_of(traceback) -> str:
    """The op an allocation is filed under (see the module docstring)."""
    fallback = None
    for frame in reversed(traceback):  # innermost first
        name = _owner(frame.filename, frame.lineno)
        if name is None:
            continue
        module = os.path.basename(frame.filename)
        if module in OP_MODULES and not name.startswith("_") and not name[0].isupper():
            return name
        if fallback is None:
            fallback = f"{module[:-3]}.{name}"
    return fallback or "outside dqseq"


def measure(step, warmup: int) -> dict:
    for _ in range(warmup):
        step()
    seen = {}
    real_backward = trainer.backward

    def backward(loss):
        seen["current"] = tracemalloc.get_traced_memory()[0]
        seen["snapshot"] = tracemalloc.take_snapshot()
        return real_backward(loss)

    tracemalloc.start(FRAMES)
    try:
        step()
        rest = tracemalloc.get_traced_memory()[0]
        base = tracemalloc.take_snapshot()
        tracemalloc.reset_peak()
        trainer.backward = backward
        try:
            step()
        finally:
            trainer.backward = real_backward
        peak = tracemalloc.get_traced_memory()[1] - rest
    finally:
        tracemalloc.stop()
    by_op = defaultdict(int)
    for diff in seen["snapshot"].compare_to(base, "traceback"):
        if diff.size_diff > 0:
            by_op[op_of(diff.traceback)] += diff.size_diff
    return {
        "heap_peak_bytes": peak,
        "growth_before_backward_bytes": seen["current"] - rest,
        "held_before_backward_bytes": sum(by_op.values()),
        "held_by_op_bytes": dict(sorted(by_op.items(), key=lambda kv: -kv[1])),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--warmup", type=int, default=2)
    args = ap.parse_args()
    splits = generate_task(TaskSpec("copy", vocab_size=16, max_len=12, train_size=32,
                                    dev_size=4, test_size=4, seed=args.seed))
    batch = seq2seq_batch(splits.train.pairs)

    teacher = init_model(LADDER, args.seed)
    teacher_opt = trainer.Adam(teacher.params)
    result = {"teacher": measure(lambda: trainer.distillation_aware_step(
        teacher, None, batch, QuantConfig(), None, teacher_opt, 1e-3, task_only=True),
        args.warmup)}

    frozen = init_model(LADDER, args.seed)
    for t in frozen.params.values():
        t.requires_grad = False
    student, lmap = init_student(frozen, DistillConfig(2, 2))
    student_opt = trainer.Adam(student.params)
    result["dq 2-2-8"] = measure(lambda: trainer.distillation_aware_step(
        student, frozen, batch, QuantConfig(2, 2, 8), lmap, student_opt, 1e-3), args.warmup)

    for kind, res in result.items():
        print(f"\n{kind}: heap peak {res['heap_peak_bytes'] / 1e6:.3f} MB; at backward, "
              f"{res['held_before_backward_bytes'] / 1e6:.3f} MB held by the step, heap "
              f"{res['growth_before_backward_bytes'] / 1e6:.3f} MB above rest")
        print(f"  {'op':<34}{'MB held':>9}")
        for op, size in res["held_by_op_bytes"].items():
            if size >= 1000:
                print(f"  {op:<34}{size / 1e6:>9.3f}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
