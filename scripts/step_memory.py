#!/usr/bin/env python3
"""Heap peak of a training step at the ladder shape, and what it holds before backward, by op.

    python3 scripts/step_memory.py [--seed 0] [--warmup 2]

Run from a dqseq checkout's root; ``scripts/probe.py`` finds the package and
the benchmark's workloads. It builds a random-init model at the acceptance
ladder's shape and takes the first 32-row batch of ``bench/run.py``'s
ladder-train stream, with its learning rates (``bench/workloads.py``), then
measures two kinds of step on that batch: a task-only teacher step, and a
2-2-8 distillation-aware step of the model's 2+2 student against it (frozen).
Each kind runs ``--warmup`` steps, one more under tracemalloc to fix its
resting heap, then the measured one. The script reports the measured step's
heap peak above that resting heap, the heap's net growth when backward is
called, and what the step allocated and still holds at that point (the
tape, the traces and the losses) grouped by the op that allocated it: the
innermost public function of ``tensor.py`` or ``quantizer.py`` on the
allocation's stack, else the innermost dqseq function. Only allocation
sites that grew since the resting heap count, so the previous step's
gradients, which the step frees first, are left out. It wraps
``trainer.backward`` through the probe. The last line of stdout is one JSON
object in whole kB (1,000 bytes), rounded: two runs of one tree differ by
some hundred bytes (104 in ``quantize``, up to 312 in a dq figure), so
compare two trees' figures within 1 kB. Its ``missing`` lists the names
the probe did not find.
"""

import argparse
import ast
import json
import os
import sys
import tracemalloc
from collections import defaultdict

from probe import SRC, Probe

import numpy as np

import workloads
from dqseq import trainer
from dqseq.distiller import DistillConfig, init_student
from dqseq.model import init_model
from dqseq.quantizer import QuantConfig
from dqseq.tasks import generate_task

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


def kb(nbytes: int) -> int:
    return round(nbytes / 1000)


def measure(step, warmup: int, missing: set) -> dict:
    for _ in range(warmup):
        step()
    seen = {}

    def at_backward(loss):
        seen["current"] = tracemalloc.get_traced_memory()[0]
        seen["snapshot"] = tracemalloc.take_snapshot()

    tracemalloc.start(FRAMES)
    try:
        step()
        rest = tracemalloc.get_traced_memory()[0]
        base = tracemalloc.take_snapshot()
        tracemalloc.reset_peak()
        with Probe() as probe:
            probe.before(trainer, "backward", at_backward)
            step()
        peak = tracemalloc.get_traced_memory()[1] - rest
    finally:
        tracemalloc.stop()
    missing.update(probe.missing)
    by_op = defaultdict(int)
    for diff in seen["snapshot"].compare_to(base, "traceback") if seen else ():
        if diff.size_diff > 0:
            by_op[op_of(diff.traceback)] += diff.size_diff
    held = {op: kb(n) for op, n in sorted(by_op.items(), key=lambda kv: -kv[1]) if kb(n)}
    return {
        "heap_peak_kb": kb(peak),
        "growth_before_backward_kb": kb(seen.get("current", rest) - rest),
        "held_before_backward_kb": kb(sum(by_op.values())),
        "held_by_op_kb": held,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--warmup", type=int, default=2)
    args = ap.parse_args()
    size = workloads.SIZES["full"]
    splits = generate_task(workloads._task(args.seed, size))
    batch = workloads.Batches(splits.train, size.batch, np.random.default_rng(args.seed)).next()
    missing = set()

    teacher = init_model(size.ladder, args.seed)
    teacher_opt = trainer.Adam(teacher.params)
    result = {"teacher": measure(lambda: trainer.distillation_aware_step(
        teacher, None, batch, QuantConfig(), None, teacher_opt, size.teacher_lr,
        task_only=True), args.warmup, missing)}

    frozen = init_model(size.ladder, args.seed)
    workloads._freeze(frozen)
    cfg = size.ladder
    student, lmap = init_student(frozen, DistillConfig(cfg.n_enc_layers, cfg.n_dec_layers))
    student_opt = trainer.Adam(student.params)
    result["dq 2-2-8"] = measure(lambda: trainer.distillation_aware_step(
        student, frozen, batch, workloads.Q228, lmap, student_opt, size.dq_lr), args.warmup,
        missing)

    for kind, res in result.items():
        print(f"\n{kind}: heap peak {res['heap_peak_kb'] / 1e3:.3f} MB; at backward, "
              f"{res['held_before_backward_kb'] / 1e3:.3f} MB held by the step, heap "
              f"{res['growth_before_backward_kb'] / 1e3:.3f} MB above rest")
        print(f"  {'op':<34}{'MB held':>9}")
        for op, n in res["held_by_op_kb"].items():
            print(f"  {op:<34}{n / 1e3:>9.3f}")
    result["missing"] = sorted(missing)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
