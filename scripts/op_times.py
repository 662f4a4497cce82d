#!/usr/bin/env python3
"""Per-op forward and backward time of a warm training step at the ladder shape.

    python3 scripts/op_times.py [--seed 0] [--warmup 5] [--steps 40]

Run from a dqseq checkout's root; the package is imported from its ``src/``.
As ``bench/run.py``'s ladder-train does, it pretrains a teacher at the
acceptance ladder's shape with task-only steps, then trains a same-depth
2-2-8 student against it, 32 copy rows a step. For each kind of step it
runs ``--warmup`` steps, then ``--steps`` plain steps, reading each one's
wall time, minor page faults and system time (getrusage), then ``--steps``
steps with timers installed.

The timers wrap module-level names from outside ``src/``, as
``bench/tracing.py`` does: every tensor op as ``model``, ``distiller`` and
``quantizer`` resolve it, ``model.quantize_activation``, the trainer's
phases (``quantize_model``, the student's and the teacher's ``forward``,
``total_loss``, ``backward``, ``global_grad_norm``, ``Adam.update``) and
``tensor._record``, whose wrapper times each node's backward closure under
its op's name. An op's self time leaves out the wrapped calls made inside
it (``straight_through`` inside ``quantize_activation``). Times are ms per
step and calls are per step. The last line of stdout is one JSON object.
"""

import argparse
import inspect
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as the benchmark runs

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from dqseq import distiller, model, quantizer, tensor, trainer  # noqa: E402
from dqseq.distiller import DistillConfig, init_student  # noqa: E402
from dqseq.model import ModelConfig, init_model  # noqa: E402
from dqseq.quantizer import QuantConfig  # noqa: E402
from dqseq.tasks import TaskSpec, generate_task, seq2seq_batch  # noqa: E402

LADDER = ModelConfig(16, 64, 4, 256, 2, 2, 16)
BATCH = 32
HORIZON = 1000  # lr-schedule length, as the benchmark's
TEACHER_LR, DQ_LR = 3e-3, 1e-3
NOT_OPS = {"active_tape", "backward", "no_grad", "set_nan_checks"}

_now = time.perf_counter_ns


class OpTimer:
    """Inclusive and self ns and calls per (table, name), over wrapped calls."""

    def __init__(self):
        self.rows = defaultdict(lambda: [0, 0, 0])  # (table, name) -> [incl ns, self ns, calls]
        self._child_ns: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def timed(self, table: str, name: str, fn):
        row = self.rows[(table, name)]
        stack = self._child_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                ns = _now() - t0
                inner = stack.pop()
                row[0] += ns
                row[1] += ns - inner
                row[2] += 1
                if stack:
                    stack[-1] += ns

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, teacher) -> None:
        ops = {fn: name for name, fn in vars(tensor).items()
               if inspect.isfunction(fn) and fn.__module__ == tensor.__name__
               and not name.startswith("_") and name not in NOT_OPS}
        for mod in (model, distiller, quantizer):
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn in ops:
                    self._patch(mod, attr, self.timed("forward", ops[fn], fn))
        self._patch(model, "quantize_activation",
                    self.timed("forward", "quantize_activation", model.quantize_activation))

        record = tensor._record
        timed_bwd = {}

        def _record(op, out_data, inputs, backward):
            if op not in timed_bwd:
                timed_bwd[op] = lambda fn, op=op: self.timed("backward", op, fn)
            return record(op, out_data, inputs, timed_bwd[op](backward))

        self._patch(tensor, "_record", _record)

        for attr in ("quantize_model", "total_loss", "backward", "global_grad_norm"):
            self._patch(trainer, attr, self.timed("phase", attr, getattr(trainer, attr)))
        self._patch(trainer.Adam, "update", self.timed("phase", "Adam.update", trainer.Adam.update))
        student_fwd = self.timed("phase", "forward (student)", trainer.forward)
        teacher_fwd = self.timed("phase", "forward (teacher, no_grad)", trainer.forward)
        self._patch(trainer, "forward", lambda m, *a, **k: (
            teacher_fwd if m is teacher else student_fwd)(m, *a, **k))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def table(self, name: str, steps: int) -> dict[str, dict[str, float]]:
        return {op: {"ms": round(incl / 1e6 / steps, 4), "self_ms": round(own / 1e6 / steps, 4),
                     "calls": calls / steps}
                for (tab, op), (incl, own, calls) in sorted(self.rows.items())
                if tab == name and calls}


class Stepper:
    """One kind of training step on the benchmark's batch stream."""

    def __init__(self, student, teacher, lmap, qconfig, lr, pairs, rng):
        self.args = student, teacher, lmap, qconfig
        self.optimizer = trainer.Adam(student.params)
        self.lr, self.pairs, self.rng = lr, pairs, rng
        self.order, self.pos, self.step_no = [], 0, 0

    def __call__(self) -> None:
        if self.pos >= len(self.order):
            self.order, self.pos = self.rng.permutation(len(self.pairs)), 0
        batch = seq2seq_batch([self.pairs[i] for i in self.order[self.pos : self.pos + BATCH]])
        self.pos += BATCH
        student, teacher, lmap, qconfig = self.args
        lr = trainer.lr_schedule(self.step_no, HORIZON, self.lr, 0.05)
        trainer.distillation_aware_step(student, teacher, batch, qconfig, lmap, self.optimizer,
                                        lr, task_only=teacher is None, rng=self.rng)
        self.step_no += 1


def measure(step, teacher, warmup: int, steps: int) -> dict:
    for _ in range(warmup):
        step()
    ms, faults, sys_ms = [], [], []
    for _ in range(steps):
        r0, t0 = resource.getrusage(resource.RUSAGE_SELF), _now()
        step()
        t1, r1 = _now(), resource.getrusage(resource.RUSAGE_SELF)
        ms.append((t1 - t0) / 1e6)
        faults.append(r1.ru_minflt - r0.ru_minflt)
        sys_ms.append((r1.ru_stime - r0.ru_stime) * 1e3)
    timer = OpTimer()
    timer.install(teacher)
    t0 = _now()
    try:
        for _ in range(steps):
            step()
    finally:
        timer.uninstall()
    return {
        "plain": {
            "step_ms_p10": round(float(np.percentile(ms, 10)), 3),
            "step_ms_median": round(statistics.median(ms), 3),
            "minor_faults_median": statistics.median(faults),
            "minor_faults_mean": round(statistics.fmean(faults), 1),
            "system_ms_mean": round(statistics.fmean(sys_ms), 3),
        },
        "timed_step_ms_mean": round((_now() - t0) / 1e6 / steps, 3),
        "phase": timer.table("phase", steps),
        "forward": timer.table("forward", steps),
        "backward": timer.table("backward", steps),
    }


def _print(kind: str, res: dict, steps: int) -> None:
    p = res["plain"]
    print(f"\n{kind}: {steps} warm steps; plain step p10 {p['step_ms_p10']} ms, median "
          f"{p['step_ms_median']} ms; minor faults per step median {p['minor_faults_median']}"
          f" (mean {p['minor_faults_mean']}); system {p['system_ms_mean']} ms per step; "
          f"{res['timed_step_ms_mean']} ms per step with timers")
    print(f"  {'phase':<30}{'ms':>9}")
    for name, row in res["phase"].items():
        print(f"  {name:<30}{row['ms']:>9.3f}")
    print(f"  {'op':<22}{'fwd ms':>9}{'self ms':>9}{'calls':>7}{'bwd ms':>9}{'calls':>7}")
    fwd, bwd = res["forward"], res["backward"]
    for op in sorted(set(fwd) | set(bwd), key=lambda o: -(fwd.get(o, {}).get("ms", 0)
                                                          + bwd.get(o, {}).get("ms", 0))):
        f, b = fwd.get(op, {}), bwd.get(op, {})
        print(f"  {op:<22}{f.get('ms', 0):>9.3f}{f.get('self_ms', 0):>9.3f}"
              f"{f.get('calls', 0):>7.1f}{b.get('ms', 0):>9.3f}{b.get('calls', 0):>7.1f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--warmup", type=int, default=5)
    ap.add_argument("--steps", type=int, default=40)
    args = ap.parse_args()
    splits = generate_task(TaskSpec("copy", vocab_size=16, max_len=12, train_size=512,
                                    dev_size=64, test_size=64, seed=args.seed))
    rng = np.random.default_rng(args.seed)
    teacher = init_model(LADDER, args.seed)
    teacher_step = Stepper(teacher, None, None, QuantConfig(), TEACHER_LR,
                           splits.train.pairs, rng)
    result = {"teacher": measure(teacher_step, None, args.warmup, args.steps)}
    for t in teacher.params.values():
        t.requires_grad = False
    student, lmap = init_student(teacher, DistillConfig(2, 2))
    dq_step = Stepper(student, teacher, lmap, QuantConfig(2, 2, 8), DQ_LR,
                      splits.train.pairs, rng)
    result["dq 2-2-8"] = measure(dq_step, teacher, args.warmup, args.steps)
    for kind, res in result.items():
        _print(kind, res, args.steps)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
