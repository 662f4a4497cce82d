#!/usr/bin/env python3
"""Per-op forward and backward time of a warm training step at the ladder shape.

    python3 scripts/op_times.py [--seed 0] [--warmup 5] [--steps 40]

Run from a dqseq checkout's root; ``scripts/probe.py`` finds the package and
the benchmark's workloads. As ``bench/run.py``'s ladder-train does, with its
shapes, learning rates and batch stream (``bench/workloads.py``), it
pretrains a teacher at the acceptance ladder's shape with task-only steps,
then trains a same-depth 2-2-8 student against it, 32 copy rows a step. For
each kind of step it runs ``--warmup`` steps, then ``--steps`` plain steps,
reading each one's wall time, minor page faults and system time (getrusage),
then ``--steps`` steps with timers installed.

The timers wrap, through the probe: every tensor op as ``model``,
``distiller`` and ``quantizer`` resolve it, ``model.quantize_activation``,
the trainer's phases (``quantize_model``, the student's and the teacher's
``forward``, ``total_loss``, ``backward``, ``global_grad_norm``,
``Adam.update``) and ``tensor._record``, whose wrapper times each node's
backward closure under its op's name. An op's self time leaves out the
wrapped calls made inside it (``straight_through`` inside
``quantize_activation``). Times are ms per step and calls are per step.
Each kind's ``real_fraction`` is the share of its steps' source and decoder
positions that are not padding: the rows the position-wise ops run on,
over the rows of the padded batches. The last line of stdout is one JSON
object; its ``missing`` lists the names the probe did not find.
"""

import argparse
import itertools
import json
import resource
import statistics
import sys

from probe import Probe, now

import numpy as np

import workloads
from dqseq import distiller, model, quantizer, tensor, trainer
from dqseq.distiller import DistillConfig, init_student
from dqseq.model import init_model
from dqseq.tasks import PAD, generate_task


def stepper(student, teacher, lmap, batches, rng, size, positions):
    """One kind of training step, as the benchmark's ladder-train takes it. Each
    step adds its batch's [real, padded] source and decoder positions to positions."""
    optimizer, step_no = trainer.Adam(student.params), itertools.count()

    def step() -> None:
        batch, i = batches.next(), next(step_no)
        for side, ids in zip(("src", "dec"), batch[:2]):
            positions[side][0] += int(np.count_nonzero(ids != PAD))
            positions[side][1] += ids.size
        if teacher is None:
            workloads._teacher_step(student, batch, optimizer, i, size.horizon, size, rng)
        else:
            lr = trainer.lr_schedule(i, size.horizon, size.dq_lr, workloads.WARMUP_FRACTION)
            trainer.distillation_aware_step(student, teacher, batch, workloads.Q228, lmap,
                                            optimizer, lr, rng=rng)

    return step


def install(probe: Probe, teacher) -> None:
    probe.patch_ops((model, distiller, quantizer),
                    lambda op, fn: probe.timed("forward", op, fn))
    probe.time(model, "quantize_activation", "forward")

    def timed_backward(record):  # each node's backward closure, timed under its op's name
        return lambda op, out_data, inputs, backward: record(
            op, out_data, inputs, probe.timed("backward", op, backward))

    probe.patch(tensor, "_record", timed_backward)
    for attr in ("quantize_model", "total_loss", "backward", "global_grad_norm"):
        probe.time(trainer, attr, "phase")
    probe.time(trainer.Adam, "update", "phase", "Adam.update")

    def split_forward(forward):
        student_fwd = probe.timed("phase", "forward (student)", forward)
        teacher_fwd = probe.timed("phase", "forward (teacher, no_grad)", forward)
        return lambda m, *a, **k: (teacher_fwd if m is teacher else student_fwd)(m, *a, **k)

    probe.patch(trainer, "forward", split_forward)


def measure(step, positions, teacher, warmup: int, steps: int, missing: set) -> dict:
    for _ in range(warmup):
        step()
    for counts in positions.values():
        counts[:] = [0, 0]
    ms, faults, sys_ms = [], [], []
    for _ in range(steps):
        r0, t0 = resource.getrusage(resource.RUSAGE_SELF), now()
        step()
        t1, r1 = now(), resource.getrusage(resource.RUSAGE_SELF)
        ms.append((t1 - t0) / 1e6)
        faults.append(r1.ru_minflt - r0.ru_minflt)
        sys_ms.append((r1.ru_stime - r0.ru_stime) * 1e3)
    with Probe() as probe:
        install(probe, teacher)
        t0 = now()
        for _ in range(steps):
            step()
    missing.update(probe.missing)
    return {
        "plain": {
            "step_ms_p10": round(float(np.percentile(ms, 10)), 3),
            "step_ms_median": round(statistics.median(ms), 3),
            "minor_faults_median": statistics.median(faults),
            "minor_faults_mean": round(statistics.fmean(faults), 1),
            "system_ms_mean": round(statistics.fmean(sys_ms), 3),
        },
        "timed_step_ms_mean": round((now() - t0) / 1e6 / steps, 3),
        "real_fraction": {side: round(real / padded, 4) for side, (real, padded) in
                          positions.items()},
        "phase": probe.table("phase", steps),
        "forward": probe.table("forward", steps),
        "backward": probe.table("backward", steps),
    }


def _print(kind: str, res: dict, steps: int) -> None:
    p = res["plain"]
    print(f"\n{kind}: {steps} warm steps; plain step p10 {p['step_ms_p10']} ms, median "
          f"{p['step_ms_median']} ms; minor faults per step median {p['minor_faults_median']}"
          f" (mean {p['minor_faults_mean']}); system {p['system_ms_mean']} ms per step; "
          f"{res['timed_step_ms_mean']} ms per step with timers")
    print("  real positions (packed rows / padded rows): " + ", ".join(
        f"{side} {frac:.3f}" for side, frac in res["real_fraction"].items()))
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
    size = workloads.SIZES["full"]
    splits = generate_task(workloads._task(args.seed, size))
    rng = np.random.default_rng(args.seed)
    missing = set()
    teacher = init_model(size.ladder, args.seed)
    positions = {"src": [0, 0], "dec": [0, 0]}
    teacher_step = stepper(teacher, None, None, workloads.Batches(splits.train, size.batch, rng),
                           rng, size, positions)
    result = {"teacher": measure(teacher_step, positions, None, args.warmup, args.steps, missing)}
    workloads._freeze(teacher)
    cfg = size.ladder
    student, lmap = init_student(teacher, DistillConfig(cfg.n_enc_layers, cfg.n_dec_layers))
    dq_step = stepper(student, teacher, lmap, workloads.Batches(splits.train, size.batch, rng),
                      rng, size, positions)
    result["dq 2-2-8"] = measure(dq_step, positions, teacher, args.warmup, args.steps, missing)
    for kind, res in result.items():
        _print(kind, res, args.steps)
    result["missing"] = sorted(missing)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
