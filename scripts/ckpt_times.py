#!/usr/bin/env python3
"""Per-phase time of one checkpoint save and one load at the ckpt-2-2-8 shape.

    python3 scripts/ckpt_times.py [--seed 0] [--warmup 3] [--reps 30]

Run from a dqseq checkout's root; ``scripts/probe.py`` finds the package and
the benchmark's workloads. As ``bench/run.py``'s ckpt-2-2-8 does, with its
shape (``bench/workloads.py``), it builds a random-init model of 5.8M
parameters (vocab 8192, d_model 256, 2+2 layers) and repeats
quantize_params -> save_checkpoint -> load_model at 2-2-8 on one temporary
file. It runs ``--warmup`` rounds, then ``--reps`` plain rounds timing the
whole save and load, then ``--reps`` rounds with timers installed. It also
counts quantize_params' workers: the threads, the caller included, that ran
``quantize`` in one call (1 on a one-CPU host).

The timers wrap names through the probe. A save splits into
quantize_params, pack (``checkpoint.pack_codes``) and write+fsync (the rest
of save_checkpoint: record bytes, writes, fsync and rename). The
quantize_params phase is wall time across its workers. A load splits into
read+parse (``checkpoint.load_checkpoint``), dequantize
(``QuantizedTensor.values``) and build_model (the rest of
``checkpoint.build_model``). Times are medians in ms per round. The last
line of stdout is one JSON object; its ``missing`` lists the names the probe
did not find.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import threading

from probe import Probe, now

import numpy as np

import workloads
from dqseq import checkpoint, quantizer, trainer
from dqseq.model import init_model, param_specs
from workloads import Q228

TIMED = ((checkpoint, "pack_codes", "pack"), (checkpoint, "load_checkpoint", "read+parse"),
         (checkpoint, "build_model", "build_model"),
         (quantizer.QuantizedTensor, "values", "dequantize"))


def quantize_workers(master, categories, missing: list) -> int:
    """The threads, the caller included, that ran quantize in one quantize_params call."""
    seen = set()
    with Probe() as probe:
        probe.before(quantizer, "quantize", lambda *a, **k: seen.add(threading.get_ident()))
        quantizer.quantize_params(master.params, categories, Q228)
    missing += probe.missing
    return len(seen)


def one_round(master, categories, meta, path, probe=None) -> dict[str, float]:
    t0 = now()
    saved = quantizer.quantize_params(master.params, categories, Q228)
    t1 = now()
    checkpoint.save_checkpoint(path, saved, meta)
    t2 = now()
    checkpoint.load_model(path)
    t3 = now()
    row = {"save": (t2 - t0) / 1e6, "load": (t3 - t2) / 1e6}
    if probe is not None:
        ms = {name: probe.rows[("phase", name)][0] / 1e6 for _, _, name in TIMED}
        probe.reset()
        row.update({
            "quantize_params": (t1 - t0) / 1e6,
            "pack": ms["pack"],
            "write+fsync": (t2 - t1) / 1e6 - ms["pack"],
            "read+parse": ms["read+parse"],
            "dequantize": ms["dequantize"],
            "build_model": ms["build_model"] - ms["dequantize"],
        })
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--warmup", type=int, default=3)
    ap.add_argument("--reps", type=int, default=30)
    args = ap.parse_args()
    cfg = workloads.SIZES["full"].ckpt
    master = init_model(cfg, args.seed)
    categories = {name: cat for name, _, cat in param_specs(cfg)}
    meta = trainer.CheckpointMeta(cfg, Q228, None, trainer.TrainConfig("dq", seed=args.seed))
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        path = os.path.join(tmp, "ckpt.dqs")
        for _ in range(args.warmup):
            one_round(master, categories, meta, path)
        plain = [one_round(master, categories, meta, path) for _ in range(args.reps)]
        with Probe() as probe:
            for owner, attr, name in TIMED:
                probe.time(owner, attr, "phase", name)
            timed = [one_round(master, categories, meta, path, probe) for _ in range(args.reps)]
    result = {
        name: {
            "plain_ms_p10": round(float(np.percentile([r[name] for r in plain], 10)), 3),
            "plain_ms_median": round(statistics.median(r[name] for r in plain), 3),
            "timed_ms_median": round(statistics.median(r[name] for r in timed), 3),
        }
        for name in ("save", "load")
    }
    result["phases_ms_median"] = {name: round(statistics.median(r[name] for r in timed), 3)
                                  for name in timed[0] if name not in ("save", "load")}
    result["cpus"] = len(os.sched_getaffinity(0))
    missing = list(probe.missing)
    result["quantize_workers"] = quantize_workers(master, categories, missing)
    result["missing"] = sorted(missing)
    print(f"{args.reps} rounds at {cfg.vocab_size}x{cfg.d_model}, 2-2-8; "
          f"quantize_params ran on {result['quantize_workers']} threads "
          f"({result['cpus']} CPUs)")
    for name in ("save", "load"):
        r = result[name]
        print(f"  {name}: plain p10 {r['plain_ms_p10']} ms, median {r['plain_ms_median']} ms; "
              f"{r['timed_ms_median']} ms with timers")
    print(f"  {'phase':<28}{'ms':>9}")
    for name, ms in result["phases_ms_median"].items():
        print(f"  {name:<28}{ms:>9.3f}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
