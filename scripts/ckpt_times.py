#!/usr/bin/env python3
"""Per-phase time of one checkpoint save and one load at the ckpt-2-2-8 shape.

    python3 scripts/ckpt_times.py [--seed 0] [--warmup 3] [--reps 30]

Run from a dqseq checkout's root; the package is imported from its ``src/``.
As ``bench/run.py``'s ckpt-2-2-8 does, it builds a random-init model of
5.8M parameters (vocab 8192, d_model 256, 2+2 layers) and repeats
quantize_params -> save_checkpoint -> load_model at 2-2-8 on one temporary
file. It runs ``--warmup`` rounds, then ``--reps`` plain rounds timing the
whole save and load, then ``--reps`` rounds with timers installed. It also
counts quantize_params' workers: the threads, the caller included, that ran
``quantize`` in one call (1 on a one-CPU host).

The timers wrap module-level names from outside ``src/``, as
``scripts/op_times.py`` does. A save splits into quantize_params, pack
(``checkpoint.pack_codes``) and write+fsync (the rest of save_checkpoint:
record bytes, writes, fsync and rename). The quantize_params phase is wall
time across its workers. A load splits into read+parse
(``checkpoint.load_checkpoint``; the ``unpack_codes`` calls made inside it
are also shown on their own), dequantize (``QuantizedTensor.values``) and
build_model (the rest of ``checkpoint.build_model``). Times are medians in ms
per round. The last line of stdout is one JSON object.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import threading
import time
from collections import defaultdict

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as the benchmark runs

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from dqseq import checkpoint, quantizer, trainer  # noqa: E402
from dqseq.model import ModelConfig, init_model, param_specs  # noqa: E402
from dqseq.quantizer import QuantConfig  # noqa: E402

CKPT = ModelConfig(8192, 256, 8, 1024, 2, 2, 64)  # the benchmark's ckpt shape
Q228 = QuantConfig(2, 2, 8)

_now = time.perf_counter_ns


class PhaseTimer:
    """Inclusive ns per wrapped name, summed over the calls of one round."""

    def __init__(self):
        self.ns = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        fn, ns = getattr(owner, attr), self.ns

        def wrapper(*args, **kwargs):
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                ns[name] += _now() - t0

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        self.wrap(checkpoint, "pack_codes", "pack")
        self.wrap(checkpoint, "load_checkpoint", "read+parse")
        self.wrap(checkpoint, "build_model", "build_model")
        self.wrap(checkpoint, "unpack_codes", "unpack_codes")  # called here by older loaders
        self.wrap(quantizer, "unpack_codes", "unpack_codes")  # reading QuantizedTensor.codes
        self.wrap(quantizer.QuantizedTensor, "values", "dequantize")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def quantize_workers(master, categories) -> int:
    """The threads, the caller included, that ran quantize in one quantize_params call."""
    quantize, seen = quantizer.quantize, set()

    def recording(*args, **kwargs):
        seen.add(threading.get_ident())
        return quantize(*args, **kwargs)

    quantizer.quantize = recording
    try:
        quantizer.quantize_params(master.params, categories, Q228)
    finally:
        quantizer.quantize = quantize
    return len(seen)


def one_round(master, categories, meta, path, timer=None) -> dict[str, float]:
    t0 = _now()
    saved = quantizer.quantize_params(master.params, categories, Q228)
    t1 = _now()
    checkpoint.save_checkpoint(path, saved, meta)
    t2 = _now()
    checkpoint.load_model(path)
    t3 = _now()
    row = {"save": (t2 - t0) / 1e6, "load": (t3 - t2) / 1e6}
    if timer is not None:
        ns = timer.ns
        row.update({
            "quantize_params": (t1 - t0) / 1e6,
            "pack": ns["pack"] / 1e6,
            "write+fsync": (t2 - t1 - ns["pack"]) / 1e6,
            "read+parse": ns["read+parse"] / 1e6,
            "unpack_codes": ns["unpack_codes"] / 1e6,
            "dequantize": ns["dequantize"] / 1e6,
            "build_model": (ns["build_model"] - ns["dequantize"]) / 1e6,
        })
        ns.clear()
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--warmup", type=int, default=3)
    ap.add_argument("--reps", type=int, default=30)
    args = ap.parse_args()
    master = init_model(CKPT, args.seed)
    categories = {name: cat for name, _, cat in param_specs(CKPT)}
    meta = trainer.CheckpointMeta(CKPT, Q228, None, trainer.TrainConfig("dq", seed=args.seed))
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        path = os.path.join(tmp, "ckpt.dqs")
        for _ in range(args.warmup):
            one_round(master, categories, meta, path)
        plain = [one_round(master, categories, meta, path) for _ in range(args.reps)]
        timer = PhaseTimer()
        timer.install()
        try:
            timed = [one_round(master, categories, meta, path, timer) for _ in range(args.reps)]
        finally:
            timer.uninstall()
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
    result["quantize_workers"] = quantize_workers(master, categories)
    print(f"{args.reps} rounds at {CKPT.vocab_size}x{CKPT.d_model}, 2-2-8; "
          f"quantize_params ran on {result['quantize_workers']} threads "
          f"({result['cpus']} CPUs)")
    for name in ("save", "load"):
        r = result[name]
        print(f"  {name}: plain p10 {r['plain_ms_p10']} ms, median {r['plain_ms_median']} ms; "
              f"{r['timed_ms_median']} ms with timers")
    print(f"  {'phase':<28}{'ms':>9}")
    for name, ms in result["phases_ms_median"].items():
        label = f"  (of which {name})" if name == "unpack_codes" else name
        print(f"  {label:<28}{ms:>9.3f}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
