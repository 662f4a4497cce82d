#!/usr/bin/env python3
"""Per-op time of greedy decoding at the decode-2-2-8 shape, and the rows each step decodes.

    python3 scripts/decode_times.py [--seed 0] [--batches 200]

Run from a dqseq checkout's root; ``scripts/probe.py`` finds the package and
the benchmark's workloads. As ``bench/run.py``'s decode-2-2-8 does, it
trains the ladder-shape teacher, takes its 2-2-8 view and greedy-decodes the
dev and test sources in 32-row batches with the 15-token cap. After one warm
pass it decodes ``--batches`` batches plainly (wall time per batch), then one
pass counting the rows that each ``decode_step`` call receives, then
``--batches`` batches with timers.

The timers wrap, through the probe: every tensor op as ``model`` resolves
it, ``model.quantize_activation``, and the phases ``encode``,
``decode_step`` and ``DecodeState.keep``. An op's calls are timed apart by
the phase that makes them: ``encode`` runs whole sources and returns the
batch's ``DecodeState``, ``decode_step`` one position a row. The copies that
extend each layer's self-attention keys and values are no tape op, so they
count in ``decode_step``'s self time. An op's self time leaves out the
wrapped calls made inside it. Times are ms per batch and calls are per batch;
us/call (``us_per_call``) is the inclusive time of one call, which shows an
op's fixed per-call cost. The JSON's ``forward`` table merges the phases and
``forward_by_phase`` holds one table per phase. The last line of stdout is
one JSON object; its ``missing`` lists the names the probe did not find.
"""

import argparse
import json
import statistics
import sys

from probe import Probe, now

import numpy as np

import workloads
from dqseq import model, quantizer
from dqseq.tasks import BOS, EOS, PAD, generate_task

PHASES = ("encode", "decode_step")


class DecodeProbe(Probe):
    """A probe over the names greedy decoding calls; each op's calls go to
    the table "forward <phase>" of the phase that makes them."""

    def __init__(self):
        super().__init__()
        self.phase = None

    def by_phase(self, name: str, fn):
        timed = {phase: self.timed(f"forward {phase}", name, fn) for phase in PHASES}
        return lambda *args, **kwargs: timed[self.phase](*args, **kwargs)

    def entering(self, phase: str, fn):
        timed = self.timed("phase", phase, fn)

        def wrapper(*args, **kwargs):
            outer, self.phase = self.phase, phase
            try:
                return timed(*args, **kwargs)
            finally:
                self.phase = outer

        return wrapper

    def merged(self, steps: int) -> dict[str, dict[str, float]]:
        """The forward table over both phases."""
        for (tab, op), row in list(self.rows.items()):
            if tab.startswith("forward "):
                total = self.rows[("forward", op)]
                total[:] = [a + b for a, b in zip(total, row)]
        return self.table("forward", steps)

    def install(self) -> None:
        self.patch_ops((model,), self.by_phase)
        self.patch(model, "quantize_activation",
                   lambda fn: self.by_phase("quantize_activation", fn))
        for phase in PHASES:
            self.patch(model, phase, lambda fn, phase=phase: self.entering(phase, fn))
        self.time(model.DecodeState, "keep", "phase", "DecodeState.keep")


def rows_per_step(view, chunks, cap: int, missing: list) -> list[list[int]]:
    """For each batch, the rows that each of its decode_step calls received."""
    seen = []
    with Probe() as probe:
        probe.before(model, "decode_step", lambda m, state, ids, *args, **kwargs:
                     seen[-1].append(int(np.asarray(ids).size)))
        for chunk in chunks:
            seen.append([])
            model.greedy_decode_batch(view, chunk, BOS, EOS, cap, PAD, a_bits=8)
    missing += probe.missing
    return seen


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--batches", type=int, default=200)
    args = ap.parse_args()
    size = workloads.SIZES["full"]
    splits = generate_task(workloads._task(args.seed, size))
    view = quantizer.quantize_model(workloads._trained_teacher(splits, size, args.seed),
                                    workloads.Q228)
    srcs = [s for s, _ in splits.dev.pairs + splits.test.pairs]
    chunks = [srcs[i : i + size.batch] for i in range(0, len(srcs), size.batch)]
    cap = size.ladder.max_positions - 1

    def decode(i: int):
        return model.greedy_decode_batch(view, chunks[i % len(chunks)], BOS, EOS, cap, PAD,
                                         a_bits=8)

    first = [decode(i) for i in range(len(chunks))]
    ms = []
    for i in range(args.batches):
        t0 = now()
        decode(i)
        ms.append((now() - t0) / 1e6)
    missing = []
    rows = rows_per_step(view, chunks, cap, missing)
    with DecodeProbe() as probe:
        probe.install()
        for i in range(args.batches):
            if decode(i) != first[i % len(chunks)]:
                raise SystemExit("a timed batch decoded other tokens than the warm pass")
    width = sum(len(c) * len(r) for c, r in zip(chunks, rows))
    result = {
        "batches": args.batches,
        "batch_ms_p10": round(float(np.percentile(ms, 10)), 3),
        "batch_ms_median": round(statistics.median(ms), 3),
        "rows_per_step": rows,
        "row_steps": sum(map(sum, rows)),
        "row_steps_if_every_row_ran": width,
        "phase": probe.table("phase", args.batches),
        "forward_by_phase": {phase: probe.table(f"forward {phase}", args.batches)
                             for phase in PHASES},
        "forward": probe.merged(args.batches),
        "missing": sorted(missing + probe.missing),
    }
    tables = {"phase": result["phase"], **result["forward_by_phase"], "forward": result["forward"]}
    for table in tables.values():
        for row in table.values():
            row["us_per_call"] = round(row["ms"] * 1e3 / row["calls"], 2)
    print(f"{args.batches} batches of {size.batch} rows to the {cap}-token cap: plain batch p10 "
          f"{result['batch_ms_p10']} ms, median {result['batch_ms_median']} ms")
    print(f"rows decoded at each step, per batch ({result['row_steps']} row-steps; "
          f"{width} if every row ran each of its batch's steps):")
    for r in rows:
        print("  " + " ".join(f"{n:>2}" for n in r))
    for title, table in tables.items():
        print(f"  {title + ' ops' if title in PHASES else title:<26}{'ms':>9}{'self ms':>9}"
              f"{'calls':>8}{'us/call':>9}")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["ms"]):
            print(f"  {name:<26}{row['ms']:>9.3f}{row['self_ms']:>9.3f}{row['calls']:>8.1f}"
                  f"{row['us_per_call']:>9.2f}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
