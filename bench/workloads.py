"""The three closed-loop workloads: one client, each request waits for the last.

Every workload takes its seed from the command line; the seed sets the task
(``TaskSpec.seed``), the init seeds and the batch order, so the same seed
gives the same inputs. Each returns a ``Result`` with its timings, its output
checks and, when traced, the per-layer figures read back from the spans.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from dqseq import checkpoint, metrics, model, quantizer, trainer
from dqseq.distiller import DistillConfig, init_student
from dqseq.model import ModelConfig, init_model, param_specs
from dqseq.quantizer import QuantConfig, QuantizedTensor
from dqseq.tasks import BOS, EOS, FIRST_CONTENT, PAD, TaskSpec, generate_task, seq2seq_batch

from tracing import Tracer, emitted_tokens

Q228 = QuantConfig(2, 2, 8)
# setup_s is the median of complete set-ups, repeated at least SETUP_REPEATS
# times and until SETUP_MIN_S is spent, so a cheap set-up gets a steady median
# even when a slow spell of the shared host covers part of the repeats
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 200
LOSS_WINDOW = 20  # steps averaged at each end of a phase for the loss check
WARMUP_FRACTION = 0.05  # of each phase's lr schedule, as TrainConfig defaults
CKPT_DIRECT_CHECK_EVERY = 10  # iterations between direct code/alpha comparisons


@dataclass(frozen=True)
class Size:
    ladder: ModelConfig
    batch: int
    train_size: int
    dev_size: int
    test_size: int
    teacher_lr: float
    dq_lr: float
    horizon: int  # lr-schedule length of each training phase, in steps
    decode_teacher_steps: int
    ckpt: ModelConfig
    min_samples: int  # timed samples each timing needs after warmup
    warmup: int


SIZES = {
    # the acceptance ladder's shape; ckpt is 256 wide with a 8192 vocab
    "full": Size(
        ladder=ModelConfig(16, 64, 4, 256, 2, 2, 16),
        batch=32, train_size=512, dev_size=64, test_size=64,
        teacher_lr=3e-3, dq_lr=1e-3, horizon=1000, decode_teacher_steps=40,
        ckpt=ModelConfig(8192, 256, 8, 1024, 2, 2, 64),
        min_samples=100, warmup=4,
    ),
    # for the self-test: every code path in a few seconds per workload; the
    # ladder shape stays, since narrower 2-bit views emit non-content ids
    "tiny": Size(
        ladder=ModelConfig(16, 64, 4, 256, 2, 2, 16),
        batch=16, train_size=64, dev_size=16, test_size=16,
        teacher_lr=3e-3, dq_lr=1e-3, horizon=200, decode_teacher_steps=40,
        ckpt=ModelConfig(64, 32, 2, 64, 1, 1, 16),
        min_samples=2 * LOSS_WINDOW, warmup=2,
    ),
}

# Each timing is printed as a p10, a median and a p90 of its untraced samples.
TIMINGS = ("teacher_step_ms", "dq_step_ms", "decode_batch_ms",
           "decode_step_ms",  # batch ms / decode steps run
           "save_ms", "load_ms")

# The end-to-end figures, by the names users know them by, with their units.
# BENCHMARK.json gates every workload on the same four metrics, so op1/op2
# name one timing of this table per workload (OP_SLOTS).
FIGURE_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    **{f"{t}_{q}": "ms" for t in TIMINGS for q in ("p10", "p50", "p90")},
    "dev_token_acc": "fraction",
    "decode_tokens_per_s": "tokens/s",
    "ckpt_bytes": "bytes",
}

# (op1, op2) timing of each workload: op1 is the request the workload is
# about, op2 the other latency its user waits on.
OP_SLOTS = {
    "ladder-train": ("dq_step_ms", "teacher_step_ms"),
    "decode-2-2-8": ("decode_batch_ms", "decode_step_ms"),
    "ckpt-2-2-8": ("load_ms", "save_ms"),
}

# The gated timings are p10s: on a shared host, slow spells of a few seconds
# come and go and move a run's median and p90 by 20-30%, while the p10 reads
# the program's speed outside them (bench/NOTES.md, "Noise and bounds").
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op1_ms_p10": "ms",
    "op2_ms_p10": "ms",
}


@dataclass
class Result:
    workload: str
    setup_s: float
    setup_repeats: int
    timings: dict[str, list[tuple[float, bool]]] = field(default_factory=dict)
    requests: dict[str, set[int]] = field(default_factory=dict)  # traced, after warmup
    figures: dict[str, float] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: dict[str, object] = field(default_factory=dict)

    def record(self, name: str, ms: float, traced: bool, kind: str, request: int) -> None:
        """Keep one timed sample (after warmup); note its request if traced."""
        self.timings.setdefault(name, []).append((ms, traced))
        if traced:
            self.requests.setdefault(kind, set()).add(request)

    def samples(self, name: str, traced: bool = False) -> list[float]:
        return [ms for ms, tr in self.timings.get(name, []) if tr == traced]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least 1-q of the samples lie at or above it."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median_setup(fn):
    """Repeat a complete set-up; return (median seconds, repeats, last value)."""
    times, value = [], None
    while len(times) < SETUP_REPEATS or (
        sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS
    ):
        value = None  # drop the previous set-up before building the next
        t0 = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times), value


def _task(seed: int, size: Size) -> TaskSpec:
    return TaskSpec("copy", vocab_size=size.ladder.vocab_size, max_len=12,
                    train_size=size.train_size, dev_size=size.dev_size,
                    test_size=size.test_size, seed=seed)


class Batches:
    """A fresh permutation of the train split each epoch, as train() draws."""

    def __init__(self, dataset, batch_size: int, rng: np.random.Generator):
        self.pairs, self.batch_size, self.rng = dataset.pairs, batch_size, rng
        self.order, self.pos = [], 0

    def next(self):
        if self.pos >= len(self.order):
            self.order, self.pos = self.rng.permutation(len(self.pairs)), 0
        rows = self.order[self.pos : self.pos + self.batch_size]
        self.pos += self.batch_size
        return seq2seq_batch([self.pairs[i] for i in rows])


def _freeze(m) -> None:
    """Stop gradients into a trained teacher, as train() does."""
    for t in m.params.values():
        t.requires_grad = False


def _teacher_step(student, batch, optimizer, step, horizon, size, rng):
    lr = trainer.lr_schedule(step, horizon, size.teacher_lr, WARMUP_FRACTION)
    return trainer.distillation_aware_step(
        student, None, batch, QuantConfig(), None, optimizer, lr, task_only=True, rng=rng)


def _train_phase(res, tracer, trace, kind, student, teacher, lmap, batches, rng, size,
                 budget_s) -> None:
    """Closed-loop training steps through distillation_aware_step until the
    budget is spent and enough samples are timed. kind "teacher" pretrains
    with the quantizer at 32 bits and the distiller bypassed; kind "dq"
    trains the 2-2-8 student against the frozen teacher."""
    optimizer = trainer.Adam(student.params)
    need = size.warmup + size.min_samples
    losses: list[float] = []
    start = time.perf_counter()
    step = 0
    while step < size.horizon and (step < need or time.perf_counter() - start < budget_s):
        batch = batches.next()
        traced = trace and step % 2 == 0
        res.attempted += 1
        with tracer.request(kind, "trainer.step", traced) as rid:
            t0 = time.perf_counter()
            try:
                if teacher is None:
                    bd = _teacher_step(student, batch, optimizer, step, size.horizon, size, rng)
                else:
                    lr = trainer.lr_schedule(step, size.horizon, size.dq_lr, WARMUP_FRACTION)
                    bd = trainer.distillation_aware_step(
                        student, teacher, batch, Q228, lmap, optimizer, lr, rng=rng)
                loss = bd.total.item()
            except trainer.TrainError:  # the step refuses a non-finite loss
                loss = math.nan
            ms = (time.perf_counter() - t0) * 1e3
        if not math.isfinite(loss):
            res.failed += 1
        losses.append(loss)
        if step >= size.warmup:
            res.record(f"{kind}_step_ms", ms, traced, kind, rid)
        step += 1
    first = float(np.mean(losses[:LOSS_WINDOW]))
    last = float(np.mean(losses[-LOSS_WINDOW:]))
    res.checks[f"{kind}_loss_decreases"] = last < first
    res.notes[f"{kind}_steps"] = step
    res.notes[f"{kind}_loss_first_last"] = [round(first, 4), round(last, 4)]


def ladder_train(seed, seconds, size, tracer, trace, out_dir) -> Result:
    """Teacher pretraining, then 2-2-8 joint distillation and quantization of
    a same-depth student, then one greedy-decode evaluation of the student."""

    def setup():
        return generate_task(_task(seed, size)), init_model(size.ladder, seed)

    setup_s, repeats, (splits, teacher) = _median_setup(setup)
    res = Result("ladder-train", setup_s, repeats)
    rng = np.random.default_rng(seed)
    batches = Batches(splits.train, size.batch, rng)
    _train_phase(res, tracer, trace, "teacher", teacher, None, None, batches, rng, size,
                 0.40 * seconds)
    _freeze(teacher)
    tracer.teacher = teacher
    cfg = size.ladder
    student, lmap = init_student(teacher, DistillConfig(cfg.n_enc_layers, cfg.n_dec_layers))
    _train_phase(res, tracer, trace, "dq", student, teacher, lmap, batches, rng, size,
                 0.55 * seconds)
    res.attempted += 1
    with tracer.request("eval", "trainer.evaluate", trace) as rid:
        report = trainer.evaluate(student, splits.dev, Q228, batch_size=size.batch)
    if trace:
        res.requests["eval"] = {rid}
    res.figures["dev_token_acc"] = report.token_acc
    res.checks["eval_scored_every_example"] = report.n_examples == len(splits.dev)
    if not res.checks["eval_scored_every_example"]:
        res.failed += 1
    return res


def _trained_teacher(splits, size, seed):
    """The ladder-train teacher phase, with its lr schedule fitted to
    size.decode_teacher_steps as train() fits it to its total steps."""
    teacher = init_model(size.ladder, seed)
    rng = np.random.default_rng(seed)
    batches = Batches(splits.train, size.batch, rng)
    optimizer = trainer.Adam(teacher.params)
    steps = size.decode_teacher_steps
    for step in range(steps):
        _teacher_step(teacher, batches.next(), optimizer, step, steps, size, rng)
    _freeze(teacher)
    return teacher


def decode_228(seed, seconds, size, tracer, trace, out_dir) -> Result:
    """Repeated greedy decoding of the dev+test sources through the 2-2-8
    view of a trained teacher: forwards only, no tape and no optimizer."""

    def setup():
        splits = generate_task(_task(seed, size))
        teacher = _trained_teacher(splits, size, seed)
        return splits, quantizer.quantize_model(teacher, Q228)

    setup_s, repeats, (splits, view) = _median_setup(setup)
    res = Result("decode-2-2-8", setup_s, repeats)
    srcs = [s for s, _ in splits.dev.pairs + splits.test.pairs]
    chunks = [srcs[i : i + size.batch] for i in range(0, len(srcs), size.batch)]
    cap = size.ladder.max_positions - 1
    vocab = size.ladder.vocab_size
    first_pass: list[list[list[int]]] = []
    tokens = seconds_spent = 0.0
    need = len(chunks) + size.min_samples  # the first pass is the warmup
    start = time.perf_counter()
    i = 0
    while i < need or time.perf_counter() - start < seconds:
        p, b = divmod(i, len(chunks))
        traced = trace and (p + b) % 2 == 0  # alternate batches, balanced over passes
        res.attempted += 1
        with tracer.request("decode", "model.decode_batch", traced) as rid:
            t0 = time.perf_counter()
            outs = model.greedy_decode_batch(view, chunks[b], BOS, EOS, cap, PAD, a_bits=8)
            ms = (time.perf_counter() - t0) * 1e3
            n_tok = emitted_tokens(outs, cap)
            tracer.add("model.decode_batches", 1)
            tracer.add("model.decode_tokens", n_tok)
        ok = all(len(o) <= cap and all(FIRST_CONTENT <= t < vocab for t in o) for o in outs)
        if p == 0:
            first_pass.append(outs)
        else:
            ok = ok and outs == first_pass[b]
        res.failed += not ok
        if p > 0:
            res.record("decode_batch_ms", ms, traced, "decode", rid)
            # a row that stops early took len+1 steps (the last emits EOS)
            steps_run = max(min(len(o) + 1, cap) for o in outs)
            res.record("decode_step_ms", ms / steps_run, traced, "decode", rid)
            if not traced:
                tokens += n_tok
                seconds_spent += ms / 1e3
        i += 1
    decoded = [o for outs in first_pass for o in outs]
    refs = [t[:-1] if t and t[-1] == EOS else list(t) for _, t in splits.dev.pairs]
    res.figures["dev_token_acc"] = metrics.accuracy(decoded[: len(refs)], refs, PAD)[0]
    res.figures["decode_tokens_per_s"] = tokens / seconds_spent
    res.checks["every_pass_same_tokens_content_ids_within_cap"] = res.failed == 0
    res.notes["decode_sha256"] = hashlib.sha256(json.dumps(decoded).encode()).hexdigest()
    res.notes["passes"] = i / len(chunks)
    return res


def check_loaded(saved: dict, loaded: dict) -> list[str]:
    """Names whose loaded float32 values are not bit for bit alpha*codes of
    the saved QuantizedTensor (or the saved float32 tensor)."""
    bad = sorted(set(saved) ^ set(loaded))
    for name in set(saved) & set(loaded):
        value = saved[name]
        want = value.values() if isinstance(value, QuantizedTensor) else value.data
        got = loaded[name].data
        if got.shape != want.shape or not np.array_equal(
            got.view(np.uint32), np.ascontiguousarray(want, np.float32).view(np.uint32)
        ):
            bad.append(name)
    return bad


def check_codes(saved: dict, params: dict) -> list[str]:
    """Names whose loaded codes, bit width or alphas differ from the saved ones."""
    bad = []
    for name, value in saved.items():
        if not isinstance(value, QuantizedTensor):
            continue
        got = params.get(name)
        if not (
            isinstance(got, QuantizedTensor)
            and got.bits == value.bits
            and np.array_equal(got.codes, value.codes)
            and np.array_equal(np.atleast_1d(got.alpha).view(np.uint32),
                               np.atleast_1d(value.alpha).view(np.uint32))
        ):
            bad.append(name)
    return bad


def ckpt_228(seed, seconds, size, tracer, trace, out_dir) -> Result:
    """quantize_params -> save_checkpoint -> load_model on a wide random-init
    model, repeated on one file: 2-bit packing, unpacking and file I/O."""
    cfg = size.ckpt

    def setup():
        m = init_model(cfg, seed)
        categories = {name: cat for name, _, cat in param_specs(cfg)}
        meta = trainer.CheckpointMeta(cfg, Q228, None, trainer.TrainConfig("dq", seed=seed))
        return m, categories, meta

    setup_s, repeats, (master, categories, meta) = _median_setup(setup)
    res = Result("ckpt-2-2-8", setup_s, repeats)
    path = os.path.join(out_dir, f"ckpt-{os.getpid()}.dqs")
    need = size.warmup + size.min_samples
    start = time.perf_counter()
    i = 0
    try:
        while i < need or time.perf_counter() - start < seconds:
            traced = trace and i % 2 == 0
            res.attempted += 2
            with tracer.request("save", "checkpoint.save", traced) as save_rid:
                t0 = time.perf_counter()
                saved = quantizer.quantize_params(master.params, categories, Q228)
                with tracer.span("checkpoint.save_checkpoint"):
                    checkpoint.save_checkpoint(path, saved, meta)
                save_ms = (time.perf_counter() - t0) * 1e3
            with tracer.request("load", "checkpoint.load_model", traced) as load_rid:
                t0 = time.perf_counter()
                loaded, _ = checkpoint.load_model(path)
                load_ms = (time.perf_counter() - t0) * 1e3
            bad = check_loaded(saved, loaded.params)
            if i % CKPT_DIRECT_CHECK_EVERY == 0:
                bad += check_codes(saved, checkpoint.load_checkpoint(path)[0])
            res.failed += bool(bad)
            if i == 0:
                res.figures["ckpt_bytes"] = os.path.getsize(path)
            if i >= size.warmup:
                res.record("save_ms", save_ms, traced, "save", save_rid)
                res.record("load_ms", load_ms, traced, "load", load_rid)
            i += 1
    finally:
        if os.path.exists(path):
            os.remove(path)
    res.figures["footprint_bytes"] = metrics.footprint(cfg, Q228).total_bytes
    res.checks["loaded_equals_saved_bit_for_bit"] = res.failed == 0
    res.notes["iterations"] = i
    res.notes["params_m"] = round(sum(t.size for t in master.params.values()) / 1e6, 3)
    return res


WORKLOADS = {
    "ladder-train": ladder_train,
    "decode-2-2-8": decode_228,
    "ckpt-2-2-8": ckpt_228,
}


# ---------------------------------------------------------------------------
# metrics read back from a Result (and, when traced, from the spans)

# (metric, span or counter name, unit, scale); training metrics are per step
# and get a .teacher or .dq suffix, "<span>.self" is span time minus children
STEP_LAYERS = [
    ("trainer.step_ms", "trainer.step", "ms", 1.0),
    ("trainer.step_self_ms", "trainer.step.self", "ms", 1.0),
    ("quantizer.quantize_model_ms", "quantizer.quantize_model", "ms", 1.0),
    ("quantizer.quantize_activation_ms", "quantizer.quantize_activation", "ms", 1.0),
    ("quantizer.quantize_activation_calls", "quantizer.quantize_activation_calls", "count", 1.0),
    ("model.student_forward_ms", "model.student_forward", "ms", 1.0),
    ("model.teacher_forward_ms", "model.teacher_forward", "ms", 1.0),
    ("distiller.total_loss_ms", "distiller.total_loss", "ms", 1.0),
    ("tensor.backward_ms", "tensor.backward", "ms", 1.0),
    ("tensor.tape_nodes", "tensor.tape_nodes", "count", 1.0),
    ("tensor.live_tapes_max", "tensor.live_tapes_max", "count", 1.0),
    ("tensor.matmul_gflop", "tensor.matmul_flop", "GFLOP", 1e-9),
    ("trainer.grad_norm_ms", "trainer.grad_norm", "ms", 1.0),
    ("trainer.adam_update_ms", "trainer.adam_update", "ms", 1.0),
]
# per greedy_decode_batch call: the decode workload's requests, and the
# batches of ladder-train's closing evaluation
DECODE_LAYERS = [
    ("quantizer.quantize_activation_ms", "quantizer.quantize_activation", "ms", 1.0),
    ("quantizer.quantize_activation_calls", "quantizer.quantize_activation_calls", "count", 1.0),
    ("tensor.matmul_gflop", "tensor.matmul_flop", "GFLOP", 1e-9),
    ("model.decode_forward_ms", "model.decode_forward", "ms", 1.0),
    ("model.decode_forward_calls", "model.decode_forward_calls", "count", 1.0),
    ("model.decode_positions", "model.decode_positions", "count", 1.0),
]
# per save (quantize_params + save_checkpoint) or load (load_model) request
CKPT_LAYERS = [
    ("quantizer.quantize_params_ms", "quantizer.quantize_params", "ms", 1.0),
    ("quantizer.pack_codes_ms", "quantizer.pack_codes", "ms", 1.0),
    ("checkpoint.save_self_ms", "checkpoint.save_checkpoint.self", "ms", 1.0),
    ("quantizer.unpack_codes_ms", "quantizer.unpack_codes", "ms", 1.0),
    ("checkpoint.load_self_ms", "checkpoint.load_model.self", "ms", 1.0),
    ("checkpoint.build_model_ms", "checkpoint.build_model", "ms", 1.0),
]
PHASES = ("teacher", "dq")


def layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit; each traced run prints all of
    them, with 0 for a layer the workload never calls."""
    units = {f"{m}.{p}": u for m, _, u, _ in STEP_LAYERS for p in PHASES}
    units.update({m: u for m, _, u, _ in DECODE_LAYERS + CKPT_LAYERS})
    units["model.decode_useful_ratio"] = "ratio"
    units["checkpoint.overhead_bytes"] = "bytes"
    units["trace.overhead_pct"] = "%"
    return units


def layer_metrics(res: Result, tracer: Tracer) -> dict[str, float]:
    out: dict[str, float] = {}
    for phase in PHASES:
        reqs = res.requests.get(phase, set())
        tot = tracer.totals(reqs)
        for metric, key, _, k in STEP_LAYERS:
            per = 1 if key.endswith("_max") else max(len(reqs), 1)
            out[f"{metric}.{phase}"] = tot[key] * k / per
    tot = tracer.totals(res.requests.get("decode", set()) | res.requests.get("eval", set()))
    batches = max(tot["model.decode_batches"], 1)
    for metric, key, _, k in DECODE_LAYERS:
        out[metric] = tot[key] * k / batches
    rows = tot["model.decode_row_positions"]
    out["model.decode_useful_ratio"] = tot["model.decode_tokens"] / rows if rows else 0.0
    iters = max(len(res.requests.get("save", set())), 1)
    tot = tracer.totals(res.requests.get("save", set()) | res.requests.get("load", set()))
    for metric, key, _, k in CKPT_LAYERS:
        out[metric] = tot[key] * k / iters
    out["checkpoint.overhead_bytes"] = (
        res.figures.get("ckpt_bytes", 0) - res.figures.get("footprint_bytes", 0))
    op1 = OP_SLOTS[res.workload][0]
    traced, plain = res.samples(op1, True), res.samples(op1, False)
    out["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1)
    return out


def figures(res: Result) -> dict[str, tuple[float, int]]:
    """The workload's end-to-end figures by their own names, as (value, n),
    from untraced samples only; n is the sample count (1 for single figures)."""
    out: dict[str, tuple[float, int]] = {
        "setup_s": (res.setup_s, res.setup_repeats),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    for name in res.timings:
        vals = res.samples(name)
        out[f"{name}_p10"] = (percentile(vals, 0.1), len(vals))
        out[f"{name}_p50"] = (statistics.median(vals), len(vals))
        out[f"{name}_p90"] = (percentile(vals, 0.9), len(vals))
    for name, value in res.figures.items():
        if name in FIGURE_UNITS:
            out[name] = (value, 1)
    return out


def end_to_end(res: Result, figs: dict[str, tuple[float, int]]) -> dict[str, float]:
    op1, op2 = OP_SLOTS[res.workload]
    return {
        "setup_s": figs["setup_s"][0],
        "peak_rss_mb": figs["peak_rss_mb"][0],
        "op1_ms_p10": figs[f"{op1}_p10"][0],
        "op2_ms_p10": figs[f"{op2}_p10"][0],
    }
