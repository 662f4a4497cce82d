"""Acceptance checks: one test per release criterion, run by plain pytest.

Each test asserts its criterion at the stated tolerance and prints one line
with the measured quantities, so `pytest -v` reads as a pass/fail report.
The compression-ladder fixture trains real models through harness.run_experiments
and dominates the runtime (about 5 minutes of runs summed on a 2-vCPU host, which
the runner spreads over the CPUs); everything else finishes in seconds.
"""

import hashlib
import json
import statistics
import time

import numpy as np
import pytest

from dqseq.checkpoint import load_checkpoint, save_checkpoint
from dqseq.distiller import DistillConfig, init_student, select_layers, total_loss
from dqseq.harness import RunManifest, run_experiment, run_experiments, write_table
from dqseq.metrics import bart_base_param_specs, footprint, rouge_l
from dqseq.model import ModelConfig, forward, init_model, param_specs
from dqseq.quantizer import (
    QuantConfig,
    QuantizedTensor,
    quantize,
    quantize_params,
)
from dqseq.tasks import PAD, TaskSpec
from dqseq.tensor import (
    Tape,
    Tensor,
    add,
    attention_context,
    attention_scores,
    backward,
    cross_entropy,
    dropout,
    embedding_gather,
    gelu,
    layer_norm,
    linear,
    matmul,
    mse,
    pad_rows,
    straight_through,
    transpose,
)
from dqseq.trainer import TrainConfig

from conftest import LADDER_MODEL, LADDER_TASK
from tape_ops import mul, scale, sum_all

from oracles import (
    brute_force_lcs,
    fd_grad,
    fd_param_grad,
    ref_attention_context,
    ref_attention_scores,
    ref_cross_entropy,
    ref_distill_total,
    ref_forward,
    ref_gelu,
    ref_layer_norm,
    ref_linear,
    ref_linear_quantize,
    ref_mse,
    ref_twn_quantize,
    rel_err,
)

# ---------------------------------------------------------------------------
# 1. footprint arithmetic for the bart-base layout

# (w, e, a, enc, dec) -> expected compression ratio vs the 32-bit 6-6 model
EXPECTED_RATIOS = [
    ((8, 8, 8), 6, 6, 3.9),
    ((2, 2, 8), 6, 6, 13.6),
    ((2, 2, 8), 6, 3, 16.5),
    ((2, 2, 8), 6, 1, 19.2),
    ((2, 2, 8), 3, 1, 23.5),
    ((2, 2, 8), 1, 1, 27.7),
]
EXPECTED_FULL_MIB = 531.0


def test_bart_base_footprint_matches_reference_ratios():
    start = time.perf_counter()
    baseline = bart_base_param_specs()
    full = footprint(baseline, QuantConfig())
    assert abs(full.size_mib - EXPECTED_FULL_MIB) / EXPECTED_FULL_MIB <= 0.10

    measured = []
    for bits, enc, dec, want in EXPECTED_RATIOS:
        fp = footprint(bart_base_param_specs(enc, dec), QuantConfig(*bits), baseline=baseline)
        measured.append(fp.ratio)
        assert abs(fp.ratio - want) / want <= 0.10, (bits, enc, dec, fp.ratio, want)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS footprint: 32-bit {full.size_mib:.2f} MiB, ratios "
          + " ".join(f"{r:.3f}" for r in measured) + f" ({elapsed * 1e3:.0f} ms)")


# ---------------------------------------------------------------------------
# 2. quantizer equivalence against the independent transcription


def test_quantizers_match_independent_reference():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    ls_worst = 0.0
    twn_cases = 0
    for i in range(1000):
        n = int(rng.integers(1, 4097))
        w = (rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 0.3)).astype(np.float32)
        bits = (8, 4, 2)[i % 3]
        if bits == 2:
            q = quantize(w, 2)
            alpha, codes = ref_twn_quantize(w)
        else:
            q = quantize(w, bits)
            alpha, codes = ref_linear_quantize(w, bits)
        assert q.alpha == alpha, (i, n, bits)
        assert np.array_equal(q.codes, codes), (i, n, bits)
        if bits == 2:
            b = q.codes.astype(np.float64)
            k = float(b @ b)
            if k > 0:
                twn_cases += 1
                ls = float(w.astype(np.float64) @ b) / k
                ls_worst = max(ls_worst, abs(float(q.alpha) - ls))
    assert twn_cases > 0
    assert ls_worst <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS quantizers: 1000 vectors bit-exact, worst ternary alpha vs "
          f"least-squares {ls_worst:.2e} over {twn_cases} cases ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# 3. layer selection fixtures


def test_layer_selection_fixtures():
    fixtures = {(6, 3): [0, 3, 5], (6, 2): [0, 5], (6, 1): [5]}
    for (teacher, student), want in fixtures.items():
        got = select_layers(teacher, student)
        assert got == want, (teacher, student, got)
    print(f"PASS layer map: {fixtures}")


# ---------------------------------------------------------------------------
# 4. distillation loss identities

LOSS_CFG = ModelConfig(vocab_size=16, d_model=16, n_heads=2, d_ff=32,
                       n_enc_layers=2, n_dec_layers=2, max_positions=16)
DIST_KEYS = ("logits", "enc_attn", "dec_attn", "cross_attn",
             "enc_hidden", "dec_hidden", "dist")


def _rand_batch(rng, batch, src_len, tgt_len, vocab):
    src = rng.integers(4, vocab, size=(batch, src_len)).astype(np.int64)
    src[0, -1] = PAD
    dec_in = rng.integers(4, vocab, size=(batch, tgt_len)).astype(np.int64)
    dec_in[:, 0] = 1
    dec_in[-1, -1] = PAD
    labels = rng.integers(4, vocab, size=(batch, tgt_len)).astype(np.int64)
    labels[-1, -1] = PAD
    return src, dec_in, labels


def test_distillation_loss_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(4)

    teacher = init_model(LOSS_CFG, seed=0)
    clone, lmap = init_student(teacher, DistillConfig(2, 2))
    src, dec_in, labels = _rand_batch(rng, 3, 5, 4, 16)
    with Tape():
        st = forward(clone, src, dec_in, PAD)
        tt = forward(teacher, src, dec_in, PAD)
        bd = total_loss(st, tt, labels, lmap, PAD)
    for key in DIST_KEYS:
        assert getattr(bd, key).data == np.float32(0.0), key
    assert bd.total.data == bd.task.data

    # arbitrary student/teacher pairs: the component sum reproduces the
    # total bit-for-bit in the recorded float32 association
    for case in range(8):
        teacher = init_model(LOSS_CFG, seed=10 + case)
        student, lmap = init_student(teacher, DistillConfig(2, 1 + case % 2))
        for t in student.params.values():
            t.data += rng.standard_normal(t.data.shape).astype(np.float32) * 0.1
        src, dec_in, labels = _rand_batch(rng, 2 + case % 3, 4 + case % 4, 3 + case % 3, 16)
        with Tape():
            st = forward(student, src, dec_in, PAD)
            tt = forward(teacher, src, dec_in, PAD)
            bd = total_loss(st, tt, labels, lmap, PAD)
        f = {k: getattr(bd, k).data for k in
             ("task", "logits", "enc_attn", "dec_attn", "cross_attn",
              "enc_hidden", "dec_hidden")}
        dist = (f["logits"] + ((f["enc_attn"] + f["dec_attn"]) + f["cross_attn"])) \
            + (f["enc_hidden"] + f["dec_hidden"])
        assert dist == bd.dist.data, case
        assert f["task"] + dist == bd.total.data, case
        assert all(v >= 0.0 for v in f.values())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS loss identities: clone components all zero, "
          f"8 random cases sum exactly ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# 5. gradients against central finite differences


def _check_grads(tensors, fwd32, fwd64):
    """Backprop the float32 graph once, then fd-check every input element."""
    for t in tensors:
        t.grad = None
    with Tape():
        loss = fwd32(*tensors)
        backward(loss)
    probes = 0
    arrays = [t.data.astype(np.float64) for t in tensors]
    for i, t in enumerate(tensors):
        def f(xi, i=i):
            args = list(arrays)
            args[i] = xi
            return fwd64(*args)

        fd = fd_grad(f, arrays[i])
        assert t.grad is not None
        bad = np.abs(t.grad - fd) > 1e-6 + 1e-3 * np.abs(fd)
        assert not bad.any(), (fwd32, i, t.grad[bad], fd[bad])
        probes += t.data.size
    return probes


def test_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(5)

    def T(*shape):
        return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)

    C = {}  # fixed mixing coefficients so sums have non-uniform gradients

    def mix(shape):
        if shape not in C:
            C[shape] = rng.standard_normal(shape).astype(np.float32)
        return C[shape]

    def w32(out, shape):
        return sum_all(mul(out, Tensor(mix(shape))))

    def w64(out, shape):
        return float((out * mix(shape)).sum())

    def heads(x, keys=False):  # two heads, made as the model makes queries, keys and values
        return linear(x, np.eye(4, dtype=np.float32), np.zeros(4, np.float32), 2, keys)

    a34, b34, m34 = T(3, 4), T(3, 4), T(3, 4)
    key_mask = np.ones((2, 1, 1, 5), bool)
    key_mask[0, ..., 3] = False  # one masked key in the first row
    ids = np.array([[0, 3, 3], [5, 1, 0]], np.int64)
    targets = np.array([1, 2, 0, 4, 3, 2], np.int64)
    msk = (rng.random((3, 4)) < 0.6).astype(np.float32)
    msk.flat[0] = 1.0

    drop_seed = 11

    def drop_keep(shape):
        return (np.random.default_rng(drop_seed).random(shape) >= 0.5) * 2.0

    rows = np.array([[True, False, True], [True, True, False]])  # 4 real positions of [2, 3]

    def padded(packed):  # float64 packed rows laid out at rows, zeros elsewhere
        out = np.zeros(rows.shape + packed.shape[1:])
        out[rows] = packed
        return out

    cases = [
        ("matmul", (T(3, 4), T(4, 5)),
         lambda a, b: w32(matmul(a, b), (3, 5)),
         lambda a, b: w64(a @ b, (3, 5))),
        ("matmul shared rhs", (T(2, 3, 4), T(4, 5)),
         lambda a, b: w32(matmul(a, b), (2, 3, 5)),
         lambda a, b: w64(a @ b, (2, 3, 5))),
        ("add", (a34, b34),
         lambda a, b: w32(add(a, b), (3, 4)),
         lambda a, b: w64(a + b, (3, 4))),
        ("mul", (a34, b34),
         lambda a, b: w32(mul(a, b), (3, 4)),
         lambda a, b: w64(a * b, (3, 4))),
        ("scale", (T(3, 4),),
         lambda a: w32(scale(a, 1.7), (3, 4)),
         lambda a: w64(a * 1.7, (3, 4))),
        ("gelu", (T(3, 4),),
         lambda a: w32(gelu(a), (3, 4)),
         lambda a: w64(ref_gelu(a), (3, 4))),
        ("linear", (T(2, 3, 4), T(4, 5), T(5)),
         lambda x, w, b: w32(linear(x, w, b), (2, 3, 5)),
         lambda x, w, b: w64(ref_linear(x, w, b), (2, 3, 5))),
        ("linear packed rows into heads", (T(4, 3), T(3, 4), T(4)),
         lambda x, w, b: w32(linear(x, w, b, 2, False, rows), (2, 2, 3, 2)),
         lambda x, w, b: w64(padded(ref_linear(x, w, b)).reshape(2, 3, 2, 2)
                             .transpose(0, 2, 1, 3), (2, 2, 3, 2))),
        ("linear packed rows into key heads", (T(4, 3), T(3, 4), T(4)),
         lambda x, w, b: w32(linear(x, w, b, 2, True, rows), (2, 2, 2, 3)),
         lambda x, w, b: w64(padded(ref_linear(x, w, b)).reshape(2, 3, 2, 2)
                             .transpose(0, 2, 3, 1), (2, 2, 2, 3))),
        ("pad_rows", (T(4, 3),),
         lambda a: w32(pad_rows(a, rows), (2, 3, 3)),
         lambda a: w64(padded(a), (2, 3, 3))),
        # the reference's fill moves no gradient; MASK_VALUE's -1e9 would swamp the fd
        ("attention_scores masked key", (T(2, 3, 4), T(2, 5, 4)),
         lambda q, k: w32(attention_scores(heads(q), heads(k, keys=True), key_mask),
                          (2, 2, 3, 5)),
         lambda q, k: w64(ref_attention_scores(q, k, key_mask, 2, -2.0), (2, 2, 3, 5))),
        ("attention_context dropout", (T(2, 2, 3, 5), T(2, 5, 4)),
         lambda s, v: w32(attention_context(s, heads(v), 0.5, np.random.default_rng(drop_seed)),
                          (2, 3, 4)),
         lambda s, v: w64(ref_attention_context(s, v, 2, drop_keep((2, 2, 3, 5))), (2, 3, 4))),
        ("attention_context packed rows dropout", (T(2, 2, 3, 5), T(2, 5, 4)),
         lambda s, v: w32(attention_context(s, heads(v), 0.5, np.random.default_rng(drop_seed),
                                            rows), (4, 4)),
         lambda s, v: w64(ref_attention_context(s, v, 2, drop_keep((2, 2, 3, 5)))[rows], (4, 4))),
        ("layer_norm", (T(3, 4), T(4), T(4)),
         lambda a, g, b: w32(layer_norm(a, g, b), (3, 4)),
         lambda a, g, b: w64(ref_layer_norm(a, g, b), (3, 4))),
        ("embedding_gather", (T(7, 4),),
         lambda t: w32(embedding_gather(t, ids), (2, 3, 4)),
         lambda t: w64(t[ids], (2, 3, 4))),
        ("embedding_gather scaled plus positions", (T(7, 4), T(3, 4)),
         lambda t, p: w32(embedding_gather(t, ids, 1.5, p, ids % 3), (2, 3, 4)),
         lambda t, p: w64(t[ids] * 1.5 + p[ids % 3], (2, 3, 4))),
        ("dropout", (T(3, 4),),
         lambda a: w32(dropout(a, 0.5, np.random.default_rng(drop_seed)), (3, 4)),
         lambda a: w64(a * drop_keep((3, 4)), (3, 4))),
        ("cross_entropy [2, 3, 5]", (T(2, 3, 5),),
         lambda z: cross_entropy(z, targets.reshape(2, 3), ignore_id=0),
         lambda z: float(ref_cross_entropy(z.reshape(6, 5), targets, 0))),
        ("transpose", (T(3, 4),),
         lambda a: w32(transpose(a), (4, 3)),
         lambda a: w64(a.T, (4, 3))),
        ("sum_all", (T(3, 4),),
         lambda a: sum_all(a),
         lambda a: float(a.sum())),
        ("mse", (T(3, 4), T(3, 4)),
         lambda a, b: mse(a, b),
         lambda a, b: float(ref_mse(a, b))),
        ("mse masked", (T(3, 4), T(3, 4)),
         lambda a, b: mse(a, b, mask=msk),
         lambda a, b: float(ref_mse(a, b, msk))),
        ("cross_entropy", (T(6, 5),),
         lambda z: cross_entropy(z, targets, ignore_id=0),
         lambda z: float(ref_cross_entropy(z, targets, 0))),
    ]
    op_probes = 0
    for name, tensors, f32, f64 in cases:
        try:
            op_probes += _check_grads(list(tensors), f32, f64)
        except AssertionError as exc:
            raise AssertionError(f"gradient mismatch in {name}: {exc}") from exc
    assert op_probes >= 100

    # end to end: distillation total on a one-layer model, teacher fixed
    cfg = ModelConfig(vocab_size=10, d_model=8, n_heads=2, d_ff=16,
                      n_enc_layers=1, n_dec_layers=1, max_positions=8)
    teacher = init_model(cfg, seed=0)
    for t in teacher.params.values():
        t.requires_grad = False
    student, lmap = init_student(teacher, DistillConfig(1, 1))
    for t in student.params.values():
        t.data += rng.standard_normal(t.data.shape).astype(np.float32) * 0.05

    src = np.array([[4, 5, 6, 0], [7, 8, 9, 5]], np.int64)
    dec_in = np.array([[1, 4, 5], [1, 6, 0]], np.int64)
    labels = np.array([[4, 5, 2], [6, 2, 0]], np.int64)
    with Tape():
        st = forward(student, src, dec_in, PAD)
        tt = forward(teacher, src, dec_in, PAD)
        bd = total_loss(st, tt, labels, lmap, PAD)
        backward(bd.total)

    p64 = {k: v.data.astype(np.float64) for k, v in student.params.items()}
    t64 = {k: v.data.astype(np.float64) for k, v in teacher.params.items()}
    ttrace = ref_forward(cfg, t64, src, dec_in, PAD)

    def loss64():
        strace = ref_forward(cfg, p64, src, dec_in, PAD)
        return ref_distill_total(strace, ttrace, labels, lmap.enc, lmap.dec, PAD)

    e2e_probes = 0
    for name, tensor in student.params.items():
        idxs = rng.choice(tensor.data.size, size=min(3, tensor.data.size), replace=False)
        for idx in idxs:
            fd = fd_param_grad(loss64, p64[name], int(idx))
            floor = max(1e-6, 1e-2 * abs(fd))
            err = rel_err(tensor.grad.flat[idx], fd, floor)
            assert err <= 1e-3, (name, idx, tensor.grad.flat[idx], fd)
            e2e_probes += 1
    assert e2e_probes >= 100

    # quantization passes the loss gradient through to the master weight
    w = Tensor(np.array([0.4], np.float32), requires_grad=True)
    q = quantize(w.data, 8)
    with Tape():
        d = add(straight_through(w, q.values()), -0.1)
        backward(sum_all(mul(d, d)))
    assert w.grad[0] == np.float32(2.0) * (q.values()[0] - np.float32(0.1))

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"PASS gradients: {op_probes} op probes, {e2e_probes} end-to-end "
          f"probes, exact pass-through probe ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# 6 and 7. trained compression ladder on the copy task

SEEDS = (0, 1, 2)
TEACHER_EPOCHS = 60
STUDENT_EPOCHS = 40
LR = 1e-3


# each seed's student runs against its teacher: name -> (mode, qconfig, dconfig).
# ladder_secs sums the teacher and the first three, pair_secs the last two
STUDENTS = {
    "dq8": ("dq", QuantConfig(8, 8, 8), DistillConfig(2, 2)),
    "dq2": ("dq", QuantConfig(2, 2, 8), DistillConfig(2, 2)),
    "direct": ("direct_quant", QuantConfig(2, 2, 8), None),
    "dq21": ("dq", QuantConfig(8, 8, 8), DistillConfig(2, 1)),
    "d11": ("distill_only", None, DistillConfig(1, 1)),
}


@pytest.fixture(scope="module")
def ladder(tmp_path_factory):
    """The ladder as one job graph for run_experiments: each seed's teacher,
    and that seed's five students once the teacher's checkpoint is written.
    Each run's record is its best epoch's (direct quantization's only one),
    read back from the checkpoint it saved; its seconds are its wall_clock."""
    root = tmp_path_factory.mktemp("ladder")
    runs = {}
    for seed in SEEDS:
        teacher = str(root / f"teacher-{seed}.ckpt")
        runs["teacher", seed] = RunManifest(
            LADDER_TASK, TrainConfig("teacher", epochs=TEACHER_EPOCHS, learning_rate=LR, seed=seed),
            model_config=LADDER_MODEL, out_path=teacher)
        for name, (mode, qconfig, dconfig) in STUDENTS.items():
            runs[name, seed] = RunManifest(
                LADDER_TASK, TrainConfig(mode, epochs=STUDENT_EPOCHS, learning_rate=LR, seed=seed),
                quant_config=qconfig, distill_config=dconfig, teacher_path=teacher,
                out_path=str(root / f"{name}-{seed}.ckpt"))
    run_experiments(list(runs.values()))
    out, secs = {}, {}
    for (name, _), m in runs.items():  # seed order within each name
        meta = load_checkpoint(m.out_path)[1]
        out.setdefault(name, []).append(meta.history[meta.best_epoch])
        secs[name] = secs.get(name, 0.0) + m.wall_clock
    out["teacher_secs"] = [runs["teacher", seed].wall_clock for seed in SEEDS]
    out["ladder_secs"] = sum(secs[k] for k in ("teacher", "dq8", "dq2", "direct"))
    out["pair_secs"] = secs["dq21"] + secs["d11"]
    return out


def _median(records, key: str) -> float:
    return statistics.median(r[key] for r in records)


def _records_sha256(ladder) -> str:
    """sha256 of every run's history record, the same however the jobs ran."""
    records = {k: ladder[k] for k in ("teacher", *STUDENTS)}
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


@pytest.mark.slow
def test_toy_compression_ladder_orderings(ladder):
    for secs, rec in zip(ladder["teacher_secs"], ladder["teacher"]):
        assert secs < 600.0
        assert rec["dev_token_acc"] >= 0.99, rec["dev_token_acc"]

    t = _median(ladder["teacher"], "dev_token_acc")
    q8 = _median(ladder["dq8"], "dev_token_acc")
    q2 = _median(ladder["dq2"], "dev_token_acc")
    dr = _median(ladder["direct"], "dev_token_acc")

    assert q8 >= t - 0.01, (t, q8)
    assert q2 >= t - 0.05, (t, q2)
    assert dr <= t - 0.50, (t, dr)
    assert t >= q8 >= q2 >= dr, (t, q8, q2, dr)
    assert ladder["ladder_secs"] < 2700.0
    print(f"PASS ladder: median dev token acc teacher {t:.4f} >= 8-8-8 {q8:.4f} "
          f">= 2-2-8 {q2:.4f} >= direct {dr:.4f} ({ladder['ladder_secs']:.0f} s; records "
          f"sha256 {_records_sha256(ladder)[:16]})")


@pytest.mark.slow
def test_joint_training_beats_distill_only_at_no_larger_footprint(ladder):
    shrunk = ModelConfig(16, 64, 4, 256, 2, 1, max_positions=16)
    halved = ModelConfig(16, 64, 4, 256, 1, 1, max_positions=16)
    dq_fp = footprint(shrunk, QuantConfig(8, 8, 8), baseline=LADDER_MODEL)
    do_fp = footprint(halved, QuantConfig(), baseline=LADDER_MODEL)
    assert dq_fp.total_bytes <= do_fp.total_bytes

    dq = _median(ladder["dq21"], "dev_rouge_l")
    do = _median(ladder["d11"], "dev_rouge_l")
    assert dq >= do, (dq, do)
    assert ladder["pair_secs"] < 1200.0
    print(f"PASS joint-vs-distill: 8-8-8 2-1 rouge-L {dq:.4f} >= 32-bit 1-1 "
          f"{do:.4f} at {dq_fp.total_bytes} vs {do_fp.total_bytes} bytes "
          f"({ladder['pair_secs']:.0f} s)")


# ---------------------------------------------------------------------------
# 8. rouge-L against the brute-force LCS oracle


def test_rouge_l_matches_brute_force_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    for case in range(100):
        pred = [str(x) for x in rng.integers(0, 5, size=rng.integers(1, 13))]
        ref = [str(x) for x in rng.integers(0, 5, size=rng.integers(1, 13))]
        lcs = brute_force_lcs(pred, ref)
        p, r = lcs / len(pred), lcs / len(ref)
        want = 0.0 if lcs == 0 else 2.0 * p * r / (p + r)
        got = rouge_l(pred, ref)
        assert got == want, (case, pred, ref, got, want)

    fixtures = [
        (["a", "b", "c"], ["a", "b", "c"], 1.0),
        (["a", "b", "c"], ["a", "c"], 0.8),
        (["a", "x", "b"], ["a", "b", "y"], 2.0 / 3.0),
    ]
    for pred, ref, want in fixtures:
        assert rouge_l(pred, ref) == pytest.approx(want, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS rouge: 100 random pairs exact, 3 fixtures ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# 9. persistence and reproducible report rows

SMALL = ModelConfig(vocab_size=16, d_model=16, n_heads=2, d_ff=32,
                    n_enc_layers=2, n_dec_layers=2, max_positions=16)


def test_persistence_round_trip_and_reproducible_rows(tmp_path):
    start = time.perf_counter()
    from dqseq.trainer import CheckpointMeta

    meta = CheckpointMeta(SMALL, QuantConfig(), DistillConfig(2, 2),
                          TrainConfig("teacher", epochs=1))
    model = init_model(SMALL, seed=0)
    path = str(tmp_path / "full.ckpt")
    save_checkpoint(path, model.params, meta)
    params, _ = load_checkpoint(path)
    for name, t in model.params.items():
        np.testing.assert_array_equal(params[name].data, t.data)

    cats = {n: c for n, _, c in param_specs(SMALL)}
    stored = quantize_params(model.params, cats, QuantConfig(2, 2, 8))
    qpath = str(tmp_path / "packed.ckpt")
    save_checkpoint(qpath, stored, meta)
    qparams, _ = load_checkpoint(qpath)
    packed = 0
    for name, value in stored.items():
        back = qparams[name]
        if isinstance(value, QuantizedTensor):
            packed += 1
            np.testing.assert_array_equal(back.alpha, value.alpha)
            np.testing.assert_array_equal(back.codes, value.codes)
        else:
            np.testing.assert_array_equal(back.data, value.data)
    assert packed > 0

    task = TaskSpec("copy", vocab_size=16, min_len=1, max_len=6,
                    train_size=48, dev_size=8, test_size=8, seed=0)
    tpath = str(tmp_path / "teacher.ckpt")
    run_experiment(RunManifest(
        task=task,
        train_config=TrainConfig("teacher", epochs=1, batch_size=16, learning_rate=1e-3),
        model_config=SMALL,
        out_path=tpath,
    ))
    tables = []
    for rerun in range(2):
        m = RunManifest(
            task=task,
            train_config=TrainConfig("direct_quant"),
            quant_config=QuantConfig(2, 2, 8),
            teacher_path=tpath,
        )
        run_experiment(m)
        out = str(tmp_path / f"table{rerun}.csv")
        write_table([m], out)
        tables.append(open(out).read())
    assert tables[0] == tables[1]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS persistence: {packed} packed tensors round-trip bit-exact, "
          f"identical manifests give identical rows ({elapsed:.1f} s)")
