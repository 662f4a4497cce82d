"""Manifest round-trips, experiment orchestration, and table output."""

import copy
import hashlib
import json
import multiprocessing
import os
import struct

import numpy as np
import pytest

from dqseq.checkpoint import load_checkpoint, load_model, save_checkpoint
from dqseq.cli import main
from dqseq.distiller import DistillConfig
from dqseq.harness import (
    TABLE_COLUMNS,
    HarnessError,
    RunManifest,
    run_experiment,
    run_experiments,
    write_table,
)
from dqseq.metrics import footprint
from dqseq.model import ModelConfig, param_specs
from dqseq.quantizer import QuantConfig, QuantizedTensor, quantize_params
from dqseq.tasks import TaskSpec, generate_task
from dqseq.trainer import TrainConfig, evaluate, train

TINY_TASK = TaskSpec("copy", vocab_size=16, min_len=1, max_len=6,
                     train_size=48, dev_size=8, test_size=8, seed=0)
TINY_MODEL = ModelConfig(vocab_size=16, d_model=16, n_heads=2, d_ff=32,
                         n_enc_layers=2, n_dec_layers=2, max_positions=16)


def teacher_manifest(out_path: str, epochs: int = 2, seed: int = 0,
                     model_config: ModelConfig = TINY_MODEL) -> RunManifest:
    return RunManifest(
        task=TINY_TASK,
        train_config=TrainConfig("teacher", epochs=epochs, batch_size=16, learning_rate=1e-3,
                                 seed=seed),
        model_config=model_config,
        out_path=out_path,
    )


def student_manifest(teacher_path: str, mode: str, qconfig: QuantConfig,
                     dconfig: DistillConfig | None, **kwargs) -> RunManifest:
    return RunManifest(
        task=TINY_TASK,
        train_config=TrainConfig(mode, epochs=1, batch_size=16, learning_rate=1e-3),
        quant_config=qconfig,
        distill_config=dconfig,
        teacher_path=teacher_path,
        **kwargs,
    )


@pytest.fixture(scope="module")
def teacher_ckpt(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("teacher") / "teacher.ckpt")
    run_experiment(teacher_manifest(path))
    return path


def test_content_hash_ignores_results():
    a = teacher_manifest("x.ckpt")
    b = teacher_manifest("x.ckpt")
    b.result = {"token_acc": 1.0}
    b.wall_clock = 5.0
    assert a.content_hash() == b.content_hash()
    assert len(a.content_hash()) == 64


def test_content_hash_tracks_inputs():
    a = teacher_manifest("x.ckpt")
    b = teacher_manifest("x.ckpt", epochs=3)
    assert a.content_hash() != b.content_hash()


def test_content_hash_covers_row_wise():
    per_tensor = student_manifest("t.ckpt", "dq", QuantConfig(2, 2, 8), DistillConfig(2, 1))
    per_row = student_manifest("t.ckpt", "dq", QuantConfig(2, 2, 8, row_wise=True),
                               DistillConfig(2, 1))
    assert per_tensor.content_hash() != per_row.content_hash()
    assert RunManifest.from_json(per_row.to_json()).quant_config.row_wise is True


def test_manifest_json_round_trip():
    m = student_manifest("t.ckpt", "dq", QuantConfig(2, 2, 8), DistillConfig(2, 1))
    m.result = {"token_acc": 0.5, "config": "2-2-8 2-1"}
    m.wall_clock = 1.25
    back = RunManifest.from_json(m.to_json())
    assert back == m
    assert back.content_hash() == m.content_hash()


def test_manifest_file_round_trip(tmp_path):
    m = teacher_manifest("t.ckpt")
    path = str(tmp_path / "run.json")
    m.save(path)
    assert RunManifest.load(path) == m


def _frozen_student() -> RunManifest:
    m = student_manifest("runs/teacher.ckpt", "dq", QuantConfig(2, 2, 8, row_wise=True),
                         DistillConfig(2, 1), out_path="runs/dq.ckpt")
    m.result = {"config": "2-2-8 2-1", "mode": "dq", "seed": 0, "size_mib": 0.125,
                "ratio": 9.5, "token_acc": 0.75, "seq_acc": 0.5, "rouge_1": 0.8,
                "rouge_2": 0.6, "rouge_l": 0.7}
    m.wall_clock = 1.25
    return m


# content_hash() and sha256(to_json()) of manifests already on disk: the writer
# must keep every stored manifest's content hash valid
FROZEN_MANIFESTS = [
    (lambda: teacher_manifest("runs/teacher.ckpt"),
     "88dbf9cc20ef33e32351bdef2f84c9c268496815db13525f2b12ee17b04dc14b",
     "fe9ccc56853d9246d58a02855768240975152a1babd2c12216edb7879f7fef73"),
    (_frozen_student,
     "3e2efc68e60a521a6ecafb0ad6b22bff0ad79f053efcb859ee8838867991cda6",
     "8d72e84011d6c9615ef7c79a327c1c714038a3d40357382708b5274fc520e8f9"),
]


@pytest.mark.parametrize("make, content_hash, json_sha256", FROZEN_MANIFESTS,
                         ids=["teacher", "dq-2-2-8-row-wise"])
def test_manifest_record_is_frozen(make, content_hash, json_sha256):
    m = make()
    assert m.content_hash() == content_hash
    assert hashlib.sha256(m.to_json().encode("utf-8")).hexdigest() == json_sha256


def test_tampered_hash_is_rejected():
    m = teacher_manifest("t.ckpt")
    text = m.to_json().replace('"epochs": 2', '"epochs": 9')
    with pytest.raises(HarnessError, match="hash"):
        RunManifest.from_json(text)


def _set(*keys, value):
    """An edit that sets one field of a manifest's JSON."""
    def edit(text: str) -> str:
        raw = json.loads(text)
        node = raw
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return json.dumps(raw)
    return edit


@pytest.mark.parametrize("edit", [
    lambda text: '{"task": {"kind": "copy"}}',
    _set("task", "bogus", value=1),
    lambda text: "[1, 2]",
    _set("train_config", "mode", value="nope"),
    _set("quant_config", value={"w_bits": 3}),
    _set("model_config", "n_heads", value=0),
    _set("task", "kind", value="nope"),
    lambda text: "not json",
    _set("result", value=[1, 2]),
    _set("result", value="abc"),
    _set("result", value={"config": "x"}),
], ids=["missing-keys", "unknown-task-field", "not-an-object", "mode", "w-bits", "n-heads",
        "task-kind", "not-json", "result-list", "result-string", "result-missing-column"])
def test_malformed_manifest_is_a_clean_error(tmp_path, capsys, edit):
    path = tmp_path / "bad.json"
    path.write_text(edit(teacher_manifest("t.ckpt").to_json()))
    with pytest.raises(HarnessError, match="manifest"):
        write_table([RunManifest.load(str(path))], str(tmp_path / "table.csv"))
    assert main(["table", str(path), "--out", str(tmp_path / "table.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: manifest")


def test_missing_teacher_fails_before_training(tmp_path):
    m = student_manifest(str(tmp_path / "absent.ckpt"), "dq",
                         QuantConfig(8, 8, 8), DistillConfig(2, 2))
    with pytest.raises(HarnessError, match="not found"):
        run_experiment(m)
    assert m.result == {}


def test_student_mode_requires_teacher_path():
    m = student_manifest("", "dq", QuantConfig(8, 8, 8), DistillConfig(2, 2))
    m.teacher_path = None
    with pytest.raises(HarnessError, match="teacher"):
        run_experiment(m)


def test_teacher_mode_requires_model_config():
    m = teacher_manifest(None, model_config=None)
    with pytest.raises(HarnessError, match=f"manifest {m.content_hash()[:12]}: .*model_config"):
        run_experiment(m)


def test_teacher_run_produces_row_and_checkpoint(tmp_path, teacher_ckpt):
    model, meta = load_model(teacher_ckpt)
    assert model.config == TINY_MODEL
    assert meta.train_config.mode == "teacher"

    m = teacher_manifest(teacher_ckpt)
    m.out_path = None
    row = run_experiment(m)
    assert set(row) == set(TABLE_COLUMNS)
    assert row["config"] == "32-32-32 2-2"
    assert row["mode"] == "teacher"
    assert row["ratio"] == 1.0
    assert 0.0 <= row["token_acc"] <= 1.0
    assert m.wall_clock > 0


def test_teacher_run_saves_its_float32_master(tmp_path):
    run, direct = tmp_path / "run.ckpt", tmp_path / "direct.ckpt"
    m = teacher_manifest(str(run))
    run_experiment(m)
    model, meta = train(None, m.train_config, generate_task(m.task), model_config=m.model_config)
    save_checkpoint(str(direct), model.params, meta)
    params, _ = load_checkpoint(str(run))
    assert not any(isinstance(v, QuantizedTensor) for v in params.values())  # tag 0 only
    assert run.read_bytes() == direct.read_bytes()


def format_overhead(path: str) -> int:
    """Bytes of a checkpoint that are not codes, scales or float32 values: the
    16-byte header, the config block, and each record's name, rank, dims, tag
    and (quantized) bits, alpha-rank and scale-count fields."""
    with open(path, "rb") as fh:
        fh.seek(8)
        overhead = 16 + struct.unpack("<Q", fh.read(8))[0]
    params, _ = load_checkpoint(path)
    for name, value in params.items():
        overhead += 8 + len(name.encode()) + 8 + 8 * len(value.shape) + 1
        if isinstance(value, QuantizedTensor):
            overhead += 1 + 1 + 8
    return overhead


@pytest.mark.parametrize("qconfig", [
    QuantConfig(2, 2, 8), QuantConfig(4, 4, 8), QuantConfig(8, 8, 8),
    QuantConfig(2, 4, 8, row_wise=True),
], ids=["2-2-8", "4-4-8", "8-8-8", "2-4-8-row-wise"])
def test_compress_saves_the_stored_set_it_scored(tmp_path, teacher_ckpt, qconfig):
    out = str(tmp_path / "student.ckpt")
    m = student_manifest(teacher_ckpt, "dq", qconfig, DistillConfig(2, 1), out_path=out)
    row = run_experiment(m)
    splits = generate_task(TINY_TASK)

    loaded, meta = load_model(out)
    assert meta.quant_config == qconfig
    report = evaluate(loaded, splits.test, QuantConfig(a_bits=qconfig.a_bits)).to_dict()
    assert report == {k: row[k] for k in report}

    # the same run again gives the master; the file holds its quantize_params, bit for bit
    master, _ = train(load_model(teacher_ckpt)[0], m.train_config, splits,
                      qconfig=qconfig, dconfig=m.distill_config)
    categories = {name: cat for name, _, cat in param_specs(master.config)}
    want = quantize_params(master.params, categories, qconfig)
    got, _ = load_checkpoint(out)
    assert set(got) == set(want)
    for name, w in want.items():
        if isinstance(w, QuantizedTensor):
            assert isinstance(got[name], QuantizedTensor) and got[name].bits == w.bits, name
            assert got[name].codes.tobytes() == w.codes.tobytes(), name
            assert got[name].alpha.tobytes() == w.alpha.tobytes(), name
        else:
            assert got[name].data.tobytes() == w.data.tobytes(), name
    assert any(isinstance(w, QuantizedTensor) for w in want.values())

    fp = footprint(master, qconfig)
    assert os.path.getsize(out) - format_overhead(out) == fp.total_bytes


def test_grid_rows_and_ratio_ordering(teacher_ckpt):
    grid = [
        student_manifest(teacher_ckpt, "dq", QuantConfig(8, 8, 8), DistillConfig(2, 2)),
        student_manifest(teacher_ckpt, "dq", QuantConfig(2, 2, 8), DistillConfig(2, 2)),
        student_manifest(teacher_ckpt, "dq", QuantConfig(2, 2, 8), DistillConfig(2, 1)),
        student_manifest(teacher_ckpt, "direct_quant", QuantConfig(2, 2, 8), None),
    ]
    rows = [run_experiment(m) for m in grid]
    labels = [r["config"] for r in rows]
    assert labels == ["8-8-8 2-2", "2-2-8 2-2", "2-2-8 2-1", "2-2-8 2-2"]
    ratios = [r["ratio"] for r in rows]
    # Deeper quantization and shallower decoders shrink the artifact; the
    # direct row shares shape and widths with the 2-2-8 2-2 one, so its
    # footprint is identical.
    assert 1.0 < ratios[0] < ratios[1] < ratios[2]
    assert ratios[3] == ratios[1]
    for r in rows:
        assert set(r) == set(TABLE_COLUMNS)


def test_identical_manifests_reproduce_identical_rows(teacher_ckpt):
    rows = []
    for _ in range(2):
        m = student_manifest(teacher_ckpt, "dq", QuantConfig(8, 8, 8), DistillConfig(2, 2))
        rows.append(run_experiment(m))
    assert rows[0] == rows[1]


def test_write_table(tmp_path, teacher_ckpt):
    m = student_manifest(teacher_ckpt, "direct_quant", QuantConfig(2, 2, 8), None)
    run_experiment(m)
    path = str(tmp_path / "table.csv")
    write_table([m, m], path)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == ",".join(TABLE_COLUMNS)
    assert len(lines) == 3
    assert lines[1] == lines[2]
    assert lines[1].startswith("2-2-8 2-2,direct_quant,0,")
    fields = lines[1].split(",")
    for cell in fields[3:]:
        float(cell)
        assert "," not in cell and cell == cell.strip()


def test_write_table_rejects_unrun_manifest(tmp_path):
    m = teacher_manifest("t.ckpt")
    with pytest.raises(HarnessError, match="no result"):
        write_table([m], str(tmp_path / "t.csv"))


# ---------------------------------------------------------------------------
# run_experiments: the job graph


def _graph(root) -> list[RunManifest]:
    """Two teachers and three students; a student is listed before its teacher."""
    t0, t1 = str(root / "t0.ckpt"), str(root / "t1.ckpt")
    return [
        student_manifest(t0, "dq", QuantConfig(2, 2, 8), DistillConfig(2, 1),
                         out_path=str(root / "dq.ckpt")),
        teacher_manifest(t0),
        teacher_manifest(t1, seed=1),
        student_manifest(t1, "direct_quant", QuantConfig(2, 2, 8), None,
                         out_path=str(root / "direct.ckpt")),
        student_manifest(t1, "distill_only", None, DistillConfig(1, 1),
                         out_path=str(root / "d11.ckpt")),
    ]


def test_runner_rows_and_files_equal_a_serial_loop(tmp_path):
    manifests = _graph(tmp_path)
    serial = copy.deepcopy(manifests)
    for m in sorted(serial, key=lambda m: m.train_config.mode != "teacher"):
        run_experiment(m)
    saved = {m.out_path: open(m.out_path, "rb").read() for m in serial}
    for path in saved:
        os.remove(path)

    logs = [str(tmp_path / f"{i}.log") for i in range(len(manifests))]
    rows = run_experiments(manifests, logs)
    assert rows == [m.result for m in serial]
    assert rows == [m.result for m in manifests]
    for m, log in zip(manifests, logs):
        assert m.wall_clock > 0
        assert open(m.out_path, "rb").read() == saved[m.out_path]
        assert os.path.getsize(log) > 0
    assert multiprocessing.active_children() == []


def test_runner_fails_a_student_whose_teacher_file_is_absent(tmp_path, monkeypatch):
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    manifests = [teacher_manifest(str(tmp_path / "t.ckpt")),
                 student_manifest(str(tmp_path / "absent.ckpt"), "dq",
                                  QuantConfig(8, 8, 8), DistillConfig(2, 2))]
    with pytest.raises(HarnessError, match=f"{manifests[1].content_hash()[:12]}.*not found"):
        run_experiments(manifests)
    assert multiprocessing.active_children() == []
    assert "MKL_NUM_THREADS" not in os.environ  # the workers' BLAS setting is undone


def test_runner_fails_a_failed_teacher_and_never_starts_its_students(tmp_path):
    wrong_vocab = ModelConfig(vocab_size=20, d_model=16, n_heads=2, d_ff=32,
                              n_enc_layers=2, n_dec_layers=2, max_positions=16)
    bad = str(tmp_path / "bad.ckpt")
    manifests = [teacher_manifest(bad, model_config=wrong_vocab),
                 student_manifest(bad, "dq", QuantConfig(8, 8, 8), DistillConfig(2, 2)),
                 teacher_manifest(str(tmp_path / "good.ckpt"))]
    with pytest.raises(HarnessError, match=f"{manifests[0].content_hash()[:12]}.*vocab"):
        run_experiments(manifests)
    assert manifests[1].result == {} and not os.path.exists(bad)
    assert multiprocessing.active_children() == []


def test_runner_names_the_manifest_of_any_failure(tmp_path):
    m = teacher_manifest(str(tmp_path / "no_such_dir" / "t.ckpt"), epochs=1)
    with pytest.raises(HarnessError, match=f"manifest {m.content_hash()[:12]}: FileNotFoundError"):
        run_experiments([m])
    assert multiprocessing.active_children() == []


def test_runner_refuses_a_shared_out_path_or_unmatched_logs(tmp_path):
    path = str(tmp_path / "t.ckpt")
    with pytest.raises(HarnessError, match="same out_path"):
        run_experiments([teacher_manifest(path), teacher_manifest(path, seed=1)])
    with pytest.raises(HarnessError, match="2 log paths for 1 manifests"):
        run_experiments([teacher_manifest(path)], ["a.log", "b.log"])
    assert not os.path.exists(path)


def test_runner_runs_a_teacher_assistant_chain_in_order(tmp_path):
    # teacher -> 2-2 student -> 2-1 student distilled from that student, listed last first
    t, ta = str(tmp_path / "t.ckpt"), str(tmp_path / "ta.ckpt")
    chain = [teacher_manifest(t),
             student_manifest(t, "dq", QuantConfig(2, 2, 8), DistillConfig(2, 2), out_path=ta),
             student_manifest(ta, "dq", QuantConfig(2, 2, 8), DistillConfig(2, 1),
                              out_path=str(tmp_path / "s.ckpt"))]
    serial = copy.deepcopy(chain)
    for m in serial:
        run_experiment(m)
    saved = {m.out_path: open(m.out_path, "rb").read() for m in serial}
    for path in saved:
        os.remove(path)

    manifests = chain[::-1]
    assert run_experiments(manifests) == [m.result for m in serial[::-1]]
    for m in manifests:
        assert open(m.out_path, "rb").read() == saved[m.out_path]
    assert multiprocessing.active_children() == []


def test_runner_refuses_a_teacher_path_cycle_before_any_job_starts(tmp_path):
    a, b, t = (str(tmp_path / f"{name}.ckpt") for name in "abt")
    student = lambda src, out: student_manifest(src, "dq", QuantConfig(8, 8, 8),
                                                DistillConfig(2, 2), out_path=out)
    for cycle in ([student(a, a)], [student(b, a), student(a, b)]):
        manifests = [teacher_manifest(t), *cycle]
        with pytest.raises(HarnessError,
                           match=f"manifest {cycle[0].content_hash()[:12]}: .* cycle"):
            run_experiments(manifests)
        assert [m.result for m in manifests] == [{}] * len(manifests)
        assert not os.path.exists(t)
