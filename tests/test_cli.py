"""End-to-end command-line tests driven through main(argv)."""

import json

import pytest

from dqseq import checkpoint
from dqseq.checkpoint import load_checkpoint, load_model
from dqseq.cli import main
from dqseq.harness import TABLE_COLUMNS, RunManifest
from dqseq.model import ModelConfig
from dqseq.quantizer import QuantConfig
from dqseq.tasks import TaskSpec, generate_task
from dqseq.trainer import TrainConfig, evaluate

TASK = ["--task", "copy", "--vocab-size", "16", "--max-len", "6",
        "--train-size", "48", "--dev-size", "8", "--test-size", "8"]
TINY_ARCH = ["--d-model", "16", "--n-heads", "2", "--d-ff", "32",
             "--enc-layers", "2", "--dec-layers", "2", "--max-positions", "16"]
FAST = ["--epochs", "1", "--batch-size", "16", "--lr", "1e-3"]


@pytest.fixture(scope="module")
def teacher_ckpt(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "teacher.ckpt")
    rc = main(["train-teacher", *TASK, *TINY_ARCH, *FAST, "--epochs", "2", "--out", path])
    assert rc == 0
    return path


def test_no_arguments_prints_usage(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_nonzero(capsys):
    assert main(["frobnicate"]) != 0
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_nonzero(capsys):
    assert main(["footprint", "--no-such-flag"]) != 0
    assert "usage" in capsys.readouterr().err


def test_gen_data_writes_splits(tmp_path, capsys):
    out = str(tmp_path / "data.json")
    rc = main(["gen-data", *TASK, "--seed", "3", "--out", out])
    assert rc == 0
    assert "train=48" in capsys.readouterr().out
    payload = json.load(open(out))
    assert payload["spec"]["kind"] == "copy"
    assert len(payload["train"]) == 48
    assert len(payload["dev"]) == 8


def test_gen_data_rejects_bad_spec(capsys):
    rc = main(["gen-data", "--task", "add", "--vocab-size", "8"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_footprint_bart_base_matches_reported_ratio(capsys):
    rc = main(["footprint", "--arch", "bart-base", "--w-bits", "2", "--e-bits", "2",
               "--a-bits", "8", "--enc-layers", "6", "--dec-layers", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bart-base 2-2-8 6-3" in out
    ratio = float(out.rsplit("ratio", 1)[1].strip().rstrip("x\n"))
    assert abs(ratio - 16.5) / 16.5 < 0.10


def test_footprint_toy_full_precision(capsys):
    rc = main(["footprint", "--arch", "toy"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "toy 32-32-32 2-2" in out
    assert "ratio 1.00x" in out


def test_train_teacher_and_eval(teacher_ckpt, capsys):
    rc = main(["eval", "--ckpt", teacher_ckpt, *TASK, "--split", "dev"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "copy/dev" in out
    for key in ("token_acc", "seq_acc", "rouge_1", "rouge_2", "rouge_l"):
        assert key in out


def test_compress_writes_manifest_and_checkpoint(tmp_path, teacher_ckpt, capsys):
    ckpt = str(tmp_path / "student.ckpt")
    mpath = str(tmp_path / "student.json")
    rc = main(["compress", *TASK, *FAST, "--teacher", teacher_ckpt,
               "--mode", "dq", "--w-bits", "8", "--e-bits", "8", "--a-bits", "8",
               "--dec-layers", "1", "--out", ckpt, "--manifest", mpath])
    assert rc == 0
    out = capsys.readouterr().out
    assert "8-8-8 2-1" in out
    manifest = RunManifest.load(mpath)
    assert manifest.result["config"] == "8-8-8 2-1"
    assert manifest.result["ratio"] > 1.0
    assert manifest.wall_clock > 0


def test_compress_row_wise_is_stored_and_eval_honours_it(tmp_path, teacher_ckpt, capsys):
    ckpt = str(tmp_path / "rw.ckpt")
    mpath = str(tmp_path / "rw.json")
    rc = main(["compress", *TASK, *FAST, "--teacher", teacher_ckpt, "--mode", "dq",
               "--w-bits", "2", "--e-bits", "2", "--a-bits", "8", "--row-wise",
               "--out", ckpt, "--manifest", mpath])
    assert rc == 0
    assert load_checkpoint(ckpt)[1].quant_config.row_wise is True
    assert RunManifest.load(mpath).quant_config.row_wise is True
    capsys.readouterr()

    assert main(["eval", "--ckpt", ckpt, *TASK, "--split", "dev"]) == 0
    printed = dict(line.split() for line in capsys.readouterr().out.splitlines()[1:])
    model, meta = load_model(ckpt)
    dev = generate_task(TaskSpec("copy", vocab_size=16, max_len=6, train_size=48,
                                 dev_size=8, test_size=8)).dev
    # the loaded model already holds the stored codes' values: only activations quantize
    want = evaluate(model, dev, QuantConfig(a_bits=meta.quant_config.a_bits)).to_dict()
    assert printed == {k: f"{v:.4f}" for k, v in want.items()}


def test_eval_has_no_bit_flags_and_reports_the_stored_widths(teacher_ckpt, capsys):
    assert main(["eval", "--ckpt", teacher_ckpt, *TASK, "--w-bits", "2"]) == 2
    assert "usage" in capsys.readouterr().err
    assert main(["eval", "--ckpt", teacher_ckpt, *TASK]) == 0
    assert "weights 32-32-32" in capsys.readouterr().out.splitlines()[0]


@pytest.mark.parametrize("mode", ["dq", "direct_quant"])
def test_compress_reads_the_teacher_checkpoint_once(tmp_path, teacher_ckpt, capsys, monkeypatch,
                                                    mode):
    reads = []

    def counting_open(path, *args, **kwargs):
        reads.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(checkpoint, "open", counting_open, raising=False)
    assert main(["compress", *TASK, *FAST, "--teacher", teacher_ckpt, "--mode", mode,
                 "--w-bits", "8", "--e-bits", "8", "--a-bits", "8",
                 "--out", str(tmp_path / "s.ckpt")]) == 0
    capsys.readouterr()
    assert reads.count(teacher_ckpt) == 1, reads


@pytest.mark.parametrize("mode, flag", [("quant_only", "--enc-layers"),
                                        ("direct_quant", "--dec-layers")])
def test_compress_refuses_a_depth_for_a_mode_that_keeps_the_teachers(tmp_path, teacher_ckpt,
                                                                     capsys, mode, flag):
    out = tmp_path / "s.ckpt"
    assert main(["compress", *TASK, *FAST, "--teacher", teacher_ckpt, "--mode", mode,
                 flag, "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and mode in err and flag in err
    assert not out.exists()


def test_compress_missing_teacher_fails(tmp_path, capsys):
    rc = main(["compress", *TASK, *FAST, "--teacher", str(tmp_path / "nope.ckpt"),
               "--out", str(tmp_path / "s.ckpt")])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_table_merges_manifests(tmp_path, teacher_ckpt, capsys):
    paths = []
    for i, bits in enumerate((["--w-bits", "8", "--e-bits", "8", "--a-bits", "8"],
                              ["--w-bits", "2", "--e-bits", "2", "--a-bits", "8"])):
        ckpt = str(tmp_path / f"s{i}.ckpt")
        mpath = str(tmp_path / f"m{i}.json")
        assert main(["compress", *TASK, *FAST, "--teacher", teacher_ckpt,
                     "--mode", "direct_quant", *bits, "--out", ckpt,
                     "--manifest", mpath]) == 0
        paths.append(mpath)
    csv_path = str(tmp_path / "table.csv")
    assert main(["table", *paths, "--out", csv_path]) == 0
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == ",".join(TABLE_COLUMNS)
    assert len(lines) == 3
    assert lines[1].startswith("8-8-8 2-2,direct_quant")
    assert lines[2].startswith("2-2-8 2-2,direct_quant")


def _manifest_file(path, result) -> str:
    RunManifest(task=TaskSpec("copy", vocab_size=16, max_len=6),
                train_config=TrainConfig("teacher"),
                model_config=ModelConfig(vocab_size=16), result=result).save(str(path))
    return str(path)


def test_failed_table_leaves_no_file_and_keeps_an_old_one(tmp_path, capsys):
    # every row is checked before the CSV is opened, so the good first row is never written
    good = _manifest_file(tmp_path / "good.json", dict.fromkeys(TABLE_COLUMNS, 1))
    bad = _manifest_file(tmp_path / "bad.json", {"config": "x"})
    out = tmp_path / "table.csv"
    assert main(["table", good, bad, "--out", str(out)]) == 1
    assert "no 'mode' column" in capsys.readouterr().err
    assert not out.exists()
    out.write_text("old table\n")
    assert main(["table", good, bad, "--out", str(out)]) == 1
    assert out.read_text() == "old table\n"


def test_table_names_the_manifest_file_it_cannot_read(tmp_path, capsys):
    path = tmp_path / "notjson.json"
    path.write_text("not json")
    assert main(["table", str(path), "--out", str(tmp_path / "table.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"error: manifest {path} is missing or malformed")
