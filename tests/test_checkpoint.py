"""Round-trip and corruption tests for the binary checkpoint format."""

import hashlib
import os
import re
import stat
import struct
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqseq import checkpoint, quantizer
from dqseq.checkpoint import (
    MAGIC,
    TAG_FLOAT32,
    TAG_QUANTIZED,
    CheckpointError,
    build_model,
    load_checkpoint,
    load_model,
    save_checkpoint,
)
from dqseq.distiller import DistillConfig
from dqseq.model import ModelConfig, SeqModel, greedy_decode_batch, init_model, param_specs
from dqseq.quantizer import QuantConfig, QuantizedTensor, quantize_params, unpack_codes
from dqseq.tensor import Tensor
from dqseq.trainer import CheckpointMeta, TrainConfig

SMALL = ModelConfig(vocab_size=16, d_model=16, n_heads=2, d_ff=32,
                    n_enc_layers=1, n_dec_layers=1, max_positions=16)


def small_meta(**kwargs) -> CheckpointMeta:
    defaults = dict(
        model_config=SMALL,
        quant_config=QuantConfig(),
        distill_config=DistillConfig(1, 1),
        train_config=TrainConfig("teacher", epochs=2, batch_size=4),
        step=6,
        history=[{"epoch": 0, "step": 3, "lr": 1e-3, "dev_rouge_l": 0.5}],
        best_epoch=1,
    )
    defaults.update(kwargs)
    return CheckpointMeta(**defaults)


def categories(config: ModelConfig) -> dict:
    return {name: cat for name, _, cat in param_specs(config)}


def test_float32_round_trip_bit_exact(tmp_path):
    model = init_model(SMALL, seed=3)
    meta = small_meta()
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(path, model.params, meta)
    params, got = load_checkpoint(path)

    assert set(params) == set(model.params)
    for name, t in model.params.items():
        back = params[name]
        assert isinstance(back, Tensor)
        assert back.requires_grad
        assert back.data.dtype == np.float32
        np.testing.assert_array_equal(back.data, t.data)

    assert got.model_config == SMALL
    assert got.quant_config == meta.quant_config
    assert got.distill_config == meta.distill_config
    assert got.train_config == meta.train_config
    assert got.step == 6
    assert got.history == meta.history
    assert got.best_epoch == 1


def test_quantized_round_trip_preserves_alpha_and_codes(tmp_path):
    model = init_model(SMALL, seed=5)
    stored = quantize_params(model.params, categories(SMALL), QuantConfig(2, 2, 8))
    path = str(tmp_path / "q.ckpt")
    save_checkpoint(path, stored, small_meta(quant_config=QuantConfig(2, 2, 8)))
    params, meta = load_checkpoint(path)

    assert meta.quant_config == QuantConfig(2, 2, 8)
    quantized = 0
    for name, value in stored.items():
        back = params[name]
        if isinstance(value, QuantizedTensor):
            quantized += 1
            assert isinstance(back, QuantizedTensor)
            assert back.bits == value.bits
            assert back.shape == value.shape
            assert back.alpha.shape == value.alpha.shape
            np.testing.assert_array_equal(back.alpha, value.alpha)
            np.testing.assert_array_equal(back.codes, value.codes)
        else:
            np.testing.assert_array_equal(back.data, value.data)
    assert quantized > 0


def test_row_wise_alpha_shape_survives(tmp_path):
    model = init_model(SMALL, seed=7)
    qc = QuantConfig(4, 8, 8, row_wise=True)
    stored = quantize_params(model.params, categories(SMALL), qc)
    path = str(tmp_path / "rw.ckpt")
    save_checkpoint(path, stored, small_meta(quant_config=qc))
    params, meta = load_checkpoint(path)
    assert meta.quant_config.row_wise is True
    saw_vector = False
    for name, value in stored.items():
        if isinstance(value, QuantizedTensor) and value.alpha.ndim == 1:
            saw_vector = True
            back = params[name]
            assert back.alpha.ndim == 1
            np.testing.assert_array_equal(back.alpha, value.alpha)
            np.testing.assert_array_equal(back.values(), value.values())
    assert saw_vector


def test_none_distill_config_round_trips(tmp_path):
    path = str(tmp_path / "none.ckpt")
    save_checkpoint(path, init_model(SMALL, seed=0).params, small_meta(distill_config=None))
    _, meta = load_checkpoint(path)
    assert meta.distill_config is None


def test_failed_save_leaves_old_file_intact(tmp_path):
    path = tmp_path / "q.ckpt"
    meta = small_meta(quant_config=QuantConfig(2, 2, 8))
    stored = quantize_params(init_model(SMALL, seed=4).params, categories(SMALL),
                             QuantConfig(2, 2, 8))
    save_checkpoint(str(path), stored, meta)
    before = path.read_bytes()
    bad = stored["enc.0.ffn.w2"]
    codes = bad.codes.copy()
    codes.flat[0] = 2  # outside the 2-bit field's range: pack_codes refuses it
    stored["enc.0.ffn.w2"] = QuantizedTensor(bad.alpha, codes, bad.bits, bad.shape)
    with pytest.raises(ValueError):
        save_checkpoint(str(path), stored, meta)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["q.ckpt"]


def test_save_over_a_file_keeps_its_mode(tmp_path):
    path = tmp_path / "m.ckpt"
    params = init_model(SMALL, seed=0).params
    save_checkpoint(str(path), params, small_meta())
    os.chmod(path, 0o640)
    save_checkpoint(str(path), params, small_meta())
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o640


def test_records_are_sorted_by_name(tmp_path):
    model = init_model(SMALL, seed=1)
    path_a = str(tmp_path / "a.ckpt")
    path_b = str(tmp_path / "b.ckpt")
    save_checkpoint(path_a, model.params, small_meta())
    reversed_order = dict(reversed(list(model.params.items())))
    save_checkpoint(path_b, reversed_order, small_meta())
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        assert fa.read() == fb.read()


def test_bad_magic_is_rejected(tmp_path):
    path = str(tmp_path / "bad.ckpt")
    save_checkpoint(path, init_model(SMALL, seed=0).params, small_meta())
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + blob[4:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_unknown_version_is_rejected(tmp_path):
    path = str(tmp_path / "v9.ckpt")
    save_checkpoint(path, init_model(SMALL, seed=0).params, small_meta())
    blob = bytearray(open(path, "rb").read())
    blob[4:8] = (99).to_bytes(4, "little")
    with open(path, "wb") as fh:
        fh.write(blob)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


@pytest.mark.parametrize("keep", [2, 7, 20, 200])
def test_truncation_is_rejected(tmp_path, keep):
    path = str(tmp_path / "cut.ckpt")
    save_checkpoint(path, init_model(SMALL, seed=0).params, small_meta())
    blob = open(path, "rb").read()
    assert keep < len(blob)
    with open(path, "wb") as fh:
        fh.write(blob[:keep])
    with pytest.raises(CheckpointError, match="truncated|magic"):
        load_checkpoint(path)


def test_file_cut_at_a_record_boundary_is_refused_by_load_model(tmp_path):
    meta = small_meta(quant_config=QuantConfig(2, 2, 8))
    stored = quantize_params(init_model(SMALL, seed=6).params, categories(SMALL),
                             QuantConfig(2, 2, 8))
    last = max(stored)  # records are written in sorted-name order
    full, short = tmp_path / "full.ckpt", tmp_path / "short.ckpt"
    save_checkpoint(str(full), stored, meta)
    save_checkpoint(str(short), {k: v for k, v in stored.items() if k != last}, meta)
    blob, cut = full.read_bytes(), short.read_bytes()
    assert blob[: len(cut)] == cut and len(cut) < len(blob)
    full.write_bytes(cut)  # the full file minus its last record
    assert last not in load_checkpoint(str(full))[0]
    with pytest.raises(CheckpointError, match=re.escape(f"missing ['{last}']")):
        load_model(str(full))


def test_unknown_dtype_tag_is_rejected(tmp_path):
    # Single scalar-free tensor so the tag byte position is easy to compute:
    # header 16 + config block, then 8 + name + 8 (rank) + 8 (one dim) + tag.
    params = {"w": Tensor(np.ones(3, np.float32), requires_grad=True, name="w")}
    path = str(tmp_path / "tag.ckpt")
    save_checkpoint(path, params, small_meta())
    blob = bytearray(open(path, "rb").read())
    config_len = int.from_bytes(blob[8:16], "little")
    tag_at = 16 + config_len + 8 + 1 + 8 + 8
    assert blob[tag_at] == 0
    blob[tag_at] = 7
    with open(path, "wb") as fh:
        fh.write(blob)
    with pytest.raises(CheckpointError, match="tag"):
        load_checkpoint(path)


def test_build_model_validates_names(tmp_path):
    model = init_model(SMALL, seed=2)
    meta = small_meta()
    params = {k: v for k, v in model.params.items()}
    del params["embed.tok"]
    params["mystery"] = Tensor(np.zeros(2, np.float32))
    with pytest.raises(CheckpointError, match="embed.tok"):
        build_model(params, meta)


def test_build_model_dequantizes_to_working_model(tmp_path):
    model = init_model(SMALL, seed=9)
    stored = quantize_params(model.params, categories(SMALL), QuantConfig(2, 2, 8))
    rebuilt = build_model(stored, small_meta(quant_config=QuantConfig(2, 2, 8)))
    assert isinstance(rebuilt, SeqModel)
    for name, value in stored.items():
        expect = value.values() if isinstance(value, QuantizedTensor) else value.data
        np.testing.assert_array_equal(rebuilt.params[name].data, expect)
        assert rebuilt.params[name].requires_grad


@pytest.mark.parametrize("qc", [QuantConfig(2, 2, 8), QuantConfig(4, 8, 8, row_wise=True)],
                         ids=["2-2-8", "4-8-8rw"])
def test_load_model_dequantizes_packed_bytes_without_unpacking(tmp_path, monkeypatch, qc):
    # load_model builds alpha * codes bit for bit straight from the packed bytes; codes
    # are unpacked only when read, which the counter must see for the count to mean much
    calls = []

    def counting_unpack(buf, bits, count):
        calls.append(bits)
        return unpack_codes(buf, bits, count)

    monkeypatch.setattr(quantizer, "unpack_codes", counting_unpack)
    monkeypatch.setattr(checkpoint, "unpack_codes", counting_unpack)
    stored = quantize_params(init_model(SMALL, seed=5).params, categories(SMALL), qc)
    path = str(tmp_path / "packed.ckpt")
    save_checkpoint(path, stored, small_meta(quant_config=qc))
    loaded, _ = load_model(path)
    assert calls == []
    for name, value in stored.items():
        want = value.values() if isinstance(value, QuantizedTensor) else value.data
        assert loaded.params[name].data.tobytes() == want.tobytes(), name
    params, _ = load_checkpoint(path)
    assert calls == []
    name = "enc.0.ffn.w1"
    assert np.array_equal(params[name].codes, stored[name].codes)
    assert calls == [qc.w_bits]


def test_load_model_reproduces_decodes(tmp_path):
    model = init_model(SMALL, seed=11)
    path = str(tmp_path / "decode.ckpt")
    save_checkpoint(path, model.params, small_meta())
    back, _ = load_model(path)
    src = [[4, 5, 6], [7, 8]]
    want = greedy_decode_batch(model, src, bos_id=1, eos_id=2, pad_id=0, max_len=8)
    got = greedy_decode_batch(back, src, bos_id=1, eos_id=2, pad_id=0, max_len=8)
    assert want == got


# ---------------------------------------------------------------------------
# malformed files: every one raises CheckpointError


def write(path, blob: bytes) -> str:
    with open(path, "wb") as fh:
        fh.write(blob)
    return str(path)


def header(tmp_path) -> bytes:
    """A valid file with no tensor records."""
    path = str(tmp_path / "empty.ckpt")
    save_checkpoint(path, {}, small_meta())
    return open(path, "rb").read()


def with_config(blob: bytes, edit) -> bytes:
    n = int.from_bytes(blob[8:16], "little")
    config = edit(blob[16 : 16 + n])
    return blob[:8] + struct.pack("<Q", len(config)) + config + blob[16 + n :]


def record(name: bytes, shape, body: bytes) -> bytes:
    dims = b"".join(struct.pack("<Q", d) for d in shape)
    return struct.pack("<Q", len(name)) + name + struct.pack("<Q", len(shape)) + dims + body


def quantized_body(bits: int, alpha_rank: int, alphas, codes: bytes) -> bytes:
    head = struct.pack("<BBBQ", TAG_QUANTIZED, bits, alpha_rank, len(alphas))
    return head + np.asarray(alphas, "<f4").tobytes() + codes


@pytest.mark.parametrize("shape, body, match", [
    ((4,), quantized_body(3, 0, [0.5], b"\x00\x00"), "3-bit"),
    ((4,), quantized_body(0, 0, [0.5], b"\x00"), "0-bit"),
    ((4,), quantized_body(2, 0, [-0.5], b"\x00"), "nonnegative"),
    ((2, 2), quantized_body(8, 2, [0.5, 0.5], b"\x00" * 4), "alpha rank 2"),
    ((2, 2), quantized_body(8, 0, [0.5, 0.5], b"\x00" * 4), "alpha rank 0"),
    ((4,), quantized_body(8, 1, [0.5] * 4, b"\x00" * 4), "alpha"),
    ((2, 4), quantized_body(8, 1, [0.5] * 4, b"\x00" * 8), "alpha"),
    # 2**32 * 2**32 wraps to 0 in int64; the exact count overruns the file
    ((2**32, 2**32), struct.pack("<B", TAG_FLOAT32), "truncated"),
])
def test_malformed_record_is_rejected(tmp_path, shape, body, match):
    path = write(tmp_path / "bad.ckpt", header(tmp_path) + record(b"w", shape, body))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
def test_non_finite_scale_is_rejected(tmp_path, scale):
    qc = QuantConfig(2, 2, 8)
    stored = quantize_params(init_model(SMALL, seed=5).params, categories(SMALL), qc)
    name = "enc.0.ffn.w1"
    save_checkpoint(str(tmp_path / "q.ckpt"), stored, small_meta(quant_config=qc))
    blob = bytearray(open(tmp_path / "q.ckpt", "rb").read())
    # the record: name length, name, rank, dims, then tag, bits, alpha rank, scale count, scales
    at = blob.index(struct.pack("<Q", len(name)) + name.encode()) + 8 + len(name)
    at += 8 + 8 * len(stored[name].shape) + struct.calcsize("<BBBQ")
    assert blob[at : at + 4] == np.asarray(stored[name].alpha, "<f4").tobytes()
    blob[at : at + 4] = np.asarray(scale, "<f4").tobytes()
    with pytest.raises(CheckpointError, match=f"{name!r} has a non-finite scale"):
        load_checkpoint(write(tmp_path / "bad.ckpt", bytes(blob)))


@pytest.mark.parametrize("first", [b"a", b"b"], ids=["repeated", "out-of-order"])
def test_a_name_not_after_the_one_before_it_is_rejected(tmp_path, first):
    # save_checkpoint writes records in sorted-name order, each once: a later record
    # must not silently replace an earlier one
    body = struct.pack("<B", TAG_FLOAT32) + np.zeros(1, "<f4").tobytes()
    blob = header(tmp_path) + record(first, (1,), body) + record(b"a", (1,), body)
    with pytest.raises(CheckpointError, match=f"tensor 'a' follows '{first.decode()}'"):
        load_checkpoint(write(tmp_path / "names.ckpt", blob))


def test_non_utf8_name_is_rejected(tmp_path):
    body = struct.pack("<B", TAG_FLOAT32) + np.zeros(1, "<f4").tobytes()
    path = write(tmp_path / "name.ckpt", header(tmp_path) + record(b"\xff\xfe", (1,), body))
    with pytest.raises(CheckpointError, match="utf-8"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda c: c.replace(b"model_config={", b"model_config={{"),
    lambda c: c.replace(b'"w_bits": 32', b'"w_bits": 3'),
    lambda c: c.replace(b'"row_wise": false', b'"row_wise": 0'),
    lambda c: c.replace(b'"mode": "teacher"', b'"mode": "nope"'),
    lambda c: b"\xff" + c,
    lambda c: c.replace(b'"n_heads": 2', b'"n_heads": 0'),
    lambda c: c.replace(b'"n_heads": 2', b'"n_heads": -2'),
])
def test_malformed_config_block_is_rejected(tmp_path, edit):
    blob = header(tmp_path)
    bad = with_config(blob, edit)
    assert bad != blob
    with pytest.raises(CheckpointError, match="config block"):
        load_checkpoint(write(tmp_path / "cfg.ckpt", bad))


def test_config_block_without_row_wise_loads_per_tensor(tmp_path):
    path = str(tmp_path / "old.ckpt")
    stored = quantize_params(init_model(SMALL, seed=4).params, categories(SMALL),
                             QuantConfig(2, 2, 8))
    save_checkpoint(path, stored, small_meta(quant_config=QuantConfig(2, 2, 8)))
    blob = open(path, "rb").read()
    old = with_config(blob, lambda c: c.replace(b', "row_wise": false', b""))
    assert b"row_wise" not in old
    back, meta = load_model(write(path, old))
    assert meta.quant_config == QuantConfig(2, 2, 8)
    assert meta.quant_config.row_wise is False
    for name, value in stored.items():
        expect = value.values() if isinstance(value, QuantizedTensor) else value.data
        np.testing.assert_array_equal(back.params[name].data, expect)


# a stored set is refused unless each record is stored as its config says:
# quant_config.bits_for(category) wide, with row_wise_for(shape) scales


def refusal(have_bits, have_rank, label, row_wise, want_bits, want_rank) -> str:
    shape = r"\(\d+, \d+\)"
    return (rf"\({shape}, {have_bits}, {have_rank}\); config {label}, row_wise={row_wise} "
            rf"gives \({shape}, {want_bits}, {want_rank}\)")


def test_build_model_refuses_float32_records_under_a_quantized_config(tmp_path):
    # a student file written as its float32 master would otherwise be scored at 32 bits
    path = str(tmp_path / "master.ckpt")
    save_checkpoint(path, init_model(SMALL, seed=4).params,
                    small_meta(quant_config=QuantConfig(2, 2, 8)))
    with pytest.raises(CheckpointError, match=refusal(32, 0, "2-2-8", False, 2, 0)):
        load_model(path)


@pytest.mark.parametrize("stored_qc, meta_qc, match", [
    (QuantConfig(4, 4, 8), QuantConfig(2, 2, 8), refusal(4, 0, "2-2-8", False, 2, 0)),
    (QuantConfig(2, 8, 8), QuantConfig(2, 4, 8), refusal(8, 0, "2-4-8", False, 4, 0)),
    (QuantConfig(2, 2, 8), QuantConfig(), refusal(2, 0, "32-32-32", False, 32, 0)),
], ids=["4-under-2", "8-under-4", "2-under-32"])
def test_build_model_refuses_quantized_records_of_another_width(stored_qc, meta_qc, match):
    stored = quantize_params(init_model(SMALL, seed=4).params, categories(SMALL), stored_qc)
    with pytest.raises(CheckpointError, match=match):
        build_model(stored, small_meta(quant_config=meta_qc))


@pytest.mark.parametrize("row_wise", [False, True])
def test_build_model_refuses_alpha_rank_the_config_does_not_give(row_wise):
    stored = quantize_params(init_model(SMALL, seed=4).params, categories(SMALL),
                             QuantConfig(2, 4, 8, row_wise=row_wise))
    meta = small_meta(quant_config=QuantConfig(2, 4, 8, row_wise=not row_wise))
    have, want = int(row_wise), int(not row_wise)
    with pytest.raises(CheckpointError,
                       match=refusal(r"\d", have, "2-4-8", not row_wise, r"\d", want)):
        build_model(stored, meta)


# sha256 of the file save_checkpoint writes for quantize_params(init_model(SMALL, 13)):
# a quantizer or codec change that moves one byte of a saved file fails here
FROZEN_SHA256 = {
    QuantConfig(2, 2, 8): "02aae6e99845f8f0dbe1b8c5ea35f98905d986a85535df8367705ad5cd7b82f7",
    QuantConfig(4, 4, 8): "a9f2e1fb38bcf1f1ed47fb6c50b24b49d9adc2c88fb1c95cfb93979efb2244b7",
    QuantConfig(8, 8, 8): "2928a1c048041bcdc9b33f77c165283a3d4cd8f9fbbe8fdbb815fda19aa9e4a4",
    QuantConfig(2, 4, 8, row_wise=True):
        "344e4dfedb1a64798b17b81224963bfe61bddc52c410e2498dd69a4556de1e1e",
}


@pytest.mark.parametrize("qc", list(FROZEN_SHA256), ids=lambda qc: qc.label + "rw" * qc.row_wise)
def test_saved_bytes_are_frozen(tmp_path, qc):
    stored = quantize_params(init_model(SMALL, seed=13).params, categories(SMALL), qc)
    path = tmp_path / "frozen.ckpt"
    save_checkpoint(str(path), stored, small_meta(quant_config=qc))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FROZEN_SHA256[qc]


# five tensors at or over quantize_params' thread threshold (embed.tok at 131,072
# elements, the four ffn matrices at 65,536) and the rest under it
FANOUT = ModelConfig(vocab_size=1024, d_model=128, n_heads=2, d_ff=512,
                     n_enc_layers=1, n_dec_layers=1, max_positions=16)
FANOUT_QCS = [QuantConfig(2, 2, 8), QuantConfig(2, 4, 8, row_wise=True)]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("qc", FANOUT_QCS, ids=lambda qc: qc.label + "rw" * qc.row_wise)
def test_quantize_params_fans_large_tensors_out_to_threads(monkeypatch, qc, cpus):
    params = init_model(FANOUT, seed=17).params
    cats = categories(FANOUT)
    large = {name for name, t in params.items()
             if t.size >= quantizer.PARALLEL_MIN_SIZE and qc.bits_for(cats[name]) < 32}
    assert len(large) >= 2 and any(t.size < quantizer.PARALLEL_MIN_SIZE for t in params.values())
    names = {id(t): name for name, t in params.items()}
    caller, ran_on = threading.current_thread(), {}
    helper_ran = threading.Event()
    quantize = quantizer.quantize

    def recording(w, bits, row_wise=False):
        ran_on[names[id(w)]] = threading.current_thread()
        if threading.current_thread() is not caller:
            helper_ran.set()
        elif cpus > 1 and names[id(w)] in large:
            helper_ran.wait(10)  # a helper takes a tensor before the caller takes them all
        return quantize(w, bits, row_wise)

    monkeypatch.setattr(quantizer, "quantize", recording)
    monkeypatch.setattr(quantizer, "_cpus", lambda: cpus)
    threads = threading.active_count()
    stored = quantize_params(params, cats, qc)
    assert threading.active_count() == threads  # every helper has ended

    assert set(ran_on) == {name for name in params if qc.bits_for(cats[name]) < 32}
    helpers = {th for th in ran_on.values() if th is not caller}
    assert len(helpers) == cpus - 1
    assert all(ran_on[name] is caller for name in ran_on if name not in large)
    assert list(stored) == list(params)
    for name, t in params.items():
        bits = qc.bits_for(cats[name])
        if bits == 32:
            assert stored[name] is t
            continue
        want = quantize(t, bits, qc.row_wise_for(t.shape))
        got = stored[name]
        assert got.bits == bits
        assert np.array_equal(got.codes, want.codes), name
        assert np.array_equal(np.atleast_1d(got.alpha).view(np.uint32),
                              np.atleast_1d(want.alpha).view(np.uint32)), name


# sha256 of the file save_checkpoint writes for quantize_params(init_model(FANOUT, 17)),
# recorded before quantize_params used threads
FANOUT_SHA256 = {
    QuantConfig(2, 2, 8): "bd74c73e947d36cb72bd99e338e0a8541b3d9eefe9a21f8a2f9b085eff9a2d0c",
    QuantConfig(2, 4, 8, row_wise=True):
        "3a302cd4675edc608cabe4b301f81ca9cb54256260187929266ccb175a74a34b",
}


@pytest.mark.parametrize("qc", FANOUT_QCS, ids=lambda qc: qc.label + "rw" * qc.row_wise)
def test_saved_bytes_of_a_fanned_out_set_are_frozen(tmp_path, monkeypatch, qc):
    monkeypatch.setattr(quantizer, "_cpus", lambda: 2)
    stored = quantize_params(init_model(FANOUT, seed=17).params, categories(FANOUT), qc)
    path = tmp_path / "fanout.ckpt"
    save_checkpoint(str(path), stored, small_meta(model_config=FANOUT, quant_config=qc))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FANOUT_SHA256[qc]


def test_build_model_rejects_wrong_shapes():
    model = init_model(SMALL, seed=2)
    params = dict(model.params)
    params["embed.pos"] = Tensor(np.zeros((3, SMALL.d_model), np.float32))
    with pytest.raises(CheckpointError, match="embed.pos"):
        build_model(params, small_meta())


FUZZ = ModelConfig(vocab_size=8, d_model=4, n_heads=2, d_ff=4,
                   n_enc_layers=1, n_dec_layers=1, max_positions=4)


def _fuzz_blob(row_wise: bool) -> bytes:
    qc = QuantConfig(2, 4, 8, row_wise=row_wise)
    stored = quantize_params(init_model(FUZZ, 0).params, categories(FUZZ), qc)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.ckpt")
        save_checkpoint(path, stored, small_meta(model_config=FUZZ, quant_config=qc))
        return open(path, "rb").read()


FUZZ_BLOBS = {rw: _fuzz_blob(rw) for rw in (False, True)}


@settings(max_examples=1500, deadline=None)
@given(st.booleans(), st.booleans(), st.data())
def test_corrupted_file_raises_checkpoint_error_or_loads_config_shapes(row_wise, cut, data):
    blob = FUZZ_BLOBS[row_wise]
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    if cut:
        bad = blob[:at]
    else:
        bad = bytearray(blob)
        bad[at] ^= data.draw(st.integers(1, 255), label="xor")
    with tempfile.TemporaryDirectory() as tmp:
        try:
            model, meta = load_model(write(os.path.join(tmp, "bad.ckpt"), bytes(bad)))
        except CheckpointError:
            return
    for name, shape, _ in param_specs(meta.model_config):
        assert model.params[name].shape == shape, name
