"""Binary checkpoints: full-precision or quantized parameter sets plus meta.

Layout, all little-endian:
    magic "DQS2" | u32 version | u64 config length | config block (utf-8)
    then per-tensor records in sorted-name order:
    u64 name length | name | u64 rank | u64 dims... | u8 dtype tag | payload
Tag 0 is raw float32. Tag 1 is quantized: u8 bits, u8 alpha rank,
u64 alpha count, float32 alphas, then packed codes. The config block is one
"key=json" line per field, sorted by key. Reading a malformed or truncated
file raises CheckpointError.

Loading reads the file once and walks it in zero-copy slices. A quantized
record keeps a copy of its packed code bytes, and build_model dequantizes
straight from them, one 256-row table lookup per byte; the int8 codes are
unpacked only when something reads QuantizedTensor.codes (re-saving does).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import struct
from dataclasses import asdict

import numpy as np

from .distiller import DistillConfig
from .model import ModelConfig, SeqModel, param_specs
from .quantizer import PACKED_BITS, QuantConfig, QuantizedTensor, pack_codes, packed_size
from .quantizer import unpack_codes  # noqa: F401  unused here; bench/tracing.py wraps this name
from .tensor import Tensor
from .trainer import CONFIG_ERRORS, CheckpointMeta, TrainConfig

MAGIC = b"DQS2"
VERSION = 1

TAG_FLOAT32 = 0
TAG_QUANTIZED = 1


class CheckpointError(ValueError):
    """Malformed or truncated checkpoint file."""


def _config_block(meta: CheckpointMeta) -> bytes:
    fields = asdict(meta)
    lines = [f"{k}={json.dumps(fields[k], sort_keys=True)}" for k in sorted(fields)]
    return "\n".join(lines).encode("utf-8")


def _parse_config_block(blob: bytes) -> CheckpointMeta:
    try:
        fields = {}
        for line in blob.decode("utf-8").splitlines():
            key, _, value = line.partition("=")
            fields[key] = json.loads(value)
        return CheckpointMeta(
            model_config=ModelConfig(**fields["model_config"]),
            quant_config=QuantConfig(**fields["quant_config"]),
            distill_config=None
            if fields["distill_config"] is None
            else DistillConfig(**fields["distill_config"]),
            train_config=TrainConfig(**fields["train_config"]),
            step=fields["step"],
            history=fields["history"],
            best_epoch=fields["best_epoch"],
        )
    except CONFIG_ERRORS as exc:
        raise CheckpointError(f"config block is missing or malformed: {exc}") from exc


def _write_record(fh, name: str, value) -> None:
    """Write one tensor record: its header, then its scales and packed codes or its
    float32 data, each straight from its own buffer."""
    encoded = name.encode("utf-8")
    shape = value.shape
    fh.write(struct.pack(f"<Q{len(encoded)}sQ{len(shape)}Q", len(encoded), encoded,
                         len(shape), *shape))
    if isinstance(value, QuantizedTensor):
        fh.write(struct.pack("<BBBQ", TAG_QUANTIZED, value.bits, value.alpha.ndim,
                             value.n_scales))
        fh.write(np.ascontiguousarray(value.alpha, "<f4"))
        fh.write(pack_codes(value.codes, value.bits))
    else:
        data = value.data if isinstance(value, Tensor) else value
        fh.write(struct.pack("<B", TAG_FLOAT32))
        fh.write(np.ascontiguousarray(data, "<f4"))


def save_checkpoint(path: str, params: dict, meta: CheckpointMeta) -> None:
    """Write a parameter set (Tensors and QuantizedTensors) with meta, through an fsynced
    temporary file renamed over path: a raise or crash leaves the old file or the new."""
    config = _config_block(meta)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(config)))
            fh.write(config)
            for name in sorted(params):
                _write_record(fh, name, params[name])
            fh.flush()
            os.fsync(fh.fileno())
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)  # complete files only
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class _Reader:
    """Walks a file's bytes in zero-copy slices; reading past the end raises CheckpointError."""

    def __init__(self, blob: bytes):
        self.blob = memoryview(blob)
        self.pos = 0

    def _advance(self, n: int) -> int:
        if self.pos + n > len(self.blob):
            raise CheckpointError(
                f"truncated checkpoint: wanted {n} bytes at offset {self.pos}, "
                f"file has {len(self.blob)}"
            )
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> memoryview:
        start = self._advance(n)
        return self.blob[start : self.pos]

    def unpack(self, fmt: str) -> tuple:
        """The fields of a little-endian struct format."""
        return struct.unpack_from("<" + fmt, self.blob, self._advance(struct.calcsize("<" + fmt)))

    def u64s(self, n: int) -> tuple[int, ...]:
        start = self._advance(8 * n)  # first: a corrupt n can be any u64
        return struct.unpack_from(f"<{n}Q", self.blob, start)

    def u64(self) -> int:
        return self.u64s(1)[0]

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.blob)


def load_checkpoint(path: str):
    """Read back (params, meta); the bit-exact inverse of save_checkpoint.

    Quantized records come back as QuantizedTensor over their packed bytes,
    everything else as a trainable Tensor. A repeated or out-of-order name is
    refused. Only build_model checks the set against the config's inventory:
    a file cut at a record boundary loads here.
    """
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    if r.take(4) != MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    version = r.unpack("I")[0]
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    meta = _parse_config_block(bytes(r.take(r.u64())))
    params: dict[str, Tensor | QuantizedTensor] = {}
    last = None  # the name before: save_checkpoint writes each once, in sorted order
    while not r.exhausted:
        try:
            name = str(r.take(r.u64()), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"tensor name is not utf-8: {exc}") from exc
        if last is not None and name <= last:
            raise CheckpointError(f"tensor {name!r} follows {last!r}: records must be in "
                                  f"sorted-name order, each name once")
        last = name
        shape = r.u64s(r.u64())
        try:
            params[name] = _read_payload(r, name, shape)
        except CheckpointError:
            raise
        except ValueError as exc:  # shape numpy cannot build, alpha that fits no layout
            raise CheckpointError(f"bad record for tensor {name!r}: {exc}") from exc
    return params, meta


def _read_payload(r: _Reader, name: str, shape: tuple[int, ...]):
    count = math.prod(shape)
    tag = r.unpack("B")[0]
    if tag == TAG_FLOAT32:
        data = np.frombuffer(r.take(4 * count), dtype="<f4").reshape(shape)
        return Tensor(data.copy(), requires_grad=True, name=name)
    if tag != TAG_QUANTIZED:
        raise CheckpointError(f"unknown dtype tag {tag} for tensor {name!r}")
    bits, alpha_rank, n_scales = r.unpack("BBQ")
    if bits not in PACKED_BITS:
        raise CheckpointError(f"tensor {name!r} has {bits}-bit codes, not one of {PACKED_BITS}")
    if alpha_rank > 1 or (alpha_rank == 0 and n_scales != 1):
        raise CheckpointError(
            f"tensor {name!r} has alpha rank {alpha_rank} with {n_scales} scales"
        )
    payload = r.take(packed_size(count, bits, n_scales))
    alpha = np.frombuffer(payload, dtype="<f4", count=n_scales)
    if not np.isfinite(alpha).all():
        raise CheckpointError(f"tensor {name!r} has a non-finite scale")
    alpha = alpha[0] if alpha_rank == 0 else alpha.copy()
    # a copy of the codes' bytes, so that the file's buffer is freed once loading returns
    return QuantizedTensor.from_packed(alpha, bytes(payload[4 * n_scales :]), bits, shape)


def build_model(params: dict, meta: CheckpointMeta) -> SeqModel:
    """Materialize a SeqModel, dequantizing any quantized parameters.

    The parameter names and shapes must exactly match the model config's
    inventory, and each record's storage width and scale granularity must be
    the ones the quant config gives it.
    """
    specs = {name: (shape, cat) for name, shape, cat in param_specs(meta.model_config)}
    expected, got = set(specs), set(params)
    if got != expected:
        missing, extra = sorted(expected - got), sorted(got - expected)
        raise CheckpointError(
            f"parameter names do not match the config: missing {missing}, extra {extra}"
        )
    qc = meta.quant_config
    out = {}
    for name, value in params.items():
        shape, category = specs[name]
        bits = qc.bits_for(category)
        want = (shape, bits, int(bits < 32 and qc.row_wise_for(shape)))
        stored = (value.bits, value.alpha.ndim) if isinstance(value, QuantizedTensor) else (32, 0)
        have = (tuple(value.shape), *stored)
        if have != want:
            raise CheckpointError(
                f"tensor {name!r} is stored as (shape, bits, alpha rank) {have}; "
                f"config {qc.label}, row_wise={qc.row_wise} gives {want}"
            )
        data = value.values() if bits < 32 else value.data.copy()
        out[name] = Tensor(data, requires_grad=True, name=name)
    return SeqModel(meta.model_config, out)


def load_model(path: str) -> tuple[SeqModel, CheckpointMeta]:
    """One-call restore: load, validate names, dequantize, build the model."""
    params, meta = load_checkpoint(path)
    return build_model(params, meta), meta
