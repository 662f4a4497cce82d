"""Binary checkpoints: full-precision or quantized parameter sets plus meta.

Layout, all little-endian:
    magic "DQS2" | u32 version | u64 config length | config block (utf-8)
    then per-tensor records in sorted-name order:
    u64 name length | name | u64 rank | u64 dims... | u8 dtype tag | payload
Tag 0 is raw float32. Tag 1 is quantized: u8 bits, u8 alpha rank,
u64 alpha count, float32 alphas, then packed codes. The config block is one
"key=json" line per field, sorted by key. Reading a malformed or truncated
file raises CheckpointError.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict

import numpy as np

from .distiller import DistillConfig
from .model import ModelConfig, SeqModel, param_specs
from .quantizer import (
    PACKED_BITS, QuantConfig, QuantizedTensor, pack_codes, packed_size, unpack_codes,
)
from .tensor import Tensor
from .trainer import CheckpointMeta, TrainConfig, TrainError

MAGIC = b"DQS2"
VERSION = 1

TAG_FLOAT32 = 0
TAG_QUANTIZED = 1


class CheckpointError(ValueError):
    """Malformed or truncated checkpoint file."""


def _config_block(meta: CheckpointMeta) -> bytes:
    fields = {
        "model_config": asdict(meta.model_config),
        "quant_config": asdict(meta.quant_config),
        "distill_config": None if meta.distill_config is None else asdict(meta.distill_config),
        "train_config": asdict(meta.train_config),
        "step": meta.step,
        "history": meta.history,
        "best_epoch": meta.best_epoch,
    }
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
    except (KeyError, TypeError, ValueError, TrainError) as exc:
        raise CheckpointError(f"config block is missing or malformed: {exc}") from exc


def _tensor_record(name: str, value) -> bytes:
    encoded = name.encode("utf-8")
    shape = value.shape
    head = struct.pack("<Q", len(encoded)) + encoded
    head += struct.pack("<Q", len(shape)) + b"".join(struct.pack("<Q", d) for d in shape)
    if isinstance(value, QuantizedTensor):
        body = struct.pack("<BBBQ", TAG_QUANTIZED, value.bits, value.alpha.ndim,
                           value.n_scales)
        body += value.alpha.astype("<f4").tobytes()
        body += pack_codes(value.codes, value.bits)
    else:
        data = value.data if isinstance(value, Tensor) else np.asarray(value, np.float32)
        body = struct.pack("<B", TAG_FLOAT32) + data.astype("<f4").tobytes()
    return head + body


def save_checkpoint(path: str, params_or_model, meta: CheckpointMeta) -> None:
    """Write a parameter set (plain, quantized, or a whole model) with meta."""
    params = params_or_model.params if isinstance(params_or_model, SeqModel) else params_or_model
    config = _config_block(meta)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(config)))
        fh.write(config)
        for name in sorted(params):
            fh.write(_tensor_record(name, params[name]))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(
                f"truncated checkpoint: wanted {n} bytes at offset {self.pos}, "
                f"file has {len(self.blob)}"
            )
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.blob)


def load_checkpoint(path: str):
    """Read back (params, meta); the bit-exact inverse of save_checkpoint.

    Quantized records come back as QuantizedTensor, everything else as a
    trainable Tensor. Use build_model to turn the set into a SeqModel.
    """
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    if r.take(4) != MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    version = struct.unpack("<I", r.take(4))[0]
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    meta = _parse_config_block(r.take(r.u64()))
    params: dict[str, Tensor | QuantizedTensor] = {}
    while not r.exhausted:
        try:
            name = r.take(r.u64()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"tensor name is not utf-8: {exc}") from exc
        shape = tuple(r.u64() for _ in range(r.u64()))
        try:
            params[name] = _read_payload(r, name, shape)
        except CheckpointError:
            raise
        except ValueError as exc:  # shape numpy cannot build, alpha that fits no layout
            raise CheckpointError(f"bad record for tensor {name!r}: {exc}") from exc
    return params, meta


def _read_payload(r: _Reader, name: str, shape: tuple[int, ...]):
    count = math.prod(shape)
    tag = r.u8()
    if tag == TAG_FLOAT32:
        data = np.frombuffer(r.take(4 * count), dtype="<f4").reshape(shape)
        return Tensor(data.copy(), requires_grad=True, name=name)
    if tag != TAG_QUANTIZED:
        raise CheckpointError(f"unknown dtype tag {tag} for tensor {name!r}")
    bits, alpha_rank, n_scales = r.u8(), r.u8(), r.u64()
    if bits not in PACKED_BITS:
        raise CheckpointError(f"tensor {name!r} has {bits}-bit codes, not one of {PACKED_BITS}")
    if alpha_rank > 1 or (alpha_rank == 0 and n_scales != 1):
        raise CheckpointError(
            f"tensor {name!r} has alpha rank {alpha_rank} with {n_scales} scales"
        )
    payload = r.take(packed_size(count, bits, n_scales))
    alpha = np.frombuffer(payload, dtype="<f4", count=n_scales)
    codes = unpack_codes(payload[alpha.nbytes:], bits, count)
    alpha = alpha[0] if alpha_rank == 0 else alpha.copy()
    return QuantizedTensor(alpha, codes.reshape(shape), bits, shape)


def build_model(params: dict, meta: CheckpointMeta) -> SeqModel:
    """Materialize a SeqModel, dequantizing any quantized parameters.

    The parameter names and shapes must exactly match the model config's
    inventory.
    """
    shapes = {name: shape for name, shape, _ in param_specs(meta.model_config)}
    expected, got = set(shapes), set(params)
    if got != expected:
        missing, extra = sorted(expected - got), sorted(got - expected)
        raise CheckpointError(
            f"parameter names do not match the config: missing {missing}, extra {extra}"
        )
    out = {}
    for name, value in params.items():
        if tuple(value.shape) != shapes[name]:
            raise CheckpointError(
                f"tensor {name!r} has shape {tuple(value.shape)}, the config names {shapes[name]}"
            )
        data = value.values() if isinstance(value, QuantizedTensor) else value.data.copy()
        out[name] = Tensor(data, requires_grad=True, name=name)
    return SeqModel(meta.model_config, out)


def load_model(path: str) -> tuple[SeqModel, CheckpointMeta]:
    """One-call restore: load, validate names, dequantize, build the model."""
    params, meta = load_checkpoint(path)
    return build_model(params, meta), meta
