"""Experiment orchestration: run manifests, one-call runs, report tables.

A manifest pins every input of one experiment (task, training mode, student
shape, bit widths) plus a content hash over those inputs, so a rerun of the
same manifest is detectable and, single-threaded, reproduces the same row.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field

from .checkpoint import CheckpointError, load_model, save_checkpoint
from .distiller import DistillConfig
from .metrics import footprint
from .model import ModelConfig
from .quantizer import QuantConfig
from .tasks import TaskError, TaskSpec, generate_task
from .trainer import TrainConfig, TrainError, evaluate, train

TABLE_COLUMNS = (
    "config", "mode", "seed", "size_mib", "ratio",
    "token_acc", "seq_acc", "rouge_1", "rouge_2", "rouge_l",
)


class HarnessError(RuntimeError):
    """An experiment could not run as specified."""


@dataclass
class RunManifest:
    """One experiment's inputs, and its result row once run.

    model_config matters only for teacher runs; student shapes come from the
    teacher checkpoint plus distill_config. result and wall_clock start empty
    and are filled in by run_experiment.
    """

    task: TaskSpec
    train_config: TrainConfig
    model_config: ModelConfig | None = None
    quant_config: QuantConfig | None = None
    distill_config: DistillConfig | None = None
    teacher_path: str | None = None
    out_path: str | None = None
    result: dict = field(default_factory=dict)
    wall_clock: float = 0.0

    def _inputs(self) -> dict:
        opt = lambda c: None if c is None else asdict(c)
        return {
            "task": asdict(self.task),
            "train_config": asdict(self.train_config),
            "model_config": opt(self.model_config),
            "quant_config": opt(self.quant_config),
            "distill_config": opt(self.distill_config),
            "teacher_path": self.teacher_path,
            "out_path": self.out_path,
        }

    def content_hash(self) -> str:
        blob = json.dumps(self._inputs(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_json(self) -> str:
        payload = {
            **self._inputs(),
            "content_hash": self.content_hash(),
            "result": self.result,
            "wall_clock": self.wall_clock,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        raw = json.loads(text)
        opt = lambda kind, key: None if raw[key] is None else kind(**raw[key])
        manifest = cls(
            task=TaskSpec(**raw["task"]),
            train_config=TrainConfig(**raw["train_config"]),
            model_config=opt(ModelConfig, "model_config"),
            quant_config=opt(QuantConfig, "quant_config"),
            distill_config=opt(DistillConfig, "distill_config"),
            teacher_path=raw["teacher_path"],
            out_path=raw["out_path"],
            result=raw.get("result", {}),
            wall_clock=raw.get("wall_clock", 0.0),
        )
        stored = raw.get("content_hash")
        if stored is not None and stored != manifest.content_hash():
            raise HarnessError("manifest content hash does not match its inputs")
        return manifest

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        with open(path) as fh:
            return cls.from_json(fh.read())


def run_experiment(manifest: RunManifest, log_path: str | None = None) -> dict:
    """Run one manifest end to end and fill in its result row.

    Student modes resolve the teacher checkpoint before anything else, so a
    missing file fails fast. The footprint ratio always compares against the
    teacher's architecture held at 32 bits; for teacher runs that is the model
    itself, so the ratio is 1.
    """
    mode = manifest.train_config.mode
    tag = manifest.content_hash()[:12]
    start = time.perf_counter()

    teacher = None
    baseline = None
    if mode == "teacher":
        if manifest.model_config is None:
            raise HarnessError(f"manifest {tag}: teacher runs need a model_config")
    else:
        if not manifest.teacher_path:
            raise HarnessError(f"manifest {tag}: mode={mode} needs a teacher checkpoint")
        if not os.path.exists(manifest.teacher_path):
            raise HarnessError(
                f"manifest {tag}: teacher checkpoint not found: {manifest.teacher_path}"
            )
        try:
            teacher, _ = load_model(manifest.teacher_path)
        except CheckpointError as exc:
            raise HarnessError(f"manifest {tag}: {exc}") from exc
        baseline = teacher.config

    try:
        splits = generate_task(manifest.task)
        model, meta = train(
            teacher,
            manifest.train_config,
            splits,
            model_config=manifest.model_config,
            qconfig=manifest.quant_config,
            dconfig=manifest.distill_config,
            log_path=log_path,
        )
    except (TaskError, TrainError) as exc:
        raise HarnessError(f"manifest {tag}: {exc}") from exc

    report = evaluate(model, splits.test, meta.quant_config)
    fp = footprint(model, meta.quant_config, baseline=baseline)
    shape = f"{model.config.n_enc_layers}-{model.config.n_dec_layers}"
    manifest.result = {
        "config": f"{meta.quant_config.label} {shape}",
        "mode": mode,
        "seed": manifest.train_config.seed,
        "size_mib": fp.size_mib,
        "ratio": fp.ratio,
        **report.to_dict(),
    }
    manifest.wall_clock = time.perf_counter() - start
    if manifest.out_path:
        save_checkpoint(manifest.out_path, model, meta)
    return manifest.result


def _cell(value) -> str:
    # Fixed-point text keeps rows locale-independent and diffable.
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_table(manifests: list[RunManifest], path: str) -> None:
    """Merge result rows into one CSV: fixed header, one row per manifest."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TABLE_COLUMNS)
        for m in manifests:
            if not m.result:
                raise HarnessError(f"manifest {m.content_hash()[:12]} has no result row")
            writer.writerow([_cell(m.result[c]) for c in TABLE_COLUMNS])
