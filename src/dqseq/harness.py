"""Experiment orchestration: run manifests, one-call runs, report tables.

A manifest pins every input of one experiment (task, training mode, student
shape, bit widths) plus a content hash over those inputs, so a rerun of the
same manifest is detectable and, single-threaded, reproduces the same row.
run_experiments runs a list of them as a job graph: each student once its
teacher's checkpoint is written, in parallel processes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from .checkpoint import CheckpointError, build_model, load_model, save_checkpoint
from .distiller import DistillConfig
from .metrics import footprint
from .model import ModelConfig, SeqModel, param_specs
from .quantizer import QuantConfig, quantize_params, usable_cpus
from .tasks import TaskError, TaskSpec, generate_task
from .trainer import CONFIG_ERRORS, TrainConfig, TrainError, evaluate, train

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
        inputs = asdict(self)
        del inputs["result"], inputs["wall_clock"]
        return inputs

    def content_hash(self) -> str:
        blob = json.dumps(self._inputs(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_json(self) -> str:
        payload = {**asdict(self), "content_hash": self.content_hash()}
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str, name: str = "manifest") -> "RunManifest":
        """Parse a manifest; anything malformed raises HarnessError, whose
        message starts with name."""
        try:
            raw = json.loads(text)
            if not isinstance(raw, dict) or not isinstance(raw.get("result", {}), dict):
                raise TypeError("the manifest and its result must be JSON objects")
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
        except CONFIG_ERRORS as exc:
            raise HarnessError(f"{name} is missing or malformed: {exc!r}") from exc
        stored = raw.get("content_hash")
        if stored is not None and stored != manifest.content_hash():
            raise HarnessError(f"{name} content hash does not match its inputs")
        return manifest

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        with open(path) as fh:
            return cls.from_json(fh.read(), f"manifest {path}")


def run_experiment(manifest: RunManifest, log_path: str | None = None,
                   teacher: SeqModel | None = None) -> dict:
    """Run one manifest end to end and fill in its result row.

    A student manifest's teacher_path is loaded first, so a missing file fails
    fast, unless the caller passes the teacher it already loaded from there;
    train refuses a mode whose inputs are missing. The
    master is quantized once; the row scores that stored set and out_path
    receives it. The footprint ratio is against the teacher at 32 bits (1 for teachers).
    """
    mode = manifest.train_config.mode
    tag = manifest.content_hash()[:12]
    start = time.perf_counter()

    if mode != "teacher" and teacher is None and manifest.teacher_path:
        if not os.path.exists(manifest.teacher_path):
            raise HarnessError(
                f"manifest {tag}: teacher checkpoint not found: {manifest.teacher_path}"
            )
        try:
            teacher, _ = load_model(manifest.teacher_path)
        except CheckpointError as exc:
            raise HarnessError(f"manifest {tag}: {exc}") from exc
    baseline = None if teacher is None else teacher.config

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

    categories = {name: cat for name, _, cat in param_specs(model.config)}
    stored = quantize_params(model.params, categories, meta.quant_config)
    view = build_model(stored, meta)
    report = evaluate(view, splits.test, QuantConfig(a_bits=meta.quant_config.a_bits))
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
        save_checkpoint(manifest.out_path, stored, meta)
    return manifest.result


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run_job(manifest: RunManifest, log_path: str | None) -> tuple[dict, float]:
    run_experiment(manifest, log_path)
    return manifest.result, manifest.wall_clock


@contextmanager
def _one_blas_thread():
    """Processes spawned inside the block load numpy with one BLAS thread."""
    saved = {k: os.environ.pop(k) for k in _BLAS_THREAD_VARS if k in os.environ}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for k in _BLAS_THREAD_VARS:
            os.environ.pop(k, None)
        os.environ.update(saved)


def run_experiments(manifests: list[RunManifest],
                    log_paths: list[str | None] | None = None) -> list[dict]:
    """Run every manifest through run_experiment; return the rows in order.

    A student whose teacher_path is the out_path of another manifest in the
    list starts once that one has run and written it, so a chain teacher ->
    assistant -> student runs in order; every other job starts at once. A
    chain that runs into a cycle raises HarnessError before any job starts.
    At most usable_cpus() jobs run at a time, each in a spawned process on
    one BLAS thread. Each manifest's result and wall_clock are filled in
    here, in the caller's process. Every job is seeded, so the rows and files
    are those of a serial loop. The first failed job raises HarnessError once
    the jobs already running have finished; no job starts after it.
    """
    logs = log_paths or [None] * len(manifests)
    if len(logs) != len(manifests):
        raise HarnessError(f"{len(logs)} log paths for {len(manifests)} manifests")
    outs = [m.out_path for m in manifests if m.out_path]
    if len(set(outs)) != len(outs):
        raise HarnessError("two manifests write the same out_path")
    producers = {m.out_path: i for i, m in enumerate(manifests) if m.out_path}
    ready, students = [], {}
    for i, m in enumerate(manifests):
        parent = producers.get(m.teacher_path) if m.train_config.mode != "teacher" else None
        if parent is None:
            ready.append(i)
        else:
            students.setdefault(parent, []).append(i)
    reached = list(ready)
    for i in reached:  # grows as it goes: every job the graph will ever start
        reached += students.get(i, [])
    if len(reached) < len(manifests):
        stuck = min(set(range(len(manifests))) - set(reached))
        raise HarnessError(f"manifest {manifests[stuck].content_hash()[:12]}: its teacher_path "
                           "chain runs into a cycle of out_paths")

    # deferred: multiprocessing and its imports cost about 1.4 MB of peak RSS,
    # which training, decoding and single runs do not pay
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    workers = usable_cpus()
    spawn = multiprocessing.get_context("spawn")
    with _one_blas_thread(), ProcessPoolExecutor(workers, mp_context=spawn) as pool:
        running = {}
        while ready or running:
            while ready and len(running) < workers:
                i = ready.pop(0)
                running[pool.submit(_run_job, manifests[i], logs[i])] = i
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for job in done:
                i = running.pop(job)
                try:
                    manifests[i].result, manifests[i].wall_clock = job.result()
                except HarnessError:
                    raise
                except Exception as exc:
                    raise HarnessError(
                        f"manifest {manifests[i].content_hash()[:12]}: {exc!r}"
                    ) from exc
                ready += students.pop(i, [])
    return [m.result for m in manifests]


def _cell(value) -> str:
    # Fixed-point text keeps rows locale-independent and diffable.
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_table(manifests: list[RunManifest], path: str) -> None:
    """Merge result rows into one CSV: fixed header, one row per manifest.
    Every row is checked before path is opened, so a bad one leaves no file."""
    rows = []
    for m in manifests:
        tag = m.content_hash()[:12]
        if not m.result:
            raise HarnessError(f"manifest {tag} has no result row")
        try:
            rows.append([_cell(m.result[c]) for c in TABLE_COLUMNS])
        except KeyError as exc:
            raise HarnessError(f"manifest {tag}: result has no {exc} column") from exc
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([TABLE_COLUMNS, *rows])
