"""Joint distillation and low-bit quantization for small encoder-decoder models."""

__version__ = "0.1.0"

from .checkpoint import load_checkpoint, load_model, save_checkpoint
from .distiller import DistillConfig
from .harness import RunManifest, run_experiment, write_table
from .metrics import footprint
from .model import ModelConfig, SeqModel, init_model
from .quantizer import QuantConfig
from .tasks import TaskSpec, generate_task
from .tensor import Tape, Tensor, backward, no_grad
from .trainer import TrainConfig, evaluate, train

__all__ = [
    "Tape",
    "Tensor",
    "backward",
    "no_grad",
    "ModelConfig",
    "SeqModel",
    "init_model",
    "QuantConfig",
    "DistillConfig",
    "TrainConfig",
    "train",
    "evaluate",
    "TaskSpec",
    "generate_task",
    "footprint",
    "save_checkpoint",
    "load_checkpoint",
    "load_model",
    "RunManifest",
    "run_experiment",
    "write_table",
    "__version__",
]
