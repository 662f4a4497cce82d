"""Fixtures shared by several test modules."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as the benchmark runs; set before numpy loads

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from dqseq.distiller import DistillConfig, init_student  # noqa: E402
from dqseq.model import ModelConfig, init_model  # noqa: E402
from dqseq.tasks import TaskSpec, generate_task, seq2seq_batch  # noqa: E402
from dqseq.trainer import TrainConfig, train  # noqa: E402

# the acceptance ladder's task and model shape
LADDER_TASK = TaskSpec("copy", vocab_size=16, min_len=1, max_len=12,
                       train_size=512, dev_size=64, test_size=64, seed=0)
LADDER_MODEL = ModelConfig(vocab_size=16, d_model=64, n_heads=4, d_ff=256,
                           n_enc_layers=2, n_dec_layers=2, max_positions=16)


def padded(packed, valid) -> np.ndarray:
    """A trace field's packed rows [N, ...] laid out at the real positions of
    valid, a [B, L] boolean mask, in C order, with zeros elsewhere: [B, L, ...]."""
    out = np.zeros(valid.shape + packed.shape[1:], np.float32)
    out[valid] = packed.data
    return out


@pytest.fixture(scope="session")
def briefly_trained():
    """(teacher, dev split): a ladder-shape teacher after three epochs. Its
    greedy decodes vary from source to source and most run to the length
    cap, yet are still close enough calls that per-tensor activation scales
    flipped some of them with batch composition."""
    splits = generate_task(LADDER_TASK)
    teacher, _ = train(None, TrainConfig("teacher", epochs=3, learning_rate=3e-3, seed=0),
                       splits, model_config=LADDER_MODEL)
    return teacher, splits.dev


@pytest.fixture
def ladder_dq_inputs():
    """(teacher, student, layer map, batch) for one dq step at the ladder
    shape: a frozen random-init teacher, its 2+2 student and 32 copy rows."""
    teacher = init_model(LADDER_MODEL, seed=0)
    for t in teacher.params.values():
        t.requires_grad = False
    student, lmap = init_student(teacher, DistillConfig(2, 2))
    splits = generate_task(TaskSpec("copy", vocab_size=16, max_len=12, train_size=32,
                                    dev_size=4, test_size=4, seed=0))
    return teacher, student, lmap, seq2seq_batch(splits.train.pairs)
