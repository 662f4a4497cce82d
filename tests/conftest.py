"""Fixtures shared by several test modules."""

import pytest

from dqseq.model import ModelConfig
from dqseq.tasks import TaskSpec, generate_task
from dqseq.trainer import TrainConfig, train

# the acceptance ladder's task and model shape
LADDER_TASK = TaskSpec("copy", vocab_size=16, min_len=1, max_len=12,
                       train_size=512, dev_size=64, test_size=64, seed=0)
LADDER_MODEL = ModelConfig(vocab_size=16, d_model=64, n_heads=4, d_ff=256,
                           n_enc_layers=2, n_dec_layers=2, max_positions=16)


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
