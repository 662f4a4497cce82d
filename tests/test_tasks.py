"""Task generation: target definitions, split hygiene, batch packing."""

import numpy as np
import pytest

from dqseq.tasks import (
    BOS,
    EOS,
    PAD,
    Dataset,
    TaskError,
    TaskSpec,
    generate_task,
    pad_batch,
    seq2seq_batch,
    target_for,
)


def small_spec(kind="copy", **kw):
    base = dict(kind=kind, vocab_size=16, min_len=1, max_len=8,
                train_size=60, dev_size=12, test_size=12, seed=0)
    base.update(kw)
    return TaskSpec(**base)


# ---------------------------------------------------------------------------
# target definitions


def test_target_fixtures():
    assert target_for("copy", [5, 7, 9]) == [5, 7, 9, EOS]
    assert target_for("reverse", [5, 7, 9]) == [9, 7, 5, EOS]
    assert target_for("sort", [9, 5, 7]) == [5, 7, 9, EOS]


def test_add_sums_digit_values():
    # ids 4..13 are digits 0..9: 9+9+9=27 -> digits 2,7 -> ids 6,11
    assert target_for("add", [13, 13, 13]) == [6, 11, EOS]
    assert target_for("add", [4]) == [4, EOS]  # 0 -> "0"


def test_spec_validation():
    with pytest.raises(TaskError, match="kind"):
        TaskSpec(kind="multiply")
    with pytest.raises(TaskError, match="vocab_size >= 14"):
        TaskSpec(kind="add", vocab_size=12)
    with pytest.raises(TaskError, match="min_len"):
        TaskSpec(kind="copy", min_len=0)
    with pytest.raises(TaskError, match="positive"):
        small_spec(dev_size=0)


# ---------------------------------------------------------------------------
# split generation


def test_generation_is_deterministic():
    a, b = generate_task(small_spec()), generate_task(small_spec())
    assert a.train.pairs == b.train.pairs
    assert a.dev.pairs == b.dev.pairs
    assert a.test.pairs == b.test.pairs
    c = generate_task(small_spec(seed=1))
    assert c.train.pairs != a.train.pairs


def test_splits_are_disjoint_and_sized():
    splits = generate_task(small_spec(kind="reverse"))
    srcs = {k: {tuple(s) for s, _ in d.pairs} for k, d in
            (("train", splits.train), ("dev", splits.dev), ("test", splits.test))}
    assert len(splits.train) == 60 and len(splits.dev) == 12 and len(splits.test) == 12
    assert not srcs["train"] & srcs["dev"]
    assert not srcs["train"] & srcs["test"]
    assert not srcs["dev"] & srcs["test"]
    assert len(srcs["train"]) == 60  # no duplicate sources inside a split


def test_generated_pairs_respect_invariants():
    spec = small_spec(kind="add", vocab_size=14, min_len=2, max_len=6)
    splits = generate_task(spec)
    for ds in (splits.train, splits.dev, splits.test):
        for src, tgt in ds.pairs:
            assert 2 <= len(src) <= 6
            assert all(4 <= t < 14 for t in src)
            assert tgt[-1] == EOS
            assert all(0 <= t < spec.vocab_size for t in tgt)
            assert tgt == target_for("add", src)


def test_tiny_task_space_raises():
    # single length-1 vocab-5 task has only one content token: 3 distinct sources
    with pytest.raises(TaskError, match="task space"):
        generate_task(TaskSpec(kind="copy", vocab_size=5, min_len=1, max_len=1,
                               train_size=10, dev_size=2, test_size=2))


# ---------------------------------------------------------------------------
# batch packing


def test_pad_batch_shapes():
    out = pad_batch([[5, 7], [6]], pad_id=PAD)
    assert out.tolist() == [[5, 7], [6, PAD]]
    assert out.dtype == np.int64


def test_seq2seq_batch_shift():
    pairs = [([5, 7], [5, 7, EOS]), ([6], [6, EOS])]
    src, dec_in, labels = seq2seq_batch(pairs)
    assert src.tolist() == [[5, 7], [6, PAD]]
    assert dec_in.tolist() == [[BOS, 5, 7], [BOS, 6, PAD]]
    assert labels.tolist() == [[5, 7, EOS], [6, EOS, PAD]]


def test_dataset_len():
    assert len(Dataset([([5], [5, EOS])], 16)) == 1
