"""Synthetic seq2seq tasks with deterministic, hash-partitioned splits.

Reserved ids: pad=0, bos=1, eos=2, unk=3; content tokens start at 4. The
"add" task reads content ids 4..13 as decimal digits 0..9 and targets the
digits of their sum.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

PAD, BOS, EOS, UNK = 0, 1, 2, 3
FIRST_CONTENT = 4

KINDS = ("copy", "reverse", "sort", "add")


class TaskError(ValueError):
    """Invalid task specification or unsatisfiable generation request."""


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    vocab_size: int = 16
    min_len: int = 1
    max_len: int = 12
    train_size: int = 512
    dev_size: int = 64
    test_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise TaskError(f"kind must be one of {KINDS}, got {self.kind!r}")
        floor = 14 if self.kind == "add" else FIRST_CONTENT + 1
        if self.vocab_size < floor:
            raise TaskError(f"{self.kind} needs vocab_size >= {floor}, got {self.vocab_size}")
        if not 1 <= self.min_len <= self.max_len:
            raise TaskError(f"need 1 <= min_len <= max_len, got {self.min_len}..{self.max_len}")
        if min(self.train_size, self.dev_size, self.test_size) < 1:
            raise TaskError("all split sizes must be positive")


@dataclass
class Dataset:
    """(src ids, tgt ids) pairs; every tgt ends with EOS."""

    pairs: list[tuple[list[int], list[int]]]
    vocab_size: int

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class Splits:
    train: Dataset
    dev: Dataset
    test: Dataset


def target_for(kind: str, src: list[int]) -> list[int]:
    if kind == "copy":
        return src + [EOS]
    if kind == "reverse":
        return src[::-1] + [EOS]
    if kind == "sort":
        return sorted(src) + [EOS]
    if kind == "add":
        total = sum(i - FIRST_CONTENT for i in src)
        return [FIRST_CONTENT + int(c) for c in str(total)] + [EOS]
    raise TaskError(f"unknown kind {kind!r}")


def _bucket(src: list[int]) -> str:
    """Stable split assignment so a source can never appear in two splits."""
    digest = hashlib.sha256(",".join(map(str, src)).encode()).digest()
    r = int.from_bytes(digest[:8], "little") % 10
    return "test" if r == 0 else "dev" if r == 1 else "train"


def generate_task(spec: TaskSpec) -> Splits:
    """Draw unique sources until every split is full.

    Sources are uniform over content ids ("add" restricts to digit ids) with
    uniform lengths in [min_len, max_len]. Raises when the task space cannot
    fill the requested sizes within a bounded number of draws.
    """
    rng = np.random.default_rng(spec.seed)
    high = FIRST_CONTENT + 10 if spec.kind == "add" else spec.vocab_size
    want = {"train": spec.train_size, "dev": spec.dev_size, "test": spec.test_size}
    splits: dict[str, list] = {"train": [], "dev": [], "test": []}
    seen: set[tuple[int, ...]] = set()
    budget = 200 * sum(want.values())
    for _ in range(budget):
        if all(len(splits[k]) >= want[k] for k in want):
            break
        length = int(rng.integers(spec.min_len, spec.max_len + 1))
        src = [int(t) for t in rng.integers(FIRST_CONTENT, high, size=length)]
        key = tuple(src)
        if key in seen:
            continue
        seen.add(key)
        name = _bucket(src)
        if len(splits[name]) < want[name]:
            splits[name].append((src, target_for(spec.kind, src)))
    short = {k: want[k] - len(splits[k]) for k in want if len(splits[k]) < want[k]}
    if short:
        raise TaskError(
            f"could not fill splits after {budget} draws, still missing {short}; "
            "the task space is too small for the requested sizes"
        )
    return Splits(*(Dataset(splits[k], spec.vocab_size) for k in ("train", "dev", "test")))


def pad_batch(seqs: list[list[int]], pad_id: int = PAD) -> np.ndarray:
    width = max(len(s) for s in seqs)
    out = np.full((len(seqs), width), pad_id, dtype=np.int64)
    for r, s in enumerate(seqs):
        out[r, : len(s)] = s
    return out


def seq2seq_batch(
    pairs: list[tuple[list[int], list[int]]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, decoder input, labels) arrays for one batch.

    The decoder input is the target shifted right behind BOS; labels are the
    target itself, so position i predicts tgt[i] from tgt[:i].
    """
    src = pad_batch([s for s, _ in pairs])
    dec_in = pad_batch([[BOS] + t[:-1] for _, t in pairs])
    labels = pad_batch([t for _, t in pairs])
    return src, dec_in, labels

