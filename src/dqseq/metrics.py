"""ROUGE scoring, sequence accuracy, and the model footprint calculator."""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass

from .model import ModelConfig, SeqModel, _layer_specs, _ln_specs, param_specs
from .quantizer import EMBEDDING, EXCLUDED, WEIGHT, QuantConfig, packed_size

MIB = 1024 * 1024


# ---------------------------------------------------------------------------
# ROUGE

# All scorers take token lists (the toy tasks score their token ids); no
# stemming or normalization happens here.


@dataclass(frozen=True)
class RougeScores:
    r1: float
    r2: float
    rl: float


def _f1(overlap: float, pred_total: int, ref_total: int) -> float:
    if overlap == 0 or pred_total == 0 or ref_total == 0:
        return 0.0
    p = overlap / pred_total
    r = overlap / ref_total
    return 2.0 * p * r / (p + r)


def rouge_n(pred: list, ref: list, n: int) -> float:
    """N-gram overlap F1 with clipped counts; either side empty gives 0."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    pred_grams = Counter(tuple(pred[i : i + n]) for i in range(len(pred) - n + 1))
    ref_grams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
    overlap = sum(min(c, ref_grams[g]) for g, c in pred_grams.items())
    return _f1(overlap, sum(pred_grams.values()), sum(ref_grams.values()))


def lcs_length(a: list, b: list) -> int:
    """Longest common subsequence by dynamic programming, O(len(a)*len(b))."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(pred: list, ref: list) -> float:
    """LCS-based F-measure (beta = 1); either side empty gives 0."""
    return _f1(lcs_length(pred, ref), len(pred), len(ref))


def rouge_scores(pred: list, ref: list) -> RougeScores:
    return RougeScores(rouge_n(pred, ref, 1), rouge_n(pred, ref, 2), rouge_l(pred, ref))


# ---------------------------------------------------------------------------
# accuracy


def accuracy(preds: list, targets: list, pad_id: int) -> tuple[float, float]:
    """(token accuracy, sequence accuracy) over a batch of id sequences.

    Each prediction is aligned to its target's length (truncated, or padded
    with pad_id) and scored at non-pad target positions. Sequence accuracy is
    exact match after dropping padding from both sides.
    """
    if len(preds) != len(targets):
        raise ValueError(f"{len(preds)} predictions vs {len(targets)} targets")
    token_hits = token_total = seq_hits = 0
    for pred, tgt in zip(preds, targets):
        aligned = list(pred[: len(tgt)]) + [pad_id] * (len(tgt) - len(pred))
        for p, t in zip(aligned, tgt):
            if t == pad_id:
                continue
            token_total += 1
            token_hits += p == t
        if [p for p in pred if p != pad_id] == [t for t in tgt if t != pad_id]:
            seq_hits += 1
    seq_acc = seq_hits / len(targets) if targets else 0.0
    if token_total == 0:
        warnings.warn("accuracy: no non-pad target tokens, reporting 1.0")
        return 1.0, seq_acc
    return token_hits / token_total, seq_acc


# ---------------------------------------------------------------------------
# footprint

# Static serialized size only: parameters and their quantization scales.
# Activations and optimizer state never count.


@dataclass(frozen=True)
class FootprintReport:
    weight_bytes: int
    embedding_bytes: int
    excluded_bytes: int
    baseline_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.weight_bytes + self.embedding_bytes + self.excluded_bytes

    @property
    def size_mib(self) -> float:
        return self.total_bytes / MIB

    @property
    def ratio(self) -> float:
        return self.baseline_bytes / self.total_bytes


def _specs_of(target) -> list[tuple[str, tuple[int, ...], str]]:
    if isinstance(target, SeqModel):
        return param_specs(target.config)
    if isinstance(target, ModelConfig):
        return param_specs(target)
    return list(target)


def _tensor_bytes(shape: tuple[int, ...], category: str, qconfig: QuantConfig) -> int:
    count = math.prod(shape)
    bits = qconfig.bits_for(category)
    if bits == 32:
        return 4 * count
    return packed_size(count, bits, shape[0] if qconfig.row_wise_for(shape) else 1)


def footprint(target, qconfig: QuantConfig, baseline=None) -> FootprintReport:
    """Serialized size of a (possibly quantized) model and its compression ratio.

    target and baseline are a SeqModel, a ModelConfig, or an explicit
    (name, shape, category) spec list. The ratio compares against the
    baseline specs held entirely at 32 bits; baseline defaults to the
    target itself, so pass the full-depth teacher when depth was reduced.
    """
    buckets = {WEIGHT: 0, EMBEDDING: 0, EXCLUDED: 0}
    for _, shape, category in _specs_of(target):
        size = _tensor_bytes(tuple(shape), category, qconfig)  # rejects unknown categories
        buckets[category] += size
    base_specs = _specs_of(target if baseline is None else baseline)
    baseline_bytes = 4 * sum(math.prod(shape) for _, shape, _ in base_specs)
    return FootprintReport(
        weight_bytes=buckets[WEIGHT],
        embedding_bytes=buckets[EMBEDDING],
        excluded_bytes=buckets[EXCLUDED],
        baseline_bytes=baseline_bytes,
    )


def bart_base_param_specs(
    enc_layers: int = 6, dec_layers: int = 6
) -> list[tuple[str, tuple[int, ...], str]]:
    """Parameter inventory of BART-base, for footprint arithmetic only.

    vocab 50265, d_model 768, d_ff 3072, 1026 positions, separate encoder
    and decoder positional tables, layer norms after each embedding, tied
    word embeddings counted once, no final layer norm on either stack.
    """
    v, d, f, p = 50265, 768, 3072, 1026
    specs = [
        ("embed.tok", (v, d), EMBEDDING),
        ("embed.enc_pos", (p, d), EXCLUDED),
        ("embed.dec_pos", (p, d), EXCLUDED),
        *_ln_specs("embed.enc_ln", d),
        *_ln_specs("embed.dec_ln", d),
    ]
    for stack, n in (("enc", enc_layers), ("dec", dec_layers)):
        for i in range(n):
            specs.extend(_layer_specs(stack, i, d, f))
    return specs
