"""Metrics: ROUGE against oracles, accuracy fixtures, footprint arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqseq.metrics import (
    FootprintReport,
    accuracy,
    bart_base_param_specs,
    footprint,
    lcs_length,
    rouge_l,
    rouge_n,
    rouge_scores,
)
from dqseq.model import ModelConfig, init_model, param_specs
from dqseq.quantizer import (
    EMBEDDING,
    EXCLUDED,
    WEIGHT,
    PolicyError,
    QuantConfig,
    QuantizedTensor,
    packed_size,
    quantize_params,
)

from oracles import brute_force_lcs

TOY = ModelConfig(vocab_size=16, d_model=32, n_heads=4, d_ff=64,
                  n_enc_layers=2, n_dec_layers=2, max_positions=32)

tokens = st.lists(st.sampled_from("abcde"), max_size=10)


# ---------------------------------------------------------------------------
# rouge


def test_rouge_identical_sequences():
    s = rouge_scores(["a", "b", "c"], ["a", "b", "c"])
    assert (s.r1, s.r2, s.rl) == (1.0, 1.0, 1.0)


def test_rouge_disjoint_vocabularies():
    s = rouge_scores(["a", "b"], ["x", "y"])
    assert (s.r1, s.r2, s.rl) == (0.0, 0.0, 0.0)


def test_rouge1_hand_fixture():
    # pred "a b c", ref "a c": P=2/3, R=1 -> F1 = 0.8
    assert rouge_n(list("abc"), list("ac"), 1) == pytest.approx(0.8)


def test_rouge1_clips_repeated_tokens():
    # pred "a a a", ref "a": overlap clipped to 1 -> P=1/3, R=1 -> F1 = 0.5
    assert rouge_n(list("aaa"), list("a"), 1) == pytest.approx(0.5)


def test_rouge_l_hand_fixture():
    # pred "a x b", ref "a b y": LCS=2 -> P=R=2/3 -> F1 = 2/3
    assert rouge_l(list("axb"), list("aby")) == pytest.approx(2.0 / 3.0)


def test_rouge_empty_sides():
    assert rouge_n([], ["a"], 1) == 0.0
    assert rouge_n(["a"], [], 1) == 0.0
    assert rouge_l([], []) == 0.0
    assert rouge_n(["a"], ["a"], 2) == 0.0  # too short for any bigram


def test_rouge_n_validation():
    with pytest.raises(ValueError):
        rouge_n(["a"], ["a"], 0)


def test_lcs_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(60):
        a = list(rng.integers(0, 5, size=rng.integers(0, 11)))
        b = list(rng.integers(0, 5, size=rng.integers(0, 11)))
        assert lcs_length(a, b) == brute_force_lcs(a, b)


@given(tokens, tokens)
def test_rouge_l_symmetric(a, b):
    assert rouge_l(a, b) == pytest.approx(rouge_l(b, a))


@given(tokens, tokens)
@settings(max_examples=200)
def test_rouge1_bounds_rouge_l(a, b):
    # any common subsequence is a multiset of common unigrams
    assert rouge_n(a, b, 1) >= rouge_l(a, b) - 1e-12
    assert 0.0 <= rouge_l(a, b) <= 1.0


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_identical():
    assert accuracy([[4, 5], [6]], [[4, 5], [6]], pad_id=0) == (1.0, 1.0)


def test_accuracy_one_wrong_token():
    preds = [[4, 5, 6, 7], [8, 9, 10, 12]]
    targets = [[4, 5, 6, 7], [8, 9, 10, 11]]
    assert accuracy(preds, targets, pad_id=0) == (7 / 8, 0.5)


def test_accuracy_length_mismatch_scores_missing_as_wrong():
    token, seq = accuracy([[4, 5]], [[4, 5, 6, 7]], pad_id=0)
    assert token == 0.5 and seq == 0.0
    token, seq = accuracy([[4, 5, 6, 7, 8]], [[4, 5]], pad_id=0)
    assert token == 1.0 and seq == 0.0  # extra tokens break exact match


def test_accuracy_ignores_pad_positions():
    token, seq = accuracy([[4, 5, 0]], [[4, 9, 0]], pad_id=0)
    assert token == 0.5 and seq == 0.0


def test_accuracy_all_pad_targets_warns():
    with pytest.warns(UserWarning, match="no non-pad"):
        token, seq = accuracy([[0], []], [[0, 0], [0]], pad_id=0)
    assert token == 1.0 and seq == 1.0


def test_accuracy_batch_size_mismatch():
    with pytest.raises(ValueError):
        accuracy([[1]], [[1], [2]], pad_id=0)


# ---------------------------------------------------------------------------
# footprint


def test_footprint_32_bit_is_exactly_4_bytes_per_param():
    rep = footprint(TOY, QuantConfig(32, 32, 32))
    assert rep.total_bytes == 4 * sum(t.data.size for t in init_model(TOY, 0).params.values())
    assert rep.ratio == 1.0
    assert rep.total_bytes == rep.weight_bytes + rep.embedding_bytes + rep.excluded_bytes


def test_footprint_hand_arithmetic():
    specs = [
        ("w", (3, 4), WEIGHT),       # 12 params
        ("e", (5, 2), EMBEDDING),    # 10 params
        ("x", (7,), EXCLUDED),       # 7 params
    ]
    rep = footprint(specs, QuantConfig(2, 4, 8))
    assert rep.weight_bytes == math.ceil(12 * 2 / 8) + 4      # 3 + one scale
    assert rep.embedding_bytes == math.ceil(10 * 4 / 8) + 4   # 5 + one scale
    assert rep.excluded_bytes == 7 * 4
    assert rep.baseline_bytes == 4 * 29
    assert rep.ratio == pytest.approx(116 / (7 + 9 + 28))


def test_footprint_row_wise_scale_accounting():
    specs = [("w", (3, 4), WEIGHT)]
    per_tensor = footprint(specs, QuantConfig(2, 32, 32))
    per_row = footprint(specs, QuantConfig(2, 32, 32, row_wise=True))
    assert per_tensor.weight_bytes == 3 + 4
    assert per_row.weight_bytes == 3 + 4 * 3


@pytest.mark.parametrize("row_wise", [False, True])
def test_footprint_equals_bytes_of_quantize_params(row_wise):
    cfg = ModelConfig(vocab_size=12, d_model=8, n_heads=2, d_ff=12,
                      n_enc_layers=1, n_dec_layers=1, max_positions=6)
    model = init_model(cfg, 0)
    categories = {name: cat for name, _, cat in param_specs(cfg)}
    for w in (2, 4, 8, 32):
        for e in (2, 4, 8, 32):
            qc = QuantConfig(w, e, 8, row_wise=row_wise)
            stored = quantize_params(model.params, categories, qc)
            nbytes = sum(packed_size(v) if isinstance(v, QuantizedTensor) else 4 * v.data.size
                         for v in stored.values())
            assert nbytes == footprint(cfg, qc).total_bytes, qc


def test_footprint_activation_bits_cost_nothing():
    a = footprint(TOY, QuantConfig(2, 2, 8))
    b = footprint(TOY, QuantConfig(2, 2, 32))
    assert a.total_bytes == b.total_bytes


def test_footprint_rejects_unknown_category():
    with pytest.raises(PolicyError, match="category"):
        footprint([("w", (2, 2), "mystery")], QuantConfig())


def test_footprint_ratio_monotone_in_bits():
    widths = (32, 8, 4, 2)
    ratios = {}
    for w in widths:
        for e in widths:
            for a in (32, 8):
                ratios[(w, e, a)] = footprint(TOY, QuantConfig(w, e, a)).ratio
    for w_i, w in enumerate(widths):
        for e_i, e in enumerate(widths):
            for a in (32, 8):
                if w_i + 1 < len(widths):
                    assert ratios[(widths[w_i + 1], e, a)] >= ratios[(w, e, a)]
                if e_i + 1 < len(widths):
                    assert ratios[(w, widths[e_i + 1], a)] >= ratios[(w, e, a)]


def test_footprint_baseline_override():
    small = bart_base_param_specs(6, 3)
    full = bart_base_param_specs(6, 6)
    own = footprint(small, QuantConfig(32, 32, 32))
    vs_full = footprint(small, QuantConfig(32, 32, 32), baseline=full)
    assert own.ratio == 1.0
    assert vs_full.ratio > 1.0


def test_bart_base_table_arithmetic():
    base = bart_base_param_specs()
    full = footprint(base, QuantConfig(32, 32, 32))
    assert full.size_mib == pytest.approx(531, rel=0.10)
    targets = {
        ((8, 8, 8), 6, 6): 3.9,
        ((2, 2, 8), 6, 6): 13.6,
        ((2, 2, 8), 6, 3): 16.5,
        ((2, 2, 8), 6, 1): 19.2,
        ((2, 2, 8), 3, 1): 23.5,
        ((2, 2, 8), 1, 1): 27.7,
    }
    for (bits, e, d), expect in targets.items():
        rep = footprint(bart_base_param_specs(e, d), QuantConfig(*bits), baseline=base)
        assert rep.ratio == pytest.approx(expect, rel=0.10), (bits, e, d)


def test_footprint_report_is_plain_data():
    rep = FootprintReport(weight_bytes=8, embedding_bytes=4, excluded_bytes=4, baseline_bytes=32)
    assert rep.total_bytes == 16
    assert rep.ratio == 2.0
    assert rep.size_mib == pytest.approx(16 / 2**20)
