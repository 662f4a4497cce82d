"""Quantizer: frozen worked examples, formula-oracle agreement, packing."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dqseq.quantizer import (
    QuantConfig,
    QuantizedTensor,
    PolicyError,
    linear_quantize,
    pack_codes,
    packed_size,
    quantize,
    quantize_activation,
    twn_quantize,
    unpack_codes,
)
from dqseq.tensor import Tape, Tensor, backward, sum_all

import oracles

finite_vectors = st.lists(
    st.floats(-100, 100, allow_nan=False, width=32), min_size=1, max_size=64
).map(lambda v: np.array(v, np.float32))


# ---------------------------------------------------------------------------
# frozen examples


def test_linear_quantize_8bit_example():
    q = linear_quantize(np.float32([-1.0, 0.25, 0.5]), 8)
    assert q.alpha == pytest.approx(1.0 / 127.0, rel=1e-6)
    assert q.codes.tolist() == [-127, 32, 64]


def test_linear_quantize_4bit_rounds_half_away_from_zero():
    q = linear_quantize(np.float32([0.7, -0.35]), 4)
    assert q.alpha == pytest.approx(0.1, rel=1e-5)
    assert q.codes.tolist() == [7, -4]


def test_linear_quantize_all_zero():
    q = linear_quantize(np.zeros(5, np.float32), 8)
    assert q.alpha == 0.0
    assert not q.codes.any()
    assert np.all(np.isfinite(q.values()))


def test_linear_quantize_rejects_two_bits():
    with pytest.raises(ValueError, match="twn_quantize"):
        linear_quantize(np.float32([1.0]), 2)


def test_twn_example():
    q = twn_quantize(np.float32([0.1, -0.9, 0.5, -0.05]))
    assert q.codes.tolist() == [0, -1, 1, 0]
    assert q.alpha == pytest.approx(0.7, rel=1e-6)
    # threshold value itself: 0.7 * 1.55 / 4
    assert 0.7 * 1.55 / 4 == pytest.approx(0.27125)


def test_twn_empty_above_threshold_set():
    # all mass below delta is impossible for nonzero w (delta < max|w|),
    # so force it with the genuinely degenerate all-zero tensor
    q = twn_quantize(np.zeros(4, np.float32))
    assert q.alpha == 0.0
    assert not q.codes.any()


def test_quantized_tensor_validation():
    with pytest.raises(ValueError, match="alpha"):
        QuantizedTensor(np.float32(-0.5), np.zeros(2, np.int8), 8, (2,))
    with pytest.raises(ValueError, match="shape"):
        QuantizedTensor(np.float32(0.5), np.zeros(3, np.int8), 8, (2,))
    # per-row scales need a 2-D tensor with one scale per row
    QuantizedTensor(np.ones(2, np.float32), np.zeros((2, 3), np.int8), 8, (2, 3))
    for alpha, shape in (
        (np.ones(3, np.float32), (3,)),          # a 1-D tensor has no rows
        (np.ones(3, np.float32), (2, 3)),        # count is not shape[0]
        (np.ones((2, 1), np.float32), (2, 3)),   # rank above 1
    ):
        with pytest.raises(ValueError, match="alpha"):
            QuantizedTensor(alpha, np.zeros(shape, np.int8), 8, shape)


def test_quant_config_validation():
    QuantConfig(2, 2, 8)
    with pytest.raises(ValueError, match="w_bits"):
        QuantConfig(w_bits=3)
    with pytest.raises(ValueError, match="a_bits"):
        QuantConfig(a_bits=2)
    with pytest.raises(ValueError, match="row_wise"):
        QuantConfig(row_wise=1)
    assert QuantConfig(8, 8, 8).label == "8-8-8"
    assert QuantConfig().any_quantized() is False
    assert QuantConfig(a_bits=8).any_quantized() is True


def test_policy_bits():
    q = QuantConfig(2, 8, 8)
    assert q.bits_for("weight") == 2
    assert q.bits_for("embedding") == 8
    assert q.bits_for("excluded") == 32
    with pytest.raises(PolicyError):
        q.bits_for("mystery")
    assert not q.row_wise_for((4, 4))
    rw = QuantConfig(2, 8, 8, row_wise=True)
    assert rw.row_wise_for((4, 4))
    assert not rw.row_wise_for((4,))


# ---------------------------------------------------------------------------
# oracle agreement (bit-exact transcription of the defining formulas)


@settings(max_examples=120)
@given(finite_vectors, st.sampled_from([4, 8]))
def test_linear_matches_oracle_bit_exact(w, n_bits):
    q = linear_quantize(w, n_bits)
    alpha, codes = oracles.ref_linear_quantize(w, n_bits)
    assert q.alpha.tobytes() == np.float32(alpha).tobytes()
    assert np.array_equal(q.codes, codes)


@settings(max_examples=120)
@given(finite_vectors)
def test_twn_matches_oracle_bit_exact(w):
    q = twn_quantize(w)
    alpha, codes = oracles.ref_twn_quantize(w)
    assert q.alpha.tobytes() == np.float32(alpha).tobytes()
    assert np.array_equal(q.codes, codes)


@settings(max_examples=100)
@given(finite_vectors)
def test_twn_threshold_set_identity_and_scale_optimality(w):
    q = twn_quantize(w)
    delta = 0.7 * np.abs(w).sum() / w.size
    assert np.array_equal(q.codes != 0, np.abs(w) > delta)
    b = q.codes.astype(np.float64)
    nb2 = float(b @ b)
    if nb2 > 0:
        ls = float(w.astype(np.float64) @ b) / nb2
        assert abs(float(q.alpha) - ls) <= 1e-6 * max(1.0, abs(ls))


@settings(max_examples=100)
@given(finite_vectors, st.sampled_from([4, 8]))
def test_linear_reconstruction_error_bound(w, n_bits):
    q = linear_quantize(w, n_bits)
    err = np.abs(w - q.values())
    assert np.all(err <= float(q.alpha) / 2 + 1e-7)


@settings(max_examples=80)
@given(finite_vectors, st.integers(-8, 8).filter(lambda e: e != 0))
def test_linear_scale_equivariance(w, exp2):
    # powers of two scale exactly in binary floating point, as long as both
    # scales stay normal: a subnormal alpha has lost mantissa bits
    c = float(2.0**exp2)
    base = linear_quantize(w, 8)
    scaled = linear_quantize(w * np.float32(c), 8)
    assume(min(base.alpha, scaled.alpha) >= np.finfo(np.float32).tiny)
    assert np.array_equal(base.codes, scaled.codes)
    assert float(scaled.alpha) == pytest.approx(abs(c) * float(base.alpha), rel=1e-6)


def test_linear_scale_underflow_gives_zero_codes():
    # max|w| / 127 rounds to 0 in float32: the tensor is stored as all zeros
    q = linear_quantize(np.array([3e-45], np.float32), 8)
    assert float(q.alpha) == 0.0
    assert q.codes.tolist() == [0]


@settings(max_examples=40)
@given(finite_vectors)
def test_quantize_is_deterministic(w):
    a = quantize(w, 8)
    b = quantize(w, 8)
    assert a.alpha.tobytes() == b.alpha.tobytes()
    assert np.array_equal(a.codes, b.codes)


def test_row_wise_matches_per_row_calls():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(6, 16)).astype(np.float32)
    for bits in (2, 8):
        q = quantize(w, bits, row_wise=True)
        assert q.n_scales == 6
        for r in range(6):
            single = quantize(w[r], bits)
            assert float(q.alpha[r]) == float(single.alpha)
            assert np.array_equal(q.codes[r], single.codes)
    with pytest.raises(ValueError, match="2-D"):
        quantize(np.ones(3, np.float32), 8, row_wise=True)


# ---------------------------------------------------------------------------
# activations


def test_activation_identity_at_32_bits():
    x = Tensor([1.234, -5.0])
    assert quantize_activation(x, 32) is x


def test_activation_8bit_error_bound_and_ste():
    rng = np.random.default_rng(7)
    # rows (tokens) of very different magnitude, and one all-zero row
    data = rng.normal(size=(2, 4, 8)) * np.float32([0.01, 0.1, 1.0, 10.0])[:, None]
    data[1, 2] = 0.0
    x = Tensor(data.astype(np.float32), requires_grad=True)
    with Tape():
        y = quantize_activation(x, 8)
        backward(sum_all(y))
    # each token gets its own scale, so its error is bounded by half of it;
    # the slack covers float32 rounding of the division and the rescale
    alpha_row = np.abs(x.data).max(axis=-1, keepdims=True) / 127
    assert np.all(np.abs(y.data - x.data) <= alpha_row * (0.5 + 1e-4))
    assert np.array_equal(y.data[1, 2], np.zeros(8, np.float32))
    ref_alpha, ref_codes = oracles.ref_quantize_activation(x.data)
    codes = np.rint(y.data / np.where(ref_alpha > 0, ref_alpha, 1.0))
    assert np.array_equal(codes, ref_codes)
    assert np.array_equal(x.grad, np.ones_like(x.data))
    with pytest.raises(ValueError, match="a_bits"):
        quantize_activation(x, 4)


# ---------------------------------------------------------------------------
# packing


def test_packed_size_examples():
    assert packed_size(8, 2, 1) == 2 + 4
    assert packed_size(3, 2, 1) == 1 + 4
    assert packed_size(100, 8, 1) == 100 + 4
    assert packed_size(9, 4, 3) == 5 + 12


def test_pack_layout_lsb_first():
    # codes 1,-1,0,1 at 2 bits: 0b01, 0b11, 0b00, 0b01 -> 0b01_00_11_01
    assert pack_codes(np.int8([1, -1, 0, 1]), 2) == bytes([0b01001101])


@settings(max_examples=80)
@given(
    st.lists(st.integers(-2, 1), min_size=0, max_size=40),
    st.just(2),
)
def test_pack_roundtrip_2bit(vals, bits):
    codes = np.array(vals, np.int8)
    buf = pack_codes(codes, bits)
    assert len(buf) == (len(vals) * bits + 7) // 8
    assert np.array_equal(unpack_codes(buf, bits, len(vals)), codes)


@settings(max_examples=80)
@given(st.lists(st.integers(-8, 7), min_size=0, max_size=40))
def test_pack_roundtrip_4bit(vals):
    codes = np.array(vals, np.int8)
    assert np.array_equal(unpack_codes(pack_codes(codes, 4), 4, len(vals)), codes)


@settings(max_examples=80)
@given(st.lists(st.integers(-128, 127), min_size=0, max_size=40))
def test_pack_roundtrip_8bit(vals):
    codes = np.array(vals, np.int8)
    assert np.array_equal(unpack_codes(pack_codes(codes, 8), 8, len(vals)), codes)


def test_packed_size_matches_actual_bytes():
    rng = np.random.default_rng(9)
    for bits in (2, 4, 8):
        w = rng.normal(size=37).astype(np.float32)
        q = quantize(w, bits)
        assert packed_size(q.codes.size, bits, q.n_scales) == len(pack_codes(q.codes, bits)) + 4
