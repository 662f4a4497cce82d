"""Quantizer: frozen worked examples, formula-oracle agreement, packing."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dqseq.quantizer import (
    QuantConfig,
    QuantizedTensor,
    PolicyError,
    pack_codes,
    packed_size,
    quantize,
    quantize_activation,
    _GATHER_CHUNK,
    _round_half_away,
    unpack_codes,
)
from dqseq.tensor import Tape, Tensor, backward

import oracles
from tape_ops import sum_all

finite_vectors = st.lists(
    st.floats(-100, 100, allow_nan=False, width=32), min_size=1, max_size=64
).map(lambda v: np.array(v, np.float32))


# ---------------------------------------------------------------------------
# frozen examples


def test_linear_quantize_8bit_example():
    q = quantize(np.float32([-1.0, 0.25, 0.5]), 8)
    assert q.alpha == pytest.approx(1.0 / 127.0, rel=1e-6)
    assert q.codes.tolist() == [-127, 32, 64]


def test_linear_quantize_4bit_rounds_half_away_from_zero():
    q = quantize(np.float32([0.7, -0.35]), 4)
    assert q.alpha == pytest.approx(0.1, rel=1e-5)
    assert q.codes.tolist() == [7, -4]


def test_linear_quantize_all_zero():
    q = quantize(np.zeros(5, np.float32), 8)
    assert q.alpha == 0.0
    assert not q.codes.any()
    assert np.all(np.isfinite(q.values()))


@pytest.mark.parametrize("n_bits", [1, 3, 5, 6, 7, 16, 32])
def test_quantize_refuses_widths_other_than_2_4_8(n_bits):
    with pytest.raises(ValueError, match=r"\(2, 4, 8\)"):
        quantize(np.float32([1.0, -0.5]), n_bits)


def test_twn_example():
    q = quantize(np.float32([0.1, -0.9, 0.5, -0.05]), 2)
    assert q.codes.tolist() == [0, -1, 1, 0]
    assert q.alpha == pytest.approx(0.7, rel=1e-6)
    # threshold value itself: 0.7 * 1.55 / 4
    assert 0.7 * 1.55 / 4 == pytest.approx(0.27125)


def test_twn_empty_above_threshold_set():
    # all mass below delta is impossible for nonzero w (delta < max|w|),
    # so force it with the genuinely degenerate all-zero tensor
    q = quantize(np.zeros(4, np.float32), 2)
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
    q = quantize(w, n_bits)
    alpha, codes = oracles.ref_linear_quantize(w, n_bits)
    assert q.alpha.tobytes() == np.float32(alpha).tobytes()
    assert np.array_equal(q.codes, codes)


@settings(max_examples=120)
@given(finite_vectors)
def test_twn_matches_oracle_bit_exact(w):
    q = quantize(w, 2)
    alpha, codes = oracles.ref_twn_quantize(w)
    assert q.alpha.tobytes() == np.float32(alpha).tobytes()
    assert np.array_equal(q.codes, codes)


@settings(max_examples=100)
@given(finite_vectors)
def test_twn_threshold_set_identity_and_scale_optimality(w):
    q = quantize(w, 2)
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
    q = quantize(w, n_bits)
    err = np.abs(w - q.values())
    assert np.all(err <= float(q.alpha) / 2 + 1e-7)


@settings(max_examples=80)
@given(finite_vectors, st.integers(-8, 8).filter(lambda e: e != 0))
def test_linear_scale_equivariance(w, exp2):
    # powers of two scale exactly in binary floating point, as long as both
    # scales stay normal: a subnormal alpha has lost mantissa bits
    c = float(2.0**exp2)
    base = quantize(w, 8)
    scaled = quantize(w * np.float32(c), 8)
    assume(min(base.alpha, scaled.alpha) >= np.finfo(np.float32).tiny)
    assert np.array_equal(base.codes, scaled.codes)
    assert float(scaled.alpha) == pytest.approx(abs(c) * float(base.alpha), rel=1e-6)


def test_linear_scale_underflow_gives_zero_codes():
    # max|w| / 127 rounds to 0 in float32: the tensor is stored as all zeros
    q = quantize(np.array([3e-45], np.float32), 8)
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


TINY = np.float32(1e-45)  # the smallest float32 subnormal


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_row_wise_matches_oracle_bit_exact_on_edge_rows(bits):
    w = np.random.default_rng(bits).normal(size=(7, 12)).astype(np.float32)
    w[1] = 0.0
    w[2] = -0.0
    w[3] = TINY  # 0.7 * mean|w| rounds up to TINY itself: no element lies above delta
    w[4, ::2] = -0.0
    w[5] = [127.0, 63.5, -63.5, 0.5, -0.5, 2.5, -2.5, 1.5, -0.0, 0.0, 126.5, -126.5]
    w[6] = 3e-45  # a linear scale that underflows
    q = quantize(w, bits, row_wise=True)
    for r, row in enumerate(w):
        if bits == 2:
            alpha, codes = oracles.ref_twn_quantize(row)
        else:
            alpha, codes = oracles.ref_linear_quantize(row, bits)
        assert q.alpha[r].tobytes() == np.float32(alpha).tobytes(), r
        assert np.array_equal(q.codes[r], codes), r
    assert np.flatnonzero(q.alpha == 0).tolist() == ([1, 2, 3] if bits == 2 else [1, 2, 3, 6])


def test_twn_signed_zeros_match_oracle_bit_exact():
    for w in (np.float32([-0.0, 0.0, 1.0, -2.0, -0.0, 0.5]), np.full(5, -0.0, np.float32)):
        q = quantize(w, 2)
        alpha, codes = oracles.ref_twn_quantize(w)
        assert q.alpha.tobytes() == np.float32(alpha).tobytes()
        assert np.array_equal(q.codes, codes)


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


def test_activation_signed_zeros_and_halves_match_oracle():
    # max|row| is 127 or 0, so alpha is exactly 1 or the row passes through
    x = np.float32([[-0.0, 0.0, 127.0, -50.2, 0.3, -1e-9],
                    [-0.0, -0.0, -0.0, -0.0, -0.0, -0.0],
                    [0.0, -0.0, 0.0, 0.0, -0.0, 0.0],
                    [-127.0, -0.0, 2.5, -2.5, 63.5, 0.0]])
    y = quantize_activation(Tensor(x), 8).data
    _, ref_codes = oracles.ref_quantize_activation(x)
    alpha = np.abs(x).max(axis=-1, keepdims=True) / np.float32(127)
    assert np.array_equal(y, np.where(alpha > 0, ref_codes.astype(np.float32) * alpha, x))
    # rounding half away from zero keeps the input's sign, zeros included
    assert np.array_equal(np.signbit(y), np.signbit(x))


def test_recorded_activation_links_its_codes_when_every_scale_is_finite_and_nonzero():
    x = Tensor(np.float32([[[1.0, -2.0], [0.5, 0.25]]]), requires_grad=True)
    with Tape():
        y = quantize_activation(x, 8)
    assert y.quant.codes.tolist() == [[64, -127], [127, 64]]
    assert y.quant.values().reshape(y.shape).tobytes() == y.data.tobytes()
    for bad in (0.0, np.inf, np.nan):  # such a row keeps the float path
        data = x.data.copy()
        data[0, 1] = bad
        with Tape(), np.errstate(invalid="ignore"):
            assert quantize_activation(Tensor(data, requires_grad=True), 8).quant is None


def test_activation_output_does_not_alias_its_input():
    data = np.float32([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]])  # the zero row passes through
    x = Tensor(data.copy(), requires_grad=True)
    with Tape():
        y = quantize_activation(x, 8)
    assert not np.shares_memory(y.data, x.data)
    y.data[...] = 7.0
    assert np.array_equal(x.data, data)


def test_sign_bit_rounding_matches_copysign_bit_for_bit():
    # the 0.5 built from x's sign bit is np.copysign(0.5, x), NaNs and zeros included
    tiny = np.finfo(np.float32).smallest_subnormal
    normal = np.finfo(np.float32).tiny
    nan = np.float32(np.nan)
    x = np.float32([0.0, 0.5, 1.5, 2.5, 126.5, 0.49999997, tiny, 3 * tiny, normal,
                    np.nextafter(normal, np.float32(0.0)), 8388609.0, np.inf,
                    np.finfo(np.float32).max, nan])
    x = np.concatenate([x, -x, [np.copysign(nan, np.float32(1.0))]])
    assert set(np.signbit(x[np.isnan(x)])) == {False, True}
    want = x + np.copysign(np.float32(0.5), x)
    np.trunc(want, out=want)
    got = _round_half_away(x.copy())
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


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


# the layout judged by tests/oracles.py's per-code loops, so that a layout
# error shared by pack_codes and unpack_codes cannot pass as a round trip


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_codec_matches_layout_oracle_on_every_byte_value(bits):
    every_byte = bytes(range(256))
    count = 256 * (8 // bits)
    codes = oracles.ref_unpack_codes(every_byte, bits, count)
    assert np.array_equal(unpack_codes(every_byte, bits, count), codes)
    assert pack_codes(codes, bits) == oracles.ref_pack_codes(codes, bits) == every_byte


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_codec_matches_layout_oracle_on_padded_and_random_lengths(bits):
    rng = np.random.default_rng(bits)
    per = 8 // bits
    lengths = list(range(2 * per + 2)) + list(rng.integers(0, 10_000, 6))
    for n in lengths:
        codes = rng.integers(-(1 << (bits - 1)), 1 << (bits - 1), n).astype(np.int8)
        buf = pack_codes(codes, bits)
        assert buf == oracles.ref_pack_codes(codes, bits)
        assert np.array_equal(unpack_codes(buf, bits, n), oracles.ref_unpack_codes(buf, bits, n))
        assert np.array_equal(unpack_codes(buf, bits, n), codes)


def test_two_bit_field_0b10_decodes_to_minus_two():
    # ternary quantization never writes 0b10, but the file format can hold it;
    # bench/selftest.py flips a code byte with ^ 0xFF and expects that file to load
    assert unpack_codes(bytes([0b10]), 2, 1).tolist() == [-2]
    assert unpack_codes(bytes([0xAA]), 2, 4).tolist() == [-2, -2, -2, -2]


@pytest.mark.parametrize("row_wise", [False, True])
@pytest.mark.parametrize("bits", [2, 4, 8])
def test_packed_tensor_dequantizes_like_its_unpacked_codes(bits, row_wise):
    # values() gathered from the packed bytes is alpha * codes bit for bit, and the lazily
    # unpacked codes are unpack_codes', which are the reference's; alphas include 0, -0.0,
    # a subnormal and a huge one
    rng = np.random.default_rng(20 + bits)
    per = 8 // bits
    # a byte count covering every byte value, then counts whose last byte pads, the last
    # of them past one gather chunk of bytes
    for rows, cols in [(16, 16 * per), (3, 86 * per - 1), (7, 9), (1, 1), (257, 256 * per + 1)]:
        count = rows * cols
        n_bytes = -(-count // per)
        every_byte_twice = np.concatenate([rng.permutation(256), rng.permutation(256)])
        buf = every_byte_twice.astype(np.uint8)[:n_bytes].tobytes()
        if n_bytes > len(buf):  # random bytes after the first 512, so no chunk repeats one
            buf += rng.integers(0, 256, n_bytes - len(buf), np.uint8).tobytes()
            assert len(buf) > _GATHER_CHUNK and (count % per or bits == 8)
        assert count < 256 * per or set(buf) == set(range(256))
        codes = unpack_codes(buf, bits, count).reshape(rows, cols)
        assert np.array_equal(codes.reshape(-1), oracles.ref_unpack_codes(buf, bits, count))
        scalars = np.float32([0.0, -0.0, 3e-42, 0.37, 1e30])
        if row_wise:
            alphas = [np.resize(rng.permutation(scalars), rows), rng.random(rows, np.float32)]
        else:
            alphas = list(scalars)
        for alpha in alphas:
            q = QuantizedTensor.from_packed(alpha, buf, bits, (rows, cols))
            want = (alpha[:, None] if row_wise else alpha) * codes
            got = q.values()
            assert got.dtype == np.float32 and got.shape == (rows, cols)
            assert got.tobytes() == want.astype(np.float32).tobytes(), (rows, cols, alpha)
            assert got.tobytes() == QuantizedTensor(alpha, codes, bits, (rows, cols)).values(
            ).tobytes()
            assert q.codes.dtype == np.int8 and np.array_equal(q.codes, codes)
            assert q.values().tobytes() == got.tobytes()  # reading codes changes nothing


def test_packed_tensor_rejects_short_bytes_and_bad_scales():
    with pytest.raises(ValueError, match="fewer than 9"):
        QuantizedTensor.from_packed(np.float32(1.0), b"\x00\x00", 2, (9,))
    with pytest.raises(ValueError, match="widths"):
        QuantizedTensor.from_packed(np.float32(1.0), b"\x00", 3, (1,))
    with pytest.raises(ValueError, match="nonnegative"):
        QuantizedTensor.from_packed(np.float32(-1.0), b"\x00", 2, (4,))
    with pytest.raises(ValueError, match="fits neither"):
        QuantizedTensor.from_packed(np.ones(3, np.float32), b"\x00", 2, (2, 2))
    q = QuantizedTensor.from_packed(np.float32(0.5), bytes([0b10]), 2, (1,))
    assert q.values().tolist() == [-1.0]  # 0b10 decodes to -2 here too


def test_pack_rejects_codes_outside_the_width():
    # each would be written as a field that loads as a different code (2 -> -2, 9 -> -7)
    for codes, bits in (([2], 2), ([-3], 2), ([9], 4), ([-9], 4), ([128], 8), ([-129], 8)):
        with pytest.raises(ValueError, match=f"{bits}-bit"):
            pack_codes(np.array(codes, np.int16), bits)
    assert pack_codes(np.int8([-2, 1, -8, 7]), 4) == bytes([0x1E, 0x78])


def test_unpack_rejects_a_short_buffer():
    with pytest.raises(ValueError, match="not 10"):
        unpack_codes(b"\x00", 2, 10)
    with pytest.raises(ValueError, match="not 3"):
        unpack_codes(b"\x00\x00", 8, 3)
    assert unpack_codes(b"\x00\x00", 2, 8).tolist() == [0] * 8


@pytest.mark.parametrize("row_wise", [False, True])
@pytest.mark.parametrize("bits", [2, 4, 8])
def test_requantizing_dequantized_values_is_idempotent(bits, row_wise):
    # linear scales come back bit for bit; a ternary scale is a float32 mean
    # over the kept codes, whose summation order drifts it (3.7e-7 seen)
    rng = np.random.default_rng(100 + bits)
    for _ in range(50):
        rows, cols = rng.integers(1, 12, 2)
        w = (rng.normal(size=(rows, cols)) * 10.0 ** rng.uniform(-3, 2)).astype(np.float32)
        q = quantize(w, bits, row_wise)
        again = quantize(q.values(), bits, row_wise)
        assert np.array_equal(again.codes, q.codes)
        if bits == 2:
            np.testing.assert_allclose(again.alpha, q.alpha, rtol=1e-6, atol=0)
        else:
            assert again.alpha.tobytes() == q.alpha.tobytes()
