"""Tensor engine: op semantics, frozen examples, gradients vs finite differences."""

import gc
import hashlib
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqseq.tensor import (
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    add,
    attention_context,
    attention_scores,
    backward,
    cross_entropy,
    dropout,
    embedding_gather,
    gelu,
    layer_norm,
    linear,
    matmul,
    mse,
    no_grad,
    set_nan_checks,
    straight_through,
    transpose,
)

from dqseq import model, quantizer, tensor
from dqseq.model import init_model
from dqseq.quantizer import QuantConfig
from dqseq.tasks import BOS, EOS, PAD
from dqseq.trainer import Adam, distillation_aware_step

import oracles
from tape_ops import mul, scale, sum_all


# ---------------------------------------------------------------------------
# gradient checking harness: engine grads (float32) vs float64 reference fd


def engine_grads(op, arrays, weights):
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape():
        out = op(*ts)
        loss = sum_all(mul(out, Tensor(weights)))
        backward(loss)
    return [t.grad for t in ts]


def check_grads(op, ref, arrays, seed_note=""):
    """Weighted-sum probe: compares d(sum(W*op(x)))/dx against fd of the
    float64 reference forward."""
    rng = np.random.default_rng(abs(hash(seed_note)) % 2**32)
    out64 = ref(*[a.astype(np.float64) for a in arrays])
    weights = rng.normal(size=out64.shape)
    analytic = engine_grads(op, arrays, weights.astype(np.float32))
    for i, a in enumerate(arrays):
        def f(x, i=i):
            args = [arr.astype(np.float64) for arr in arrays]
            args[i] = x
            return float((ref(*args) * weights).sum())

        fd = oracles.fd_grad(f, a)
        floor = max(1e-6, 1e-2 * float(np.max(np.abs(fd))) if fd.size else 1e-6)
        err = oracles.rel_err(analytic[i], fd, floor)
        assert err <= 1e-3, f"{seed_note} input {i}: rel err {err:.2e}"


def rand(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


# ---------------------------------------------------------------------------
# frozen examples


def test_matmul_shapes():
    out = matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))))
    assert out.shape == (2, 4)
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_matmul_batched_shapes():
    out = matmul(Tensor(np.ones((5, 2, 3))), Tensor(np.ones((3, 4))))
    assert out.shape == (5, 2, 4)
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((5, 2, 3))), Tensor(np.ones((4, 3, 4))))


def test_matmul_refuses_a_3d_right_operand():
    with pytest.raises(ShapeError, match=r"\(5, 2, 3\).*\(5, 3, 4\)"):
        matmul(Tensor(np.ones((5, 2, 3))), Tensor(np.ones((5, 3, 4))))


@pytest.mark.parametrize("x_shape,w_shape", [((32, 13, 64), (64, 16)),
                                             ((32, 1, 64), (64, 16)), ((3, 4), (4, 5))],
                         ids=["rows-by-13", "rows-by-1", "2d"])
def test_bias_free_linear_matches_float64_reference(x_shape, w_shape):
    rng = np.random.default_rng(7)
    x, w = rand(rng, *x_shape), rand(rng, *w_shape)
    weights = rand(rng, *x_shape[:-1], w_shape[1])
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    with Tape() as tape:
        out = linear(xt, wt, None)
        node = tape.nodes[-1]
        assert node.op == "linear" and len(node.parents) == 2
        backward(sum_all(mul(out, Tensor(weights))))
    x64, w64, g64 = x.astype(np.float64), w.astype(np.float64), weights.astype(np.float64)
    np.testing.assert_allclose(out.data, x64 @ w64, rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(xt.grad, g64 @ w64.T, rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(
        wt.grad, x64.reshape(-1, w_shape[0]).T @ g64.reshape(-1, w_shape[1]), rtol=1e-5, atol=1e-4
    )


def test_bias_free_linear_keeps_a_negative_zero_product():
    # each product underflows; an FMA kernel (OpenBLAS's) rounds the sums to -0.0,
    # which adding even a zero bias would turn into +0.0
    x, w = np.full((3, 4), -1e-30, np.float32), np.full((4, 5), 1e-30, np.float32)
    out = linear(Tensor(x), Tensor(w), None).data
    assert out.tobytes() == (x @ w).tobytes()
    assert np.signbit(out).all()
    assert not np.signbit(linear(Tensor(x), Tensor(w), np.zeros(5, np.float32)).data).any()


# the ladder's weights: attention [d, d], ffn.w1 [d, d_ff], ffn.w2 [d_ff, d], the tied
# projection [d, vocab]; the attention linears also as 4-head queries and keys
@pytest.mark.parametrize("k,n,n_heads,keys", [
    (64, 64, 0, False), (64, 256, 0, False), (256, 64, 0, False), (64, 16, 0, False),
    (64, 64, 4, False), (64, 64, 4, True),
], ids=["attn", "ffn-w1", "ffn-w2", "tied", "query-heads", "key-heads"])
def test_linear_input_grad_is_one_2d_product(k, n, n_heads, keys):
    # backward computes x's gradient as one GEMM over the flattened rows, whose
    # bits do not depend on how the rows are grouped into B and L
    rng = np.random.default_rng(23)
    w = rand(rng, k, n)
    for B in (1, 2, 7, 32):
        for L in (1, 13):
            x, g = Tensor(rand(rng, B, L, k), requires_grad=True), rand(rng, B, L, n)
            seed = g if not n_heads else g.reshape(B, L, n_heads, -1).transpose(
                (0, 2, 3, 1) if keys else (0, 2, 1, 3))
            with Tape():
                backward(sum_all(mul(linear(x, Tensor(w), None, n_heads, keys), Tensor(seed))))
            want = (g.reshape(-1, n) @ w.T).reshape(x.shape)
            assert x.grad.tobytes() == want.tobytes(), (B, L)
            # float32 sums over k <= 256 read at most 1.2e-6 of max|gx| at these shapes
            ref = oracles.ref_linear(g.astype(np.float64), w.astype(np.float64).T, 0.0)
            assert np.abs(x.grad - ref).max() <= 2e-6 * np.abs(ref).max(), (B, L)


# a [B, L] mask of real positions with padding inside rows, at their ends and a whole row
ROWS = np.array([[1, 1, 1, 0, 0], [1, 0, 1, 1, 0], [0, 0, 0, 0, 0], [1, 1, 1, 1, 1]], bool)


def _backprop(out, seed, *inputs):
    for t in inputs:
        t.grad = None
    with Tape():
        backward(sum_all(mul(out(), Tensor(seed))))
    return [t.grad for t in inputs]


@pytest.mark.parametrize("n,n_heads,keys", [(16, 0, False), (16, 4, False), (16, 4, True)],
                         ids=["plain", "query-heads", "key-heads"])
def test_packed_linear_equals_the_padded_linear_at_real_rows(n, n_heads, keys):
    # one GEMM over the packed rows rounds each row as the per-batch-row products
    # of a padded width >= 2 do; the head layout holds exact zeros at padding
    rng = np.random.default_rng(24)
    x = rand(rng, *ROWS.shape, 8)
    w, b = Tensor(rand(rng, 8, n), requires_grad=True), Tensor(rand(rng, n), requires_grad=True)
    xp, xr = Tensor(x, requires_grad=True), Tensor(x[ROWS], requires_grad=True)
    merge = (0, 3, 1, 2) if keys else (0, 2, 1, 3)
    padded = linear(xp, w, b, n_heads, keys).data
    packed = linear(xr, w, b, n_heads, keys, ROWS if n_heads else None).data
    split = (lambda a: a.transpose(merge)) if n_heads else (lambda a: a.reshape(-1, n))
    assert split(padded)[ROWS if n_heads else ROWS.reshape(-1)].tobytes() == \
        (split(packed)[ROWS] if n_heads else packed).tobytes()
    if n_heads:
        assert not split(packed)[~ROWS].any()
    g = rand(rng, *padded.shape)
    split(g)[~ROWS if n_heads else ~ROWS.reshape(-1)] = 0.0  # the losses mask padding out
    gx, gw, gb = _backprop(lambda: linear(xp, w, b, n_heads, keys), g, xp, w, b)
    gpacked = g if n_heads else g.reshape(-1, n)[ROWS.reshape(-1)]
    got = _backprop(lambda: linear(xr, w, b, n_heads, keys, ROWS if n_heads else None),
                    gpacked, xr, w, b)
    assert got[0].tobytes() == gx[ROWS].tobytes()
    assert got[1].tobytes() == gw.tobytes() and got[2].tobytes() == gb.tobytes()


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_packed_attention_context_equals_the_padded_op_at_real_rows(rate):
    rng = np.random.default_rng(25)
    s = Tensor(rand(rng, 4, 2, 5, 5), requires_grad=True)
    v = Tensor(rand(rng, 4, 2, 5, 3), requires_grad=True)
    padded = attention_context(s, v, rate, np.random.default_rng(3))
    packed = attention_context(s, v, rate, np.random.default_rng(3), ROWS)
    assert packed.shape == (ROWS.sum(), 6)
    assert packed.data.tobytes() == padded.data[ROWS].tobytes()
    g = rand(rng, *padded.shape)
    g[~ROWS] = 0.0
    gs, gv = _backprop(lambda: attention_context(s, v, rate, np.random.default_rng(3)), g, s, v)
    got = _backprop(lambda: attention_context(s, v, rate, np.random.default_rng(3), ROWS),
                    g[ROWS], s, v)
    assert got[0].tobytes() == gs.tobytes() and got[1].tobytes() == gv.tobytes()


def test_packed_dropout_draws_at_the_padded_shape():
    # the same rng draws as a padded dropout, so each real position keeps its mask
    x = np.random.default_rng(26).standard_normal(ROWS.shape + (6,)).astype(np.float32)
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    padded = dropout(Tensor(x), 0.5, a)
    packed = dropout(Tensor(x[ROWS]), 0.5, b, ROWS)
    assert packed.data.tobytes() == padded.data[ROWS].tobytes()
    assert a.integers(1 << 62) == b.integers(1 << 62)


def test_embedding_gather_scaled_plus_positions_is_the_three_ops_in_one_node():
    rng = np.random.default_rng(27)
    tok, pos = Tensor(rand(rng, 7, 4), requires_grad=True), Tensor(rand(rng, 5, 4),
                                                                  requires_grad=True)
    ids, positions = rng.integers(0, 7, (3, 5)), np.broadcast_to(np.arange(5), (3, 5))
    g = rand(rng, 3, 5, 4)
    with Tape() as tape:
        fused = embedding_gather(tok, ids, 8.0, pos, positions)
    assert len(tape) == 1
    apart = lambda: add(scale(embedding_gather(tok, ids), 8.0), embedding_gather(pos, positions))
    assert fused.data.tobytes() == apart().data.tobytes()
    want = _backprop(apart, g, tok, pos)
    got = _backprop(lambda: embedding_gather(tok, ids, 8.0, pos, positions), g, tok, pos)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    with pytest.raises(IndexError, match="5"):
        embedding_gather(tok, ids, 8.0, pos, positions + 1)


def heads(x, n_heads, keys=False):
    """[B, L, D] queries, keys or values in the per-head layout the attention ops read,
    made on the tape as the model makes them: by linear, here with an
    identity weight and a zero bias."""
    d = x.shape[-1]
    return linear(x, np.eye(d, dtype=np.float32), np.zeros(d, np.float32), n_heads, keys)


def _probs(scores):
    """attention_context's softmax rows: one head over identity values."""
    n = scores.shape[-1]
    return attention_context(Tensor(scores.reshape(1, 1, -1, n)), Tensor(np.eye(n)[None, None]),
                             0.0, None).data[0]


def test_softmax_stability():
    y = _probs(np.float32([[1000.0, 0.0]]))[0]
    assert abs(y[0] - 1.0) <= 1e-6 and abs(y[1]) <= 1e-6
    assert np.all(np.isfinite(y))


def test_layer_norm_examples():
    g = Tensor(np.ones(2))
    b = Tensor(np.zeros(2))
    y = layer_norm(Tensor([1.0, -1.0]), g, b).data
    assert np.allclose(y, [1.0, -1.0], atol=1e-3)
    g3, b3 = Tensor(np.ones(3)), Tensor(np.zeros(3))
    y = layer_norm(Tensor([1.0, 1.0, 1.0]), g3, b3).data
    assert np.allclose(y, 0.0, atol=1e-6)


def test_mse_examples():
    assert mse(Tensor([1.0, 2.0]), Tensor([0.0, 0.0])).item() == pytest.approx(2.5)
    masked = mse(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]), mask=np.array([True, False]))
    assert masked.item() == pytest.approx(1.0)
    assert mse(Tensor([1.0]), Tensor([1.0]), mask=np.array([False])).item() == 0.0


def test_cross_entropy_examples():
    logits = Tensor(np.zeros((1, 4)))
    assert cross_entropy(logits, [2]).item() == pytest.approx(math.log(4.0), rel=1e-6)
    spiked = np.zeros((1, 4), np.float32)
    spiked[0, 2] = 1e9
    assert cross_entropy(Tensor(spiked), [2]).item() == pytest.approx(0.0, abs=1e-6)


def test_cross_entropy_ignore_and_range():
    logits = Tensor(np.zeros((2, 4)))
    full = cross_entropy(logits, [1, 0]).item()
    part = cross_entropy(logits, [1, 9], ignore_id=9).item()
    assert part == pytest.approx(math.log(4.0), rel=1e-6)
    assert full == pytest.approx(part, rel=1e-6)
    with pytest.raises(IndexError, match="9"):
        cross_entropy(logits, [1, 9])


def test_embedding_gather():
    table = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
    out = embedding_gather(table, [1, 3])
    assert np.array_equal(out.data, table.data[[1, 3]])
    empty = embedding_gather(table, np.zeros((0,), np.int64))
    assert empty.shape == (0, 3)
    with pytest.raises(IndexError, match="7"):
        embedding_gather(table, [7])


def test_embedding_gather_grad_is_one_hot_matmul():
    rng = np.random.default_rng(0)
    table = Tensor(rand(rng, 5, 3), requires_grad=True)
    ids = np.array([4, 1, 1, 0])
    w = rand(rng, 4, 3)
    with Tape():
        out = embedding_gather(table, ids)
        backward(sum_all(mul(out, Tensor(w))))
    onehot = np.zeros((4, 5), np.float32)
    onehot[np.arange(4), ids] = 1.0
    expected = onehot.T @ w
    assert np.allclose(table.grad, expected, atol=1e-6)


def test_backward_of_sum_is_ones():
    w = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    with Tape():
        backward(sum_all(w))
    assert np.array_equal(w.grad, np.ones((2, 3), np.float32))


def test_add_shape_error_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
        add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_straight_through_gradient_is_identity():
    x = Tensor([0.3, -0.7, 2.0], requires_grad=True)
    with Tape():
        out = straight_through(x, np.float32([1.0, -1.0, 2.5]))
        backward(sum_all(out))
    assert np.array_equal(out.data, [1.0, -1.0, 2.5])
    assert np.array_equal(x.grad, np.ones(3, np.float32))


def test_dropout_semantics():
    x = Tensor(np.ones(1000), requires_grad=True)
    assert dropout(x, 0.0, None) is x
    rng = np.random.default_rng(3)
    with Tape():
        out = dropout(x, 0.5, rng)
        backward(sum_all(out))
    kept = out.data > 0
    assert 0.4 < kept.mean() < 0.6
    assert np.array_equal(out.data[kept], np.full(kept.sum(), 2.0, np.float32))
    assert np.array_equal(x.grad, np.where(kept, 2.0, 0.0).astype(np.float32))
    with pytest.raises(ValueError, match="rng"):
        dropout(x, 0.5, None)


def test_attention_scores_mask_values_and_grad():
    q = Tensor(np.ones((1, 2, 2)), requires_grad=True)
    k = Tensor(np.ones((1, 2, 2)), requires_grad=True)
    keep = np.array([[True, False], [False, True]])
    with Tape():
        out = attention_scores(heads(q, 1), heads(k, 1, keys=True), keep)
        backward(sum_all(out))
    # one head of width 2 scales by 1/sqrt(2); q . k of ones is 2
    s = np.float32(1 / math.sqrt(2))
    assert np.array_equal(out.data[0, 0], np.where(keep, 2 * s, np.float32(-1e9)))
    # each query row sees one unmasked key of ones
    assert np.array_equal(q.grad, np.full((1, 2, 2), s, np.float32))
    assert np.array_equal(k.grad, np.full((1, 2, 2), s, np.float32))
    with pytest.raises(ShapeError, match="mask"):
        attention_scores(heads(q, 1), heads(k, 1, keys=True), np.ones((1, 1, 2, 2, 2), bool))
    with pytest.raises(ShapeError, match="mask"):  # the wrong key length
        attention_scores(heads(q, 1), heads(k, 1, keys=True), np.ones((1, 1, 1, 3), bool))


def test_masked_scores_are_mask_value_exactly():
    rng = np.random.default_rng(4)
    keep = rng.random((2, 1, 3, 5)) < 0.5
    out = attention_scores(Tensor(rand(rng, 2, 2, 3, 4)), Tensor(rand(rng, 2, 2, 4, 5)), keep)
    masked = np.broadcast_to(~keep, out.shape)
    assert masked.any() and not masked.all()
    assert out.data[masked].tobytes() == np.full(masked.sum(), tensor.MASK_VALUE,
                                                 np.float32).tobytes()
    assert not np.any(out.data[~masked] == np.float32(tensor.MASK_VALUE))


@pytest.mark.parametrize("q_shape, k_shape", [
    ((2, 2, 3, 4), (3, 2, 4, 5)), ((2, 2, 3, 4), (2, 1, 4, 5)), ((2, 2, 3, 4), (2, 2, 2, 5)),
    ((2, 3, 8), (2, 2, 4, 5)),  # queries not split into heads
], ids=["batch", "heads", "head-width", "merged-queries"])
def test_attention_scores_refuses_queries_and_keys_that_disagree(q_shape, k_shape):
    with pytest.raises(ShapeError, match=re.escape(f"got {q_shape} and {k_shape}")):
        attention_scores(Tensor(np.ones(q_shape)), Tensor(np.ones(k_shape)), True)


@pytest.mark.parametrize("v_shape", [(3, 2, 5, 4), (2, 1, 5, 4), (2, 2, 6, 4), (2, 5, 4)],
                         ids=["batch", "heads", "keys", "merged-values"])
def test_attention_context_refuses_scores_and_values_that_disagree(v_shape):
    with pytest.raises(ShapeError, match=re.escape(f"got (2, 2, 3, 5) and {v_shape}")):
        attention_context(Tensor(np.zeros((2, 2, 3, 5))), Tensor(np.ones(v_shape)), 0.0, None)


def test_attention_softmax_max_matches_row_max_on_masked_scores():
    # the softmax's key max, taken plane by plane, equals s.max(axis=-1) bit for bit,
    # on -1e9 fills, a fully masked row and rows whose max is a signed zero
    rng = np.random.default_rng(5)
    s, v = rand(rng, 2, 2, 3, 5), rand(rng, 2, 5, 4)
    s[0, :, :, 3:] = -1e9
    s[1, 0, 1] = -1e9
    s[1, 1, 2] = [-0.0, -1.0, 0.0, -2.0, -0.0]
    s[0, 1, 0] = [-3.0, -0.0, -1.0, -1e9, -1e9]
    y = s - s.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    vh = np.ascontiguousarray(v.reshape(2, 5, 2, 2).transpose(0, 2, 1, 3))
    want = np.ascontiguousarray((y @ vh).transpose(0, 2, 1, 3)).reshape(2, 3, 4)
    assert np.array_equal(attention_context(Tensor(s), heads(v, 2), 0.0, None).data,
                          want)


def test_tensor_adopts_contiguous_float32_arrays_and_copies_the_rest():
    a = np.arange(6, dtype=np.float32).reshape(2, 3)
    assert Tensor(a).data is a
    vals = a + 1
    assert straight_through(Tensor(a), vals).data is vals  # as its docstring promises
    for other in (a.T, a[:, ::2], a.astype(np.float64), a.tolist()):
        t = Tensor(other)
        assert t.data.dtype == np.float32 and t.data.flags.c_contiguous
        assert np.array_equal(t.data, np.asarray(other)) and not np.shares_memory(t.data, a)
    for scalar in (np.array(2.0, np.float32), np.float32(2.0), np.array(2.0), 2.0):
        assert Tensor(scalar).shape == ()  # 0-d stays 0-d


def _bits(*arrays) -> str:
    """sha256 of arrays' shapes, dtypes and bytes (NaN payloads and -0.0 included)."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.shape}{a.dtype.str}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


_TINY = 2.0 ** -149  # the least float32 subnormal
# rows of width 8 whose 8-bit fake-quantization hits each edge of the formula
_ACTIVATION_ROWS = {
    "zero": [0.0] * 8,
    "minus_zero": [-0.0] * 8,
    "signed_zeros": [-0.0, 0.0, 1.0, -0.0, -1.0, 0.0, -0.0, 0.5],
    "halves": [127.0, 0.5, 1.5, -2.5, -0.5, 126.5, -126.5, 3.5],
    # alpha rounds to 16 * 2^-149, so 2042 * 2^-149 gives the quotient 127.625: 128 before
    # the clamp
    "subnormal": [x * _TINY for x in (2042, -2042, 2041, 1016, -1017, 8, -8, 0)],
    "inf": [np.inf, 1.0, -1.0, 0.0, 2.0, -0.0, 3.0, 4.0],
    "minus_inf": [1.0, -np.inf, 0.5, 0.0, 2.0, -3.0, 3.0, 4.0],
    "nan": [1.0, 2.0, np.nan, -1.0, 0.0, 5.0, -0.0, 4.0],
    "inf_nan": [np.inf, np.nan, -np.inf, 0.0, 1.0, -1.0, 2.0, 3.0],
}
_LINKED = ("signed_zeros", "halves", "subnormal")  # every scale finite and nonzero
FROZEN_OP_BITS = {
    "activation": "c21d74c541bbcf925513a9cdad6c0bba3d5cdf43862ac70a09e7a0b3da6985d2",
    "activation_link": "a386766eea9646a83af774c95e447354db53c83cb2ecd58ccb295fbd175b4fa0",
    "ops_1": "8148117e5a73c537c4ed52ca3883c8017709fbbba486e9dae554d385a9c914d1",
    "ops_4": "d1cef64cc8a3133217db4462f6e2ea090740b5d17525b4fa104b445d74f7b24a",
    "ops_32": "cf47f6d15274aed70861cad607f770bc151a716c29dc13039487f6807b86a23f",
}


def test_decode_step_op_bits_are_frozen():
    # sha256s of these ops' outputs as first written, before their bodies were cut to
    # fewer numpy calls: a rewrite keeps every bit, on the tape and off it
    quantize_activation = quantizer.quantize_activation
    rows = np.array(list(_ACTIVATION_ROWS.values()), np.float32)[:, None, :]
    with no_grad(), np.errstate(invalid="ignore"):
        off = quantize_activation(Tensor(rows), 8).data
    x = Tensor(rows, requires_grad=True)
    with Tape(), np.errstate(invalid="ignore"):
        on = quantize_activation(x, 8)
    assert on.quant is None and _bits(on.data) == _bits(off)
    got = {"activation": _bits(off)}
    linked = np.array([_ACTIVATION_ROWS[k] for k in _LINKED], np.float32)[:, None, :]
    x = Tensor(linked, requires_grad=True)
    with Tape():
        on = quantize_activation(x, 8)
    with no_grad():
        assert _bits(quantize_activation(Tensor(linked), 8).data) == _bits(on.data)
    codes = on.quant.codes
    assert np.abs(codes[_LINKED.index("subnormal")]).max() == 127
    got["activation_link"] = _bits(on.data, codes, on.quant.alpha)

    rng = np.random.default_rng(14)
    for n in (1, 4, 32):
        x = rand(rng, n, 1, 64) * np.float32(3.0) + np.float32(0.5)
        gain, bias = rand(rng, 64), rand(rng, 64)
        k, v = rand(rng, n, 4, 16, 6), rand(rng, n, 4, 6, 16)
        valid = rng.random((n, 6)) < 0.7
        valid[:, 0] = True
        mask = valid[:, None, None, :]

        def ops(x):
            ln = layer_norm(x, Tensor(gain), Tensor(bias))
            s = attention_scores(heads(ln, 4), Tensor(k), mask)
            return ln, s, attention_context(s, Tensor(v), 0.0, None)

        with no_grad():
            outs = [t.data for t in ops(Tensor(x))]
        xt = Tensor(x, requires_grad=True)
        with Tape():
            taped = ops(xt)
            backward(sum_all(mul(taped[2], Tensor(rand(rng, n, 1, 64)))))
        assert [_bits(t.data) for t in taped] == [_bits(o) for o in outs]
        got[f"ops_{n}"] = _bits(*outs, xt.grad)
    assert got == FROZEN_OP_BITS


def test_cross_entropy_row_max_matches_logits_max_bit_for_bit():
    # the loss and gradient, with the row max taken plane by plane, equal those of the
    # transcribed logits.max(axis=1) form bit for bit, on rows holding signed-zero maxima
    # and ties (17 wide, where the two maxes can differ in the sign of a zero), -1e9
    # fills, a row whose other exps underflow, and a row of one repeated value
    rng = np.random.default_rng(11)
    x = rng.choice(np.float32([0.0, -0.0, -1.0, 0.5, -1e9]), (64, 17))
    x[0] = -1e9
    x[0, 3] = -0.0  # lse is exactly 0 here, so logp is the zero z holds
    x[1] = -0.0
    x[2] = [0.0, -0.0] * 8 + [-1e9]
    x[3] = 2.5
    x[4:8] = rand(rng, 4, 17)
    t = rng.integers(0, 17, 64)
    t[0] = 3
    want_max = x.max(axis=1, keepdims=True)
    assert np.array_equal(np.maximum.reduce(np.ascontiguousarray(x.T), axis=0)[:, None],
                          want_max)
    z = x - want_max
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    want = np.asarray(-logp[np.arange(64), t].sum() / np.float32(64), np.float32)
    want_grad = np.exp(logp)
    want_grad[np.arange(64), t] -= 1.0
    want_grad = (np.float32(1.0) / 64) * want_grad
    logits = Tensor(x, requires_grad=True)
    with Tape():
        out = cross_entropy(logits, t)
        backward(out)
    assert out.data.tobytes() == want.tobytes()
    assert logits.grad.tobytes() == want_grad.astype(np.float32).tobytes()


def test_attention_context_dropout_draws_like_dropout():
    rng = np.random.default_rng(0)
    s, v = rand(rng, 2, 2, 3, 4), rand(rng, 2, 4, 6)
    out = attention_context(Tensor(s), heads(v, 2), 0.3, np.random.default_rng(9))
    keep = dropout(Tensor(np.ones(s.shape)), 0.3, np.random.default_rng(9)).data
    want = oracles.ref_attention_context(s.astype(np.float64), v.astype(np.float64), 2, keep)
    assert np.allclose(out.data, want, atol=1e-5)
    with pytest.raises(ValueError, match="rng"):
        attention_context(Tensor(s), heads(v, 2), 0.3, None)


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_requires_scalar_on_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        y = add(x, x)
        with pytest.raises(TapeError, match="scalar"):
            backward(y)
    loss = sum_all(add(x, x))  # no active tape
    with pytest.raises(TapeError, match="tape"):
        backward(loss)


def test_no_grad_suppresses_recording():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        with no_grad():
            add(x, x)
        assert len(tape) == 0


def test_two_branch_reuse_accumulates():
    x = Tensor([3.0], requires_grad=True)
    with Tape():
        backward(sum_all(mul(x, x)))
    assert np.allclose(x.grad, [6.0])

    y = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        backward(sum_all(add(scale(y, 2.0), scale(y, 5.0))))
    assert np.allclose(y.grad, [7.0, 7.0])


def test_grad_accumulates_across_passes_until_zeroed():
    x = Tensor([1.0], requires_grad=True)
    for expected in (1.0, 2.0):
        with Tape():
            backward(sum_all(x + 0.0))
        assert np.allclose(x.grad, [expected])
    x.zero_grad()
    assert x.grad is None


def test_backward_visits_each_node_once_in_reverse_order():
    x = Tensor([1.0], requires_grad=True)
    visited = []
    with Tape() as tape:
        a = mul(x, x)
        b = add(a, x)
        loss = sum_all(add(b, a))  # diamond: a feeds two consumers
        for idx, node in enumerate(tape.nodes):
            node.backward = (lambda f, i: lambda g: (visited.append(i), f(g))[1])(
                node.backward, idx
            )
        backward(loss)
    assert visited == sorted(visited, reverse=True)
    assert len(visited) == len(set(visited)) == len(tape)


def test_backward_keeps_grads_on_leaves_only():
    x = Tensor([1.0, -2.0], requires_grad=True)
    w = Tensor([3.0, 0.5], requires_grad=True)
    with Tape() as tape:
        a = mul(x, w)
        b = add(a, x)  # x reaches the loss twice
        loss = sum_all(mul(b, a))
        backward(loss)
    # loss = x^2 w (w + 1): d/dx = 2 x w (w + 1), d/dw = x^2 (2 w + 1)
    assert np.array_equal(x.grad, np.float32([24.0, -3.0]))
    assert np.array_equal(w.grad, np.float32([7.0, 8.0]))
    assert a.grad is None and b.grad is None and loss.grad is None
    assert all(node.backward is None and node.parents is None for node in tape.nodes)


def test_second_backward_on_a_consumed_tape_raises():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(mul(x, x))
        backward(loss)
        with pytest.raises(TapeError, match="consumed"):
            backward(loss)
        with pytest.raises(TapeError, match="consumed"):
            backward(sum_all(scale(loss, 2.0)))  # a later loss reaching the consumed node
    assert len(tape) == 4  # the count stays readable after backward
    assert np.array_equal(x.grad, np.float32([4.0]))


def _heap_peak(step) -> int:
    """The third step's tracemalloc peak above the heap the second left."""
    step()
    tracemalloc.start()
    try:
        step()
        rest = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step()
        return tracemalloc.get_traced_memory()[1] - rest
    finally:
        tracemalloc.stop()


def test_ladder_dq_step_heap_peak_and_leaf_grads(ladder_dq_inputs):
    # the tape holds only what backward reads, quantized operands as int8
    # codes, and backward frees it as it goes, so one 2-2-8 dq step at the
    # ladder shape peaks at 7.8 MB above its resting heap: 9.8 MB with the
    # position-wise ops on padding too, 14.4 MB with float32 operands,
    # 31.5 MB holding every node's output and gradient
    teacher, student, lmap, batch = ladder_dq_inputs
    opt = Adam(student.params)
    peak = _heap_peak(lambda: distillation_aware_step(
        student, teacher, batch, QuantConfig(2, 2, 8), lmap, opt, 1e-3))
    assert peak <= 12e6, peak
    digest = hashlib.sha256()
    for name, t in student.params.items():
        digest.update(name.encode())
        digest.update(t.grad.tobytes())
    # the third step's gradients, as the engine that kept every node's output produced them
    assert digest.hexdigest() == "faa4965c760e1bdb11f15ef5e8205c9a623df63c1f65c7f7fd11aef7dd7f2732"


def test_ladder_teacher_step_heap_peak(ladder_dq_inputs):
    # a task-only float32 step: 7.3 MB; 10.0 MB with the position-wise ops on
    # padding too, and 11.2 MB where gelu's node also kept its tanh term
    frozen, _, _, batch = ladder_dq_inputs
    teacher = init_model(frozen.config, seed=0)
    opt = Adam(teacher.params)
    peak = _heap_peak(lambda: distillation_aware_step(
        teacher, None, batch, QuantConfig(), None, opt, 1e-3, task_only=True))
    assert peak <= 10.8e6, peak


def test_recorded_activation_floats_are_freed_after_forward(ladder_dq_inputs, monkeypatch):
    # the linear nodes that read a quantized activation keep its int8 codes,
    # so its float32 buffer dies with the forward while the tape lives on
    _, student, _, batch = ladder_dq_inputs
    src, dec_in, _ = batch
    outputs = []

    def quantize_activation(x, a_bits):
        y = quantizer.quantize_activation(x, a_bits)
        outputs.append((weakref.ref(y.data), y.quant))
        return y

    monkeypatch.setattr(model, "quantize_activation", quantize_activation)
    gc.disable()
    try:
        with Tape() as tape:
            view = quantizer.quantize_model(student, QuantConfig(2, 2, 8))
            trace = model.forward(view, src, dec_in, PAD, a_bits=8)
            del view
        assert len(tape) and trace.logits is not None
        assert len(outputs) == 4 * 2 + 6 * 2 + 2  # per encoder, per decoder layer; memory, output
        assert all(isinstance(q, quantizer.QuantizedTensor) and q.codes.dtype == np.int8
                   for _, q in outputs)
        assert [ref() for ref, _ in outputs] == [None] * len(outputs)
    finally:
        gc.enable()


def _linear_grads(make_x, make_w, link: bool):
    """x, w and b gradients of mse(linear(x', w', b), target), where x' and w'
    are what make_x and make_w build on the tape from master tensors; with
    link False their .quant is dropped, so the node keeps float32 arrays."""
    rng = np.random.default_rng(5)
    xm = Tensor(rng.normal(size=(3, 5, 16)).astype(np.float32), requires_grad=True)
    xm.data[1, 2] = 0.0
    wm = Tensor(rng.normal(size=(16, 8)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.normal(size=8).astype(np.float32), requires_grad=True)
    target = Tensor(rng.normal(size=(3, 5, 8)).astype(np.float32))
    with Tape():
        x, w = make_x(xm), make_w(wm)
        if not link:
            x.quant = w.quant = None
        backward(mse(linear(x, w, b), target))
    return [t.grad for t in (xm, wm, b)], x.quant, w.quant


def _rows_scaled(xm):
    xm.data[1, 2] = np.linspace(-1, 1, xm.shape[-1])  # no zero-scale row
    return quantizer.quantize_activation(xm, 8)


def _weights(bits):
    def make_w(wm):
        q = quantizer.quantize(wm, bits, row_wise=True)
        return straight_through(wm, q.values(), q)
    return make_w


@pytest.mark.parametrize("make_x, make_w, links", [
    (_rows_scaled, lambda wm: wm, (True, False)),
    (lambda xm: quantizer.quantize_activation(xm, 8), lambda wm: wm, (False, False)),
    (lambda xm: xm, _weights(2), (False, True)),
    (lambda xm: xm, _weights(4), (False, True)),
], ids=["per-token-codes", "zero-scale-row-floats", "2-bit-row-wise", "4-bit-row-wise"])
def test_linear_grads_from_codes_equal_float_path(make_x, make_w, links):
    grads, x_link, w_link = _linear_grads(make_x, make_w, link=True)
    assert (x_link is not None, w_link is not None) == links
    floats, _, _ = _linear_grads(make_x, make_w, link=False)
    for got, want in zip(grads, floats):
        assert got.tobytes() == want.tobytes()


def test_dq_step_dequantizes_each_activation_link_once(ladder_dq_inputs, monkeypatch):
    # an attention block's query, key and value linears keep one quantized
    # input, and every decoder layer's cross-attention key and value linears
    # keep the encoder memory's, so a 2-2-8 dq step's backward dequantizes 22
    # activation links where one restore per node made 33, to the same bits
    teacher, student, lmap, batch = ladder_dq_inputs
    restores = []
    values = quantizer.QuantizedTensor.values

    def counting_values(q):
        restores.append(q.bits)
        return values(q)

    def step_grads():
        s = student.copy()
        distillation_aware_step(s, teacher, batch, QuantConfig(2, 2, 8), lmap, Adam(s.params), 1e-3)
        return [t.grad for t in s.params.values()]

    monkeypatch.setattr(quantizer.QuantizedTensor, "values", counting_values)
    shared = step_grads()
    assert restores.count(8) == 22  # the weights' 2-bit links are read by one node each
    del restores[:]
    monkeypatch.setattr(tensor, "_restored", lambda kept, shape: kept if isinstance(
        kept, np.ndarray) else kept.values().reshape(shape))
    fresh = step_grads()
    assert restores.count(8) == 33
    assert [g.tobytes() for g in shared] == [g.tobytes() for g in fresh]


def test_no_link_off_the_tape(ladder_dq_inputs, monkeypatch):
    # decoding and evaluation build no codes for backward: no_grad, or no tape at all
    x = Tensor(np.float32([[0.5, -1.0], [2.0, 0.25]]), requires_grad=True)
    assert quantizer.quantize_activation(x, 8).quant is None
    with Tape(), no_grad():
        assert quantizer.quantize_activation(x, 8).quant is None
    with Tape():
        assert quantizer.quantize_activation(x, 8).quant is not None
    _, student, _, batch = ladder_dq_inputs
    links = []

    def straight_through_spy(x, values, quant=None):
        out = straight_through(x, values, quant)
        links.append((quant, out.quant))
        return out

    monkeypatch.setattr(quantizer, "straight_through", straight_through_spy)
    view = quantizer.quantize_model(student, QuantConfig(2, 2, 8))
    assert all(t.quant is None for t in view.params.values())
    del links[:]
    model.greedy_decode_batch(view, [list(r) for r in batch[0][:4]], BOS, EOS, 6, PAD, a_bits=8)
    assert links and all(q is None and link is None for q, link in links)


def test_backward_is_deterministic():
    rng = np.random.default_rng(11)
    a = rand(rng, 4, 4)
    outs = []
    for _ in range(2):
        x = Tensor(a, requires_grad=True)
        with Tape():
            backward(mse(gelu(matmul(x, x)), Tensor(np.zeros((4, 4)))))
        outs.append(x.grad.copy())
    assert np.array_equal(outs[0], outs[1])


def test_nan_checks_flag():
    set_nan_checks(True)
    try:
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="scale"):
            scale(Tensor([1e38, 1e38]), 1e10)
    finally:
        set_nan_checks(False)


# ---------------------------------------------------------------------------
# finite-difference agreement, per op


def test_grad_matmul():
    rng = np.random.default_rng(0)
    for s in range(8):
        check_grads(matmul, lambda a, b: a @ b, [rand(rng, 3, 4), rand(rng, 4, 2)], f"mm{s}")
        check_grads(matmul, lambda a, b: a @ b, [rand(rng, 2, 3, 4), rand(rng, 4, 2)], f"mmb{s}")


def test_grad_elementwise_ops():
    rng = np.random.default_rng(1)
    for s in range(8):
        a, b = rand(rng, 4, 5), rand(rng, 4, 5)
        check_grads(add, lambda x, y: x + y, [a, b], f"add{s}")
        check_grads(mul, lambda x, y: x * y, [a, b], f"mul{s}")
        check_grads(lambda x: scale(x, 1.7), lambda x: 1.7 * x, [a], f"scale{s}")
        check_grads(gelu, oracles.ref_gelu, [a], f"gelu{s}")
        check_grads(linear, oracles.ref_linear,
                    [rand(rng, 2, 4, 3), rand(rng, 3, 5), rand(rng, 5)], f"linear{s}")


def test_grad_softmax_layer_norm():
    rng = np.random.default_rng(2)
    for s in range(8):
        x = rand(rng, 3, 6)
        keep = rng.random((2, 1, 3, 6)) > 0.3
        check_grads(  # softmax inside attention_context, then the value mix
            lambda a, v: attention_context(a, heads(v, 2), 0.0, None),
            lambda a, v: oracles.ref_attention_context(a, v, 2),
            [rand(rng, 2, 2, 3, 6), rand(rng, 2, 6, 4)],
            f"sm{s}",
        )
        check_grads(  # the reference's fill moves no gradient; -1e9 would swamp the fd
            lambda q, k: attention_scores(heads(q, 2), heads(k, 2, keys=True), keep),
            lambda q, k: oracles.ref_attention_scores(q, k, keep, 2, -4.0),
            [rand(rng, 2, 3, 4), rand(rng, 2, 6, 4)],
            f"as{s}",
        )
        check_grads(
            layer_norm, oracles.ref_layer_norm, [x, rand(rng, 6), rand(rng, 6)], f"ln{s}"
        )


def test_grad_losses():
    rng = np.random.default_rng(3)
    for s in range(8):
        a, b = rand(rng, 4, 5), rand(rng, 4, 5)
        check_grads(mse, oracles.ref_mse, [a, b], f"mse{s}")
        mask = rng.random((4, 5)) > 0.4
        check_grads(
            lambda x, y: mse(x, y, mask=mask),
            lambda x, y: oracles.ref_mse(x, y, mask),
            [a, b],
            f"msem{s}",
        )
        targets = rng.integers(0, 5, size=4)
        targets[0] = 7  # ignored row
        check_grads(
            lambda x: cross_entropy(x, targets, ignore_id=7),
            lambda x: oracles.ref_cross_entropy(x, targets, ignore_id=7),
            [rand(rng, 4, 5)],
            f"ce{s}",
        )


def test_grad_structural_ops():
    rng = np.random.default_rng(4)
    for s in range(6):
        check_grads(transpose, np.transpose, [rand(rng, 2, 3, 4)], f"tp{s}")
        table = rand(rng, 6, 4)
        ids = rng.integers(0, 6, size=(3, 2))
        onehot = np.zeros((ids.size, 6))
        onehot[np.arange(ids.size), ids.reshape(-1)] = 1.0
        check_grads(
            lambda t: embedding_gather(t, ids),
            lambda t: (onehot @ t).reshape(ids.shape + (4,)),
            [table],
            f"eg{s}",
        )


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=60)
@given(
    st.lists(
        st.floats(-30, 30, allow_nan=False, width=32), min_size=2, max_size=16
    ).map(lambda v: np.array(v, np.float32))
)
def test_softmax_rows_sum_to_one(v):
    y = _probs(v[None])[0]
    assert abs(float(y.sum()) - 1.0) <= 1e-5
    assert float(y.min()) >= 0.0


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_mse_symmetry_and_nonnegativity(seed):
    rng = np.random.default_rng(seed)
    a, b = rand(rng, 3, 3), rand(rng, 3, 3)
    ab = mse(Tensor(a), Tensor(b)).item()
    ba = mse(Tensor(b), Tensor(a)).item()
    assert ab == ba >= 0.0
    assert mse(Tensor(a), Tensor(a)).item() == 0.0
