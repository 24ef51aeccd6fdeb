import math
import sys
import threading
import time
import zlib

import numpy as np
import pytest

import vemoclap.autograd as ag
from vemoclap.autograd import (
    DegenerateInputError,
    GradCheckReport,
    Graph,
    GraphUsageError,
    NonFiniteError,
    ShapeError,
    Tensor,
)
from vemoclap.rng import SplitMix64

from conftest import finite_difference, max_rel_err


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# Tensor basics


def test_tensor_defaults_to_float32():
    t = Tensor([[1.0, 2.0]])
    assert t.dtype == np.float32
    assert t.shape == (1, 2)
    assert not t.requires_grad


def test_tensor_rejects_nan_and_inf():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, float("nan")])
    with pytest.raises(NonFiniteError):
        Tensor([float("inf")])


BIG = np.float32(3e38)


@pytest.mark.parametrize(
    "op_name, build",
    [
        ("scale", lambda x: ag.scale(x, 10.0)),
        ("add", lambda x: ag.add(x, x)),
        ("mul", lambda x: ag.mul(x, x)),
        ("matmul", lambda x: ag.matmul(x, ag.reshape(x, (2, 1)))),
        ("log", lambda x: ag.log(ag.scale(x, -1.0))),
        ("mean_pool", lambda x: ag.mean_pool(ag.reshape(x, (2, 1)), [2])),
        ("layer_norm", lambda x: ag.layer_norm(x, ag.reshape(x, (2,)), ag.reshape(x, (2,)))),
    ],
)
def test_non_finite_output_of_a_computing_op_raises_at_that_op(op_name, build):
    x = Tensor(np.array([[BIG, BIG]], dtype=np.float32))
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match=op_name):
        build(x)


def test_moving_ops_keep_finite_inputs_finite():
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    with Graph():
        moved = [
            ag.reshape(x, (3, 2)),
            ag.concat_cols([x, x]),
            ag.slice_cols(x, 1, 3),
            ag.transpose(x),
            ag.take_per_row(x, [0, 2]),
        ]
    for out in moved:
        assert np.all(np.isfinite(out.data))


@pytest.mark.parametrize(
    "op_name, build",
    [
        ("concat_cols", lambda x: ag.concat_cols([x, x])),
        ("take_per_row", lambda x: ag.take_per_row(x, [0, 2])),
        ("reshape", lambda x: ag.reshape(x, (3, 2))),
    ],
)
def test_moving_ops_reject_nan_written_after_construction(op_name, build):
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    x.data[0, 0] = np.nan
    with pytest.raises(NonFiniteError, match=op_name):
        build(x)


def test_ops_reject_mixed_dtypes():
    a = Tensor(np.ones((2, 2), dtype=np.float32))
    b = Tensor(np.ones((2, 2), dtype=np.float64))
    with pytest.raises(TypeError):
        ag.matmul(a, b)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    eye = Tensor(np.eye(2, dtype=np.float32))
    m = Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = ag.matmul(eye, m)
    assert np.array_equal(out.data, m.data)


def test_matmul_known_product():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = ag.matmul(a, b)
    assert np.array_equal(out.data, np.array([[19.0, 22.0], [43.0, 50.0]], dtype=np.float32))


def test_matmul_shape_error_names_both_shapes():
    a = Tensor(np.ones((3, 4), dtype=np.float32))
    b = Tensor(np.ones((5, 2), dtype=np.float32))
    with pytest.raises(ShapeError, match=r"\(3, 4\).*\(5, 2\)"):
        ag.matmul(a, b)


def test_matmul_gradient_matches_finite_differences(rng):
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)

    def loss():
        return ag.sum_all(ag.matmul(a, b)).data

    with Graph() as g:
        out = ag.sum_all(ag.matmul(a, b))
    grads = g.backward(out)

    assert max_rel_err(grads[a], finite_difference(loss, a.data)) < 1e-4
    assert max_rel_err(grads[b], finite_difference(loss, b.data)) < 1e-4


def test_matmul_rows_ignore_batchmates(rng):
    a = rng.uniform(0.0, 1.0, (32, 2560)).astype(np.float32)
    b = rng.uniform(-0.05, 0.05, (2560, 6)).astype(np.float32)
    full = ag.matmul(Tensor(a), Tensor(b)).data
    assert np.allclose(full, a.astype(np.float64) @ b.astype(np.float64), rtol=0.0, atol=1e-5)
    for i in range(32):
        alone = ag.matmul(Tensor(a[i:i + 1]), Tensor(b)).data
        assert np.array_equal(alone[0], full[i])


def test_matmul_entry_is_pairwise_sum_of_its_product_row(rng):
    a = rng.uniform(0.0, 1.0, (7, 3072)).astype(np.float32)
    b = rng.uniform(-0.5, 0.5, (3072, 6)).astype(np.float32)
    bias = rng.standard_normal(6).astype(np.float32)
    out = ag.matmul(Tensor(a), Tensor(b)).data
    biased = ag.matmul(Tensor(a), Tensor(b), Tensor(bias)).data
    for i in range(7):
        for j in range(6):
            # np.sum over a contiguous 1-D array is numpy's pairwise sum.
            product = np.ascontiguousarray(a[i] * b[:, j])
            assert out[i, j] == np.sum(product), (i, j)
            assert biased[i, j] == np.sum(product) + bias[j], (i, j)


def test_matmul_bias_matches_separate_add_bit_for_bit(rng):
    a_val = rng.standard_normal((5, 7)).astype(np.float32)
    b_val = rng.standard_normal((7, 3)).astype(np.float32)
    bias_val = rng.standard_normal(3).astype(np.float32)
    w = Tensor(rng.standard_normal((5, 3)).astype(np.float32))
    results = []
    for fused in (True, False):
        a, b, bias = (Tensor(v, requires_grad=True) for v in (a_val, b_val, bias_val))
        with Graph() as g:
            out = ag.matmul(a, b, bias) if fused else ag.add(ag.matmul(a, b), bias)
            loss = ag.sum_all(ag.mul(out, w))
        grads = g.backward(loss)
        results.append((len(g), out.data, grads[a], grads[b], grads[bias]))
    (fused_len, *fused), (plain_len, *plain) = results
    assert fused_len == plain_len - 1
    for x, y in zip(fused, plain):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("rows", [1, 3, 4, 16, ag.SMALL_PRODUCT_ROWS - 1, ag.SMALL_PRODUCT_ROWS, 200])
def test_matmul_with_output_major_weight_keeps_values_and_layouts(rng, rows):
    # Below SMALL_PRODUCT_ROWS a `matmuls` member runs as (w.T @ a.T).T;
    # either way the output is a fresh row-major array and dW comes out
    # output-major.
    a_val = rng.uniform(0.0, 1.0, (rows, 48)).astype(np.float32)
    w_val = rng.uniform(-0.2, 0.2, (48, 24)).astype(np.float32)
    bias_val = rng.standard_normal(24).astype(np.float32)
    g_val = rng.standard_normal((rows, 24)).astype(np.float32)
    a = Tensor(a_val, requires_grad=True)
    w = Tensor(np.asfortranarray(w_val), requires_grad=True)
    bias = Tensor(bias_val, requires_grad=True)
    assert w.data.flags.f_contiguous and not w.data.flags.c_contiguous
    with Graph() as g:
        (out,) = ag.matmuls([(a, w, bias)])
        loss = ag.sum_all(ag.mul(out, Tensor(g_val)))
    grads = g.backward(loss)

    assert out.data.flags.c_contiguous
    exact = a_val.astype(np.float64) @ w_val.astype(np.float64) + bias_val
    assert np.allclose(out.data, exact, rtol=1e-5, atol=1e-5)
    assert grads[w].flags.f_contiguous
    assert np.allclose(grads[w], a_val.astype(np.float64).T @ g_val, rtol=1e-5, atol=1e-4)
    assert np.allclose(grads[a], g_val.astype(np.float64) @ w_val.T, rtol=1e-5, atol=1e-4)


def test_matmul_bias_shape_and_dtype_are_checked():
    a = Tensor(np.ones((2, 3), dtype=np.float32))
    b = Tensor(np.ones((3, 4), dtype=np.float32))
    with pytest.raises(ShapeError, match="bias"):
        ag.matmul(a, b, Tensor(np.ones(3, dtype=np.float32)))
    with pytest.raises(TypeError):
        ag.matmul(a, b, Tensor(np.ones(4, dtype=np.float64)))


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform_input():
    out = ag.softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-7)


def test_softmax_closed_form():
    out = ag.softmax(Tensor([0.0, math.log(2.0)]))
    assert np.allclose(out.data, [1 / 3, 2 / 3], atol=1e-7)


def test_softmax_large_logits_match_shifted_oracle():
    x = np.array([1000.0, 1000.0, 999.0], dtype=np.float64)
    out = ag.softmax(t64(x))
    # Oracle: plain exp/sum is only computable on the shifted inputs.
    e = np.exp(x - 1000.0)
    expected = e / e.sum()
    assert np.all(np.isfinite(out.data))
    assert abs(out.data.sum() - 1.0) < 1e-6
    assert np.allclose(out.data, expected, atol=1e-12)


def test_softmax_properties_random(rng):
    for _ in range(50):
        x = rng.standard_normal((3, 5)) * 3.0
        out = ag.softmax(t64(x))
        assert np.all(out.data >= 0.0)
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)
        shifted = ag.softmax(t64(x + 7.25))
        assert np.allclose(out.data, shifted.data, atol=1e-6)


def test_softmax_gradient(rng):
    x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    w = rng.standard_normal((2, 4))  # random projection makes the loss non-trivial

    def loss():
        return float((ag.softmax(x).data * w).sum())

    with Graph() as g:
        out = ag.sum_all(ag.mul(ag.softmax(x), t64(w)))
    grads = g.backward(out)
    assert max_rel_err(grads[x], finite_difference(loss, x.data)) < 1e-6


# ---------------------------------------------------------------------------
# layer_norm


def test_layer_norm_constant_slice_collapses_to_beta():
    gamma, beta = t64(np.ones(3)), t64(np.zeros(3))
    out = ag.layer_norm(t64([5.0, 5.0, 5.0]), gamma, beta)
    assert np.allclose(out.data, 0.0, atol=1e-7)


def test_layer_norm_two_point_slice():
    gamma, beta = t64(np.ones(2)), t64(np.zeros(2))
    out = ag.layer_norm(t64([1.0, 3.0]), gamma, beta)
    assert np.allclose(out.data, [-1.0, 1.0], atol=1e-4)  # eps shrinks magnitude slightly


def test_layer_norm_rows_are_standardized(rng):
    x = rng.standard_normal((4, 8))
    out = ag.layer_norm(t64(x), t64(np.ones(8)), t64(np.zeros(8)))
    assert np.max(np.abs(out.data.mean(axis=-1))) < 1e-6
    assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_idempotent_after_inverse_affine(rng):
    gamma_val, beta_val = 1.7, -0.3
    x = rng.standard_normal((3, 6)) * 2.0 + 1.0
    gamma = t64(np.full(6, gamma_val))
    beta = t64(np.full(6, beta_val))
    y = ag.layer_norm(t64(x), gamma, beta)
    xhat = (y.data - beta_val) / gamma_val
    again = ag.layer_norm(t64(xhat), gamma, beta)
    assert np.allclose(again.data, y.data, atol=1e-6)


def test_layer_norm_gradients(rng):
    x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, 5), requires_grad=True)
    beta = Tensor(rng.standard_normal(5), requires_grad=True)
    w = rng.standard_normal((3, 5))

    def loss():
        return float((ag.layer_norm(x, gamma, beta).data * w).sum())

    with Graph() as g:
        out = ag.sum_all(ag.mul(ag.layer_norm(x, gamma, beta), t64(w)))
    grads = g.backward(out)

    assert max_rel_err(grads[x], finite_difference(loss, x.data)) < 1e-5
    assert max_rel_err(grads[gamma], finite_difference(loss, gamma.data)) < 1e-5
    assert max_rel_err(grads[beta], finite_difference(loss, beta.data)) < 1e-5


# ---------------------------------------------------------------------------
# dropout


def test_dropout_is_identity_outside_training():
    x = Tensor(np.ones((4, 4), dtype=np.float32))
    assert ag.dropout(x, 0.5, SplitMix64(0)) is x
    with Graph():
        pass
    assert ag.active_graph() is None
    assert ag.dropout(x, 0.5, SplitMix64(0)) is x


def test_dropout_p_zero_is_identity_in_training():
    x = Tensor(np.ones((4, 4), dtype=np.float32))
    with Graph():
        assert ag.dropout(x, 0.0) is x


def test_dropout_preserves_expectation():
    x = Tensor(np.ones(100_000, dtype=np.float32))
    with Graph():
        out = ag.dropout(x, 0.5, SplitMix64(123).derive("dropout"))
    assert abs(float(out.data.mean()) - 1.0) < 0.02
    survivors = out.data[out.data != 0.0]
    assert np.allclose(survivors, 2.0)  # inverted scaling


def test_dropout_rejects_bad_probability():
    x = Tensor(np.ones(3, dtype=np.float32))
    with pytest.raises(ValueError):
        ag.dropout(x, 1.0)
    with pytest.raises(ValueError):
        ag.dropout(x, -0.1)


class _RawDraws:
    """Stands in for SplitMix64: replays given raw draws, and computes
    random() from them exactly as SplitMix64.random does."""

    def __init__(self, raw):
        self.raw = np.asarray(raw, dtype=np.uint64)

    def next_raw(self, count):
        assert count == self.raw.size
        return self.raw

    def random(self, shape):
        return ((self.raw >> np.uint64(11)).astype(np.float64) * 2.0**-53).reshape(shape)


DROPOUT_PS = (0.1, 0.5, 0.9, float(np.nextafter(1.0, 0.0)))


@pytest.mark.parametrize("p", DROPOUT_PS)
def test_dropout_keep_mask_equals_float_draws_against_p(p):
    x = t64(np.ones((64, 33)))
    with Graph():
        out = ag.dropout(x, p, SplitMix64(77).derive("mask"))
    expected = SplitMix64(77).derive("mask").random(x.shape) >= p
    assert np.array_equal(out.data != 0.0, expected)


@pytest.mark.parametrize("p", DROPOUT_PS)
def test_dropout_keep_mask_is_exact_at_the_threshold(p):
    # Raw draws on and next to the integer threshold, where a rounding
    # slip would flip the decision.
    edge = math.ceil(p * 2.0**53) << 11
    raw = [v for v in (edge - 2049, edge - 2048, edge - 1, edge, edge + 1, edge + 2047, edge + 2048)
           if 0 <= v < 2**64] + [0, 2**64 - 1]
    x = t64(np.ones(len(raw)))
    with Graph():
        out = ag.dropout(x, p, _RawDraws(raw))
    assert np.array_equal(out.data != 0.0, _RawDraws(raw).random(len(raw)) >= p)


def test_dropout_backward_scales_by_saved_mask():
    x = Tensor(np.ones(1000, dtype=np.float32), requires_grad=True)
    with Graph() as g:
        out = ag.dropout(x, 0.25, SplitMix64(9))
        loss = ag.sum_all(out)
    grads = g.backward(loss)
    # d(sum)/dx is exactly the scaled mask that was applied forward.
    assert np.array_equal(grads[x], out.data)


# ---------------------------------------------------------------------------
# mean_pool


def test_mean_pool_single_row():
    x = Tensor([[3.0, -1.0, 2.0]])
    assert np.array_equal(ag.mean_pool(x, [1]).data, np.array([[3.0, -1.0, 2.0]], dtype=np.float32))


def test_mean_pool_symmetry():
    out = ag.mean_pool(Tensor([[0.0, 2.0], [2.0, 0.0]]), [2])
    assert np.array_equal(out.data, np.array([[1.0, 1.0]], dtype=np.float32))


def test_mean_pool_segments_equal_slice_means(rng):
    x = rng.standard_normal((6, 7))
    out = ag.mean_pool(t64(x), [2, 1, 3])
    assert np.array_equal(out.data, np.stack([x[:2].mean(axis=0), x[2], x[3:].mean(axis=0)]))


def test_mean_pool_gradients(rng):
    x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    lengths = np.array([3, 2])
    w = rng.standard_normal((2, 3))

    def loss():
        return float((ag.mean_pool(x, lengths).data * w).sum())

    with Graph() as g:
        out = ag.sum_all(ag.mul(ag.mean_pool(x, lengths), t64(w)))
    grads = g.backward(out)
    assert max_rel_err(grads[x], finite_difference(loss, x.data)) < 1e-6


# ---------------------------------------------------------------------------
# concat and friends


def test_concat_orders_values():
    out = ag.concat([Tensor([1.0]), Tensor([2.0, 3.0])])
    assert np.array_equal(out.data, np.array([1.0, 2.0, 3.0], dtype=np.float32))


def test_concat_five_vector_shape_arithmetic():
    s = 17
    parts = [Tensor(np.zeros(c, dtype=np.float32)) for c in (512, 512, 512, s, s)]
    assert ag.concat(parts).shape == (1536 + 2 * s,)


def test_concat_gradient_is_ones_per_input():
    xs = [
        Tensor(np.arange(3, dtype=np.float32), requires_grad=True),
        Tensor(np.arange(2, dtype=np.float32), requires_grad=True),
    ]
    with Graph() as g:
        loss = ag.sum_all(ag.concat(xs))
    grads = g.backward(loss)
    for x in xs:
        assert np.array_equal(grads[x], np.ones(x.shape, dtype=np.float32))


def test_concat_rejects_empty_list():
    with pytest.raises(ValueError):
        ag.concat([])


def test_slice_and_concat_cols_roundtrip(rng):
    x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    with Graph() as g:
        parts = [ag.slice_cols(x, 0, 2), ag.slice_cols(x, 2, 6)]
        loss = ag.sum_all(ag.concat_cols(parts))
    grads = g.backward(loss)
    assert np.array_equal(grads[x], np.ones_like(x.data))


def test_mean_pool_lengths_equal_masked_padded_mean_bit_for_bit(rng):
    lengths = np.array([3, 1, 4, 2])
    rows = rng.standard_normal((int(lengths.sum()), 5)).astype(np.float32)
    valid = np.arange(4) < lengths[:, None]
    padded = np.zeros((4, 4, 5), dtype=np.float32)
    padded[valid] = rows
    out = ag.mean_pool(Tensor(rows), lengths)
    masked_mean = (padded * valid[..., None]).sum(1) / valid.sum(1, keepdims=True).astype(np.float32)
    assert out.data.tobytes() == masked_mean.tobytes()
    # Equal lengths read the rows as a plain [b, t, c] reshape.
    even = ag.mean_pool(Tensor(rows[:8]), np.array([4, 4]))
    assert even.data.tobytes() == (rows[:8].reshape(2, 4, 5).sum(1) / np.float32(4)).tobytes()


def test_mean_pool_lengths_are_checked():
    x = Tensor(np.ones((4, 2), dtype=np.float32))
    for bad in ([2, 1], [4, 0], [5, -1], [], [[4]], 4):
        with pytest.raises(ShapeError, match="pooled lengths"):
            ag.mean_pool(x, np.array(bad))
    with pytest.raises(ShapeError, match=r"\[N, c\] rows"):
        ag.mean_pool(Tensor(np.ones((1, 4, 2), dtype=np.float32)), [4])
    with pytest.raises(TypeError):
        ag.mean_pool(x)  # lengths are required


def _padded_reference(rows, lengths, t, d):
    padded = np.zeros((len(lengths) * t, d))
    valid = np.arange(t) < np.asarray(lengths)[:, None]
    padded[valid.ravel()] = rows
    return padded, valid


def test_attention_lengths_match_padded_and_masked_reference(rng):
    # Query sequences of 3, 1 and 2 rows against key/value sequences of 4
    # rows each, one of them masked in each sequence.
    q_lengths = np.array([3, 1, 2])
    kv_mask = np.array([True, False, True, True, True, True, False, True, False, True, True, True])
    d, heads = 6, 3
    q = rng.standard_normal((int(q_lengths.sum()), d))
    k = rng.standard_normal((12, d))
    v = rng.standard_normal((12, d))
    out = ag.attention(t64(q), t64(k), t64(v), heads, q_lengths, kv_mask=kv_mask)
    assert out.shape == q.shape
    q_pad, q_valid = _padded_reference(q, q_lengths, 3, d)
    ref = ag.attention(t64(q_pad), t64(k), t64(v), heads, [3, 3, 3], kv_mask=kv_mask)
    assert np.array_equal(out.data, ref.data[q_valid.ravel()])


def test_attention_equal_lengths_are_the_unpadded_layout(rng):
    # Equal lengths need no padding: each sequence's rows come out exactly
    # as when it runs alone.
    q, kv = rng.standard_normal((6, 4)), rng.standard_normal((4, 4))
    both = ag.attention(t64(q), t64(kv), t64(kv), 2, np.array([3, 3]))
    for i in range(2):
        qi, kvi = t64(q[3 * i:3 * i + 3]), t64(kv[2 * i:2 * i + 2])
        alone = ag.attention(qi, kvi, kvi, 2, [3])
        assert both.data[3 * i:3 * i + 3].tobytes() == alone.data.tobytes()


def test_attention_lengths_are_checked():
    q, kv = t64(np.ones((4, 4))), t64(np.ones((6, 4)))
    for bad in ([3, 2], [4, 0], [], [[2, 2]]):
        with pytest.raises(ShapeError, match="query lengths"):
            ag.attention(q, kv, kv, 2, np.array(bad))
    # The key/value rows are B sequences of equal length: 6 rows do not
    # make 4 of them, nor do 0 rows make 2.
    empty = t64(np.ones((0, 4)))
    for rows, q_lengths in ((kv, [1, 1, 1, 1]), (empty, [2, 2])):
        with pytest.raises(ShapeError, match="key/value rows do not split evenly"):
            ag.attention(q, rows, rows, 2, q_lengths)
    with pytest.raises(TypeError):
        ag.attention(q, kv, kv, 2)  # lengths are required


def test_attention_rejects_bad_shapes_and_fully_masked_sequences():
    q, kv = t64(np.ones((4, 4))), t64(np.ones((6, 4)))
    with pytest.raises(ShapeError, match="2-D"):
        ag.attention(t64(np.ones((2, 2, 4))), kv, kv, 2, [2, 2])
    with pytest.raises(ShapeError, match="heads"):
        ag.attention(q, kv, kv, 3, [2, 2])
    for bad in ((2, 3), (5,)):
        with pytest.raises(ShapeError, match="kv_mask"):
            ag.attention(q, kv, kv, 2, [2, 2], kv_mask=np.ones(bad, dtype=bool))
    with pytest.raises(DegenerateInputError):
        ag.attention(q, kv, kv, 2, [2, 2], kv_mask=np.array([True] * 3 + [False] * 3))


def _attention_alone(q, k, v, heads, q_lengths, kv_mask):
    """Reference: attention run one sequence at a time, masked rows removed."""
    q_ends = np.cumsum(q_lengths)
    t_kv = len(k) // len(q_lengths)
    out = []
    for i in range(len(q_lengths)):
        qi = q[q_ends[i] - q_lengths[i]:q_ends[i]]
        keep = np.arange(i * t_kv, (i + 1) * t_kv)
        keep = keep[kv_mask[keep]]
        out.append(ag.attention(t64(qi), t64(k[keep]), t64(v[keep]), heads, [len(qi)]).data)
    return np.concatenate(out)


def test_attention_row_mask_with_unequal_lengths_drops_the_masked_rows(rng):
    # Unequal query lengths; each key/value sequence holds t_kv rows.
    d, heads = 6, 3
    for trial in range(20):
        batch = int(rng.integers(1, 5))
        q_lengths = rng.integers(1, 5, batch)
        t_kv = int(rng.integers(1, 6))
        kv_mask = rng.random(batch * t_kv) < 0.6
        # Every sequence keeps at least one attendable row.
        kv_mask[np.arange(batch) * t_kv + rng.integers(0, t_kv, batch)] = True
        q = rng.standard_normal((int(q_lengths.sum()), d))
        k = rng.standard_normal((batch * t_kv, d))
        v = rng.standard_normal((batch * t_kv, d))
        out = ag.attention(t64(q), t64(k), t64(v), heads, q_lengths, kv_mask=kv_mask)
        ref = _attention_alone(q, k, v, heads, q_lengths, kv_mask)
        assert np.max(np.abs(out.data - ref)) <= 1e-12, trial


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    with Graph() as g:
        loss = ag.sum_all(x)
    grads = g.backward(loss)
    assert np.array_equal(grads[x], np.ones((2, 3), dtype=np.float32))


def test_backward_elementwise_square():
    x = Tensor(np.array([1.0, -2.0, 3.0], dtype=np.float32), requires_grad=True)
    with Graph() as g:
        loss = ag.sum_all(ag.mul(x, x))
    grads = g.backward(loss)
    assert np.allclose(grads[x], 2.0 * x.data)


def test_second_backward_on_one_graph_raises(rng):
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    with Graph() as g:
        loss = ag.sum_all(ag.softmax(ag.matmul(x, w)))
    assert len(g) == 3
    assert set(g.backward(loss)) == {x, w}
    # The tape is consumed, and len still counts the ops it recorded.
    assert len(g) == 3 and not g._tape
    with pytest.raises(GraphUsageError, match="already ran"):
        g.backward(loss)


def test_backward_requires_scalar_loss():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with Graph() as g:
        y = ag.scale(x, 2.0)
    with pytest.raises(ShapeError):
        g.backward(y)


def test_backward_gives_gradients_to_leaves_only():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    twin = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)  # equal data
    const = Tensor(np.ones(3, dtype=np.float32))
    with Graph() as g:
        mid = ag.add(ag.scale(x, 3.0), const)
        loss = ag.sum_all(ag.mul(mid, twin))
    grads = g.backward(loss)
    assert mid.requires_grad and loss.requires_grad
    # Keys go by identity: twin is its own key, and the intermediates,
    # the loss and the constant are not keys at all.
    assert set(grads) == {x, twin}
    assert np.array_equal(grads[x], np.full(3, 3.0, dtype=np.float32))
    assert np.array_equal(grads[twin], np.full(3, 4.0, dtype=np.float32))
    assert Tensor.__slots__ == ("data", "requires_grad", "_key")


def test_inference_graph_records_nothing():
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    with Graph() as g:
        pass
    out = ag.matmul(x, x)
    assert len(g) == 0
    assert not out.requires_grad


def test_inference_forward_is_bitwise_deterministic(rng):
    x = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
    w = Tensor(rng.standard_normal((4, 4)).astype(np.float32))
    runs = []
    for _ in range(3):
        runs.append(ag.softmax(ag.matmul(x, w)).data.tobytes())
    assert runs[0] == runs[1] == runs[2]


def test_linear_graph_matches_transpose_map_oracle(rng):
    # Integer-valued data keeps every product exact, so the reverse-mode
    # result must equal the explicit-Jacobian transpose map bit for bit.
    a_val = rng.integers(-4, 5, size=(3, 4)).astype(np.float32)
    x = Tensor(rng.integers(-4, 5, size=(4, 2)).astype(np.float32), requires_grad=True)
    a = Tensor(a_val)

    with Graph() as g:
        loss = ag.sum_all(ag.matmul(a, x))
    grads = g.backward(loss)

    # Brute-force Jacobian of vec(out) w.r.t. vec(x) by probing unit vectors.
    def forward_flat(v):
        return (a_val @ v.reshape(4, 2)).ravel()

    jac = np.stack([forward_flat(e) for e in np.eye(8, dtype=np.float32)], axis=1)
    oracle = (jac.T @ np.ones(6, dtype=np.float32)).reshape(4, 2)
    assert np.array_equal(grads[x], oracle)


def test_add_of_two_leaves_hands_each_its_own_gradient():
    a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    with Graph() as g:
        total = ag.add(a, b)
        loss = ag.sum_all(total)
    grads = g.backward(loss)
    assert np.array_equal(grads[a], np.ones((2, 3), dtype=np.float32))
    assert np.array_equal(grads[b], np.ones((2, 3), dtype=np.float32))


def test_duplicate_input_accumulates_both_paths():
    x = Tensor(np.array([[2.0]], dtype=np.float32), requires_grad=True)
    with Graph() as g:
        loss = ag.sum_all(ag.matmul(x, x))  # d/dx (x*x) = 2x
    grads = g.backward(loss)
    assert np.allclose(grads[x], [[4.0]])


# ---------------------------------------------------------------------------
# matmuls


def f32(rng, shape, order="C"):
    data = np.asarray(rng.standard_normal(shape), dtype=np.float32, order=order)
    return Tensor(data, requires_grad=True)


def _product_net(seed: int, grouped: bool, order=(0, 1, 2)):
    """(len, tape entries) of the graph before backward, the scalar loss
    over three bias-fused products and what feeds and reads them, the
    tensors to compare and backward's gradients. `x` is the left
    operand of the first two members and is read again after them, so its
    gradient sums three parts; the members' row counts straddle
    SMALL_PRODUCT_ROWS and their weights are output-major. `grouped` runs
    the members through one `matmuls` call, otherwise as separate
    one-member groups in `order`."""
    rng = np.random.default_rng(seed)
    rows = ag.SMALL_PRODUCT_ROWS
    x = f32(rng, (rows + 8, 24))
    y = f32(rng, (5, 16))
    members = [
        (x, f32(rng, (24, 32), "F"), f32(rng, (32,))),
        (x, f32(rng, (24, 32), "F"), f32(rng, (32,))),
        (y, f32(rng, (16, 32), "F"), f32(rng, (32,))),
    ]
    w_out = Tensor(rng.standard_normal((4 * 32, 1)).astype(np.float32))
    with Graph() as g:
        if grouped:
            outs = ag.matmuls(members)
        else:
            by_member = {i: ag.matmuls([members[i]])[0] for i in order}
            outs = [by_member[i] for i in range(len(members))]
        late = ag.matmul(x, Tensor(rng.standard_normal((24, 32)).astype(np.float32)))
        pooled = [ag.mean_pool(out, [out.shape[0]]) for out in outs + [late]]
        loss = ag.sum_all(ag.matmul(ag.concat_cols(pooled), w_out))
    leaves = [t for m in members for t in m]
    return (len(g), len(g._tape)), loss, outs, leaves, g.backward(loss)


def _product_net_bytes(seed: int, grouped: bool) -> list[bytes]:
    _, loss, outs, leaves, grads = _product_net(seed, grouped)
    return (
        [loss.data.tobytes()]
        + [t.data.tobytes() for t in outs]
        + [grads[t].tobytes() for t in leaves]
    )


def test_matmuls_give_the_separate_matmul_values_and_gradients_bit_for_bit(pool_or_one_cpu):
    ops_one, entries_one = _product_net(3, grouped=False)[0]
    (ops_group, entries_group), _, outs_group, leaves_group, _ = _product_net(3, grouped=True)
    assert _product_net_bytes(3, grouped=True) == _product_net_bytes(3, grouped=False)
    # One entry holds the three members, and len counts each of them.
    assert entries_group == entries_one - 2
    assert ops_group == ops_one == 3 + 1 + 4 + 1 + 1 + 1
    for out, leaf in zip(outs_group, leaves_group[::3]):
        assert out.data.flags.c_contiguous and out.shape[0] == leaf.shape[0]
    assert pool_or_one_cpu.as_expected()


def test_matmuls_sum_a_shared_operands_gradient_in_the_separate_entry_order(pool_or_one_cpu):
    # x gets three parts: from `late`, then member 1, then member 0, as
    # separate entries are walked last to first.
    def x_grad(grouped, order=(0, 1, 2)):
        _, _, _, leaves, grads = _product_net(5, grouped, order)
        return grads[leaves[0]].tobytes()

    assert x_grad(grouped=True) == x_grad(grouped=False)
    # Separate entries in the other order sum x's parts the other way
    # round, and that rounds differently here, so the check has teeth.
    assert x_grad(grouped=False, order=(1, 0, 2)) != x_grad(grouped=False)


def test_matmuls_member_whose_output_is_never_used(pool_or_one_cpu, rng):
    a = f32(rng, (6, 4))
    used = (a, f32(rng, (4, 3), "F"), f32(rng, (3,)))
    unused = (a, f32(rng, (4, 3), "F"), f32(rng, (3,)))
    results = []
    for grouped in (True, False):
        with Graph() as g:
            outs = ag.matmuls([unused, used]) if grouped else [ag.matmuls([m])[0] for m in (unused, used)]
            loss = ag.sum_all(outs[1])
        grads = g.backward(loss)
        assert set(grads) == {a, *used[1:]}
        results.append([grads[t].tobytes() for t in (a, *used[1:])])
        assert len(g) == 3
    assert results[0] == results[1]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_matmuls_non_finite_member_raises_after_every_member_finished(pool_or_one_cpu, monkeypatch):
    big = Tensor(np.full((2, 2), 3e38, dtype=np.float32), requires_grad=True)
    small = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    bias = Tensor(np.zeros(2, dtype=np.float32))
    finished = []
    real = ag._product_task

    def slow(a, b, bias, op):
        task = real(a, b, bias, op)

        def run():
            time.sleep(0.2)
            finished.append(float(a.data[0, 0]))
            return task()

        return run

    monkeypatch.setattr(ag, "_product_task", slow)
    with Graph() as g:
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="matmuls"):
            # The failing member is the first one this thread runs.
            ag.matmuls([(big, big, bias), (small, small, bias), (small, small, bias)])
        assert len(finished) == 3
    assert len(g) == 0


def test_concurrent_callers_of_matmuls_each_get_the_separate_matmul_gradients(pool_or_one_cpu):
    callers, rounds = 6, 10  # more calling threads than cores, all sharing the pool
    expected = [_product_net_bytes(seed, grouped=False) for seed in range(callers)]
    results = [[] for _ in range(callers)]

    def work(seed):
        for _ in range(rounds):
            results[seed].append(_product_net_bytes(seed, grouped=True))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == [[want] * rounds for want in expected]
    assert pool_or_one_cpu.as_expected()


def test_small_groups_and_no_graph_stay_exact_on_the_calling_thread(rng, monkeypatch):
    threads = []
    real = ag._settle

    def recorded(task):
        threads.append(threading.current_thread().name)
        return real(task)

    monkeypatch.setattr(ag, "_settle", recorded)
    a = f32(rng, (4, 3))
    members = [(a, f32(rng, (3, 2)), f32(rng, (2,))) for _ in range(3)]
    assert sum(4 * 3 * 2 for _ in members) < ag.POOL_MIN_WORK
    outs = ag.matmuls(members)  # no graph: nothing recorded, no gradient
    assert not any(o.requires_grad for o in outs)
    alone = [ag.matmuls([member])[0] for member in members]
    for out, single in zip(outs, alone):
        assert out.data.tobytes() == single.data.tobytes()
    assert threads == [threading.current_thread().name] * 6


def test_matmuls_check_every_member():
    a = Tensor(np.ones((2, 3), dtype=np.float32))
    w = Tensor(np.ones((3, 2), dtype=np.float32))
    bias = Tensor(np.zeros(2, dtype=np.float32))
    with pytest.raises(ShapeError, match="inner"):
        ag.matmuls([(a, w, bias), (a, a, bias)])
    with pytest.raises(ShapeError, match="bias"):
        ag.matmuls([(a, w, Tensor(np.zeros(3, dtype=np.float32)))])
    with pytest.raises(TypeError):
        ag.matmuls([(a, Tensor(np.ones((3, 2))), bias)])


# ---------------------------------------------------------------------------
# grad_check


def test_grad_check_sum_is_exact():
    # Power-of-two eps keeps every perturbed sum exactly representable,
    # so the finite-difference quotient is exactly 1 and the error is 0.
    x = t64([1.0, 2.0, 3.0])
    report = ag.grad_check(ag.sum_all, x, eps=0.125)
    assert isinstance(report, GradCheckReport)
    assert report.passed
    assert report.max_rel_err == 0.0


def test_grad_check_softmax_pick_first():
    x = t64([0.3, -1.2, 0.7])

    def f(t):
        return ag.take_per_row(ag.reshape(ag.softmax(t), (1, 3)), [0])

    def f_scalar(t):
        return ag.reshape(f(t), ())

    report = ag.grad_check(f_scalar, x, eps=1e-3, tol=1e-4)
    assert report.passed


@pytest.mark.parametrize("rows", [3, ag.SMALL_PRODUCT_ROWS + 2])
def test_grad_check_perturbs_an_output_major_weight_itself(rng, rows):
    a = t64(rng.uniform(-1.0, 1.0, (rows, 6)))
    c = t64(rng.standard_normal((rows, 5)))
    w = t64(np.asfortranarray(rng.uniform(-0.5, 0.5, (6, 5))))
    assert w.data.flags.f_contiguous and not w.data.flags.c_contiguous

    def f(t):
        return ag.sum_all(ag.mul(ag.softmax(ag.matmul(a, t)), c))

    report = ag.grad_check(f, w, eps=1e-5, tol=1e-6)
    assert report.passed, str(report)
    assert report.checked == w.size

    w.requires_grad = True
    with Graph() as g:
        loss = f(w)
    grads = g.backward(loss)
    assert np.any(grads[w] != 0.0)
    oracle = finite_difference(lambda: f(w).data, w.data, eps=1e-5)
    assert max_rel_err(grads[w], oracle) < 1e-6

    # A perturbation through a copy (what `ravel` returns for this layout)
    # never reaches f's input: every central difference reads 0, so such
    # an oracle fails this check.
    copy_based = np.empty(w.size)
    flat = w.data.ravel()
    assert not np.shares_memory(flat, w.data)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + 1e-5
        hi = float(f(w).data)
        flat[i] = orig - 1e-5
        lo = float(f(w).data)
        flat[i] = orig
        copy_based[i] = (hi - lo) / 2e-5
    assert not np.any(copy_based)
    assert max_rel_err(grads[w], copy_based.reshape(w.shape)) > 0.5


def test_grad_check_rejects_training_dropout():
    shared_rng = SplitMix64(5)
    x = t64(np.ones(8))

    def f(t):
        return ag.sum_all(ag.dropout(t, 0.5, shared_rng))

    with pytest.raises(GraphUsageError):
        ag.grad_check(f, x)


def test_grad_check_rejects_non_scalar():
    x = t64(np.ones(3))
    with pytest.raises(ShapeError):
        ag.grad_check(lambda t: ag.scale(t, 2.0), x)


# ---------------------------------------------------------------------------
# misc ops used by the loss


def test_log_clamp_take_and_reductions(rng):
    probs = np.abs(rng.standard_normal((3, 4))) + 0.1
    probs /= probs.sum(axis=1, keepdims=True)
    x = Tensor(probs.astype(np.float64), requires_grad=True)
    labels = [0, 2, 3]

    def loss():
        clamped = np.maximum(x.data, 1e-12)
        picked = np.log(clamped)[np.arange(3), labels]
        return float(picked.sum()) / 3.0

    with Graph() as g:
        out = ag.scale(ag.sum_all(ag.take_per_row(ag.log(ag.clamp_min(x, 1e-12)), labels)), 1 / 3)
    grads = g.backward(out)
    assert max_rel_err(grads[x], finite_difference(loss, x.data)) < 1e-6


def test_log_of_zero_fails_fast():
    with pytest.raises(NonFiniteError):
        ag.log(Tensor([0.0, 1.0]))


def test_scale_and_add_bias_broadcast(rng):
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    with Graph() as g:
        loss = ag.sum_all(ag.add(ag.scale(x, 2.5), b))
    grads = g.backward(loss)
    assert np.allclose(grads[x], 2.5)
    assert np.allclose(grads[b], 4.0)  # one contribution per row


# ---------------------------------------------------------------------------
# finite-difference agreement, swept over every differentiable op


def _weighted(out, w):
    """Random projection to a scalar so every output component matters."""
    return ag.sum_all(ag.mul(out, t64(w)))


_R = np.random.default_rng(7)
_W34 = _R.standard_normal((3, 4))
_W42 = _R.standard_normal((4, 2))
_W32 = _R.standard_normal((3, 2))
_W43 = _R.standard_normal((4, 3))
_V4 = _R.standard_normal(4)
_V3 = _R.standard_normal(3)
_V12 = _R.standard_normal(12)
_GAMMA = _R.uniform(0.5, 1.5, 4)
_BETA = _R.standard_normal(4)
_W24 = _R.standard_normal((2, 4))
# attention: 2 sequences, 2 query rows and 3 key/value rows each, width 4
# split into 2 heads; one key/value row per sequence is masked.
_ATT_Q = _R.standard_normal((4, 4))
_ATT_K = _R.standard_normal((6, 4))
_ATT_V = _R.standard_normal((6, 4))
_ATT_W = _R.standard_normal((4, 4))
_V2 = _R.standard_normal(2)
_ATT_MASK = np.array([True, False, True, False, True, True])


def _attention(q, k, v):
    return ag.attention(q, k, v, 2, [2, 2], kv_mask=_ATT_MASK)


# The same width and heads over real rows only: 3 sequences holding 1, 3
# and 2 query rows and 2 key/value rows each.
_LEN_Q = np.array([1, 3, 2])
_LEN_W = _R.standard_normal((6, 4))
_LEN_QROWS = _R.standard_normal((6, 4))
_LEN_POOL = np.array([2, 1, 3])


def _attention_lengths(q, k, v):
    return ag.attention(q, k, v, 2, _LEN_Q)


# Those lengths with one masked key/value row in each of the first two
# sequences.
_LEN_KV_MASK = np.array([True, False, True, False, True, True])


def _attention_lengths_masked(q, k, v):
    return ag.attention(q, k, v, 2, _LEN_Q, kv_mask=_LEN_KV_MASK)


OP_SWEEP = {
    "matmul_left": ((3, 4), lambda x: _weighted(ag.matmul(x, t64(_W42)), _W32)),
    "matmul_right": ((4, 2), lambda x: _weighted(ag.matmul(t64(_W34), x), _W32)),
    "matmul_bias": ((2,), lambda x: _weighted(ag.matmul(t64(_W34), t64(_W42), x), _W32)),
    "matmul_left_with_bias": (
        (3, 4),
        lambda x: _weighted(ag.matmul(x, t64(_W42), t64(_V2)), _W32),
    ),
    "transpose": ((3, 4), lambda x: _weighted(ag.transpose(x), _W43)),
    "add_same": ((3, 4), lambda x: _weighted(ag.add(x, t64(_W34)), _W34)),
    "add_bias": ((4,), lambda x: _weighted(ag.add(t64(_W34), x), _W34)),
    "mul": ((3, 4), lambda x: _weighted(ag.mul(x, t64(_W34 + 2.0)), _W34)),
    "scale": ((3, 4), lambda x: _weighted(ag.scale(x, -1.7), _W34)),
    "softmax": ((3, 4), lambda x: _weighted(ag.softmax(x), _W34)),
    "layer_norm_x": ((3, 4), lambda x: _weighted(ag.layer_norm(x, t64(_GAMMA), t64(_BETA)), _W34)),
    "layer_norm_gamma": ((4,), lambda x: _weighted(ag.layer_norm(t64(_W34), x, t64(_BETA)), _W34)),
    "layer_norm_beta": ((4,), lambda x: _weighted(ag.layer_norm(t64(_W34), t64(_GAMMA), x), _W34)),
    "dropout_fixed_mask": (
        (3, 4),
        lambda x: _weighted(ag.dropout(x, 0.25, SplitMix64(11).derive("sweep")), _W34),
    ),
    "mean_pool": ((3, 4), lambda x: _weighted(ag.mean_pool(x, [3]), _V4[None])),
    "mean_pool_equal_lengths": ((6, 4), lambda x: _weighted(ag.mean_pool(x, [3, 3]), _W24)),
    "attention_q": ((4, 4), lambda x: _weighted(_attention(x, t64(_ATT_K), t64(_ATT_V)), _ATT_W)),
    "attention_k": ((6, 4), lambda x: _weighted(_attention(t64(_ATT_Q), x, t64(_ATT_V)), _ATT_W)),
    "attention_v": ((6, 4), lambda x: _weighted(_attention(t64(_ATT_Q), t64(_ATT_K), x), _ATT_W)),
    "attention_lengths_q": (
        (6, 4),
        lambda x: _weighted(_attention_lengths(x, t64(_ATT_K), t64(_ATT_V)), _LEN_W),
    ),
    "attention_lengths_k": (
        (6, 4),
        lambda x: _weighted(_attention_lengths(t64(_LEN_QROWS), x, t64(_ATT_V)), _LEN_W),
    ),
    "attention_lengths_v": (
        (6, 4),
        lambda x: _weighted(_attention_lengths(t64(_LEN_QROWS), t64(_ATT_K), x), _LEN_W),
    ),
    "attention_lengths_masked_q": (
        (6, 4),
        lambda x: _weighted(_attention_lengths_masked(x, t64(_ATT_K), t64(_ATT_V)), _LEN_W),
    ),
    "attention_lengths_masked_k": (
        (6, 4),
        lambda x: _weighted(_attention_lengths_masked(t64(_LEN_QROWS), x, t64(_ATT_V)), _LEN_W),
    ),
    "attention_lengths_masked_v": (
        (6, 4),
        lambda x: _weighted(_attention_lengths_masked(t64(_LEN_QROWS), t64(_ATT_K), x), _LEN_W),
    ),
    "mean_pool_lengths": ((6, 4), lambda x: _weighted(ag.mean_pool(x, _LEN_POOL), _W34)),
    "concat": ((4,), lambda x: _weighted(ag.concat([x, t64(_V3)]), np.arange(7.0))),
    "concat_cols": ((3, 4), lambda x: _weighted(ag.concat_cols([x, t64(_W32)]), np.hstack([_W34, _W32]))),
    "stack_rows": ((4,), lambda x: _weighted(ag.stack_rows([x, t64(_V4)]), np.stack([_V4, _V4 + 1]))),
    "slice_cols": ((3, 4), lambda x: _weighted(ag.slice_cols(x, 1, 3), _W32)),
    "reshape": ((3, 4), lambda x: _weighted(ag.reshape(x, (12,)), _V12)),
    "log": ((3, 4), lambda x: _weighted(ag.log(x), _W34)),
    "clamp_min": ((3, 4), lambda x: _weighted(ag.clamp_min(x, 0.2), _W34)),
    "take_per_row": ((3, 4), lambda x: ag.sum_all(ag.take_per_row(x, [2, 0, 3]))),
    "sum_all": ((3, 4), ag.sum_all),
}


@pytest.mark.parametrize("op_name", sorted(OP_SWEEP))
def test_every_op_matches_central_differences(op_name):
    shape, build = OP_SWEEP[op_name]
    values = np.random.default_rng(zlib.crc32(op_name.encode())).uniform(0.3, 1.5, shape)
    x = Tensor(values, requires_grad=True, dtype=np.float64)

    with Graph() as g:
        loss = build(x)
    grads = g.backward(loss)

    def rerun():
        with Graph():
            return float(build(x).data)

    fd = finite_difference(rerun, x.data)
    assert max_rel_err(grads[x], fd) < 1e-4, op_name
