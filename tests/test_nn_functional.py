"""Differentiable functions: gradcheck + semantic behavior."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import OperatorError
from repro.nn import functional as F
from repro.nn.gradcheck import check_gradients
from repro.nn.tensor import Tensor
from repro.utils.rng import make_rng
from tests import oracles

rng = make_rng(7)


def _param(*shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


@pytest.mark.parametrize(
    "fn",
    [F.relu, F.sigmoid, F.tanh, F.exp, F.log_sigmoid, lambda x: F.leaky_relu(x, 0.1)],
    ids=["relu", "sigmoid", "tanh", "exp", "log_sigmoid", "leaky_relu"],
)
def test_activation_gradients(fn):
    x = Tensor(rng.normal(size=(4, 3)) + 0.05, requires_grad=True)
    check_gradients(lambda: (fn(x) ** 2).sum(), [x], atol=1e-4)


def test_log_gradient():
    x = Tensor(np.abs(rng.normal(size=(3,))) + 0.5, requires_grad=True)
    check_gradients(lambda: F.log(x).sum(), [x])


def test_sigmoid_extreme_values_stable():
    x = Tensor(np.array([-1000.0, 0.0, 1000.0]))
    s = F.sigmoid(x).numpy()
    assert np.all(np.isfinite(s))
    np.testing.assert_allclose(s, [0.0, 0.5, 1.0], atol=1e-9)


def test_log_sigmoid_extreme_stable():
    x = Tensor(np.array([-500.0, 500.0]))
    out = F.log_sigmoid(x).numpy()
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(-500.0)
    assert out[1] == pytest.approx(0.0, abs=1e-9)


def test_softmax_rows_sum_to_one():
    x = _param(5, 4)
    s = F.softmax(x).numpy()
    np.testing.assert_allclose(s.sum(axis=1), 1.0)


def test_softmax_gradient():
    x = _param(3, 4)
    t = rng.normal(size=(3, 4))
    check_gradients(lambda: (F.softmax(x) * t).sum(), [x])


def test_log_softmax_matches_log_of_softmax():
    x = _param(3, 4)
    np.testing.assert_allclose(
        F.log_softmax(x).numpy(), np.log(F.softmax(x).numpy()), atol=1e-12
    )
    mult = rng.normal(size=(3, 4))
    check_gradients(lambda: (F.log_softmax(x) * mult).sum(), [x])


def test_concat_gradient():
    a = _param(2, 3)
    b = _param(2, 2)
    check_gradients(lambda: (F.concat([a, b], axis=-1) ** 2).sum(), [a, b])
    out = F.concat([a, b], axis=-1)
    assert out.shape == (2, 5)


def test_concat_axis0_gradient():
    a = _param(2, 3)
    b = _param(4, 3)
    check_gradients(lambda: (F.concat([a, b], axis=0) ** 2).sum(), [a, b])


def test_concat_empty_rejected():
    with pytest.raises(OperatorError):
        F.concat([])


def test_stack_gradient():
    a = _param(3)
    b = _param(3)
    check_gradients(lambda: (F.stack([a, b]) ** 2).sum(), [a, b])
    assert F.stack([a, b], axis=0).shape == (2, 3)


def test_dropout_eval_identity():
    x = _param(4, 4)
    out = F.dropout(x, 0.5, make_rng(0), training=False)
    assert out is x


def test_dropout_scales_kept_units():
    x = Tensor(np.ones((1000, 1)))
    out = F.dropout(x, 0.5, make_rng(1), training=True).numpy()
    # Inverted dropout preserves the mean.
    assert abs(out.mean() - 1.0) < 0.1
    assert set(np.unique(out)) <= {0.0, 2.0}


def test_dropout_rate_validation():
    with pytest.raises(OperatorError):
        F.dropout(_param(2), 1.0, make_rng(0))


def test_l2_normalize_rows():
    x = _param(4, 3)
    out = F.l2_normalize(x).numpy()
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0)
    mult = rng.normal(size=(4, 3))
    check_gradients(lambda: (F.l2_normalize(x) * mult).sum(), [x])


def test_sparse_matmul_matches_dense():
    a = sp.random(6, 6, density=0.4, random_state=0, format="csr")
    x = _param(6, 3)
    out = F.sparse_matmul(a, x)
    np.testing.assert_allclose(out.numpy(), a.toarray() @ x.data)
    check_gradients(lambda: (F.sparse_matmul(a, x) ** 2).sum(), [x])


def test_mean_rows_segmented():
    x = Tensor(np.arange(12, dtype=float).reshape(6, 2), requires_grad=True)
    out = F.mean_rows_segmented(x, 3)
    assert out.shape == (2, 2)
    np.testing.assert_allclose(out.numpy()[0], [2.0, 3.0])
    check_gradients(lambda: (F.mean_rows_segmented(x, 3) ** 2).sum(), [x])


def test_sum_rows_segmented():
    x = Tensor(np.arange(12, dtype=float).reshape(6, 2), requires_grad=True)
    out = F.sum_rows_segmented(x, 3)
    assert out.shape == (2, 2)
    np.testing.assert_allclose(out.numpy()[0], [6.0, 9.0])
    check_gradients(lambda: (F.sum_rows_segmented(x, 3) ** 2).sum(), [x])


def test_sum_rows_segmented_divisibility_checked():
    x = _param(5, 2)
    with pytest.raises(OperatorError):
        F.sum_rows_segmented(x, 2)


def test_max_rows_segmented():
    x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0], [0.0, 0.0], [4.0, 1.0]]), requires_grad=True)
    out = F.max_rows_segmented(x, 2)
    np.testing.assert_allclose(out.numpy(), [[3.0, 5.0], [4.0, 1.0]])
    check_gradients(lambda: (F.max_rows_segmented(x, 2) ** 2).sum(), [x])


def test_segment_divisibility_checked():
    x = _param(5, 2)
    with pytest.raises(OperatorError):
        F.mean_rows_segmented(x, 2)
    with pytest.raises(OperatorError):
        F.max_rows_segmented(x, 3)


# ---------------------------------------------------------------------- #
# Ragged (CSR-style) segment kernels
# ---------------------------------------------------------------------- #
RAGGED_OFFSETS = np.array([0, 3, 3, 7, 8, 12])  # includes an empty segment
SEGMENT_KERNELS = [
    (F.segment_sum, oracles.segment_sum),
    (F.segment_mean, oracles.segment_mean),
    (F.segment_max, oracles.segment_max),
    (F.segment_softmax, oracles.segment_softmax),
]
SEGMENT_IDS = ["sum", "mean", "max", "softmax"]


@pytest.mark.parametrize("kernel,oracle", SEGMENT_KERNELS, ids=SEGMENT_IDS)
@pytest.mark.parametrize("check", ["batched", "reference"])
def test_segment_kernel_gradients(kernel, oracle, check):
    # "batched": the kernel's backward against finite differences;
    # "reference": against the per-segment oracle's vector-Jacobian product.
    x = Tensor(make_rng(3).normal(size=(12, 4)), requires_grad=True)
    if check == "batched":
        check_gradients(lambda: (kernel(x, RAGGED_OFFSETS) ** 2).sum(), [x])
        return
    out = kernel(x, RAGGED_OFFSETS)
    (out**2).sum().backward()
    _, want = oracle(x.numpy(), RAGGED_OFFSETS, 2.0 * out.numpy())
    np.testing.assert_allclose(x.grad, want, atol=1e-12)


@pytest.mark.parametrize("kernel,oracle", SEGMENT_KERNELS, ids=SEGMENT_IDS)
def test_segment_backends_agree(kernel, oracle):
    # The vectorized kernel equals the per-segment oracle: values and the
    # gradient under an arbitrary upstream gradient.
    x = Tensor(make_rng(4).normal(size=(12, 4)), requires_grad=True)
    out = kernel(x, RAGGED_OFFSETS)
    g = make_rng(8).normal(size=out.shape)
    (out * Tensor(g)).sum().backward()
    want_out, want_grad = oracle(x.numpy(), RAGGED_OFFSETS, g)
    np.testing.assert_allclose(out.numpy(), want_out, atol=1e-12)
    np.testing.assert_allclose(x.grad, want_grad, atol=1e-12)


def test_segment_sum_values_and_empty_segment():
    x = Tensor(np.arange(8, dtype=float).reshape(4, 2))
    out = F.segment_sum(x, np.array([0, 1, 1, 4])).numpy()
    np.testing.assert_allclose(out, [[0.0, 1.0], [0.0, 0.0], [12.0, 15.0]])
    out = F.segment_mean(x, np.array([0, 1, 1, 4])).numpy()
    np.testing.assert_allclose(out, [[0.0, 1.0], [0.0, 0.0], [4.0, 5.0]])
    out = F.segment_max(x, np.array([0, 1, 1, 4])).numpy()
    np.testing.assert_allclose(out, [[0.0, 1.0], [0.0, 0.0], [6.0, 7.0]])


def test_segment_softmax_normalizes_within_segments():
    x = Tensor(make_rng(5).normal(size=(12, 1)), requires_grad=True)
    s = F.segment_softmax(x, RAGGED_OFFSETS).numpy()
    assert s.shape == (12, 1)
    for lo, hi in zip(RAGGED_OFFSETS[:-1], RAGGED_OFFSETS[1:]):
        if hi > lo:
            np.testing.assert_allclose(s[lo:hi].sum(), 1.0)
    # Single-row segment comes out as exactly one.
    np.testing.assert_allclose(s[7], 1.0)


@pytest.mark.parametrize(
    "ragged,fixed",
    [
        (F.segment_sum, F.sum_rows_segmented),
        (F.segment_mean, F.mean_rows_segmented),
        (F.segment_max, F.max_rows_segmented),
    ],
    ids=["sum", "mean", "max"],
)
def test_segment_matches_fixed_fanout_on_uniform_segments(ragged, fixed):
    x = Tensor(make_rng(6).normal(size=(12, 3)), requires_grad=True)
    uniform = np.arange(0, 13, 4)
    out_r = ragged(x, uniform)
    out_f = fixed(x, 4)
    np.testing.assert_allclose(out_r.numpy(), out_f.numpy(), atol=1e-12)
    x.zero_grad()
    (out_r**2).sum().backward()
    g_r = x.grad.copy()
    x.zero_grad()
    (out_f**2).sum().backward()
    np.testing.assert_allclose(g_r, x.grad, atol=1e-12)


def test_segment_offsets_validation():
    x = _param(6, 2)
    with pytest.raises(OperatorError):
        F.segment_sum(x, np.array([1, 3, 6]))  # does not start at 0
    with pytest.raises(OperatorError):
        F.segment_sum(x, np.array([0, 4, 3, 6]))  # not monotone
    with pytest.raises(OperatorError):
        F.segment_sum(x, np.array([0, 3, 5]))  # does not cover all rows
    with pytest.raises(OperatorError):
        F.segment_sum(Tensor(np.zeros(6)), np.array([0, 6]))  # 1-D input
