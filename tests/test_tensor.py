import numpy as np
import pytest

from conftest import fd_max_rel_error, random_tensor
from songflow.errors import ContractError, DimensionError
from songflow.tensor import (
    Tensor,
    add,
    add_row,
    backward,
    concat_channels,
    layer_norm,
    matmul,
    mse,
    mul,
    scale,
    silu,
    slice_channels,
    softmax_rows,
    split_channels,
    sub,
    sum_all,
    transpose,
    zero_grads,
)


def test_tensor_rejects_non_finite():
    with pytest.raises(ContractError):
        Tensor([1.0, float("nan")])
    with pytest.raises(ContractError):
        Tensor([float("inf")])


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(eye, m).data, m.data)


def test_matmul_hand_value():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0], [4.0]])
    assert matmul(a, b).data.tolist() == [[11.0]]


def test_matmul_gradient_hand_value():
    a = Tensor([[1.0, 1.0]], requires_grad=True)
    b = Tensor([[2.0], [5.0]])
    backward(sum_all(matmul(a, b)))
    assert a.grad.tolist() == [[2.0, 5.0]]


def test_matmul_shape_error():
    with pytest.raises(DimensionError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_add_identity_and_silu_zero():
    x = Tensor([[1.0, -2.0]])
    assert np.array_equal(add(x, Tensor(np.zeros((1, 2)))).data, x.data)
    assert silu(Tensor([0.0])).data.tolist() == [0.0]


def test_elementwise_shape_errors():
    a, b = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3)))
    for op in (add, sub, mul, mse):
        with pytest.raises(DimensionError):
            op(a, b)


def test_silu_derivative_matches_finite_difference():
    x = Tensor([1.0], requires_grad=True)
    err = fd_max_rel_error(lambda: sum_all(silu(x)), [x], h=1e-5)
    assert err < 1e-5


def test_concat_empty_operand_is_identity():
    x = Tensor(np.arange(6.0).reshape(3, 2))
    empty = Tensor(np.zeros((3, 0)))
    assert np.array_equal(concat_channels([empty, x]).data, x.data)


def test_concat_hand_value_and_exact_slicing(rng):
    a = Tensor([[1.0], [2.0]])
    b = Tensor([[3.0], [4.0]])
    out = concat_channels([a, b])
    assert out.data.tolist() == [[1.0, 3.0], [2.0, 4.0]]
    parts = [random_tensor(rng, (5, d), requires_grad=False) for d in (3, 1, 4)]
    merged = concat_channels(parts)
    offset = 0
    for p in parts:
        w = p.data.shape[1]
        assert np.array_equal(merged.data[:, offset : offset + w], p.data)
        assert np.array_equal(slice_channels(merged, offset, offset + w).data, p.data)
        offset += w


def test_concat_gradient_routes_exact_slices(rng):
    parts = [random_tensor(rng, (4, d)) for d in (2, 3)]
    out = concat_channels(parts)
    weights = Tensor(rng.uniform(-1, 1, size=out.data.shape))
    backward(sum_all(mul(out, weights)))
    assert np.array_equal(parts[0].grad, weights.data[:, :2])
    assert np.array_equal(parts[1].grad, weights.data[:, 2:])


def test_concat_length_mismatch():
    with pytest.raises(DimensionError):
        concat_channels([Tensor(np.ones((2, 1))), Tensor(np.ones((3, 1)))])


def test_layer_norm_constant_row_is_zeroed():
    x = Tensor(np.full((2, 4), 3.7))
    out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_unit_variance_row():
    x = Tensor([[1.0, -1.0]])
    out = layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-4)


def test_mse_examples():
    x = Tensor([[1.0, 2.0]])
    assert mse(x, x).item() == 0.0
    assert mse(Tensor([0.0, 0.0]), Tensor([1.0, 1.0])).item() == 1.0
    pred = Tensor([2.0], requires_grad=True)
    backward(mse(pred, Tensor([0.0])))
    assert pred.grad.tolist() == [4.0]


def test_backward_linear_case():
    w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    backward(sum_all(w))
    assert w.grad.tolist() == [1.0, 1.0, 1.0]


def test_backward_requires_scalar():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        backward(add(w, w))


def test_backward_accumulates_without_reset():
    w = Tensor([1.0, 2.0], requires_grad=True)
    loss = sum_all(w)
    backward(loss)
    first = w.grad.copy()
    backward(loss)
    assert np.array_equal(w.grad, 2.0 * first)


def test_softmax_rows_sum_to_one(rng):
    x = Tensor(rng.uniform(-4, 4, size=(6, 5)))
    y = softmax_rows(x).data
    assert (y >= 0).all()
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-9)


def test_split_channels_roundtrip(rng):
    x = random_tensor(rng, (3, 6), requires_grad=False)
    parts = split_channels(x, 3)
    assert np.array_equal(concat_channels(parts).data, x.data)


@pytest.mark.parametrize("seed", range(20))
def test_gradients_match_finite_differences_on_random_instances(seed):
    """Composite graph touching every differentiable primitive."""
    rng = np.random.default_rng(seed)
    T = int(rng.integers(2, 8))
    d = int(rng.integers(2, 8))
    k = int(rng.integers(1, 8))
    x = random_tensor(rng, (T, d))
    w = random_tensor(rng, (d, k))
    bias = random_tensor(rng, (k,))
    gain = random_tensor(rng, (d,))
    shift = random_tensor(rng, (d,))
    other = random_tensor(rng, (T, k))
    target = random_tensor(rng, (T, d + k), requires_grad=False)
    params = [x, w, bias, gain, shift, other]

    def build_loss():
        h = layer_norm(x, gain, shift)
        a = add_row(matmul(h, w), bias)
        b = mul(silu(a), softmax_rows(other))
        c = softmax_rows(matmul(a, transpose(other)))
        d_ = matmul(c, sub(other, scale(b, 0.5)))
        merged = concat_channels([h, add(d_, b)])
        return mse(merged, target)

    assert fd_max_rel_error(build_loss, params) < 1e-4


def test_two_runs_are_deterministic(rng):
    x = random_tensor(rng, (4, 4), requires_grad=False)
    w = Tensor(x.data.copy())
    a = silu(matmul(x, transpose(x)))
    b = silu(matmul(w, transpose(w)))
    assert np.array_equal(a.data, b.data)


def test_no_graph_recorded_without_requires_grad(rng):
    x = random_tensor(rng, (3, 3), requires_grad=False)
    out = matmul(x, x)
    assert out._vjp is None and out._parents == ()
