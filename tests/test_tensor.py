import numpy as np
import pytest

import songflow.tensor as tensor_module
from conftest import fd_max_rel_error, random_tensor
from songflow.errors import ContractError, DimensionError
from songflow.tensor import (
    Tensor,
    add,
    add_row,
    attention,
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


def test_layer_norm_matches_two_pass_formula(rng):
    x = rng.standard_normal((2, 3, 7)) * 5.0 + 3.0
    gain, bias = rng.standard_normal(7), rng.standard_normal(7)
    xc = x - x.mean(axis=-1, keepdims=True)
    reference = xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5) * gain + bias
    out = layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
    assert np.allclose(out, reference, rtol=0, atol=1e-14)


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


def test_silu_matches_the_logaddexp_form():
    x = np.linspace(-40.0, 40.0, 80_001)
    s = np.exp(-np.logaddexp(0.0, -x))
    t = Tensor(x, requires_grad=True)
    out = silu(t)
    backward(sum_all(out))
    # within two ulps of max(1, |x|) everywhere; below -37 both forms are ~1e-15 or 0
    assert (np.abs(out.data - x * s) <= 4.5e-16 * np.maximum(1.0, np.abs(x))).all()
    assert np.abs(t.grad - s * (1.0 + x * (1.0 - s))).max() <= 1e-14


@pytest.mark.parametrize("lead", [(2,), (2, 3)])
def test_batched_ops_gradients_match_finite_differences(lead):
    """matmul, add_row, layer_norm and concat_channels over leading batch axes."""
    rng = np.random.default_rng(len(lead))
    T, d, k = 3, 4, 5
    x = random_tensor(rng, lead + (T, d))
    other = random_tensor(rng, lead + (T, 2))
    w = random_tensor(rng, (d, k))
    bias = random_tensor(rng, (k,))
    gain = random_tensor(rng, (d,))
    shift = random_tensor(rng, (d,))
    target = random_tensor(rng, lead + (T, d + k + 2), requires_grad=False)
    params = [x, other, w, bias, gain, shift]

    def build_loss():
        h = layer_norm(x, gain, shift)
        a = add_row(matmul(h, w), bias)
        return mse(concat_channels([h, silu(a), other]), target)

    assert fd_max_rel_error(build_loss, params) < 1e-6


def test_batched_ops_match_row_by_row(rng):
    x = random_tensor(rng, (3, 4, 5), requires_grad=False)
    w = random_tensor(rng, (5, 2), requires_grad=False)
    bias, gain = random_tensor(rng, (5,), False), random_tensor(rng, (5,), False)
    rows = [Tensor(x.data[b]) for b in range(3)]
    for batched, per_row in (
        (matmul(x, w), [matmul(r, w) for r in rows]),
        (add_row(x, bias), [add_row(r, bias) for r in rows]),
        (layer_norm(x, gain, bias), [layer_norm(r, gain, bias) for r in rows]),
        (concat_channels([x, x]), [concat_channels([r, r]) for r in rows]),
    ):
        assert np.allclose(batched.data, np.stack([r.data for r in per_row]), rtol=1e-14, atol=0)


def _attention_by_head(q, k, v, n_heads):
    """Reference: one (T, T) softmax per head from the 2-D primitives."""
    hd = q.data.shape[1] // n_heads
    outs = []
    for h in range(n_heads):
        lo, hi = h * hd, (h + 1) * hd
        qh, kh, vh = (slice_channels(a, lo, hi) for a in (q, k, v))
        weights = softmax_rows(scale(matmul(qh, transpose(kh)), 1.0 / np.sqrt(hd)))
        outs.append(matmul(weights, vh))
    return concat_channels(outs)


def test_attention_matches_per_head_reference(rng, monkeypatch):
    """Unshifted and shifted softmax, on and off the tape."""
    q, k, v = (random_tensor(rng, (6, 8), requires_grad=False) for _ in range(3))
    reference = _attention_by_head(q, k, v, 2).data
    for limit in (tensor_module._UNSHIFTED_EXP_LIMIT, -1.0):  # -1.0: always shift
        monkeypatch.setattr(tensor_module, "_UNSHIFTED_EXP_LIMIT", limit)
        for requires_grad in (False, True):
            q.requires_grad = requires_grad
            sink = []
            out = attention(q, k, v, 2, sink=sink)
            assert np.allclose(out.data, reference, rtol=0, atol=1e-14)
            assert len(sink) == 2 and all(w.shape == (6, 6) for w in sink)
            assert all(np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-14) for w in sink)


@pytest.mark.parametrize("requires_grad", [False, True])
def test_attention_large_scores_take_the_shifted_path(rng, requires_grad):
    """Scores near 1e3: exp would overflow without the row-max shift."""
    q, k, v = (Tensor(30.0 * rng.uniform(-1, 1, size=(2, 6, 8)), requires_grad) for _ in range(3))
    scores = np.einsum("btd,bsd->bts", q.data[..., :4], k.data[..., :4]) / 2.0
    assert np.abs(scores).max() > 710.0
    sink = []
    out = attention(q, k, v, 2, sink=sink)
    assert np.isfinite(out.data).all()
    assert len(sink) == 4
    assert all(np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-14) for w in sink)
    for b in range(2):
        reference = _attention_by_head(*(Tensor(a.data[b]) for a in (q, k, v)), 2).data
        assert np.allclose(out.data[b], reference, rtol=1e-13, atol=0)


@pytest.mark.parametrize("v_scale", [1e-290, 1.0, 1e290])
def test_attention_is_exact_on_both_sides_of_the_shift_limit(v_scale):
    """Score bounds B just under and over 700 - ln T - |ln max|v||, and over:
    the unshifted path neither overflows nor underflows (RuntimeWarning is an
    error in this suite) and both paths give the reference softmax."""
    edge = tensor_module._UNSHIFTED_EXP_LIMIT - np.log(2)
    v_edge = edge - abs(np.log(v_scale))
    for bound in (v_edge - 0.5, v_edge + 0.5, edge - 0.5, 1e3):
        a = np.sqrt(bound)
        q, k = Tensor([[a], [-a]]), Tensor([[a], [-a]])
        v = Tensor([[v_scale], [0.5 * v_scale]])
        out = attention(q, k, v, 1).data
        reference = _attention_by_head(q, k, v, 1).data
        assert np.isfinite(out).all()
        assert np.allclose(out, reference, rtol=1e-14, atol=0)


def test_attention_batch_rows_are_independent(rng):
    q, k, v = (random_tensor(rng, (3, 5, 6), requires_grad=False) for _ in range(3))
    sink = []
    out = attention(q, k, v, 3, sink=sink)
    assert len(sink) == 3 * 3
    for b in range(3):
        alone = attention(*(Tensor(a.data[b]) for a in (q, k, v)), 3)
        assert np.allclose(out.data[b], alone.data, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_attention_gradients_match_finite_differences(n_heads):
    rng = np.random.default_rng(n_heads)
    q, k, v = (random_tensor(rng, (2, 4, 8)) for _ in range(3))
    weights = Tensor(rng.uniform(-1, 1, size=(2, 4, 8)))
    assert fd_max_rel_error(
        lambda: sum_all(mul(attention(q, k, v, n_heads), weights)), [q, k, v]
    ) < 1e-6


def test_attention_shape_errors():
    x = Tensor(np.ones((4, 6)))
    with pytest.raises(DimensionError):
        attention(x, x, x, 4)
    with pytest.raises(DimensionError):
        attention(x, Tensor(np.ones((5, 6))), x, 2)
