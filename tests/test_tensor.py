import tracemalloc
import weakref

import numpy as np
import pytest

import songflow.tensor as tensor_module
from conftest import fd_max_rel_error, random_tensor
from songflow.errors import ContractError
from songflow.optim import grad_norm
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
    transpose,
)


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(eye, m).data, m.data)


def test_matmul_hand_value():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0], [4.0]])
    assert matmul(a, b).data.tolist() == [[11.0]]


def _zeros_like(x):
    return Tensor(np.zeros(x.data.shape))


def test_matmul_gradient_hand_value():
    a = Tensor([[1.0, 1.0]], requires_grad=True)
    b = Tensor([[2.0], [5.0]])
    out = matmul(a, b)  # [[7]], so d mse(out, 0) / d out = 14
    backward(mse(out, _zeros_like(out)))
    assert a.grad.tolist() == [[28.0, 70.0]]


def test_matmul_shape_error():
    with pytest.raises(ContractError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_add_identity_and_silu_zero():
    x = Tensor([[1.0, -2.0]])
    assert np.array_equal(add(x, Tensor(np.zeros((1, 2)))).data, x.data)
    assert silu(Tensor([0.0])).data.tolist() == [0.0]


def test_elementwise_shape_errors():
    a, b = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3)))
    for op in (add, mul, mse):
        with pytest.raises(ContractError):
            op(a, b)


def test_silu_derivative_matches_finite_difference():
    x = Tensor([1.0], requires_grad=True)
    err = fd_max_rel_error(lambda: mse(silu(x), _zeros_like(x)), [x], h=1e-5)
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
    backward(mse(out, _zeros_like(out)))
    for part in parts:  # d mse(out, 0) / d out = (2 / n) out, sliced back exactly
        assert np.array_equal(part.grad, (2.0 / out.data.size) * part.data)


def test_concat_length_mismatch():
    with pytest.raises(ContractError):
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
    assert float(mse(x, x).data) == 0.0
    assert float(mse(Tensor([0.0, 0.0]), Tensor([1.0, 1.0])).data) == 1.0
    pred = Tensor([2.0], requires_grad=True)
    backward(mse(pred, Tensor([0.0])))
    assert pred.grad.tolist() == [4.0]


def test_backward_linear_case():
    w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    backward(mse(w, _zeros_like(w)))
    assert w.grad.tolist() == [2.0 / 3.0, 4.0 / 3.0, 2.0]


def test_backward_requires_scalar():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        backward(add(w, w))


def test_backward_accumulates_without_reset():
    """Two fresh graphs of the same loss add their gradients in the leaf."""
    w = Tensor([1.0, 2.0], requires_grad=True)
    backward(mse(w, _zeros_like(w)))
    first = w.grad.copy()
    backward(mse(w, _zeros_like(w)))
    assert np.array_equal(w.grad, 2.0 * first)


def test_backward_consumes_its_graph(rng):
    """A walked graph cannot be walked again: a second backward on the same
    loss, or one whose graph reaches a consumed tensor, raises before any
    leaf gradient moves."""
    x = random_tensor(rng, (3, 4))
    w = random_tensor(rng, (4, 2))
    h = matmul(x, w)
    loss = mse(silu(h), _zeros_like(h))
    backward(loss)
    grads = x.grad.copy(), w.grad.copy()
    assert h._node.vjp is tensor_module._consumed and h._node.parents == ()
    with pytest.raises(ContractError, match="consumed"):
        backward(loss)
    with pytest.raises(ContractError, match="consumed"):
        backward(mse(add(h, matmul(x, w)), _zeros_like(h)))
    assert np.array_equal(x.grad, grads[0]) and np.array_equal(w.grad, grads[1])


def test_backward_frees_each_node_before_its_parents_vjp_runs(rng):
    """The walk drops a node once its vjp has run: while the caller still
    holds the loss, the node of silu(h) is gone by the time h's own vjp is
    called."""
    h = silu(random_tensor(rng, (3, 4)))
    a = silu(h)
    loss = mse(a, _zeros_like(a))
    probe = weakref.ref(a._node)
    del a
    vjp, alive = h._node.vjp, []

    def checking_vjp(g):
        alive.append(probe() is not None)
        return vjp(g)

    h._node.vjp = checking_vjp
    backward(loss)
    assert alive == [False]


def test_a_dropped_result_no_vjp_reads_is_freed_during_the_forward(rng):
    """add and layer_norm read none of their inputs' arrays, so a sum the
    caller drops is freed before backward, while a sum the caller holds
    keeps its data; the leaf gradients are the same either way."""
    x, w, gain, bias = (random_tensor(rng, shape) for shape in ((3, 4), (4, 4), (4,), (4,)))
    params = [x, w, gain, bias]

    def build(keep: bool):
        total = add(matmul(x, w), x)
        out = layer_norm(total, gain, bias)
        return mse(out, _zeros_like(out)), total if keep else weakref.ref(total)

    loss, probe = build(keep=False)
    assert probe() is None and loss._node is not None
    backward(loss)
    dropped = [p.grad.copy() for p in params]
    for p in params:
        p.grad = None
    loss, total = build(keep=True)
    backward(loss)
    assert np.array_equal(total.data, matmul(x, w).data + x.data)
    assert all(np.array_equal(p.grad, g) for p, g in zip(params, dropped))


def test_a_node_keeps_no_parent_that_needs_no_gradient(rng):
    x = random_tensor(rng, (3, 4))
    c = random_tensor(rng, (3, 4), requires_grad=False)
    s = silu(x)
    assert mul(s, c)._node.parents == (s._node, None)
    assert mul(x, c)._node.parents == (x, None)  # a leaf that needs grad is its own link


def test_backward_keeps_gradients_on_leaves_only(rng):
    x = random_tensor(rng, (3, 4))
    w = random_tensor(rng, (4, 2))
    h = matmul(x, w)
    a = silu(h)
    loss = mse(a, _zeros_like(a))
    backward(loss)
    assert x.grad is not None and w.grad is not None
    assert h.grad is None and a.grad is None and loss.grad is None
    s = 0.5 * (1.0 + np.tanh(0.5 * h.data))
    g_a = (2.0 / a.data.size) * a.data
    expected = (g_a * s * (1.0 + h.data * (1.0 - s))) @ w.data.T
    assert np.allclose(x.grad, expected, rtol=0, atol=1e-15)


def test_leaf_gradients_own_their_memory():
    """add hands one array to both parents; each leaf gets its own copy, so
    the next backward's in-place accumulation reaches each gradient exactly
    once."""
    a = Tensor([1.5, 0.5], requires_grad=True)
    b = Tensor([0.5, 1.5], requires_grad=True)
    for _ in range(2):
        total = add(a, b)  # [2, 2], so each pass adds [2, 2] to each leaf's gradient
        backward(mse(total, _zeros_like(total)))
        assert not np.shares_memory(a.grad, b.grad)
    assert grad_norm([a, b]) == 8.0
    assert a.grad.tolist() == b.grad.tolist() == [4.0, 4.0]


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
        d_ = matmul(c, add(other, scale(b, -0.5)))
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
    assert out._node is None


def test_silu_matches_the_logaddexp_form():
    x = np.linspace(-40.0, 40.0, 80_001)
    s = np.exp(-np.logaddexp(0.0, -x))
    t = Tensor(x, requires_grad=True)
    out = silu(t)
    backward(mse(out, _zeros_like(out)))
    # within two ulps of max(1, |x|) everywhere; below -37 both forms are ~1e-15 or 0
    assert (np.abs(out.data - x * s) <= 4.5e-16 * np.maximum(1.0, np.abs(x))).all()
    g_out = (2.0 / x.size) * out.data
    assert (np.abs(t.grad - g_out * s * (1.0 + x * (1.0 - s))) <= 1e-14 * np.abs(g_out)).all()


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
    """Row 0's scores pass the shift limit and rows 1 and 2 stay below it:
    each row's shift is its own, so on and off the tape every row matches
    itself run alone."""
    row_scale = np.array([30.0, 1.0, 1.0])[:, None, None]
    q, k, v = (row_scale * rng.uniform(-1, 1, (3, 5, 6)) for _ in range(3))
    scores = np.einsum("btd,bsd->bts", q[..., :2], k[..., :2]) / np.sqrt(2.0)
    assert np.abs(scores[0]).max() > tensor_module._UNSHIFTED_EXP_LIMIT
    assert np.abs(scores[1:]).max() < 1.0
    for requires_grad in (False, True):
        sink = []
        out = attention(*(Tensor(a, requires_grad) for a in (q, k, v)), 3, sink=sink)
        assert len(sink) == 3 * 3
        for b in range(3):
            alone = attention(*(Tensor(a[b], requires_grad) for a in (q, k, v)), 3)
            assert np.array_equal(out.data[b], alone.data)


def test_attention_query_range_gives_the_full_rows(rng):
    """Off the tape, a query range of two or more tokens computes those rows
    of the full result, bytes included, with the shift still decided from
    all tokens: row 0's q is large only outside the first ranges. On the
    tape a range is refused."""
    q, k, v = (rng.uniform(-1, 1, (3, 9, 8)) for _ in range(3))
    q[0, 6:] *= 1e3
    full = attention(Tensor(q), Tensor(k), Tensor(v), 2).data
    for start, stop in ((0, 5), (5, 9), (2, 4), (0, 9)):
        part = attention(Tensor(q), Tensor(k), Tensor(v), 2, queries=(start, stop)).data
        assert np.array_equal(part, full[:, start:stop])
    with pytest.raises(ContractError):
        attention(Tensor(q, True), Tensor(k), Tensor(v), 2, queries=(0, 5))


def test_attention_on_the_tape_keeps_no_head_copies(rng):
    """The node holds its output, the scaled q and the (N, H, T, T) weights;
    k and v are read through views of the parents' own data, and the output
    is written in place, not merged from a head-split copy."""
    q, k, v = (random_tensor(rng, (2, 64, 32)) for _ in range(3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = attention(q, k, v, 2)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    weights = 2 * 2 * 64 * 64 * 8
    assert out._node is not None
    # 8 KiB for the node and its closure; head-split k and v would add 64 KiB
    assert held <= 2 * q.data.nbytes + weights + 8192, (held, q.data.nbytes, weights)


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_attention_gradients_match_finite_differences(n_heads):
    rng = np.random.default_rng(n_heads)
    q, k, v = (random_tensor(rng, (2, 4, 8)) for _ in range(3))
    target = Tensor(rng.uniform(-1, 1, size=(2, 4, 8)))
    assert fd_max_rel_error(lambda: mse(attention(q, k, v, n_heads), target), [q, k, v]) < 1e-8


def test_attention_shape_errors():
    x = Tensor(np.ones((4, 6)))
    with pytest.raises(ContractError):
        attention(x, x, x, 4)
    with pytest.raises(ContractError):
        attention(x, Tensor(np.ones((5, 6))), x, 2)
