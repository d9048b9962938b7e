"""Dense float64 tensors with dynamic tape-based reverse-mode differentiation.

Each operation that a gradient can flow through records a small graph node
on its result: the node's parents (each parent's own node, a leaf tensor
that requires grad, or None for a parent that needs no gradient) and a
vector-Jacobian closure. There is no global tape and independent graphs
share no state. The node does not hold the result's array, and a closure
keeps only the arrays its vjp reads, so an intermediate array lives only as
long as the caller or a closure holds it; a tensor the caller still holds
keeps its data. backward() walks the nodes once in reverse topological
order and consumes them: each node's closure and parent links are dropped
as soon as its vjp has run, so the arrays it saved are freed during the
walk, and a graph can be walked once. Gradients are kept on leaves only
(tensors with no recorded op, such as parameters and inputs); an
intermediate result's `.grad` stays None. Backward calls on separate graphs
keep accumulating into the leaves in place, so a `.grad` that is a view of
`optim.adam_init`'s flat layout stays one; only a None `.grad` gets a copy.

Activations may carry leading batch axes: `matmul`, `add_row`, `layer_norm`,
`concat_channels` and `attention` act on the last one or two axes of a
(..., T, d) tensor, so a (B, T, d) batch and a single (T, d) sample take
the same path. Weights, biases and gains stay 1-D or 2-D, and their
gradients sum over every leading axis.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

__all__ = [
    "Tensor",
    "matmul",
    "transpose",
    "add",
    "mul",
    "scale",
    "add_row",
    "silu",
    "softmax_rows",
    "layer_norm",
    "concat_channels",
    "slice_channels",
    "attention",
    "mse",
    "backward",
    "zero_grads",
    "fan_in_uniform",
]


class _Node:
    """One recorded op: its parents' graph links and its vjp, which maps the
    result's gradient to one gradient (or None) per parent. A parent link is
    the parent's node, a leaf Tensor that requires grad, or None."""

    __slots__ = ("parents", "vjp", "__weakref__")

    def __init__(self, parents: tuple, vjp):
        self.parents = parents
        self.vjp = vjp


class Tensor:
    """A float64 array plus optional gradient and the node of the op that made it."""

    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

    def __init__(self, values, requires_grad: bool = False):
        data = np.asarray(values, dtype=np.float64)
        if not np.isfinite(data).all():
            raise ContractError("tensor values must be finite (NaN/Inf is an error state)")
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple["Tensor", ...], vjp) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = True
        out.grad = None
        out._node = _Node(tuple(_link(p) for p in parents), vjp)
        return out


def _link(parent: Tensor):
    """What a node keeps of a parent: its node, the leaf itself, or None."""
    if parent._node is not None:
        return parent._node
    return parent if parent.requires_grad else None


def _result(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Wrap an op result, recording the graph only when a parent needs grad."""
    if any(p.requires_grad for p in parents):
        return Tensor._from_op(data, parents, vjp)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    out._node = None
    return out


def _need_2d(x: Tensor, op: str) -> None:
    if x.data.ndim != 2:
        raise ContractError(f"{op} needs a 2-D tensor, got shape {x.data.shape}")


def _need_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ContractError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


# -----------------------------------------------------------------------------
# Primitive operations
# -----------------------------------------------------------------------------


def matmul(x: Tensor, w: Tensor) -> Tensor:
    """(..., m, k) @ (k, n) -> (..., m, n): one GEMM over all leading rows."""
    _need_2d(w, "matmul")
    if x.data.ndim < 2 or x.data.shape[-1] != w.data.shape[0]:
        raise ContractError(f"matmul: inner dims {x.data.shape} @ {w.data.shape}")
    k, n = w.data.shape
    shape = x.data.shape
    x2 = x.data.reshape(-1, k)
    data = (x2 @ w.data).reshape(shape[:-1] + (n,))
    # Each operand is kept only for the other's gradient.
    w_data = w.data if x.requires_grad else None
    x2 = x2 if w.requires_grad else None

    def vjp(g):
        g2 = g.reshape(-1, n)
        gx = (g2 @ w_data.T).reshape(shape) if w_data is not None else None
        return gx, x2.T @ g2 if x2 is not None else None

    return _result(data, (x, w), vjp)


def transpose(x: Tensor) -> Tensor:
    _need_2d(x, "transpose")
    data = x.data.T.copy()

    def vjp(g):
        return (g.T,)

    return _result(data, (x,), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape(a, b, "add")

    def vjp(g):
        return g, g

    return _result(a.data + b.data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape(a, b, "mul")
    a_data, b_data = a.data, b.data

    def vjp(g):
        return g * b_data, g * a_data

    return _result(a_data * b_data, (a, b), vjp)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar."""
    c = float(c)
    if not np.isfinite(c):
        raise ContractError("scale factor must be finite")

    def vjp(g):
        return (g * c,)

    return _result(x.data * c, (x,), vjp)


def add_row(x: Tensor, bias: Tensor) -> Tensor:
    """Add a (d,) bias row to every row of a (..., d) tensor."""
    d = x.data.shape[-1] if x.data.ndim >= 2 else -1
    if bias.data.shape != (d,):
        raise ContractError(f"add_row: bias {bias.data.shape} vs rows of {x.data.shape}")

    def vjp(g):
        return g, g.reshape(-1, d).sum(axis=0)

    return _result(x.data + bias.data, (x, bias), vjp)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x), with sigmoid(x) = (1 + tanh(x / 2)) / 2: nothing
    overflows, and the temporaries are updated in place."""
    x_data = x.data
    s = np.multiply(x_data, 0.5)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    data = x_data * s

    def vjp(g):
        d = 1.0 - s
        d *= x_data
        d += 1.0
        d *= s
        d *= g
        return (d,)

    return _result(data, (x,), vjp)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a (T, n) tensor."""
    _need_2d(x, "softmax_rows")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        return (y * (g - (g * y).sum(axis=1, keepdims=True)),)

    return _result(y, (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row zero-mean unit-variance normalization of (..., d) (1e-5 is
    added to the variance), then affine."""
    d = x.data.shape[-1] if x.data.ndim >= 2 else -1
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ContractError(f"layer_norm: gain/bias must be ({d},) for rows of {x.data.shape}")
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = np.einsum("...d,...d->...", xhat, xhat)[..., None]
    var /= d
    var += 1e-5
    inv = 1.0 / np.sqrt(var)
    xhat *= inv
    gain_data = gain.data
    data = xhat * gain_data
    data += bias.data

    def vjp(g):
        # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = g * gain,
        # evaluated in that order in two full-size arrays.
        scratch = g * xhat
        dgain = scratch.reshape(-1, d).sum(axis=0)
        dbias = g.reshape(-1, d).sum(axis=0)
        dx = g * gain_data
        mean_dx = dx.mean(axis=-1, keepdims=True)
        np.multiply(dx, xhat, out=scratch)
        mean_dx_xhat = scratch.mean(axis=-1, keepdims=True)
        dx -= mean_dx
        np.multiply(xhat, mean_dx_xhat, out=scratch)
        dx -= scratch
        dx *= inv
        return dx, dgain, dbias

    return _result(data, (x, gain, bias), vjp)


def concat_channels(parts: list[Tensor]) -> Tensor:
    """Concatenate (..., d_i) tensors along channels, preserving order."""
    if not parts:
        raise ContractError("concat_channels: need at least one part")
    lead = parts[0].data.shape[:-1]
    if len(lead) < 1 or any(p.data.shape[:-1] != lead for p in parts):
        raise ContractError(
            f"concat_channels: leading shapes differ: {[p.data.shape for p in parts]}"
        )
    data = np.concatenate([p.data for p in parts], axis=-1)
    offsets = np.cumsum([0] + [p.data.shape[-1] for p in parts])

    def vjp(g):
        return tuple(g[..., start:stop] for start, stop in zip(offsets[:-1], offsets[1:]))

    return _result(data, tuple(parts), vjp)


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    """Channel range [start, stop) of a (T, d) tensor."""
    _need_2d(x, "slice_channels")
    shape = x.data.shape
    if not (0 <= start <= stop <= shape[1]):
        raise ContractError(f"slice_channels: [{start}, {stop}) outside width {shape[1]}")
    data = x.data[:, start:stop].copy()

    def vjp(g):
        full = np.zeros(shape)
        full[:, start:stop] = g
        return (full,)

    return _result(data, (x,), vjp)


# Largest B + ln T + |ln max|v|| for which attention skips the row-max shift;
# ln of the largest double is 709.78 and of the smallest normal one -708.40.
_UNSHIFTED_EXP_LIMIT = 700.0


def attention(
    q: Tensor, k: Tensor, v: Tensor, n_heads: int, sink: list | None = None,
    queries: tuple[int, int] | None = None,
) -> Tensor:
    """Multi-head scaled dot-product self-attention over (..., T, d) inputs.

    Head h reads channels [h*d/H, (h+1)*d/H) of q, k and v and writes the
    same channels of the output; its scores are scaled by 1/sqrt(d/H) (folded
    into q) and softmaxed over the keys. Heads are strided (N, H, T, d/H)
    views (N the product of the leading axes), and the output and the
    gradients are written through such views of (..., T, d) arrays, so no
    head is split or merged by a copy: the node keeps the scaled q, views of
    k and v and the (N, H, T, T) weights, and not the unscaled q. On the
    tape all weight blocks are computed at once and kept for the backward
    pass; off the tape they are computed one at a time in one reused (T, T)
    buffer. A given sink gets a copy of each head's normalized (T, T)
    weights, leading index first.

    The row-max shift of the softmax is skipped when a bound shows it is not
    needed. It is decided for each leading row n on its own, so a row's output
    does not depend on the rows batched with it; below, every max runs over
    all heads of one row n. With q scaled, B = sqrt(max_t |q_t|^2 *
    max_t |k_t|^2) bounds every score to [-B, B] (Cauchy-Schwarz). Unshifted,
    exp(s) lies in [e^-B, e^B], a row sum in [e^-B, T e^B] and an entry of
    exp(S) V within T e^B max|v|. So when B + ln T + |ln max|v|| <= 700,
    nothing overflows, every exp(s) is a normal double, and a product
    exp(s) v_j that falls below the normal range moves its row's output by
    less than T 2^-1074 e^B, far below the rounding error eps max|v| of that
    output (the row sum is at least e^-B). The softmax is then the same up
    to rounding with or without the shift. Any larger bound, an all-zero v
    or a non-finite input takes the shifted path.

    Off the tape, exp(S) V is formed first and its (T, hd) rows are divided
    by the row sums, so the (T, T) weights are never scaled. On the tape the
    weights are normalized in place, since the backward pass reads them.

    Off the tape, queries=(start, stop) computes only the output of query
    tokens [start, stop), a (..., stop - start, d) result whose weight blocks
    are (stop - start, T). q, k and v still hold all T tokens, so the shift
    is decided from the whole row. For a range of two or more tokens those
    output rows are the same bytes as the same rows of the full result:
    token-chunked GEMMs and row reductions equal the full ones, but a
    one-row product takes BLAS's matrix-vector path, whose sums round
    differently. A token-split forward (see sampler) relies on this.
    """
    _need_same_shape(q, k, "attention")
    _need_same_shape(q, v, "attention")
    shape = q.data.shape
    if len(shape) < 2 or n_heads < 1 or shape[-1] % n_heads != 0:
        raise ContractError(f"attention: {shape} does not split into {n_heads} heads")
    T, d = shape[-2:]
    hd = d // n_heads
    c = 1.0 / np.sqrt(hd)
    taped = q.requires_grad or k.requires_grad or v.requires_grad
    start, stop = (0, T) if queries is None else queries
    if taped and queries is not None:
        raise ContractError("attention: a query range is for the off-tape path only")

    def heads(a):  # (..., rows, d) -> (N, H, rows, hd), a view of a contiguous a
        return a.reshape(-1, a.shape[-2], n_heads, hd).transpose(0, 2, 1, 3)

    qh, kh, vh = heads(q.data * c), heads(k.data), heads(v.data)
    bound = np.sqrt(np.einsum("nhtd,nhtd->nht", qh, qh).max(axis=(1, 2), initial=0.0))
    bound *= np.sqrt(np.einsum("nhtd,nhtd->nht", kh, kh).max(axis=(1, 2), initial=0.0))
    vmax = np.maximum(vh.max(axis=(1, 2, 3), initial=0.0), -vh.min(axis=(1, 2, 3), initial=0.0))
    # ln max|v| of an all-zero or NaN row is left at inf, so that row shifts
    ln_vmax = np.log(vmax, out=np.full(vmax.shape, np.inf), where=vmax > 0)
    shift = ~(bound + np.log(T) + np.abs(ln_vmax) <= _UNSHIFTED_EXP_LIMIT)
    data = np.empty(shape[:-2] + (stop - start, d))
    out = heads(data)
    if taped:
        probs = np.matmul(qh, kh.swapaxes(-1, -2))
        for n in np.flatnonzero(shift):
            probs[n] -= probs[n].max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs *= 1.0 / probs.sum(axis=-1, keepdims=True)
        np.matmul(probs, vh, out=out)
        if sink is not None:
            sink.extend(probs.reshape(-1, T, T).copy())
    else:
        probs = None
        scores = np.empty((stop - start, T))
        for i in np.ndindex(out.shape[:2]):
            np.matmul(qh[i][start:stop], kh[i].T, out=scores)
            if shift[i[0]]:
                scores -= scores.max(axis=-1, keepdims=True)
            np.exp(scores, out=scores)
            total = scores.sum(axis=-1, keepdims=True)
            np.matmul(scores, vh[i], out=out[i])
            out[i] /= total
            if sink is not None:
                sink.append(scores / total)

    def vjp(g):
        gh = heads(g)
        dq, dk, dv = np.empty(shape), np.empty(shape), np.empty(shape)
        np.matmul(probs.swapaxes(-1, -2), gh, out=heads(dv))
        ds = np.matmul(gh, vh.swapaxes(-1, -2))
        ds -= (ds * probs).sum(axis=-1, keepdims=True)
        ds *= probs
        dqh = heads(dq)
        np.matmul(ds, kh, out=dqh)
        dqh *= c
        np.matmul(ds.swapaxes(-1, -2), qh, out=heads(dk))
        return dq, dk, dv

    return _result(data, (q, k, v), vjp)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared elementwise difference, as a scalar tensor."""
    _need_same_shape(pred, target, "mse")
    diff = pred.data - target.data
    n = diff.size
    data = np.asarray((diff * diff).mean())

    def vjp(g):
        gd = (2.0 / n) * diff * g
        return gd, -gd

    return _result(data, (pred, target), vjp)


# -----------------------------------------------------------------------------
# Reverse pass
# -----------------------------------------------------------------------------


def _consumed(g):
    """The vjp a node keeps once backward has consumed it."""
    raise ContractError("backward reached a node that an earlier backward consumed")


def _topo_order(root) -> list:
    """The nodes and leaves reachable from root (a node or a leaf), parents
    before children, via iterative DFS."""
    order: list = []
    seen: set[int] = set()
    stack: list[tuple[object, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if isinstance(node, _Node):
            for p in node.parents:
                if p is not None and id(p) not in seen:
                    stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d loss / d leaf into .grad of every requires_grad leaf
    (a tensor with no recorded op) reachable from a scalar loss, consuming
    the graph as it goes.

    The walk runs over nodes, not tensors: a node keeps its parents' links
    and the arrays its vjp reads, never its result, so a result the caller
    dropped was freed during the forward unless a vjp reads it, while a
    tensor the caller still holds keeps its data. Intermediate results keep
    grad None. Once a node's vjp has run, its vjp and parent links are
    dropped, so the arrays the vjp saved, and the node itself once nothing
    else holds it, are freed before the walk goes on. A consumed node's vjp
    becomes `_consumed`. A backward whose graph reaches a consumed node,
    such as a second backward on the same loss, raises ContractError before
    any gradient moves. Leaves keep accumulating across backward calls on
    separate graphs, in place; a first contribution is copied only into a
    None `.grad`.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ContractError("loss is not connected to any differentiable tensor")
    root = loss if loss._node is None else loss._node
    order = _topo_order(root)
    if any(isinstance(node, _Node) and node.vjp is _consumed for node in order):
        _consumed(None)  # raises before any gradient moves
    # A vjp may return views of g or one array for two parents (add), so
    # arrays in gmap are never written into: sums are formed out of place.
    gmap: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    while order:
        node = order.pop()
        g = gmap.pop(id(node), None)
        if g is None:
            continue
        if isinstance(node, Tensor):  # a leaf
            if node.grad is None:
                node.grad = np.array(g)
            else:
                node.grad += g
            continue
        vjp, parents = node.vjp, node.parents
        node.vjp, node.parents = _consumed, ()
        for parent, pg in zip(parents, vjp(g)):
            if parent is None or pg is None:
                continue
            acc = gmap.get(id(parent))
            if acc is not None:
                gmap[id(parent)] = acc + pg
            else:
                gmap[id(parent)] = pg


def zero_grads(tensors) -> None:
    """Zero each gradient in place: a view stays a view, and None stays None."""
    for t in tensors:
        if t.grad is not None:
            t.grad.fill(0.0)


def fan_in_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> Tensor:
    """Trainable weight drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    limit = 1.0 / np.sqrt(shape[0])
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)
