"""Dense float64 tensors with dynamic tape-based reverse-mode differentiation.

Each operation records its parents and a vector-Jacobian closure on the
result tensor, so the graph lives on the results themselves; there is no
global tape and independent graphs share no state. backward() walks the
recorded graph once in reverse topological order. Gradients are kept on
leaves only (tensors with no recorded op, such as parameters and inputs);
an intermediate result's gradient is freed as soon as its vjp has run, so
its `.grad` stays None. Repeated calls without zeroing keep accumulating
into the leaves. Dropping the loss frees the whole graph.

Activations may carry leading batch axes: `matmul`, `add_row`, `layer_norm`,
`concat_channels` and `attention` act on the last one or two axes of a
(..., T, d) tensor, so a (B, T, d) batch and a single (T, d) sample take
the same path. Weights, biases and gains stay 1-D or 2-D, and their
gradients sum over every leading axis.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError

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


class Tensor:
    """A float64 array plus optional gradient and the recorded op that made it."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "__weakref__")

    def __init__(self, values, requires_grad: bool = False):
        data = np.asarray(values, dtype=np.float64)
        if not np.isfinite(data).all():
            raise ContractError("tensor values must be finite (NaN/Inf is an error state)")
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple["Tensor", ...], vjp) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = True
        out.grad = None
        out._parents = parents
        out._vjp = vjp
        return out


def _result(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Wrap an op result, recording the graph only when a parent needs grad."""
    if any(p.requires_grad for p in parents):
        return Tensor._from_op(data, parents, vjp)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    out._parents = ()
    out._vjp = None
    return out


def _need_2d(x: Tensor, op: str) -> None:
    if x.data.ndim != 2:
        raise DimensionError(f"{op} needs a 2-D tensor, got shape {x.data.shape}")


def _need_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


# -----------------------------------------------------------------------------
# Primitive operations
# -----------------------------------------------------------------------------


def matmul(x: Tensor, w: Tensor) -> Tensor:
    """(..., m, k) @ (k, n) -> (..., m, n): one GEMM over all leading rows."""
    _need_2d(w, "matmul")
    if x.data.ndim < 2 or x.data.shape[-1] != w.data.shape[0]:
        raise DimensionError(f"matmul: inner dims {x.data.shape} @ {w.data.shape}")
    k, n = w.data.shape
    x2 = x.data.reshape(-1, k)
    data = (x2 @ w.data).reshape(x.data.shape[:-1] + (n,))

    def vjp(g):
        g2 = g.reshape(-1, n)
        gx = (g2 @ w.data.T).reshape(x.data.shape) if x.requires_grad else None
        return gx, x2.T @ g2 if w.requires_grad else None

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

    def vjp(g):
        return g * b.data, g * a.data

    return _result(a.data * b.data, (a, b), vjp)


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
        raise DimensionError(f"add_row: bias {bias.data.shape} vs rows of {x.data.shape}")

    def vjp(g):
        return g, g.reshape(-1, d).sum(axis=0)

    return _result(x.data + bias.data, (x, bias), vjp)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x), with sigmoid(x) = (1 + tanh(x / 2)) / 2: nothing
    overflows, and the temporaries are updated in place."""
    s = np.multiply(x.data, 0.5)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    data = x.data * s

    def vjp(g):
        d = 1.0 - s
        d *= x.data
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


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row zero-mean unit-variance normalization of (..., d), then affine."""
    d = x.data.shape[-1] if x.data.ndim >= 2 else -1
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(f"layer_norm: gain/bias must be ({d},) for rows of {x.data.shape}")
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = np.einsum("...d,...d->...", xhat, xhat)[..., None]
    var /= d
    var += eps
    inv = 1.0 / np.sqrt(var)
    xhat *= inv
    data = xhat * gain.data
    data += bias.data

    def vjp(g):
        # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = g * gain,
        # evaluated in that order in two full-size arrays.
        scratch = g * xhat
        dgain = scratch.reshape(-1, d).sum(axis=0)
        dbias = g.reshape(-1, d).sum(axis=0)
        dx = g * gain.data
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
        raise DimensionError("concat_channels: need at least one part")
    lead = parts[0].data.shape[:-1]
    if len(lead) < 1 or any(p.data.shape[:-1] != lead for p in parts):
        raise DimensionError(
            f"concat_channels: leading shapes differ: {[p.data.shape for p in parts]}"
        )
    data = np.concatenate([p.data for p in parts], axis=-1)
    offsets = np.cumsum([0] + [p.data.shape[-1] for p in parts])

    def vjp(g):
        return tuple(g[..., offsets[i] : offsets[i + 1]] for i in range(len(parts)))

    return _result(data, tuple(parts), vjp)


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    """Channel range [start, stop) of a (T, d) tensor."""
    _need_2d(x, "slice_channels")
    d = x.data.shape[1]
    if not (0 <= start <= stop <= d):
        raise DimensionError(f"slice_channels: [{start}, {stop}) outside width {d}")
    data = x.data[:, start:stop].copy()

    def vjp(g):
        full = np.zeros_like(x.data)
        full[:, start:stop] = g
        return (full,)

    return _result(data, (x,), vjp)


# Largest B + ln T + |ln max|v|| for which attention skips the row-max shift;
# ln of the largest double is 709.78 and of the smallest normal one -708.40.
_UNSHIFTED_EXP_LIMIT = 700.0


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, sink: list | None = None) -> Tensor:
    """Multi-head scaled dot-product self-attention over (..., T, d) inputs.

    Head h reads channels [h*d/H, (h+1)*d/H) of q, k and v and writes the
    same channels of the output; its scores are scaled by 1/sqrt(d/H) (folded
    into q) and softmaxed over the keys. Heads and leading axes are one array
    axis of (T, T) score blocks. On the tape every block is kept for the
    backward pass and all are computed at once; off the tape the blocks are
    computed one at a time in a single reused buffer. A given sink gets a
    copy of each head's normalized (T, T) weights, leading index first.

    The row-max shift of the softmax is skipped when a bound shows it is not
    needed. With q scaled, B = sqrt(max_t |q_t|^2 * max_t |k_t|^2) over every
    head's rows bounds every score to [-B, B] (Cauchy-Schwarz). Unshifted,
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
    """
    _need_same_shape(q, k, "attention")
    _need_same_shape(q, v, "attention")
    shape = q.data.shape
    if len(shape) < 2 or n_heads < 1 or shape[-1] % n_heads != 0:
        raise DimensionError(f"attention: {shape} does not split into {n_heads} heads")
    T, d = shape[-2:]
    hd = d // n_heads
    c = 1.0 / np.sqrt(hd)

    def split(a):  # (..., T, d) -> (N*H, T, hd)
        return a.reshape(-1, T, n_heads, hd).transpose(0, 2, 1, 3).reshape(-1, T, hd)

    def merge(a):  # (N*H, T, hd) -> (..., T, d)
        return a.reshape(-1, n_heads, T, hd).transpose(0, 2, 1, 3).reshape(shape)

    qh, kh, vh = split(q.data * c), split(k.data), split(v.data)
    n = qh.shape[0]
    bound = np.sqrt(np.einsum("ntd,ntd->nt", qh, qh).max(initial=0.0)) * np.sqrt(
        np.einsum("ntd,ntd->nt", kh, kh).max(initial=0.0)
    )
    vmax = max(v.data.max(initial=0.0), -v.data.min(initial=0.0))
    shift = not (vmax > 0 and bound + np.log(T) + abs(np.log(vmax)) <= _UNSHIFTED_EXP_LIMIT)
    record = q.requires_grad or k.requires_grad or v.requires_grad
    probs = np.empty((n, T, T)) if record else None
    chunk = n if record else 1
    scores = None
    out = np.empty_like(qh)
    for i in range(0, n, chunk):
        rows = slice(i, i + chunk)
        scores = np.matmul(qh[rows], kh[rows].transpose(0, 2, 1), out=probs if record else scores)
        if shift:
            scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        total = scores.sum(axis=-1, keepdims=True)
        if record:
            scores *= 1.0 / total
            np.matmul(scores, vh[rows], out=out[rows])
        else:
            np.matmul(scores, vh[rows], out=out[rows])
            out[rows] /= total
        if sink is not None:
            sink.extend(scores.copy() if record else scores / total)

    def vjp(g):
        gh = split(g)
        dv = np.matmul(probs.transpose(0, 2, 1), gh)
        ds = np.matmul(gh, vh.transpose(0, 2, 1))
        ds -= (ds * probs).sum(axis=-1, keepdims=True)
        ds *= probs
        dq = np.matmul(ds, kh)
        dq *= c
        return merge(dq), merge(np.matmul(ds.transpose(0, 2, 1), qh)), merge(dv)

    return _result(merge(out), (q, k, v), vjp)


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


def _topo_order(root: Tensor) -> list[Tensor]:
    """Parents-before-children order via iterative DFS."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d loss / d leaf into .grad of every requires_grad leaf
    (a tensor with no recorded op) reachable from a scalar loss.

    Intermediate results keep grad None: each one's gradient is dropped as
    soon as its vjp has run. The graph itself stays intact, so calling
    backward again on the same loss adds the same gradients to the leaves.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ContractError("loss is not connected to any differentiable tensor")
    order = _topo_order(loss)
    # A vjp may return views of g or one array for two parents (add), so
    # arrays in gmap are never written into: sums are formed out of place,
    # and a leaf's first contribution is copied, since .grad is its own.
    gmap: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = gmap.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.grad is None:
                node.grad = g
            else:
                node.grad += g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = gmap.get(id(parent))
            if acc is not None:
                gmap[id(parent)] = acc + pg
            else:
                gmap[id(parent)] = np.array(pg) if parent._vjp is None else pg


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


def fan_in_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> Tensor:
    """Trainable weight drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    limit = 1.0 / np.sqrt(shape[0])
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)
