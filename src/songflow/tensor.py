"""Dense float64 tensors with dynamic tape-based reverse-mode differentiation.

Each operation records its parents and a vector-Jacobian closure on the
result tensor, so the graph lives on the results themselves; there is no
global tape and independent graphs share no state. backward() walks the
recorded graph once in reverse topological order and accumulates into
`.grad` (repeated calls without zeroing keep accumulating).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError

__all__ = [
    "Tensor",
    "matmul",
    "transpose",
    "add",
    "sub",
    "mul",
    "scale",
    "add_row",
    "silu",
    "softmax_rows",
    "layer_norm",
    "concat_channels",
    "slice_channels",
    "split_channels",
    "mse",
    "sum_all",
    "backward",
    "zero_grads",
    "fan_in_uniform",
]


class Tensor:
    """A float64 array plus optional gradient and the recorded op that made it."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

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

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(m, k) @ (k, n) -> (m, n)."""
    _need_2d(a, "matmul")
    _need_2d(b, "matmul")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul: inner dims {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return _result(data, (a, b), vjp)


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


def sub(a: Tensor, b: Tensor) -> Tensor:
    _need_same_shape(a, b, "sub")

    def vjp(g):
        return g, -g

    return _result(a.data - b.data, (a, b), vjp)


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
    """Add a (d,) bias row to every row of a (T, d) tensor."""
    _need_2d(x, "add_row")
    if bias.data.ndim != 1 or bias.data.shape[0] != x.data.shape[1]:
        raise DimensionError(f"add_row: bias {bias.data.shape} vs rows of {x.data.shape}")

    def vjp(g):
        return g, g.sum(axis=0)

    return _result(x.data + bias.data, (x, bias), vjp)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    s = np.exp(-np.logaddexp(0.0, -x.data))  # stable sigmoid
    data = x.data * s

    def vjp(g):
        return (g * (s * (1.0 + x.data * (1.0 - s))),)

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
    """Per-row zero-mean unit-variance normalization of (T, d), then affine."""
    _need_2d(x, "layer_norm")
    d = x.data.shape[1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(f"layer_norm: gain/bias must be ({d},)")
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def vjp(g):
        dgain = (g * xhat).sum(axis=0)
        dbias = g.sum(axis=0)
        dxhat = g * gain.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        )
        return dx, dgain, dbias

    return _result(data, (x, gain, bias), vjp)


def concat_channels(parts: list[Tensor]) -> Tensor:
    """Concatenate (T, d_i) tensors along channels, preserving order."""
    if not parts:
        raise DimensionError("concat_channels: need at least one part")
    for p in parts:
        _need_2d(p, "concat_channels")
    T = parts[0].data.shape[0]
    if any(p.data.shape[0] != T for p in parts):
        raise DimensionError(
            f"concat_channels: leading lengths differ: {[p.data.shape for p in parts]}"
        )
    data = np.concatenate([p.data for p in parts], axis=1)
    offsets = np.cumsum([0] + [p.data.shape[1] for p in parts])

    def vjp(g):
        return tuple(g[:, offsets[i] : offsets[i + 1]].copy() for i in range(len(parts)))

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


def split_channels(x: Tensor, n: int) -> list[Tensor]:
    """Split a (T, d) tensor into n equal-width channel groups."""
    _need_2d(x, "split_channels")
    d = x.data.shape[1]
    if n < 1 or d % n != 0:
        raise DimensionError(f"split_channels: width {d} not divisible by {n}")
    w = d // n
    return [slice_channels(x, i * w, (i + 1) * w) for i in range(n)]


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


def sum_all(x: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    data = np.asarray(x.data.sum())

    def vjp(g):
        return (np.full_like(x.data, float(g)),)

    return _result(data, (x,), vjp)


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
    """Populate .grad on every requires_grad tensor reachable from a scalar loss."""
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ContractError("loss is not connected to any differentiable tensor")
    order = _topo_order(loss)
    gmap: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = gmap.get(id(node))
        if g is None:
            continue
        if node.grad is None:
            node.grad = g.copy()
        else:
            node.grad += g
        if node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = gmap.get(id(parent))
            if acc is None:
                gmap[id(parent)] = np.array(pg)  # own the buffer; vjps may return views
            else:
                acc += pg


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


def fan_in_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> Tensor:
    """Trainable weight drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    limit = 1.0 / np.sqrt(shape[0])
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)
