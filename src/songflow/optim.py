"""Bias-corrected adaptive-moment (Adam) updates plus the global gradient norm.

Training's flat layout is owned here: `adam_init` lays the parameters' values
and gradients out as views of two flat buffers, in list order, which the
moments share, so each step runs once over all parameters. `generate`,
`eval` and standalone tensors keep one array per parameter."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .tensor import Tensor

__all__ = ["AdamState", "adam_init", "adam_step", "grad_norm"]

BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """The flat layout `adam_init` made: each parameter's data and grad are
    consecutive views of `values` and `grads`, in list order, as are `m` and `v`."""

    learning_rate: float
    values: np.ndarray
    grads: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_init(
    params: list[Tensor], learning_rate: float, values: np.ndarray | None = None
) -> AdamState:
    """Copy the values into the layout and rebind each `p.data` and `p.grad`
    (zeroed) to its views. The values go into `values` when given, a flat
    float64 array of the parameters' total size that is no view of another
    array (such as one over a shared mapping), and a new array otherwise."""
    size = sum(p.data.size for p in params)
    values = np.empty(size) if values is None else values
    grads = np.zeros(size)
    start = 0
    for p in params:
        stop = start + p.data.size
        values[start:stop] = p.data.reshape(-1)
        p.data = values[start:stop].reshape(p.data.shape)
        p.grad = grads[start:stop].reshape(p.data.shape)
        start = stop
    return AdamState(learning_rate, values, grads, np.zeros(size), np.zeros(size))


def adam_step(params: list[Tensor], state: AdamState) -> None:
    """One in-place update. Gradients are left untouched; the caller zeroes them.

    Each elementwise operation of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    p -= lr (m / bc1) / (sqrt(v / bc2) + eps) runs once over the flat layout,
    in the per-parameter order, so the bytes equal a per-parameter loop's. A
    parameter whose data or grad has left the layout is a ContractError."""
    for p in params:
        if p.data.base is not state.values or p.grad is None or p.grad.base is not state.grads:
            raise ContractError("adam_step: a parameter has left the flat layout of adam_init")
    state.step += 1
    bc1 = 1.0 - BETA1**state.step
    bc2 = 1.0 - BETA2**state.step
    m, v, g = state.m, state.v, state.grads
    update = np.multiply(g, 1.0 - BETA1)
    m *= BETA1
    m += update
    v *= BETA2
    sq = np.multiply(g, g)
    sq *= 1.0 - BETA2
    v += sq
    np.divide(m, bc1, out=update)
    update *= state.learning_rate
    np.divide(v, bc2, out=sq)
    np.sqrt(sq, out=sq)
    sq += EPSILON
    update /= sq
    state.values -= update


def grad_norm(params: list[Tensor]) -> float:
    """Global L2 norm of all gradients in one pass: NaN or inf when any entry
    is (or when the sum of squares overflows)."""
    total = 0.0
    for p in params:
        total += float(np.vdot(p.grad, p.grad))
    return float(np.sqrt(total))
