"""Bias-corrected adaptive-moment (Adam) updates plus gradient utilities."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import Tensor

__all__ = ["AdamState", "adam_init", "adam_step", "grad_norm", "clip_grad_norm"]


@dataclass
class AdamState:
    """First and second moments, each one flat buffer over all parameters in
    list order (`flat_m`, `flat_v`); m[i] and v[i] are parameter i's views."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    flat_m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    flat_v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


def _views(flat: np.ndarray, params: list[Tensor]) -> list[np.ndarray]:
    views, start = [], 0
    for p in params:
        stop = start + p.data.size
        views.append(flat[start:stop].reshape(p.data.shape))
        start = stop
    return views


def adam_init(params: list[Tensor], learning_rate: float) -> AdamState:
    size = sum(p.data.size for p in params)
    flat_m, flat_v = np.zeros(size), np.zeros(size)
    return AdamState(
        learning_rate=learning_rate,
        flat_m=flat_m,
        flat_v=flat_v,
        m=_views(flat_m, params),
        v=_views(flat_v, params),
    )


def adam_step(params: list[Tensor], state: AdamState) -> None:
    """One in-place update. Gradients are left untouched; the caller zeroes them.

    The gradients are gathered into one flat array, and each elementwise
    operation of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2,
    p -= lr (m / bc1) / (sqrt(v / bc2) + eps) runs once over all of them, in
    the per-parameter order, so the bytes equal a per-parameter loop's."""
    if len(params) != len(state.m):
        raise DimensionError(f"adam_step: {len(params)} params vs state for {len(state.m)}")
    grads = []
    for i, (p, m) in enumerate(zip(params, state.m)):
        if p.grad.shape != m.shape:
            raise DimensionError(f"adam_step: moment shape mismatch at parameter {i}")
        grads.append(p.grad)
    state.step += 1
    if not params:
        return
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    m, v = state.flat_m, state.flat_v
    g = np.concatenate(grads, axis=None)
    update = np.multiply(g, 1.0 - b1)
    m *= b1
    m += update
    v *= b2
    g *= g
    g *= 1.0 - b2
    v += g
    np.divide(m, bc1, out=update)
    update *= state.learning_rate
    np.divide(v, bc2, out=g)
    np.sqrt(g, out=g)
    g += state.epsilon
    update /= g
    for p, delta in zip(params, _views(update, params)):
        p.data -= delta


def grad_norm(params: list[Tensor]) -> float:
    """Global L2 norm of all gradients in one pass: NaN or inf when any entry
    is (or when the sum of squares overflows)."""
    total = 0.0
    for p in params:
        if p.grad is None:
            raise ContractError("grad_norm: parameter has no gradient")
        total += float(np.vdot(p.grad, p.grad))
    return float(np.sqrt(total))


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    """Scale all gradients jointly so their global L2 norm is at most max_norm."""
    norm = grad_norm(params)
    if norm > max_norm:
        factor = max_norm / norm
        for p in params:
            p.grad *= factor
    return norm
