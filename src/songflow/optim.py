"""Bias-corrected adaptive-moment (Adam) updates plus gradient utilities."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import Tensor

__all__ = ["AdamState", "adam_init", "adam_step", "grad_norm", "clip_grad_norm"]


@dataclass
class AdamState:
    """Per-parameter first/second moments keyed by position in the param list."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


def adam_init(params: list[Tensor], learning_rate: float) -> AdamState:
    if learning_rate <= 0:
        raise ContractError("learning rate must be positive")
    return AdamState(
        learning_rate=learning_rate,
        m=[np.zeros_like(p.data) for p in params],
        v=[np.zeros_like(p.data) for p in params],
    )


def adam_step(params: list[Tensor], state: AdamState) -> None:
    """One in-place update. Gradients are left untouched; the caller zeroes them."""
    if len(params) != len(state.m):
        raise DimensionError(f"adam_step: {len(params)} params vs state for {len(state.m)}")
    for i, p in enumerate(params):
        if p.grad is None:
            raise ContractError(f"adam_step: parameter {i} has no gradient")
        if p.grad.shape != state.m[i].shape:
            raise DimensionError(f"adam_step: moment shape mismatch at parameter {i}")
    state.step += 1
    bc1 = 1.0 - state.beta1**state.step
    bc2 = 1.0 - state.beta2**state.step
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)


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
    if max_norm <= 0:
        raise ContractError("max_norm must be positive")
    norm = grad_norm(params)
    if norm > max_norm:
        factor = max_norm / norm
        for p in params:
            p.grad *= factor
    return norm
