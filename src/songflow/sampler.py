"""Euler ODE sampling with dual classifier-free guidance.

The guided field combines three evaluations of the velocity model:

    v = v_u + cfg * (v_c - v_u) - cfg_n * (v_n - v_u)

where v_c is conditioned on the prompt bundle, v_u on the fully dropped
(unconditional) bundle, and v_n on the negative bundle (lyrics removed,
prompts replaced by negative text). Integration runs a forward Euler grid
t_k = k/steps from a seeded standard-normal draw to the t = 1 endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .conditioning import (
    ConditioningBundle,
    ConditioningEncoder,
    ConditionRow,
    NegativePrompts,
    PromptSpec,
)
from .errors import ContractError, DimensionError, NumericAbort
from .lrc import LrcDocument
from .tensor import Tensor

__all__ = [
    "GuidanceConfig",
    "guided_velocity",
    "build_negative_condition",
    "build_condition_triple",
    "euler_sample",
]


@dataclass(frozen=True)
class GuidanceConfig:
    cfg: float = 3.0
    cfg_n: float = 1.0
    steps: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ContractError("steps must be >= 1")


def guided_velocity(
    v_u: np.ndarray, v_c: np.ndarray, v_n: np.ndarray, cfg: float, cfg_n: float
) -> np.ndarray:
    """v_u + cfg (v_c - v_u) - cfg_n (v_n - v_u). The cfg=1/cfg_n=0 and
    cfg=0/cfg_n=0 cases short-circuit so they reproduce v_c / v_u bit-exactly."""
    if not (v_u.shape == v_c.shape == v_n.shape):
        raise DimensionError(f"shapes differ: {v_u.shape}, {v_c.shape}, {v_n.shape}")
    if cfg_n == 0.0:
        if cfg == 1.0:
            return v_c.copy()
        if cfg == 0.0:
            return v_u.copy()
    return v_u + cfg * (v_c - v_u) - cfg_n * (v_n - v_u)


def build_negative_condition(
    spec: PromptSpec, doc: LrcDocument | None, defaults: NegativePrompts
) -> ConditionRow:
    """Lyrics zeroed; the global prompt and every segment's text replaced by
    negative text (the spec's own negative prompts when present, else the
    defaults). Segment windows are preserved exactly."""
    negative = spec.negative or defaults
    neg_spec = PromptSpec(
        global_text=negative.global_text,
        segments=tuple(replace(s, text=negative.segment_text) for s in spec.segments),
        negative=None,
        duration_s=spec.duration_s,
    )
    return ConditionRow(neg_spec, doc, drop_lyrics=True)


def build_condition_triple(
    encoder: ConditioningEncoder, spec: PromptSpec, doc: LrcDocument | None, T: int,
    defaults: NegativePrompts,
) -> ConditioningBundle:
    """The conditional, fully-dropped unconditional and negative rows, in
    that order, encoded as one three-row bundle."""
    rows = (
        ConditionRow(spec, doc),
        ConditionRow(spec, doc, drop_global=True, drop_segment=True, drop_lyrics=True),
        build_negative_condition(spec, doc, defaults),
    )
    return encoder.encode(rows, T)


def euler_sample(
    model, triple: ConditioningBundle, gc: GuidanceConfig, T: int, d_audio: int
) -> tuple[np.ndarray, list[dict]]:
    """Integrate from seeded noise to the t = 1 endpoint; returns the
    latent and the step log, one {"step", "t", "v_norm"} row per step.

    triple holds the conditional, unconditional and negative rows (see
    build_condition_triple). Only the rows that the guidance coefficients
    use are stacked, and each step runs them in one forward; the
    combination rule is unchanged either way.
    """
    if len(triple.rows) != 3:
        raise DimensionError(f"need the three guidance rows, got {len(triple.rows)}")
    need_c = gc.cfg != 0.0
    need_u = not (gc.cfg == 1.0 and gc.cfg_n == 0.0)
    need_n = gc.cfg_n != 0.0
    used = [i for i, need in enumerate((need_c, need_u, need_n)) if need]
    cond = triple if len(used) == 3 else triple.take(used)
    rng = np.random.default_rng(gc.seed)
    x = rng.standard_normal((T, d_audio))
    h = 1.0 / gc.steps
    zero = np.zeros_like(x)
    step_log = []
    for k in range(gc.steps):
        t = k / gc.steps
        xt = Tensor(np.broadcast_to(x, (len(used), T, d_audio)))
        out = dict(zip(used, model.forward(xt, cond, [t] * len(used)).data))
        v = guided_velocity(out.get(1, zero), out.get(0, zero), out.get(2, zero), gc.cfg, gc.cfg_n)
        x = x + h * v
        if not np.isfinite(x).all():
            raise NumericAbort("trajectory left finite range", step=k)
        step_log.append({"step": k, "t": t, "v_norm": float(np.linalg.norm(v))})
    return x, step_log
