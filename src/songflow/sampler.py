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

from .conditioning import ConditioningBundle, ConditioningEncoder, NegativePrompts, PromptSpec
from .errors import ContractError, DimensionError, NumericAbort
from .lrc import LrcDocument
from .tensor import Tensor

__all__ = [
    "GuidanceConfig",
    "ConditionTriple",
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


@dataclass
class ConditionTriple:
    conditional: ConditioningBundle
    unconditional: ConditioningBundle
    negative: ConditioningBundle

    def __post_init__(self):
        shapes = {
            (b.e_text.data.shape, b.e_lyrics.data.shape)
            for b in (self.conditional, self.unconditional, self.negative)
        }
        if len(shapes) != 1:
            raise DimensionError("the three bundles must share T and channel widths")


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
    encoder: ConditioningEncoder,
    spec: PromptSpec,
    doc: LrcDocument | None,
    T: int,
    defaults: NegativePrompts = NegativePrompts(),
) -> ConditioningBundle:
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
    return encoder.encode(neg_spec, doc, T, drop_lyrics=True)


def build_condition_triple(
    encoder: ConditioningEncoder,
    spec: PromptSpec,
    doc: LrcDocument | None,
    T: int,
    defaults: NegativePrompts = NegativePrompts(),
) -> ConditionTriple:
    """Conditional, fully-dropped unconditional, and negative bundles."""
    return ConditionTriple(
        conditional=encoder.encode(spec, doc, T),
        unconditional=encoder.encode(
            spec, doc, T, drop_global=True, drop_segment=True, drop_lyrics=True
        ),
        negative=build_negative_condition(encoder, spec, doc, T, defaults),
    )


def euler_sample(
    model,
    triple: ConditionTriple,
    gc: GuidanceConfig,
    T: int,
    d_audio: int,
    step_log: list | None = None,
) -> np.ndarray:
    """Integrate from seeded noise to the t = 1 endpoint.

    Branches whose guidance coefficient makes them unused are skipped; the
    combination rule is unchanged either way.
    """
    rng = np.random.default_rng(gc.seed)
    x = rng.standard_normal((T, d_audio))
    h = 1.0 / gc.steps
    need_c = gc.cfg != 0.0
    need_n = gc.cfg_n != 0.0
    need_u = not (gc.cfg == 1.0 and gc.cfg_n == 0.0)
    for k in range(gc.steps):
        t = k / gc.steps
        xt = Tensor(x)
        v_c = model.forward(xt, triple.conditional, t).data if need_c else None
        v_u = model.forward(xt, triple.unconditional, t).data if need_u else None
        v_n = model.forward(xt, triple.negative, t).data if need_n else None
        zero = np.zeros_like(x)
        v = guided_velocity(
            v_u if v_u is not None else zero,
            v_c if v_c is not None else zero,
            v_n if v_n is not None else zero,
            gc.cfg,
            gc.cfg_n,
        )
        x = x + h * v
        if not np.isfinite(x).all():
            raise NumericAbort("trajectory left finite range", step=k)
        if step_log is not None:
            step_log.append({"step": k, "t": t, "v_norm": float(np.linalg.norm(v))})
    return x
