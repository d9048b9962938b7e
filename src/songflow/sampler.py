"""Euler ODE sampling with dual classifier-free guidance.

The guided field combines three evaluations of the velocity model:

    v = v_u + cfg * (v_c - v_u) - cfg_n * (v_n - v_u)

where v_c is conditioned on the prompt bundle, v_u on the fully dropped
(unconditional) bundle, and v_n on the negative bundle (lyrics removed,
prompts replaced by negative text). Integration runs a forward Euler grid
t_k = k/steps from a seeded standard-normal draw to the t = 1 endpoint.

Each step runs one forward over the used guidance rows (see euler_sample),
stacked. Self-attention is the only op in it that mixes frames, so the
forward splits by query token: when `twin.start` gives a worker process (see
songflow.twin), it runs every row over the tokens [ceil(T/2), T) for the
whole request while the caller runs [0, ceil(T/2)). In each block both sides
write their q, k and v tokens into the twin's shared mapping and attend from
their own queries over all T tokens, so each row's softmax shift is decided
from the whole row (see tensor.attention). The worker's velocities come back
through the same mapping, so the guidance sum, the finite check and the step
log's norm see the whole field. The worker touches only the model forward
and the mapping. When T < 4, or when no worker runs, the caller runs one
full forward instead. Token-chunked GEMMs and row reductions equal the full
ones as long as each chunk has two or more rows, so the latent and the step
log are the same bytes whatever the CPU count; a half of one token would
make one-row products, which BLAS computes on its matrix-vector path and
rounds differently, hence the T >= 4 floor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .backbone import Block, VelocityModel
from .conditioning import (
    ConditioningBundle,
    ConditioningEncoder,
    ConditionRow,
    NegativePrompts,
    PromptSpec,
)
from .errors import NumericAbort, ValidationError
from .lrc import LrcDocument
from .tensor import Tensor, attention
from .twin import Twin, start

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
            raise ValidationError("guidance.steps must be >= 1")
        if self.seed < 0:
            raise ValidationError("guidance.seed must be >= 0")


def guided_velocity(
    v_u: np.ndarray, v_c: np.ndarray, v_n: np.ndarray, cfg: float, cfg_n: float
) -> np.ndarray:
    """v_u + cfg (v_c - v_u) - cfg_n (v_n - v_u). The cfg=1/cfg_n=0 and
    cfg=0/cfg_n=0 cases short-circuit so they reproduce v_c / v_u bit-exactly."""
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
    that order, encoded as one three-row bundle. Finite weights that
    overflow the text projection are a NumericAbort, as in sampling."""
    rows = (
        ConditionRow(spec, doc),
        ConditionRow(spec, doc, drop_global=True, drop_segment=True, drop_lyrics=True),
        build_negative_condition(spec, doc, defaults),
    )
    bundle = encoder.encode(rows, T)
    if not np.isfinite(bundle.e_text.data).all():
        raise NumericAbort("condition encoding left finite range")
    return bundle


def euler_sample(
    model, triple: ConditioningBundle, gc: GuidanceConfig, T: int, d_audio: int
) -> tuple[np.ndarray, list[dict]]:
    """Integrate from seeded noise to the t = 1 endpoint; returns the
    latent and the step log, one {"step", "t", "v_norm"} row per step.

    triple holds the conditional, unconditional and negative rows (see
    build_condition_triple). Only the rows that the guidance coefficients
    use are run, stacked in one forward per step, which two processes split
    by query token as the module docstring describes; the combination rule
    is unchanged either way.
    """
    need_c = gc.cfg != 0.0
    need_u = not (gc.cfg == 1.0 and gc.cfg_n == 0.0)
    need_n = gc.cfg_n != 0.0
    used = [i for i, need in enumerate((need_c, need_u, need_n)) if need]
    cond = triple.window(slice(used[0], used[-1] + 1))  # a run: n is never used without u
    rng = np.random.default_rng(gc.seed)
    x = rng.standard_normal((T, d_audio))
    h = 1.0 / gc.steps
    zero = np.zeros_like(x)
    step_log = []
    split = start(lambda: _TokenSplit(model, cond, T, d_audio)) if T >= 4 else None
    try:
        for k in range(gc.steps):
            t = k / gc.steps
            v_rows = _velocities(model, cond, t, x) if split is None else split.velocities(t, x)
            out = dict(zip(used, v_rows))
            v = guided_velocity(out.get(1, zero), out.get(0, zero), out.get(2, zero), gc.cfg, gc.cfg_n)
            x = x + h * v
            if not np.isfinite(x).all():
                raise NumericAbort("trajectory left finite range", step=k)
            step_log.append({"step": k, "t": t, "v_norm": _norm(v)})
    finally:
        if split is not None:
            split.twin.close()
    return x, step_log


def _velocities(model, cond: ConditioningBundle, t: float, x: np.ndarray, **kw) -> np.ndarray:
    """The (rows, frames, d_audio) velocities of x's frames at time t under
    each row of cond; keyword arguments go to model.forward."""
    n = cond.e_text.data.shape[0]
    return model.forward(Tensor(np.broadcast_to(x, (n, *x.shape))), cond, [t] * n, **kw).data


class _TokenSplit:
    """A forked worker that runs the query tokens [ceil(T/2), T) of each
    step's forward while the caller runs [0, ceil(T/2)).

    The twin's mapping holds, as float64: t; the worker's frames of x,
    (T - ceil(T/2), d_audio); two (3, rows, T, width) slots of q, k and v;
    and the worker's (rows, T - ceil(T/2), d_audio) velocities. Each side
    writes only its own tokens. Blocks use the two slots in turn, so a side
    writes into a slot again only after both sides have passed the next
    block's exchange, when neither can still be reading it. A step's bytes
    on the pipes run: the caller's "t and x are written", then one byte each
    way per block, then the worker's "velocities are written". velocities
    and twin.close are the caller's; the worker runs _serve once per step.
    """

    def __init__(self, model: VelocityModel, cond: ConditioningBundle, T: int, d_audio: int):
        n, half = cond.e_text.data.shape[0], (T + 1) // 2
        width = model.config.model_width
        self.model = model
        self.twin = Twin([(1,), (T - half, d_audio), (2, 3, n, T, width), (n, T - half, d_audio)])
        self.t, self.x, self.qkv, self.v = self.twin.arrays
        self.slots = [tuple(Tensor(a) for a in slot) for slot in self.qkv]
        self.slot = 0
        self.tokens = (half, T)  # the worker's: fork returns only in the caller
        worker_cond = cond.window(slice(None), slice(half, T))
        self.twin.fork(lambda: self._serve(worker_cond))
        self.tokens = (0, half)
        self.cond = cond.window(slice(None), slice(0, half))

    def velocities(self, t: float, x: np.ndarray) -> np.ndarray:
        """The (rows, T, d_audio) velocities of x at time t: the caller's
        tokens from its own forward, the worker's from the mapping."""
        start, stop = self.tokens
        self.t[0] = t
        self.x[...] = x[stop:]
        self.twin.signal()
        own = _velocities(self.model, self.cond, t, x[start:stop], attend=self._attend)
        self.twin.wait()
        return np.concatenate([own, self.v], axis=1)

    def _serve(self, cond: ConditioningBundle) -> None:
        """The worker's part of a step: a forward of its tokens."""
        self.v[...] = _velocities(self.model, cond, float(self.t[0]), self.x, attend=self._attend)

    def _attend(self, block: Block, h: Tensor) -> Tensor:
        """The block's attention from this side's query tokens over all T:
        write the q, k and v of this side's tokens h into the block's slot,
        trade a byte with the other side, then attend."""
        start, stop = self.tokens
        self.slot ^= 1
        for i, part in enumerate(block.project(h)):
            self.qkv[self.slot, i, :, start:stop] = part.data
        self.twin.signal()
        self.twin.wait()
        return attention(*self.slots[self.slot], block.n_heads, queries=self.tokens)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a finite array, finite whenever the true norm is.
    v is divided by the power of two just above max|v| before it is squared,
    and the norm multiplied back, so nothing overflows. Scaling by a power of
    two is exact, so wherever np.linalg.norm(v) neither overflows nor
    underflows the result is the same, bit for bit."""
    e = np.frexp(np.abs(v).max(initial=0.0))[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(v, -e)), e))
