"""Euler ODE sampling with dual classifier-free guidance.

The guided field combines three evaluations of the velocity model:

    v = v_u + cfg * (v_c - v_u) - cfg_n * (v_n - v_u)

where v_c is conditioned on the prompt bundle, v_u on the fully dropped
(unconditional) bundle, and v_n on the negative bundle (lyrics removed,
prompts replaced by negative text). Integration runs a forward Euler grid
t_k = k/steps from a seeded standard-normal draw to the t = 1 endpoint.

Each step runs one forward over the used guidance rows (see euler_sample),
stacked. Self-attention is the only op in it that mixes frames, so the
forward splits by query token: when the process may use two CPUs and can
fork, one worker process per request runs every row over the tokens
[ceil(T/2), T) while the caller runs [0, ceil(T/2)). In each block both
sides write their q, k and v tokens into one anonymous shared mmap, made
before the fork, and attend from their own queries over all T tokens, so
each row's softmax shift is decided from the whole row (see
tensor.attention). The worker's velocities come back through the same
mapping, so the guidance sum, the finite check and the step log's norm see
the whole field. No data passes through a pipe: a side tells the other that
its part is written with one byte on its pipe (a system call, which orders
the writes before it on any CPU) and waits for the other's byte by polling
its own non-blocking pipe, not by sleeping in a blocking read. Linux wakes a
sleeping reader on the writer's CPU, so with blocking reads two processes
share one CPU (a two-process split of this loop measured 1.05x of the
one-process time that way, against 0.71x with polling, T=256). Between
polls a side yields the CPU: that returns at once when nothing else wants
the CPU, and when the scheduler has put both sides on one CPU it runs the
other side instead of spinning out a time slice. The worker touches only
the model forward, the mapping and its two pipes and always leaves through
os._exit; a worker that dies is seen as the end of its pipe, and the caller
raises RuntimeError. fork copies only the calling thread, and
generate starts no other, so no lock the worker needs is held at the fork.
With one CPU, when T < 4, or when no mapping, pipe or process can be made,
the caller runs one full forward instead. Token-chunked GEMMs and row
reductions equal the full ones as long as each chunk has two or more rows,
so the latent and the step log are the same bytes whatever the CPU count; a
half of one token would make one-row products, which BLAS computes on its
matrix-vector path and rounds differently, hence the T >= 4 floor.
"""

from __future__ import annotations

import math
import mmap
import os
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
from .errors import ContractError, NumericAbort, ValidationError
from .lrc import LrcDocument
from .tensor import Tensor, attention

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
    if not (v_u.shape == v_c.shape == v_n.shape):
        raise ContractError(f"shapes differ: {v_u.shape}, {v_c.shape}, {v_n.shape}")
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
    if len(triple.rows) != 3:
        raise ContractError(f"need the three guidance rows, got {len(triple.rows)}")
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
    split = _start_split(model, cond, T, d_audio)
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
            split.close()
    return x, step_log


def _velocities(model, cond: ConditioningBundle, t: float, x: np.ndarray, **kw) -> np.ndarray:
    """The (rows, frames, d_audio) velocities of x's frames at time t under
    each row of cond; keyword arguments go to model.forward."""
    n = len(cond.rows)
    return model.forward(Tensor(np.broadcast_to(x, (n, *x.shape))), cond, [t] * n, **kw).data


def _start_split(model, cond: ConditioningBundle, T: int, d_audio: int) -> _TokenSplit | None:
    """A worker for the tokens [ceil(T/2), T) when this process may use a
    second CPU. None with one CPU, when T < 4 (see the module docstring),
    for a model that is not a VelocityModel (the split runs its blocks'
    halves), or when no mapping, pipe or process can be made: the caller
    then runs the full forward itself, to the same bytes."""
    if T < 4 or not isinstance(model, VelocityModel):
        return None
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return None
    if len(os.sched_getaffinity(0)) < 2:
        return None
    try:
        return _TokenSplit(model, cond, T, d_audio)
    except OSError:
        return None


class _TokenSplit:
    """A forked worker that runs the query tokens [ceil(T/2), T) of each
    step's forward while the caller runs [0, ceil(T/2)).

    The shared mapping holds, as float64: t; the worker's frames of x,
    (T - ceil(T/2), d_audio); two (3, rows, T, width) slots of q, k and v;
    and the worker's (rows, T - ceil(T/2), d_audio) velocities. Each side
    writes only its own tokens. Blocks use the two slots in turn, so a side
    writes into a slot again only after both sides have passed the next
    block's exchange, when neither can still be reading it. A step's bytes
    on the pipes run: the caller's "t and x are written", then one byte each
    way per block, then the worker's "velocities are written". velocities
    and close are the caller's; the worker runs _serve until the caller
    closes its pipe.
    """

    def __init__(self, model: VelocityModel, cond: ConditioningBundle, T: int, d_audio: int):
        n, half = len(cond.rows), (T + 1) // 2
        width = model.config.model_width
        shapes = [(1,), (T - half, d_audio), (2, 3, n, T, width), (n, T - half, d_audio)]
        self.model = model
        self._map = mmap.mmap(-1, 8 * sum(math.prod(shape) for shape in shapes))
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            self._map.close()
            raise
        to_worker_r, to_worker_w, to_caller_r, to_caller_w = fds
        flat = np.frombuffer(self._map, dtype=np.float64)
        offsets = np.cumsum([0] + [math.prod(shape) for shape in shapes])
        self.t, self.x, self.qkv, self.v = (
            flat[a:b].reshape(shape) for a, b, shape in zip(offsets, offsets[1:], shapes)
        )
        self.slots = [tuple(Tensor(a) for a in slot) for slot in self.qkv]
        self.slot = 0
        if pid == 0:
            status = 1  # an exception here too ends the pipe the caller reads
            try:
                os.close(to_worker_w)
                os.close(to_caller_r)
                self._recv, self._send = to_worker_r, to_caller_w
                os.set_blocking(self._recv, False)
                self.tokens = (half, T)
                self._serve(cond.window(slice(None), slice(half, T)))
                status = 0
            finally:
                os._exit(status)
        os.close(to_worker_r)
        os.close(to_caller_w)
        self._recv, self._send = to_caller_r, to_worker_w
        os.set_blocking(self._recv, False)
        self.pid = pid
        self.tokens = (0, half)
        self.cond = cond.window(slice(None), slice(0, half))

    def velocities(self, t: float, x: np.ndarray) -> np.ndarray:
        """The (rows, T, d_audio) velocities of x at time t: the caller's
        tokens from its own forward, the worker's from the mapping."""
        start, stop = self.tokens
        self.t[0] = t
        self.x[...] = x[stop:]
        self._signal()
        own = _velocities(self.model, self.cond, t, x[start:stop], attend=self._attend)
        self._wait()
        return np.concatenate([own, self.v], axis=1)

    def close(self) -> None:
        """End the worker's pipe, which it reads as its signal to exit, reap
        it, and unmap the shared memory."""
        os.close(self._send)
        os.close(self._recv)
        os.waitpid(self.pid, 0)
        self.t = self.x = self.qkv = self.v = self.slots = None
        self._map.close()

    def _serve(self, cond: ConditioningBundle) -> None:
        """The worker's loop: a forward of its tokens per step."""
        while self._poll():
            t = float(self.t[0])
            self.v[...] = _velocities(self.model, cond, t, self.x, attend=self._attend)
            self._signal()

    def _attend(self, block: Block, h: Tensor) -> Tensor:
        """The block's attention from this side's query tokens over all T:
        write the q, k and v of this side's tokens h into the block's slot,
        trade a byte with the other side, then attend. No local holds a view
        of the mapping while this waits, so close can unmap it after a
        RuntimeError."""
        start, stop = self.tokens
        self.slot ^= 1
        for i, part in enumerate(block.project(h)):
            self.qkv[self.slot, i, :, start:stop] = part.data
        self._signal()
        self._wait()
        return attention(*self.slots[self.slot], block.n_heads, queries=self.tokens)

    def _signal(self) -> None:
        try:
            os.write(self._send, b"\0")
        except BrokenPipeError:
            raise RuntimeError("the token-split worker exited mid-request") from None

    def _wait(self) -> None:
        if not self._poll():
            raise RuntimeError("the token-split worker exited mid-request")

    def _poll(self) -> bool:
        """Poll, yielding the CPU between reads, until the other side's byte
        arrives; False if its pipe ends first."""
        while True:
            try:
                return os.read(self._recv, 1) != b""
            except BlockingIOError:
                os.sched_yield()


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a finite array, finite whenever the true norm is.
    v is divided by the power of two just above max|v| before it is squared,
    and the norm multiplied back, so nothing overflows. Scaling by a power of
    two is exact, so wherever np.linalg.norm(v) neither overflows nor
    underflows the result is the same, bit for bit."""
    e = np.frexp(np.abs(v).max(initial=0.0))[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(v, -e)), e))
