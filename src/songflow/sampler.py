"""Euler ODE sampling with dual classifier-free guidance.

The guided field combines three evaluations of the velocity model:

    v = v_u + cfg * (v_c - v_u) - cfg_n * (v_n - v_u)

where v_c is conditioned on the prompt bundle, v_u on the fully dropped
(unconditional) bundle, and v_n on the negative bundle (lyrics removed,
prompts replaced by negative text). Integration runs a forward Euler grid
t_k = k/steps from a seeded standard-normal draw to the t = 1 endpoint.

Each step's used guidance rows (see euler_sample) form two fixed groups: the
caller keeps the first ceil(n/2) rows and the rest form the second group, so
(cfg 3, cfg_n 1) runs {c, u} + {n} and (2, 0) runs {c} + {u}. When the
process may use two CPUs and can fork, one worker process per request runs
the second group: each step the caller writes t and x to one pipe, runs its
own group, and reads the worker's (rows, T, d_audio) velocities from the
other. Both sides wait by polling a non-blocking pipe, not by sleeping in a
blocking read: Linux wakes a sleeping reader on the writer's CPU, so with
blocking reads the two processes shared one CPU and a request ran no faster
(1.05x of the one-process time against 0.71x with polling, T=256). The
worker touches only the model forward and its two pipes and always leaves
through os._exit; a worker that dies is seen as the end of its pipe, and
the caller raises RuntimeError. fork copies only the calling thread, and
generate starts no other, so no lock the worker needs is held at the fork.
With one CPU, or when no pipe or process can be made, the caller runs the
same two groups one after the other. Either way every forward has the same rows,
and attention decides its row-max shift per row, so the latent and the step
log are the same bytes whatever the CPU count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .conditioning import (
    ConditioningBundle,
    ConditioningEncoder,
    ConditionRow,
    NegativePrompts,
    PromptSpec,
)
from .errors import DimensionError, NumericAbort, ValidationError
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
            raise ValidationError("guidance.steps must be >= 1")
        if self.seed < 0:
            raise ValidationError("guidance.seed must be >= 0")


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
    use are run, in the two groups the module docstring describes; the
    combination rule is unchanged either way.
    """
    if len(triple.rows) != 3:
        raise DimensionError(f"need the three guidance rows, got {len(triple.rows)}")
    need_c = gc.cfg != 0.0
    need_u = not (gc.cfg == 1.0 and gc.cfg_n == 0.0)
    need_n = gc.cfg_n != 0.0
    used = [i for i, need in enumerate((need_c, need_u, need_n)) if need]
    half = (len(used) + 1) // 2
    own = triple.take(used[:half])
    rest = triple.take(used[half:]) if half < len(used) else None
    rng = np.random.default_rng(gc.seed)
    x = rng.standard_normal((T, d_audio))
    h = 1.0 / gc.steps
    zero = np.zeros_like(x)
    step_log = []
    worker = _start_worker(model, rest, x.shape)
    try:
        for k in range(gc.steps):
            t = k / gc.steps
            if worker is not None:
                worker.send(t, x)
            v_rows = list(_velocities(model, own, t, x))
            if worker is not None:
                v_rows.extend(worker.receive())
            elif rest is not None:
                v_rows.extend(_velocities(model, rest, t, x))
            out = dict(zip(used, v_rows))
            v = guided_velocity(out.get(1, zero), out.get(0, zero), out.get(2, zero), gc.cfg, gc.cfg_n)
            x = x + h * v
            if not np.isfinite(x).all():
                raise NumericAbort("trajectory left finite range", step=k)
            step_log.append({"step": k, "t": t, "v_norm": _norm(v)})
    finally:
        if worker is not None:
            worker.close()
    return x, step_log


def _velocities(model, cond: ConditioningBundle, t: float, x: np.ndarray) -> np.ndarray:
    """The (rows, T, d_audio) velocities of x at time t under each row of cond."""
    n = len(cond.rows)
    return model.forward(Tensor(np.broadcast_to(x, (n, *x.shape))), cond, [t] * n).data


def _start_worker(
    model, rest: ConditioningBundle | None, x_shape: tuple[int, int]
) -> _Worker | None:
    """A worker for the rest group when this process may use a second CPU;
    None when there is no rest group or no second CPU, or when no pipe or
    process can be made (the caller then runs both groups itself, to the
    same bytes)."""
    if rest is None or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return None
    if len(os.sched_getaffinity(0)) < 2:
        return None
    try:
        return _Worker(model, rest, x_shape)
    except OSError:
        return None


class _Worker:
    """A forked process that runs one guidance group's forward each step.

    send writes t and x (8 + x.size * 8 bytes) to the request pipe; receive
    reads the group's velocities back from the result pipe. close ends the
    request pipe, which the worker reads as its signal to exit, and reaps it.
    """

    def __init__(self, model, cond: ConditioningBundle, x_shape: tuple[int, int]):
        self.shape = (len(cond.rows), *x_shape)
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        req_r, req_w, res_r, res_w = fds
        if pid == 0:
            status = 1  # an exception here too ends the pipe the caller reads
            try:
                os.close(req_w)
                os.close(res_r)
                _serve(model, cond, req_r, res_w, x_shape)
                status = 0
            finally:
                os._exit(status)
        os.close(req_r)
        os.close(res_w)
        os.set_blocking(res_r, False)
        self.pid, self.request, self.result = pid, req_w, res_r

    def send(self, t: float, x: np.ndarray) -> None:
        msg = np.empty(1 + x.size)
        msg[0] = t
        msg[1:] = x.reshape(-1)
        try:
            _write_all(self.request, msg)
        except BrokenPipeError:
            raise RuntimeError("the guidance worker exited before its request") from None

    def receive(self) -> np.ndarray:
        v = np.empty(self.shape)
        if not _read_polling(self.result, v):
            raise RuntimeError("the guidance worker exited before returning its rows")
        return v

    def close(self) -> None:
        os.close(self.request)
        os.close(self.result)
        os.waitpid(self.pid, 0)


def _serve(
    model, cond: ConditioningBundle, request: int, result: int, x_shape: tuple[int, int]
) -> None:
    """The worker's loop: answer each (t, x) request until the caller closes
    the request pipe."""
    os.set_blocking(request, False)
    msg = np.empty(1 + x_shape[0] * x_shape[1])
    while _read_polling(request, msg):
        v = _velocities(model, cond, float(msg[0]), msg[1:].reshape(x_shape))
        _write_all(result, np.ascontiguousarray(v))


def _read_polling(fd: int, out: np.ndarray) -> bool:
    """Fill out from the non-blocking fd, spinning until its bytes arrive;
    False if the pipe ends first."""
    view = memoryview(out).cast("B")
    while view:
        try:
            n = os.readv(fd, [view])
        except BlockingIOError:
            continue
        if n == 0:
            return False
        view = view[n:]
    return True


def _write_all(fd: int, data: np.ndarray) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a finite array, finite whenever the true norm is.
    v is divided by the power of two just above max|v| before it is squared,
    and the norm multiplied back, so nothing overflows. Scaling by a power of
    two is exact, so wherever np.linalg.norm(v) neither overflows nor
    underflows the result is the same, bit for bit."""
    e = np.frexp(np.abs(v).max(initial=0.0))[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(v, -e)), e))
