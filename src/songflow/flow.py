"""Conditional flow matching.

Training regresses a velocity field onto the straight-line displacement
between a noise draw x0 ~ N(0, I) and a data sample x1, evaluated on the
linear interpolation x_t = (1 - t) x0 + t x1 with t ~ U(0, 1) drawn per
batch element. Condition dropout runs inside the loss so classifier-free
guidance works at sampling time.

Each train step splits its batch of B rows in two: rows [0, ceil(B/2)) are
the caller's and the rest the worker's. Each side builds the graph of its
own rows only, and its loss is its sum of squared differences over the whole
batch's element count. When `twin.start` gives a worker process (see
songflow.twin), forked once per `train` call, the two halves run at once.
Both processes hold the same `rng` and dataset at the fork and replay every
step's `dataset.draw` and every `cfm_loss` draw of the whole batch, so the
RNG stream is the one-process stream and no batch crosses a pipe. The
twin's mapping holds the flat parameters (`AdamState.values`, so the worker
reads each Adam update), the worker's flat gradient and its loss. The
caller forms loss = l_caller + l_worker and g_caller + g_worker, in that
order, then runs the loss check, the guard, the clip and Adam; only it logs
and writes checkpoints. B = 1 starts no worker, and with one CPU, or when
no mapping or process can be made, the caller runs the worker's half first,
its gradient copied into a buffer of its own as the worker copies it into
the mapping, so the bytes do not depend on the CPU count.
"""

from __future__ import annotations

import contextlib
import copy
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .conditioning import ConditioningEncoder, ConditionRow, PromptSpec, apply_condition_dropout
from .errors import NumericAbort, ValidationError
from .lrc import LrcDocument
from .optim import adam_init, adam_step, grad_norm
from .tensor import Tensor, backward, mse
from .twin import Twin, start

__all__ = [
    "interpolate",
    "TrainExample",
    "TrainConfig",
    "cfm_loss",
    "TrainReport",
    "train",
]


def interpolate(x0: np.ndarray, x1: np.ndarray, t: float) -> np.ndarray:
    """x_t = (1 - t) x0 + t x1. For finite inputs it equals x0 at t = 0
    and x1 at t = 1, up to the sign of a zero: a -0.0 may come back as 0.0."""
    return (1.0 - t) * x0 + t * x1


@dataclass(frozen=True)
class TrainExample:
    id: str
    spec: PromptSpec
    doc: LrcDocument | None
    x1: np.ndarray


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 2000
    batch_size: int = 8
    learning_rate: float = 1e-3
    p_drop_global: float = 0.2
    p_drop_segment: float = 0.2
    p_drop_lyrics: float | None = None  # None -> follow p_drop_global
    grad_clip_norm: float | None = None
    checkpoint_every: int = 0  # 0 -> only at the end
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError("train.steps must be >= 1")
        if self.batch_size < 1:
            raise ValidationError("train.batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValidationError("train.learning_rate must be > 0")
        if not 0 <= self.p_drop_global <= 1:
            raise ValidationError("train.p_drop_global must be in [0, 1]")
        if not 0 <= self.p_drop_segment <= 1:
            raise ValidationError("train.p_drop_segment must be in [0, 1]")
        if self.p_drop_lyrics is not None and not 0 <= self.p_drop_lyrics <= 1:
            raise ValidationError("train.p_drop_lyrics must be in [0, 1]")
        if self.grad_clip_norm is not None and self.grad_clip_norm <= 0:
            raise ValidationError("train.grad_clip_norm must be > 0")
        if self.checkpoint_every < 0:
            raise ValidationError("train.checkpoint_every must be >= 0")
        if self.seed < 0:
            raise ValidationError("train.seed must be >= 0")

    @property
    def lyric_dropout(self) -> float:
        return self.p_drop_global if self.p_drop_lyrics is None else self.p_drop_lyrics


def cfm_loss(
    model,
    encoder: ConditioningEncoder,
    batch: tuple[TrainExample, ...],
    rng: np.random.Generator,
    p_drop_global: float,
    p_drop_segment: float,
    p_drop_lyrics: float,
    rows: slice = slice(None),
) -> Tensor:
    """Sum over the batch rows `rows` of || v(t, C, x_t) - (x1 - x0) ||^2,
    over the whole batch's element count: the batch mean by default.

    Per element of the whole batch, in order: t ~ U(0,1), x0 ~ N(0,I),
    dropout draws, so no draw depends on `rows`. The rows are then encoded,
    run forward and scored as one graph.
    """
    kept = range(len(batch))[rows]
    conds, ts, x_t, u = [], [], [], []
    for i, ex in enumerate(batch):
        t = float(rng.random())
        x0 = rng.standard_normal(ex.x1.shape)
        drops = apply_condition_dropout(p_drop_global, p_drop_segment, p_drop_lyrics, rng)
        if i in kept:
            ts.append(t)
            x_t.append(interpolate(x0, ex.x1, t))
            u.append(ex.x1 - x0)  # the regression target; independent of t
            conds.append(ConditionRow(ex.spec, ex.doc, *drops))
    bundle = encoder.encode(conds, batch[0].x1.shape[0])
    pred = model.forward(Tensor(np.stack(x_t)), bundle, ts)
    return mse(pred, Tensor(np.stack(u)), len(batch) * batch[0].x1.size)


@dataclass
class TrainReport:
    losses: list[float] = field(default_factory=list)
    files: list[str] = field(default_factory=list)  # names written into out_dir
    wall_seconds: float = 0.0

    def smoothed(self) -> tuple[float, float]:
        """(mean of the first 50 losses, mean of the last 50)."""
        k = min(50, len(self.losses))
        return float(np.mean(self.losses[:k])), float(np.mean(self.losses[-k:]))


def train(system, dataset, config: TrainConfig, out_dir: Path) -> TrainReport:
    """Deterministic under config.seed, whatever the CPU count. Streams a
    JSON-lines log (step, loss, wall_ms) to out_dir/train_log.jsonl and writes
    out_dir/checkpoint.json at the end, plus checkpoint-<step>.json every
    config.checkpoint_every steps; report.files names exactly the files this
    run wrote. Each step's batch runs as two halves (see the module
    docstring)."""
    halves = _Halves(system, dataset, config)
    params, state = halves.params, halves.state
    report = TrainReport(files=["train_log.jsonl"])
    started = time.perf_counter()
    log_path = out_dir / "train_log.jsonl"
    with contextlib.closing(halves), open(log_path, "w", encoding="utf-8") as log_file:
        for step in range(config.steps):
            step_started = time.perf_counter()
            batch, loss_value = halves.step()
            if not np.isfinite(loss_value):
                raise NumericAbort("loss is not finite", step=step,
                                   batch_ids=[ex.id for ex in batch])
            norm = grad_norm(params)
            if not np.isfinite(norm):
                raise NumericAbort("gradient is not finite", step=step,
                                   batch_ids=[ex.id for ex in batch])
            if config.grad_clip_norm is not None and norm > config.grad_clip_norm:
                state.grads *= config.grad_clip_norm / norm
            adam_step(params, state)
            report.losses.append(loss_value)
            wall_ms = (time.perf_counter() - step_started) * 1000.0
            row = {"step": step, "loss": loss_value, "wall_ms": wall_ms}
            log_file.write(json.dumps(row, allow_nan=False) + "\n")
            if (
                config.checkpoint_every > 0
                and (step + 1) % config.checkpoint_every == 0
                and step + 1 < config.steps
            ):
                report.files.append(f"checkpoint-{step + 1:06d}.json")
                system.save(out_dir / report.files[-1])
    report.files.append("checkpoint.json")
    system.save(out_dir / report.files[-1])
    report.wall_seconds = time.perf_counter() - started
    return report


class _Halves:
    """The two row halves of every train step's batch (see the module
    docstring): the caller's, and the worker's in a forked worker when
    `twin.start` gives one, else in this process.

    `state` is the flat training layout, over the twin's mapping when a
    worker runs; `grads` and `loss` hold the worker's half's results. A
    step's bytes on the pipes run: the caller's "the parameters are
    updated", then the worker's "gradient and loss are written".
    """

    def __init__(self, system, dataset, config: TrainConfig):
        self.system, self.dataset, self.config = system, dataset, config
        self.rng = np.random.default_rng(config.seed)
        self.params = [t for _, t in system.named_parameters()]
        half = (config.batch_size + 1) // 2
        self.own = slice(0, half)
        self.other = slice(half, config.batch_size) if half < config.batch_size else None
        size = sum(p.data.size for p in self.params)
        self.twin = start(lambda: self._fork(size)) if self.other is not None else None
        if self.twin is None:  # a layout of its own, also after a fork that failed
            self.state = adam_init(self.params, config.learning_rate)
            self.grads, self.loss = np.zeros(size), np.zeros(1)

    def _fork(self, size: int) -> Twin:
        twin = Twin([(size,), (size,), (1,)])
        values, self.grads, self.loss = twin.arrays
        self.state = adam_init(self.params, self.config.learning_rate, values)
        twin.fork(lambda: self._other_half(self._draw(), self.rng))
        return twin

    def step(self) -> tuple[tuple[TrainExample, ...], float]:
        """Draw the step's batch; returns it with l_caller + l_worker, and
        leaves g_caller + g_worker in the flat gradients."""
        if self.twin is not None:
            self.twin.signal()
        batch = self._draw()
        if self.other is None:
            return batch, self._half(self.own, batch, self.rng)
        if self.twin is None:
            self._other_half(batch, copy.deepcopy(self.rng))
        loss = self._half(self.own, batch, self.rng)
        if self.twin is not None:
            self.twin.wait()
        self.state.grads += self.grads
        return batch, loss + float(self.loss[0])

    def close(self) -> None:
        if self.twin is not None:
            self.twin.close()

    def _draw(self) -> tuple[TrainExample, ...]:
        return self.dataset.draw(self.rng, self.config.batch_size)

    def _other_half(self, batch: tuple[TrainExample, ...], rng: np.random.Generator) -> None:
        self.loss[0] = self._half(self.other, batch, rng)
        self.grads[...] = self.state.grads

    def _half(self, rows: slice, batch: tuple[TrainExample, ...], rng: np.random.Generator) -> float:
        """The loss of the batch's `rows`, with its gradient in the zeroed
        flat gradients. A non-finite loss, which train aborts on, gets no
        backward."""
        c = self.config
        loss = cfm_loss(self.system.model, self.system.encoder, batch, rng, c.p_drop_global,
                        c.p_drop_segment, c.lyric_dropout, rows=rows)
        value = float(loss.data)
        self.state.grads.fill(0.0)
        if np.isfinite(value):
            backward(loss)
        return value
