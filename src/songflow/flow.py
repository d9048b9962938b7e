"""Conditional flow matching.

Training regresses a velocity field onto the straight-line displacement
between a noise draw x0 ~ N(0, I) and a data sample x1, evaluated on the
linear interpolation x_t = (1 - t) x0 + t x1 with t ~ U(0, 1) drawn per
batch element. Condition dropout runs inside the loss so classifier-free
guidance works at sampling time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .conditioning import ConditioningEncoder, ConditionRow, PromptSpec, apply_condition_dropout
from .errors import ContractError, NumericAbort, ValidationError
from .lrc import LrcDocument
from .optim import adam_init, adam_step, clip_grad_norm, grad_norm
from .tensor import Tensor, backward, mse, zero_grads

__all__ = [
    "interpolate",
    "target_velocity",
    "TrainExample",
    "TrainConfig",
    "cfm_loss",
    "TrainReport",
    "train",
]


def interpolate(x0: np.ndarray, x1: np.ndarray, t: float) -> np.ndarray:
    """x_t = (1 - t) x0 + t x1, exact at both endpoints."""
    if x0.shape != x1.shape:
        raise ContractError(f"interpolate: shapes {x0.shape} vs {x1.shape}")
    if t == 0.0:
        return x0.copy()
    if t == 1.0:
        return x1.copy()
    return (1.0 - t) * x0 + t * x1


def target_velocity(x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """The regression target x1 - x0; independent of t."""
    return x1 - x0


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
) -> Tensor:
    """Mean over the batch of || v(t, C, x_t) - (x1 - x0) ||^2 / N.

    Per element, in order: t ~ U(0,1), x0 ~ N(0,I), dropout draws. The
    whole batch is then encoded, run forward and scored as one graph.
    """
    rows, ts, x_t, u = [], [], [], []
    for ex in batch:
        t = float(rng.random())
        x0 = rng.standard_normal(ex.x1.shape)
        ts.append(t)
        x_t.append(interpolate(x0, ex.x1, t))
        u.append(target_velocity(x0, ex.x1))
        drops = apply_condition_dropout(p_drop_global, p_drop_segment, p_drop_lyrics, rng)
        rows.append(ConditionRow(ex.spec, ex.doc, *drops))
    bundle = encoder.encode(rows, batch[0].x1.shape[0])
    return mse(model.forward(Tensor(np.stack(x_t)), bundle, ts), Tensor(np.stack(u)))


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
    """Deterministic under config.seed. Streams a JSON-lines log (step,
    loss, wall_ms) to out_dir/train_log.jsonl and writes out_dir/checkpoint.json
    at the end, plus checkpoint-<step>.json every config.checkpoint_every
    steps; report.files names exactly the files this run wrote."""
    rng = np.random.default_rng(config.seed)
    params = [t for _, t in system.named_parameters()]
    state = adam_init(params, config.learning_rate)
    report = TrainReport(files=["train_log.jsonl"])
    started = time.perf_counter()
    with open(out_dir / "train_log.jsonl", "w", encoding="utf-8") as log_file:
        for step in range(config.steps):
            step_started = time.perf_counter()
            batch = dataset.draw(rng, config.batch_size)
            loss = cfm_loss(system.model, system.encoder, batch, rng, config.p_drop_global,
                            config.p_drop_segment, config.lyric_dropout)
            loss_value = float(loss.data)
            if not np.isfinite(loss_value):
                raise NumericAbort("loss is not finite", step=step,
                                   batch_ids=[ex.id for ex in batch])
            zero_grads(params)
            backward(loss)
            del loss  # free this step's graph before the next forward
            if not np.isfinite(grad_norm(params)):
                raise NumericAbort("gradient is not finite", step=step,
                                   batch_ids=[ex.id for ex in batch])
            if config.grad_clip_norm is not None:
                clip_grad_norm(params, config.grad_clip_norm)
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
