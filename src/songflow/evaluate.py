"""Alignment and timing metrics.

Alignment is scored by alignment_score, the synthetic-task oracle: segment
texts score by Pearson correlation between a window's mean-channel trace and
the text's anchored pattern template; global texts score by correlation
across channels between the time-averaged frame and the text's offset vector.
Ground-truth noiseless samples maximize both scores by construction.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ValidationError
from .lrc import BOUNDARY, LrcDocument, SegmentWindow
from .synthetic import SEGMENT_PATTERNS, TaskConfig, pattern_trace

__all__ = [
    "alignment_score",
    "segment_alignment_score",
    "duration_mae",
    "validate_report",
]


# Below this product of centred norms, a side counts as (numerically) constant.
_LOG2_CONSTANT_NORM = np.log2(1e-12)


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson r, 0.0 when either side is constant or numerically so (the
    product of the centred norms is below 1e-12).

    Each centred side is divided by the power of two just above its largest
    |value| before any product is formed, so nothing overflows and r is the
    same, bit for bit, as without the division. The unscaled norm product is
    compared with 1e-12 through its base-2 logarithm.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ContractError(f"pearson: shapes {a.shape} vs {b.shape}")
    if a.size < 2 or a.min() == a.max() or b.min() == b.max():
        return 0.0
    ac = a - a.mean()
    bc = b - b.mean()
    ea = np.frexp(np.abs(ac).max())[1]
    eb = np.frexp(np.abs(bc).max())[1]
    ac = np.ldexp(ac, -ea)
    bc = np.ldexp(bc, -eb)
    denom = np.sqrt((ac * ac).sum() * (bc * bc).sum())
    if np.log2(denom) + (ea + eb) < _LOG2_CONSTANT_NORM:
        return 0.0
    return float(np.clip((ac * bc).sum() / denom, -1.0, 1.0))


def alignment_score(task: TaskConfig, latent: np.ndarray, text: str) -> float:
    """Maximal-at-truth score in [-1, 1] of a latent slice or full latent
    against a segment or global text of the synthetic task."""
    latent = np.asarray(latent, dtype=np.float64)
    if latent.ndim != 2:
        raise ContractError(f"latent must be (frames, channels), got {latent.shape}")
    if text in SEGMENT_PATTERNS:
        trace = latent.mean(axis=1)
        return _pearson(trace, pattern_trace(text, len(trace)))
    if text in task.global_vocab:
        return _pearson(latent.mean(axis=0), task.global_vocab[text])
    raise ValidationError(f"text {text!r} is in neither vocabulary")


def segment_alignment_score(
    latent: np.ndarray, windows: list[SegmentWindow], task: TaskConfig
) -> tuple[list[float], float | None]:
    """Score each window's latent slice against its segment text; return
    (per-segment scores, their arithmetic mean). Boundary-marker segments are
    excluded; with no other window the mean is undefined, so it is None."""
    scores = [
        alignment_score(task, latent[start:end], seg.text)
        for start, end, seg in windows
        if seg.kind != BOUNDARY
    ]
    return scores, sum(scores) / len(scores) if scores else None


def duration_mae(predicted: LrcDocument, truth: LrcDocument) -> float:
    """Mean absolute sentence-onset error in seconds; texts must line up."""
    if len(predicted.lines) != len(truth.lines):
        raise ValidationError(
            f"line counts differ: {len(predicted.lines)} vs {len(truth.lines)}"
        )
    if not truth.lines:
        raise ValidationError("documents have no lines")
    for i, (p, t) in enumerate(zip(predicted.lines, truth.lines)):
        if _normalize_line(p.text) != _normalize_line(t.text):
            raise ValidationError(f"line {i + 1} texts differ after normalization")
    return sum(abs(p.timestamp - t.timestamp) for p, t in zip(predicted.lines, truth.lines)) / len(
        truth.lines
    )


def _normalize_line(text: str) -> str:
    return " ".join(text.lower().split())


_REPORT_SAMPLE_KEYS = {"global_alignment", "segment_alignment"}


def validate_report(report: dict) -> None:
    """Structural check of the metric-report JSON emitted by the CLI."""
    if not {"samples", "aggregate"} <= set(report):
        raise ContractError("report must carry 'samples' and 'aggregate'")
    if not isinstance(report["samples"], list):
        raise ContractError("'samples' must be a list")
    for i, sample in enumerate(report["samples"]):
        missing = _REPORT_SAMPLE_KEYS - set(sample)
        if missing:
            raise ContractError(f"sample {i} is missing {sorted(missing)}")
        seg = sample["segment_alignment"]
        if not {"per_segment", "mean"} <= set(seg):
            raise ContractError(f"sample {i} segment_alignment needs per_segment and mean")
    agg = report["aggregate"]
    if report["samples"] and not {"global_alignment_mean", "segment_alignment_mean"} <= set(agg):
        raise ContractError("aggregate is missing alignment means")
