"""Synthetic controllable-latent task.

Stands in for real songs at desk scale: each global prompt maps to a fixed
per-channel offset vector, each segment prompt to an anchored periodic
pattern (amplitude, integer period in frames) added uniformly across
channels inside the segment's window. Frames outside every segment carry
the offset alone. Lyric documents carry one line per pattern cycle, each
line's tokens ("p0 p1 ...") filling the cycle one frame apiece, so the
token at a frame encodes the frame's phase. That is what anchors pattern
phase: the network sees position only through conditioning.

A draw builds no template or lyric line twice: pattern traces are cached per
(segment text, length) as read-only arrays and cycle lines per (onset frame,
token count, frame rate) as frozen LrcLines, each in a bounded LRU of 4,096
entries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .conditioning import HashEmbedder, PromptSpec
from .errors import ContractError, ValidationError
from .flow import TrainExample
from .lrc import LYRIC, LrcDocument, LrcLine, SegmentSpec, windows_from_segments

__all__ = [
    "SEGMENT_PATTERNS",
    "TaskConfig",
    "default_task",
    "pattern_trace",
    "synth_sample",
    "segment_lines",
    "sample_prompt",
    "SyntheticDataset",
]


_OFFSET_SCALE = 0.8
_GAP_PROBABILITY = 0.25
_GLOBAL_WORDS = ("ember", "tide", "neon", "moss")
SEGMENT_PATTERNS = {  # text -> (amplitude, period >= 2 in frames)
    "pulse": (1.0, 3),
    "wave": (1.0, 4),
    "drift": (0.9, 5),
    "shimmer": (1.1, 7),
    "hum": (0.8, 9),
}


@dataclass(frozen=True)
class TaskConfig:
    """The `task` config section is the synthetic task: its frame grid,
    channel count and noise, and the layouts `sample_prompt` draws."""

    T: int = 64
    d_audio: int = 8
    frame_rate: float = 4.0
    noise_sigma: float = 0.05
    max_segments: int = 3
    min_width: int = 8

    def __post_init__(self):
        if self.T < 1:
            raise ValidationError("task.T must be >= 1")
        if self.d_audio < 1:
            raise ValidationError("task.d_audio must be >= 1")
        if not 0 < self.frame_rate <= 1000:  # lrc's grid snap is exact up to 1000 Hz
            raise ValidationError("task.frame_rate must be in (0, 1000]")
        if self.noise_sigma < 0:
            raise ValidationError("task.noise_sigma must be >= 0")
        if self.max_segments < 1:
            raise ValidationError("task.max_segments must be >= 1")
        if self.min_width < 1:
            raise ValidationError("task.min_width must be >= 1")

    @property
    def duration(self) -> float:
        return self.T / self.frame_rate

    @functools.cached_property
    def global_vocab(self) -> dict[str, np.ndarray]:
        """Global text -> (d_audio,) offset vector, derived once per task: the
        deterministic hash embedding of the text, scaled to norm _OFFSET_SCALE."""
        offsets = HashEmbedder("synthetic-offset", self.d_audio)
        return {w: _OFFSET_SCALE * offsets.vector(w) for w in _GLOBAL_WORDS}


def default_task(
    T: int, d_audio: int, frame_rate: float, noise_sigma: float = 0.05
) -> TaskConfig:
    return TaskConfig(T=T, d_audio=d_audio, frame_rate=frame_rate, noise_sigma=noise_sigma)


@functools.lru_cache(maxsize=4096)
def pattern_trace(text: str, length: int) -> np.ndarray:
    """The anchored template: amplitude * cos(2 pi k / period), k = 0..length-1.
    Cached per (text, length) and read-only: callers only read it."""
    if text not in SEGMENT_PATTERNS:
        raise ContractError(f"unknown segment text {text!r}")
    amp, period = SEGMENT_PATTERNS[text]
    k = np.arange(length)
    trace = amp * np.cos(2.0 * np.pi * k / period)
    trace.flags.writeable = False
    return trace


def synth_sample(task: TaskConfig, spec: PromptSpec, rng: np.random.Generator) -> np.ndarray:
    """frame f = offset + (pattern at f, phase-anchored to the window start)
    + N(0, sigma^2) noise."""
    if spec.global_text not in task.global_vocab:
        raise ContractError(f"unknown global text {spec.global_text!r}")
    x = np.empty((task.T, task.d_audio))
    x[:] = task.global_vocab[spec.global_text]
    for start, end, seg in windows_from_segments(spec.segments, task.frame_rate, task.T):
        x[start:end] += pattern_trace(seg.text, end - start)[:, None]
    if task.noise_sigma > 0:
        x += rng.normal(0.0, task.noise_sigma, size=x.shape)
    return x


def segment_lines(task: TaskConfig, text: str, ws: int, we: int) -> list[LrcLine]:
    """One line per pattern cycle starting at the window start; each line's
    tokens fill its cycle one frame apiece, so token j marks phase j."""
    period = SEGMENT_PATTERNS[text][1]
    return [
        _cycle_line(start, min(period, we - start), task.frame_rate)
        for start in range(ws, we, period)
    ]


@functools.lru_cache(maxsize=4096)
def _cycle_line(start: int, n: int, frame_rate: float) -> LrcLine:
    """The line of a cycle at frame `start` with n tokens, cached: LrcLines
    are frozen, so every draw shares them. Keyed per line rather than per
    window: T * (longest period) lines at most, where per-window tuples grow
    with the ~T^2 windows a long run draws."""
    return LrcLine(timestamp=start / frame_rate, text=" ".join(f"p{j}" for j in range(n)))


def sample_prompt(
    task: TaskConfig, rng: np.random.Generator, max_segments: int, min_width: int
) -> tuple[PromptSpec, LrcDocument]:
    """Draw a random layout of contiguous windows over [0, T); each window
    becomes a segment with a random pattern text, or (with _GAP_PROBABILITY)
    an unprompted gap. Lyric lines mark pattern cycles inside each segment."""
    n_windows = int(rng.integers(1, max_segments + 1))
    n_windows = max(min(n_windows, task.T // min_width), 1)
    # Distinct interior cut points on the frame grid, respecting min_width.
    # The range keeps min_width off the end cuts 0 and T, so candidates only
    # need to avoid the interior cuts drawn so far.
    cuts = [0, task.T]
    for _ in range(n_windows - 1):
        candidates: list[int] = []
        lo = min_width
        for c in sorted(cuts[2:]):
            candidates.extend(range(lo, c - min_width + 1))
            lo = c + min_width
        candidates.extend(range(lo, task.T - min_width + 1))
        if not candidates:
            break
        cuts.append(_choice(rng, candidates))
    cuts = sorted(cuts)

    texts = list(SEGMENT_PATTERNS)
    segments: list[SegmentSpec] = []
    lines: list[LrcLine] = []
    for ws, we in zip(cuts[:-1], cuts[1:]):
        if len(cuts) > 2 and rng.random() < _GAP_PROBABILITY:
            continue  # leave this window unprompted
        text = _choice(rng, texts)
        segments.append(
            SegmentSpec(t_s=ws / task.frame_rate, t_e=we / task.frame_rate, text=text, kind=LYRIC)
        )
        lines.extend(segment_lines(task, text, ws, we))
    if not segments:  # keep at least one prompted window
        text = _choice(rng, texts)
        segments.append(SegmentSpec(t_s=0.0, t_e=cuts[1] / task.frame_rate, text=text, kind=LYRIC))
        lines.extend(segment_lines(task, text, 0, cuts[1]))

    global_text = _choice(rng, list(task.global_vocab))
    spec = PromptSpec(global_text=global_text, segments=tuple(segments), duration_s=task.duration)
    doc = LrcDocument(lines=tuple(lines), total_duration=task.duration)
    return spec, doc


def _choice(rng: np.random.Generator, items: list):
    """The draw rng.choice(items) makes on numpy 2.4, without its list-to-array copy."""
    return items[int(rng.integers(0, len(items)))]


class SyntheticDataset:
    """Infinite stream of freshly drawn (prompt, lyric doc, latent) examples."""

    def __init__(self, task: TaskConfig, max_segments: int, min_width: int):
        self.task = task
        self.max_segments = max_segments
        self.min_width = min_width
        self._counter = 0

    def draw(self, rng: np.random.Generator, n: int) -> tuple[TrainExample, ...]:
        examples = []
        for _ in range(n):
            spec, doc = sample_prompt(
                self.task, rng, max_segments=self.max_segments, min_width=self.min_width
            )
            x1 = synth_sample(self.task, spec, rng)
            examples.append(
                TrainExample(id=f"synth-{self._counter:06d}", spec=spec, doc=doc, x1=x1)
            )
            self._counter += 1
        return tuple(examples)
