"""LRC lyric timing: parsing, canonical serialization, frame conversion, and
segment windows from timed prompts.

The accepted micro-format is one `[mm:ss.xx] text` line per lyric line
(minutes >= two digits, seconds 00-59, centiseconds 00-99, one space before
the text; lines break only at the `schema.split_lines` breaks).
Serialization is canonical: centisecond precision with round-half-even, so
serialize -> parse -> serialize is text-exact.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ContractError, ParseError, ValidationError
from .schema import split_lines

__all__ = [
    "LrcLine",
    "LrcDocument",
    "SegmentSpec",
    "SegmentWindow",
    "LYRIC",
    "INSTRUMENTAL",
    "BOUNDARY",
    "parse_lrc",
    "serialize_lrc",
    "serialize_timestamp",
    "time_to_frame",
    "frame_count",
    "validate_segments",
    "windows_from_segments",
]

LYRIC = "lyric"
INSTRUMENTAL = "instrumental"
BOUNDARY = "boundary"

# How far total_duration extends past the last timestamp when a parsed file
# carries no explicit duration.
DEFAULT_TAIL_SECONDS = 1.0

_LINE_RE = re.compile(r"^\[(\d{2,}):([0-5]\d)\.(\d{2})\](?:\Z| (.*)$)")


@dataclass(frozen=True)
class LrcLine:
    timestamp: float  # seconds
    text: str

    def __post_init__(self):
        if self.timestamp < 0:
            raise ValidationError(f"negative timestamp {self.timestamp}")
        if "\n" in self.text or "\r" in self.text:
            raise ValidationError("lyric text must not contain newlines")


@dataclass(frozen=True)
class LrcDocument:
    lines: tuple[LrcLine, ...]
    total_duration: float  # seconds

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(self.lines))
        if self.total_duration <= 0:
            raise ValidationError(f"total_duration must be positive, got {self.total_duration}")
        prev = 0.0
        for i, line in enumerate(self.lines):
            if line.timestamp < prev:
                raise ValidationError(f"timestamps decrease at line {i + 1}")
            if line.timestamp >= self.total_duration:
                raise ValidationError(
                    f"line {i + 1} at {line.timestamp}s is not before "
                    f"total_duration {self.total_duration}s"
                )
            prev = line.timestamp


@dataclass(frozen=True)
class SegmentSpec:
    """A timed prompt: [t_s, t_e) seconds, its text, and its role."""

    t_s: float
    t_e: float
    text: str
    kind: str = LYRIC

    def __post_init__(self):
        if not (0 <= self.t_s < self.t_e):
            raise ValidationError(f"segment needs 0 <= t_s < t_e, got [{self.t_s}, {self.t_e})")
        if self.kind not in (LYRIC, INSTRUMENTAL, BOUNDARY):
            raise ValidationError(f"unknown segment kind {self.kind!r}")


class SegmentWindow(NamedTuple):
    """The half-open frame range [start, end) that a segment occupies."""

    start: int
    end: int
    segment: SegmentSpec


# -----------------------------------------------------------------------------
# Parsing / serialization
# -----------------------------------------------------------------------------


def parse_lrc(raw: str, total_duration: float | None = None) -> LrcDocument:
    """Parse LRC text. Blank lines are skipped; other non-matching lines are errors.

    When total_duration is omitted it is inferred as the last timestamp plus
    DEFAULT_TAIL_SECONDS.
    """
    lines: list[LrcLine] = []
    prev = 0.0
    for lineno, raw_line in enumerate(split_lines(raw), start=1):
        m = _LINE_RE.match(raw_line)
        if m is None:  # no blank line matches, so only a miss needs the strip
            if not raw_line.strip():
                continue
            raise ParseError(f"malformed LRC line: {raw_line!r}", line_number=lineno)
        mm, ss, xx, text = m.groups()
        try:
            ts = 60.0 * int(mm) + int(ss) + int(xx) / 100.0
        except (OverflowError, ValueError):  # past float range, or past int()'s digit limit
            ts = math.inf
        if ts == math.inf:
            raise ParseError(f"minute field out of range: {raw_line[:40]!r}", line_number=lineno)
        if ts < prev:
            raise ValidationError(f"line {lineno}: timestamp {ts}s decreases (previous {prev}s)")
        prev = ts
        lines.append(LrcLine(ts, text or ""))
    if total_duration is None:
        last = lines[-1].timestamp if lines else 0.0
        total_duration = last + DEFAULT_TAIL_SECONDS
    return LrcDocument(lines=tuple(lines), total_duration=total_duration)


def serialize_timestamp(seconds: float) -> str:
    """Canonical `[mm:ss.xx]` with round-half-even at centiseconds."""
    if seconds < 0:
        raise ContractError(f"negative timestamp {seconds}")
    centis = round(seconds * 100.0)
    return "[%02d:%02d.%02d]" % (centis // 6000, centis // 100 % 60, centis % 100)


def serialize_lrc(doc: LrcDocument) -> str:
    """One canonical line per LrcLine; empty-text lines keep the bare tag.
    The tag is serialize_timestamp's, inlined: no call per line, and no
    sign check, since an LrcLine is never negative."""
    out = []
    for line in doc.lines:
        centis = round(line.timestamp * 100.0)
        tag = "[%02d:%02d.%02d]" % (centis // 6000, centis // 100 % 60, centis % 100)
        out.append(f"{tag} {line.text}" if line.text else tag)
    return "\n".join(out) + ("\n" if out else "")


# -----------------------------------------------------------------------------
# Frame conversion
# -----------------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _grid_frames(t: float, rate: float, up: bool) -> int:
    """floor (ceil when `up`) of t * rate. A time within 1e-8 s of the
    centisecond grid (every LRC stamp) is taken exactly as that many
    centiseconds, and the float rate exactly as the ratio of integers it
    holds; other times round the float product. A time whose product is not
    finite has no frame (ContractError). Memoized: training maps the same
    few segment and line times every step."""
    product = t * rate
    if not math.isfinite(product):
        raise ContractError(f"time {t} s at {rate} frames/s has no finite frame")
    scaled = t * 100.0
    if math.isfinite(scaled) and abs(scaled - round(scaled)) <= 1e-6:
        centis = round(scaled)
        num, den = float(rate).as_integer_ratio()
        if up:  # ceil(x) == -floor(-x)
            return -(-centis * num // (100 * den))
        return centis * num // (100 * den)
    return math.ceil(product) if up else math.floor(product)


def time_to_frame(t: float, frame_rate: float) -> int:
    """floor(t * frame_rate): the latent frame that time t falls in.

    A time within 1e-8 s of the centisecond grid (every LRC stamp) is floored
    exactly as that many centiseconds: [00:00.57] at 100 Hz is frame 57, where
    the float product 0.57 * 100 = 56.99... would floor to 56. Other times
    floor the float product."""
    if t < 0:
        raise ContractError(f"negative time {t}")
    if frame_rate <= 0:
        raise ContractError("frame_rate must be positive")
    return _grid_frames(t, frame_rate, up=False)


def frame_count(total_duration: float, frame_rate: float) -> int:
    """Number of latent frames covering [0, total_duration): ceil(duration * rate),
    exact on the centisecond grid like time_to_frame, so 0.07 s at 100 Hz is
    7 frames (the float product is 7.000000000000001)."""
    if total_duration <= 0 or frame_rate <= 0:
        raise ContractError("duration and frame rate must be positive")
    return _grid_frames(total_duration, frame_rate, up=True)


# -----------------------------------------------------------------------------
# Segment validation and prompt-window conversion
# -----------------------------------------------------------------------------


def validate_segments(segments) -> None:
    """Segments must be sorted by start and non-overlapping."""
    prev_end = 0.0
    prev = None
    for seg in segments:
        if prev is not None and seg.t_s < prev_end:
            raise ValidationError(
                f"segments overlap: [{prev.t_s}, {prev.t_e}) and [{seg.t_s}, {seg.t_e})"
            )
        prev_end = seg.t_e
        prev = seg


def windows_from_segments(segments, frame_rate: float, T: int) -> list[SegmentWindow]:
    """Frame windows [floor(t_s*r), floor(t_e*r)) for explicitly timed segments:
    the one segment-to-frame mapping, used by prompt broadcasting, the
    synthetic task and eval.

    Segments whose frame window is empty after flooring are skipped (they
    cover no frame). Windows must land inside [0, T].
    """
    windows = []
    for seg in segments:
        js = time_to_frame(seg.t_s, frame_rate)
        je = time_to_frame(seg.t_e, frame_rate)
        if je > T:
            raise ContractError(f"segment [{seg.t_s}, {seg.t_e})s maps past frame {T}")
        if js >= je:
            continue
        windows.append(SegmentWindow(js, je, seg))
    return windows
