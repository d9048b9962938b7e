"""LRC lyric timing: parsing, canonical serialization, frame conversion, and
segment-window derivation.

The accepted micro-format is one `[mm:ss.xx] text` line per lyric line
(minutes >= two digits, seconds 00-59, centiseconds 00-99, one space before
the text). Serialization is canonical: centisecond precision with
round-half-even, so serialize -> parse -> serialize is text-exact.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

from .errors import ContractError, ParseError, ValidationError

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
    "StructureEntry",
    "structure_from_json",
    "derive_windows",
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

    def texts(self) -> list[str]:
        return [line.text for line in self.lines]


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


@dataclass(frozen=True)
class SegmentWindow:
    """Half-open frame range a segment occupies."""

    frame_start: int
    frame_end: int
    provenance: str  # one of the segment kinds above, by origin
    label: str = ""

    def __post_init__(self):
        if not (0 <= self.frame_start < self.frame_end):
            raise ValidationError(
                f"window needs 0 <= start < end, got [{self.frame_start}, {self.frame_end})"
            )

    def __len__(self) -> int:
        return self.frame_end - self.frame_start


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
    for lineno, raw_line in enumerate(raw.splitlines(), start=1):
        if not raw_line.strip():
            continue
        m = _LINE_RE.match(raw_line)
        if m is None:
            raise ParseError(f"malformed LRC line: {raw_line!r}", line_number=lineno)
        mm, ss, xx = int(m.group(1)), int(m.group(2)), int(m.group(3))
        ts = 60.0 * mm + ss + xx / 100.0
        if ts < prev:
            raise ValidationError(f"line {lineno}: timestamp {ts}s decreases (previous {prev}s)")
        prev = ts
        lines.append(LrcLine(timestamp=ts, text=m.group(4) or ""))
    if total_duration is None:
        last = lines[-1].timestamp if lines else 0.0
        total_duration = last + DEFAULT_TAIL_SECONDS
    return LrcDocument(lines=tuple(lines), total_duration=total_duration)


def serialize_timestamp(seconds: float) -> str:
    """Canonical `[mm:ss.xx]` with round-half-even at centiseconds."""
    if seconds < 0:
        raise ContractError(f"negative timestamp {seconds}")
    centis = round(seconds * 100.0)
    mm, rest = divmod(centis, 6000)
    ss, xx = divmod(rest, 100)
    return f"[{mm:02d}:{ss:02d}.{xx:02d}]"

def serialize_lrc(doc: LrcDocument) -> str:
    """One canonical line per LrcLine; empty-text lines keep the bare tag."""
    out = []
    for line in doc.lines:
        tag = serialize_timestamp(line.timestamp)
        out.append(f"{tag} {line.text}" if line.text else tag)
    return "\n".join(out) + ("\n" if out else "")


# -----------------------------------------------------------------------------
# Frame conversion
# -----------------------------------------------------------------------------


def _grid_frames(t: float, rate: float, downsample: float, up: bool) -> int:
    """floor (ceil when `up`) of t * rate / downsample. A time within 1e-8 s
    of the centisecond grid (every LRC stamp) is taken exactly as that many
    centiseconds; other times round the float product."""
    rnd = math.ceil if up else math.floor
    centis = round(t * 100.0)
    if abs(t * 100.0 - centis) > 1e-6:
        return rnd(t * rate / downsample)
    if downsample == 1.0 and rate == int(rate):  # the common case, ~10x faster than Fraction
        whole, part = divmod(centis * int(rate), 100)
        return whole + (up and part > 0)
    from fractions import Fraction  # not at module level: it imports decimal, ~2 ms per start-up

    return rnd(Fraction(centis, 100) * Fraction(rate) / Fraction(downsample))


def time_to_frame(t: float, sampling_rate: float, downsample: float = 1.0) -> int:
    """floor(t * sampling_rate / downsample). The quotient is the latent frame rate,
    so time_to_frame(t, frame_rate) works directly.

    A time within 1e-8 s of the centisecond grid (every LRC stamp) is floored
    exactly as that many centiseconds: [00:00.57] at 100 Hz is frame 57, where
    the float product 0.57 * 100 = 56.99... would floor to 56. Other times
    floor the float product."""
    if t < 0:
        raise ContractError(f"negative time {t}")
    if sampling_rate <= 0 or downsample <= 0:
        raise ContractError("sampling_rate and downsample must be positive")
    return _grid_frames(t, sampling_rate, downsample, up=False)


def frame_count(total_duration: float, frame_rate: float) -> int:
    """Number of latent frames covering [0, total_duration): ceil(duration * rate),
    exact on the centisecond grid like time_to_frame, so 0.07 s at 100 Hz is
    7 frames (the float product is 7.000000000000001)."""
    if total_duration <= 0 or frame_rate <= 0:
        raise ContractError("duration and frame rate must be positive")
    return _grid_frames(total_duration, frame_rate, 1.0, up=True)


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
    """Frame windows [floor(t_s*r), floor(t_e*r)) for explicitly timed segments.

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
        windows.append(SegmentWindow(js, je, provenance=seg.kind, label=seg.text))
    return windows


# -----------------------------------------------------------------------------
# Structure-driven window derivation
# -----------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureEntry:
    """One structural block: kind, display label, and its half-open lyric-line range."""

    kind: str
    label: str
    lines: tuple[int, int]

    def __post_init__(self):
        if self.kind not in (LYRIC, INSTRUMENTAL):
            raise ValidationError(f"structure kind must be lyric/instrumental, got {self.kind!r}")
        lo, hi = self.lines
        if lo < 0 or hi < lo:
            raise ValidationError(f"bad line range [{lo}, {hi})")
        if self.kind == LYRIC and hi == lo:
            raise ValidationError(f"lyric block {self.label!r} has no lines")


def structure_from_json(obj) -> list[StructureEntry]:
    """Accepts parsed JSON or a JSON string: a list of
    {"kind": ..., "label": ..., "lines": [lo, hi]} entries."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    entries = []
    for item in obj:
        lines = item.get("lines", [0, 0])
        entries.append(
            StructureEntry(
                kind=item["kind"], label=item.get("label", ""), lines=(lines[0], lines[1])
            )
        )
    return entries


def _mean_line_gap(doc: LrcDocument) -> float:
    """Mean inter-onset gap in seconds; fallback when the document has < 2 lines."""
    if len(doc.lines) >= 2:
        span = doc.lines[-1].timestamp - doc.lines[0].timestamp
        if span > 0:
            return span / (len(doc.lines) - 1)
    return 2.0


def derive_windows(
    doc: LrcDocument, structure: list[StructureEntry], frame_rate: float, T: int
) -> list[SegmentWindow]:
    """Partition [0, T) into one window per structure entry.

    Blocks with lines are anchored at their first line's frame; each anchored
    block runs to the next anchor (or T for the last). Line-less instrumental
    blocks fill the remaining gaps: leading ones split [0, first anchor), and
    ones following an anchored block take that block's tail, which starts one
    estimated line-duration after the block's last onset. Runs of line-less
    blocks split their gap evenly, earlier blocks taking the extra frames.
    """
    if not structure:
        raise ValidationError("structure is empty")
    if T < len(structure):
        raise ValidationError(f"{len(structure)} blocks cannot partition {T} frames")
    cursor = 0
    for entry in structure:
        lo, hi = entry.lines
        if lo != cursor:
            raise ValidationError(
                f"block {entry.label!r} starts at line {lo}, expected {cursor}"
            )
        cursor = hi
    if cursor != len(doc.lines):
        raise ValidationError(f"structure covers {cursor} lines, document has {len(doc.lines)}")

    n = len(structure)
    anchors: list[int | None] = []
    for entry in structure:
        lo, hi = entry.lines
        if hi > lo:
            a = time_to_frame(doc.lines[lo].timestamp, frame_rate)
            if a >= T:
                raise ValidationError(f"block {entry.label!r} starts at frame {a} >= T={T}")
            anchors.append(a)
        else:
            anchors.append(None)

    # Boundary chain: windows[i] = [c[i], c[i+1]). Interior boundary i is the
    # anchor of block i when it has one.
    c: list[int | None] = [None] * (n + 1)
    c[0], c[n] = 0, T
    for i in range(1, n):
        c[i] = anchors[i]

    gap_frames = max(1, int(round(frame_rate * _mean_line_gap(doc))))
    i = 1
    while i <= n - 1:
        if c[i] is not None:
            i += 1
            continue
        j = i
        while c[j] is None:
            j += 1
        lo, hi = c[i - 1], c[j]
        run = j - i  # unknown boundaries, i.e. line-less blocks after block i-1
        prev = structure[i - 1]
        if anchors[i - 1] is not None:
            # The anchored block keeps its lines plus one estimated line of
            # tail; the rest of the gap goes to the following blocks.
            last_onset = time_to_frame(doc.lines[prev.lines[1] - 1].timestamp, frame_rate)
            b = min(max(lo + 1, last_onset + gap_frames), hi - run)
            if b <= lo or hi - b < run:
                raise ValidationError(
                    f"not enough frames in [{lo}, {hi}) for blocks after {prev.label!r}"
                )
            c[i] = b
            _fill_even(c, i, j, b, hi)
        else:
            # Leading run with no anchored predecessor: split [lo, hi) evenly
            # across all blocks in it (the predecessor included).
            if hi - lo < run + 1:
                raise ValidationError(f"not enough frames in [{lo}, {hi}) for leading blocks")
            _fill_even(c, i - 1, j, lo, hi)
        i = j + 1

    windows = []
    for i, entry in enumerate(structure):
        start, end = c[i], c[i + 1]
        if start >= end:
            raise ValidationError(
                f"block {entry.label!r} collapses to an empty window [{start}, {end})"
            )
        windows.append(SegmentWindow(start, end, provenance=entry.kind, label=entry.label))
    return windows


def _fill_even(c: list, first: int, last: int, lo: int, hi: int) -> None:
    """Split [lo, hi) evenly over windows first..last-1 by setting the interior
    boundaries c[first+1 .. last-1]; earlier windows take the remainder frames."""
    m = last - first
    base, rem = divmod(hi - lo, m)
    pos = lo
    for k in range(m - 1):
        pos += base + (1 if k < rem else 0)
        c[first + 1 + k] = pos
