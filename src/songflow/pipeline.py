"""Manifest-level data pipeline.

Records describe songs (metadata, quality scores, lyrics, transcripts,
structure, captions); everything that would need audio models upstream is
represented by pre-populated manifest fields. Stage filters, the lyric
edit-distance gate, caption assembly, boundary-prompt insertion, win-loss
pair selection, and the duration-dataset builder all operate on these
records and emit JSON artifacts.

Boundary conventions, fixed here because selection depends on them:
percentiles/quartiles use linear interpolation on the sorted sample;
"lower than 32 kHz" is a strict <; "top 50%" means score >= median for
every metric, medians taken over the full input manifest; ties at a
percentile cutoff are kept.
"""

from __future__ import annotations

import json
import math
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

from .conditioning import PromptSpec
from .errors import ContractError, ParseError, ValidationError
from .lrc import BOUNDARY, SegmentSpec, parse_lrc, serialize_lrc, time_to_frame

__all__ = [
    "RecordManifest",
    "FilterReport",
    "read_manifest",
    "write_manifest",
    "pretrain_filter",
    "finetune_filter",
    "levenshtein",
    "normalize_lyric_text",
    "lyric_edit_filter",
    "assemble_segment_caption",
    "insert_boundary_prompts",
    "quantile",
    "dpo_pair_select",
    "build_duration_dataset",
    "BOUNDARY_START_TEXT",
    "BOUNDARY_END_TEXT",
]

BOUNDARY_START_TEXT = "This piece is the start of the song."
BOUNDARY_END_TEXT = "This piece is the end of the song."
BOUNDARY_SECONDS = 0.5


def _is_list_of(value, kind) -> bool:
    return isinstance(value, list) and all(isinstance(v, kind) for v in value)


def _is_number(value) -> bool:
    """An int or a finite float; not a bool. A NaN score would pass every
    quality gate, since it compares false against any cutoff."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str_map_of(value, ok) -> bool:
    return isinstance(value, dict) and all(
        isinstance(k, str) and ok(v) for k, v in value.items()
    )


@dataclass
class RecordManifest:
    """Per-song metadata flowing through the pipeline."""

    id: str
    duration: float  # seconds
    sampling_rate: float  # Hz
    channels: int
    compression_ok: bool = True
    energy_ok: bool = True
    quality_scores: dict[str, float] = field(default_factory=dict)
    lyrics: list[str] | None = None  # plain lines
    lyrics_lrc: str | None = None  # timestamped LRC text when available
    transcript: list[str] | None = None
    segments: list[dict] = field(default_factory=list)  # {"kind","label","lines":[lo,hi]}
    captions: dict[str, str] = field(default_factory=dict)  # "global" | segment index as str

    def __post_init__(self):
        if self.duration <= 0:
            raise ValidationError(f"record {self.id!r}: duration must be positive")
        if self.sampling_rate <= 0:
            raise ValidationError(f"record {self.id!r}: sampling_rate must be positive")
        if self.channels < 1:
            raise ValidationError(f"record {self.id!r}: channels must be >= 1")
        # Manifests come from outside: a string where a list of lines belongs
        # would otherwise be joined per character by the lyric gate.
        for name in ("lyrics", "transcript"):
            lines = getattr(self, name)
            if lines is not None and not _is_list_of(lines, str):
                raise ValidationError(f"record {self.id!r}: {name} must be a list of strings")
        if self.lyrics_lrc is not None and not isinstance(self.lyrics_lrc, str):
            raise ValidationError(f"record {self.id!r}: lyrics_lrc must be a string")
        if not _is_str_map_of(self.quality_scores, _is_number):
            raise ValidationError(f"record {self.id!r}: quality_scores must map names to numbers")
        if not _is_str_map_of(self.captions, lambda v: isinstance(v, str)):
            raise ValidationError(f"record {self.id!r}: captions must map keys to strings")
        if not _is_list_of(self.segments, dict):
            raise ValidationError(f"record {self.id!r}: segments must be a list of objects")

    @classmethod
    def from_json(cls, obj: dict) -> "RecordManifest":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in obj.items() if k in known})

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "duration": self.duration,
            "sampling_rate": self.sampling_rate,
            "channels": self.channels,
            "compression_ok": self.compression_ok,
            "energy_ok": self.energy_ok,
            "quality_scores": self.quality_scores,
        }
        if self.lyrics is not None:
            out["lyrics"] = self.lyrics
        if self.lyrics_lrc is not None:
            out["lyrics_lrc"] = self.lyrics_lrc
        if self.transcript is not None:
            out["transcript"] = self.transcript
        if self.segments:
            out["segments"] = self.segments
        if self.captions:
            out["captions"] = self.captions
        return out


@dataclass
class FilterReport:
    kept: list[str] = field(default_factory=list)
    rejected: list[tuple[str, str]] = field(default_factory=list)  # (id, reason code)
    flagged: dict[str, list[str]] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kept": self.kept,
            "rejected": [{"id": rid, "reason": reason} for rid, reason in self.rejected],
            "flagged": self.flagged,
        }


def read_manifest(path) -> tuple[list[RecordManifest], list[tuple[int, str]]]:
    """JSON-lines reader; malformed records are returned as (line, error)."""
    records, rejects = [], []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(RecordManifest.from_json(json.loads(line)))
        except (json.JSONDecodeError, TypeError, KeyError, ValueError) as exc:
            rejects.append((lineno, str(exc)))
    return records, rejects


def write_manifest(records: list[RecordManifest], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json()) + "\n")


# -----------------------------------------------------------------------------
# Stage filters
# -----------------------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation on the sorted sample (the inclusive convention)."""
    if not values:
        raise ContractError("quantile of an empty sample")
    if not (0.0 <= q <= 1.0):
        raise ContractError(f"quantile level {q} outside [0, 1]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    frac = pos - lo
    if lo + 1 >= len(ordered):
        return float(ordered[-1])
    return float(ordered[lo] + frac * (ordered[lo + 1] - ordered[lo]))


def _aggregate_score(record: RecordManifest) -> float | None:
    if not record.quality_scores:
        return None
    return sum(record.quality_scores.values()) / len(record.quality_scores)


def pretrain_filter(
    records: list[RecordManifest],
    min_sampling_rate: float = 32_000.0,
    min_duration: float = 30.0,
    max_duration: float = 360.0,
    drop_fraction: float = 0.05,
) -> FilterReport:
    """Stage-one gate: reject sampling rates below 32 kHz (inclusive boundary
    kept), durations outside [30 s, 6 min], then the lowest 5% by aggregate
    quality score. Reason codes name the first rule that fired."""
    report = FilterReport()
    survivors: list[tuple[RecordManifest, float]] = []
    for rec in records:
        if rec.sampling_rate < min_sampling_rate:
            report.rejected.append((rec.id, "sampling-rate"))
            continue
        if not (min_duration <= rec.duration <= max_duration):
            report.rejected.append((rec.id, "duration-out-of-range"))
            continue
        agg = _aggregate_score(rec)
        if agg is None:
            report.rejected.append((rec.id, "missing-score"))
            continue
        survivors.append((rec, agg))
    if survivors:
        cutoff = quantile([score for _, score in survivors], drop_fraction)
        for rec, score in survivors:
            if score < cutoff:
                report.rejected.append((rec.id, "quality-percentile"))
            else:
                report.kept.append(rec.id)
    return report


def finetune_filter(
    records: list[RecordManifest],
    min_sampling_rate: float = 44_000.0,
    required_channels: int = 2,
) -> FilterReport:
    """Stage-two gate: >= 44 kHz, stereo, and score >= median for *every*
    quality metric (medians over the full input manifest)."""
    report = FilterReport()
    metric_values: dict[str, list[float]] = {}
    for rec in records:
        for name, value in rec.quality_scores.items():
            metric_values.setdefault(name, []).append(value)
    medians = {name: quantile(vals, 0.5) for name, vals in metric_values.items()}
    for rec in records:
        if rec.sampling_rate < min_sampling_rate:
            report.rejected.append((rec.id, "sampling-rate"))
            continue
        if rec.channels != required_channels:
            report.rejected.append((rec.id, "channels"))
            continue
        if not rec.quality_scores:
            report.rejected.append((rec.id, "missing-score"))
            continue
        below = next(
            (name for name in medians if rec.quality_scores.get(name, -float("inf")) < medians[name]),
            None,
        )
        if below is not None:
            reason = (
                f"below-median:{below}"
                if below in rec.quality_scores
                else "missing-score"
            )
            report.rejected.append((rec.id, reason))
            continue
        report.kept.append(rec.id)
    return report


# -----------------------------------------------------------------------------
# Lyric verification
# -----------------------------------------------------------------------------


def levenshtein(a: str, b: str) -> int:
    """Character-level edit distance by the bit-parallel algorithm of Myers
    (J. ACM 1999) in Hyyrö's 2003 formulation, with Python ints as bit
    vectors. The vectors span the longer string and the loop runs over the
    shorter one: each iteration costs interpreter overhead, while a wider
    int costs little at song-lyric lengths."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << len(a)) - 1
    high = 1 << (len(a) - 1)
    pv, mv, score = mask, 0, len(a)
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = (ph << 1) | 1  # row 0 of the DP grows by one per column
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def normalize_lyric_text(text: str) -> str:
    """Lowercase, drop punctuation, collapse whitespace. CJK text survives
    per character, so char-level distances compare it naturally."""
    kept = []
    for ch in text.lower():
        if unicodedata.category(ch).startswith("P"):
            continue
        kept.append(ch)
    return " ".join("".join(kept).split())


def _lyric_text(record: RecordManifest) -> str:
    if record.lyrics is not None:
        return " ".join(record.lyrics)
    doc = parse_lrc(record.lyrics_lrc, total_duration=record.duration)
    return " ".join(line.text for line in doc.lines if line.text)


def lyric_edit_filter(
    records: list[RecordManifest], max_normalized_distance: float = 0.3
) -> FilterReport:
    """Normalized character edit distance between lyrics and transcript,
    divided by max(lengths); above the threshold the record is discarded.
    Records without lyrics pass; records without a transcript pass flagged
    "unverified"; LRC lyrics that do not parse are rejected "invalid-lrc"."""
    report = FilterReport()
    for rec in records:
        if rec.lyrics is None and rec.lyrics_lrc is None:
            report.kept.append(rec.id)
            continue
        if rec.transcript is None:
            report.kept.append(rec.id)
            report.flagged.setdefault(rec.id, []).append("unverified")
            continue
        try:
            lyric = _lyric_text(rec)
        except (ParseError, ValidationError):
            report.rejected.append((rec.id, "invalid-lrc"))
            continue
        a = normalize_lyric_text(lyric)
        b = normalize_lyric_text(" ".join(rec.transcript))
        longest = max(len(a), len(b))
        distance = levenshtein(a, b) / longest if longest else 0.0
        if distance > max_normalized_distance:
            report.rejected.append((rec.id, "edit-distance"))
        else:
            report.kept.append(rec.id)
    return report


# -----------------------------------------------------------------------------
# Caption assembly and boundary prompts
# -----------------------------------------------------------------------------


def assemble_segment_caption(label: str, raw_caption: str) -> str:
    """Prepend the structural label: "[label] caption". Re-assembling an
    already-labeled caption is rejected by the prefix check."""
    if not label:
        raise ContractError("label must be non-empty")
    if raw_caption.startswith("[") and "] " in raw_caption[:64]:
        raise ContractError(f"caption already carries a label prefix: {raw_caption[:32]!r}")
    return f"[{label}] {raw_caption}"


def insert_boundary_prompts(
    spec: PromptSpec, total_duration: float, frame_rate: float
) -> PromptSpec:
    """Add fixed boundary segments over the first and last 0.5 s, trimming
    any overlapping segments to keep the non-overlap invariant intact."""
    if total_duration <= 1.0:
        raise ContractError(f"total_duration {total_duration}s is too short for boundary prompts")
    start_end = BOUNDARY_SECONDS
    end_start = total_duration - BOUNDARY_SECONDS
    trimmed: list[SegmentSpec] = []
    for seg in spec.segments:
        t_s, t_e = max(seg.t_s, start_end), min(seg.t_e, end_start)
        if t_s >= t_e:
            continue  # fully covered by a boundary window
        trimmed.append(SegmentSpec(t_s=t_s, t_e=t_e, text=seg.text, kind=seg.kind))
    segments = [
        SegmentSpec(0.0, start_end, BOUNDARY_START_TEXT, kind=BOUNDARY),
        *trimmed,
        SegmentSpec(end_start, total_duration, BOUNDARY_END_TEXT, kind=BOUNDARY),
    ]
    for seg in (segments[0], segments[-1]):
        if time_to_frame(seg.t_s, frame_rate) >= time_to_frame(seg.t_e, frame_rate):
            raise ValidationError(
                f"boundary window [{seg.t_s}, {seg.t_e})s is empty at {frame_rate} Hz"
            )
    return PromptSpec(
        global_text=spec.global_text,
        segments=tuple(segments),
        negative=spec.negative,
        duration_s=spec.duration_s,
    )


# -----------------------------------------------------------------------------
# Preference-pair selection
# -----------------------------------------------------------------------------


def dpo_pair_select(
    group: list[tuple[str, float]], min_diff: float
) -> list[tuple[str, str]]:
    """Every ordered (win, lose) pair whose score difference exceeds min_diff
    and whose winner scores above the group's third quartile (linear
    interpolation). Output sorted by (win id, lose id)."""
    if len(group) < 2:
        raise ContractError("pair selection needs a group of at least 2")
    q3 = quantile([score for _, score in group], 0.75)
    pairs = [
        (win_id, lose_id)
        for win_id, win_score in group
        for lose_id, lose_score in group
        if win_score - lose_score > min_diff and win_score > q3
    ]
    return sorted(pairs)


# -----------------------------------------------------------------------------
# Duration-dataset builder
# -----------------------------------------------------------------------------

DURATION_INSTRUCTION_TEMPLATE = """You are a professional music composer and vocal arranger.

Your task:

1. Analyze the lyrics and the song description below.

2. For each line of lyrics, estimate a reasonable singing duration. Base your estimation jointly on:
- The intrinsic characteristics of the line itself (e.g., length, phrasing, complexity)
- The overall song attributes;
- The structural flow of the song, including instrumental breaks, natural pauses, and transitions;

3. Return: Output a complete `.lrc` style list with timestamps.

Below are the target global song description and lyrics. Please follow the instructions above and return the completed .lrc file directly.

Song Description

{description}

Lyrics

{lyrics}

LRC Prediction:
"""


def _render_lyrics_block(record: RecordManifest) -> str:
    """Boundary marker, then per structural block a bracketed segment caption
    followed by its plain lyric lines."""
    parts = [f"[{BOUNDARY_START_TEXT}]"]
    lines = record.lyrics or []
    for idx, seg in enumerate(record.segments):
        caption = record.captions.get(str(idx))
        if caption is None:
            raise KeyError(str(idx))
        parts.append(f"[{caption}]")
        lo, hi = seg.get("lines", [0, 0])
        parts.extend(lines[lo:hi])
    parts.append(f"[{BOUNDARY_END_TEXT}]")
    return "\n".join(parts)


def build_duration_dataset(
    records: list[RecordManifest],
) -> tuple[list[dict], list[tuple[str, str]]]:
    """(instruction, target) pairs for timestamp-predictor training.

    The instruction renders the template with the record's global description
    and caption-bracketed lyrics; the target is the canonical LRC text of the
    ground-truth document. Records lacking timestamps or captions, or whose
    LRC does not parse, are skipped with a reason."""
    entries: list[dict] = []
    skipped: list[tuple[str, str]] = []
    for rec in records:
        if rec.lyrics_lrc is None:
            skipped.append((rec.id, "missing-timestamps"))
            continue
        description = rec.captions.get("global")
        if description is None:
            skipped.append((rec.id, "missing-caption:global"))
            continue
        try:
            lyrics_block = _render_lyrics_block(rec)
        except KeyError as exc:
            skipped.append((rec.id, f"missing-caption:{exc.args[0]}"))
            continue
        try:
            doc = parse_lrc(rec.lyrics_lrc, total_duration=rec.duration)
        except (ParseError, ValidationError):
            skipped.append((rec.id, "invalid-lrc"))
            continue
        entries.append(
            {
                "instruction": DURATION_INSTRUCTION_TEMPLATE.format(
                    description=description, lyrics=lyrics_block
                ),
                "target": serialize_lrc(doc),
            }
        )
    return entries, skipped
