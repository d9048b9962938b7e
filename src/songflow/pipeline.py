"""Manifest-level data pipeline.

Records describe songs (metadata, quality scores, lyrics, transcripts,
structure, captions); everything that would need audio models upstream is
represented by pre-populated manifest fields. Stage filters, the lyric
edit-distance gate, win-loss pair selection and the duration-dataset
builder all operate on these records and emit JSON artifacts.

Boundary conventions, fixed here because selection depends on them:
percentiles/quartiles use linear interpolation on the sorted sample;
"lower than 32 kHz" is a strict <; "top 50%" means score >= median for
every metric, medians taken over the full input manifest; ties at a
percentile cutoff are kept.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field

from .checkpoint import write_jsonl_atomic
from .errors import ValidationError
from .lrc import parse_lrc, serialize_lrc
from .schema import is_number, loads, read_text, split_lines

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
    "quantile",
    "dpo_pair_select",
    "build_duration_dataset",
    "BOUNDARY_START_TEXT",
    "BOUNDARY_END_TEXT",
]

BOUNDARY_START_TEXT = "This piece is the start of the song."
BOUNDARY_END_TEXT = "This piece is the end of the song."


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
        problem = self._schema_problem()
        if problem is not None:
            raise ValidationError(f"record {self.id!r}: {problem}")

    def _schema_problem(self) -> str | None:
        """The first schema rule the record breaks, or None. Every pipeline
        stage reads the whole manifest, so the checks are plain loops: no
        generator or lambda per field."""
        if not isinstance(self.id, str):
            return "id must be a string"
        if not (is_number(self.duration) and self.duration > 0):
            return "duration must be positive"
        if not (is_number(self.sampling_rate) and self.sampling_rate > 0):
            return "sampling_rate must be positive"
        channels = self.channels
        if isinstance(channels, bool) or not isinstance(channels, int) or channels < 1:
            return "channels must be an integer >= 1"
        if not isinstance(self.compression_ok, bool):
            return "compression_ok must be a boolean"
        if not isinstance(self.energy_ok, bool):
            return "energy_ok must be a boolean"
        # A string where a list of lines belongs would otherwise be joined
        # per character by the lyric gate.
        for name, lines in (("lyrics", self.lyrics), ("transcript", self.transcript)):
            if lines is None:
                continue
            if not isinstance(lines, list):
                return f"{name} must be a list of strings"
            for line in lines:
                if not isinstance(line, str):
                    return f"{name} must be a list of strings"
        if self.lyrics_lrc is not None and not isinstance(self.lyrics_lrc, str):
            return "lyrics_lrc must be a string"
        if not isinstance(self.quality_scores, dict):
            return "quality_scores must map names to numbers"
        for name, score in self.quality_scores.items():
            if not (isinstance(name, str) and is_number(score)):
                return "quality_scores must map names to numbers"
        if not isinstance(self.captions, dict):
            return "captions must map keys to strings"
        for key, caption in self.captions.items():
            if not (isinstance(key, str) and isinstance(caption, str)):
                return "captions must map keys to strings"
        if not isinstance(self.segments, list):
            return "segments must be a list of objects"
        for seg in self.segments:
            if not isinstance(seg, dict):
                return "segments must be a list of objects"
            if "lines" in seg and not _is_line_range(seg["lines"]):
                return "segment lines must be [lo, hi] integers with 0 <= lo <= hi"
        return None

    @classmethod
    def from_json(cls, obj: dict) -> "RecordManifest":
        """A record from one parsed manifest line: a JSON object of known
        fields, so a misspelled key is a schema reject instead of a field
        that silently keeps its default."""
        if not isinstance(obj, dict):
            raise ValidationError(f"record must be a JSON object, got {type(obj).__name__}")
        if not _RECORD_FIELDS.issuperset(obj):
            unknown = [k for k in obj if k not in _RECORD_FIELDS]
            raise ValidationError(f"unknown record keys: {unknown}")
        return cls(**obj)

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


_RECORD_FIELDS = frozenset(RecordManifest.__dataclass_fields__)


def _is_line_range(lines) -> bool:
    if not (isinstance(lines, list) and len(lines) == 2):
        return False
    lo, hi = lines
    return (
        isinstance(lo, int) and isinstance(hi, int)
        and not isinstance(lo, bool) and not isinstance(hi, bool)
        and 0 <= lo <= hi
    )


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
    """JSON-lines reader; malformed records are returned as (line, error),
    and so is a record whose id an earlier record has: its error names the
    earlier record's line."""
    records, rejects = [], []
    id_lines: dict[str, int] = {}
    for lineno, line in enumerate(split_lines(read_text(path, "manifest")), start=1):
        if not line.strip():
            continue
        try:
            record = RecordManifest.from_json(loads(line))
        except (TypeError, KeyError, ValueError) as exc:  # JSONDecodeError is a ValueError
            rejects.append((lineno, str(exc)))
            continue
        first = id_lines.setdefault(record.id, lineno)
        if first == lineno:
            records.append(record)
        else:
            rejects.append((lineno, f"record {record.id!r}: id repeats line {first}"))
    return records, rejects


def write_manifest(records: list[RecordManifest], path) -> None:
    write_jsonl_atomic(path, (rec.to_json() for rec in records))


# -----------------------------------------------------------------------------
# Stage filters
# -----------------------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation on the sorted sample (the inclusive convention),
    which every caller passes non-empty."""
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
    min_sampling_rate: float,
    min_duration: float,
    max_duration: float,
    drop_fraction: float,
) -> FilterReport:
    """Stage-one gate: reject sampling rates below min_sampling_rate (the
    boundary is kept), durations outside [min_duration, max_duration],
    records flagged compression_ok or energy_ok false, then the lowest
    drop_fraction by aggregate quality score. Reason codes name
    the first rule that fired. PipelineConfig holds the defaults."""
    report = FilterReport()
    survivors: list[tuple[RecordManifest, float]] = []
    for rec in records:
        if rec.sampling_rate < min_sampling_rate:
            report.rejected.append((rec.id, "sampling-rate"))
            continue
        if not (min_duration <= rec.duration <= max_duration):
            report.rejected.append((rec.id, "duration-out-of-range"))
            continue
        if not rec.compression_ok:
            report.rejected.append((rec.id, "compression"))
            continue
        if not rec.energy_ok:
            report.rejected.append((rec.id, "energy"))
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
    min_sampling_rate: float,
    required_channels: int,
) -> FilterReport:
    """Stage-two gate: >= min_sampling_rate, required_channels, and score >=
    median for *every* quality metric (medians over the full input manifest)."""
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


def lyric_edit_filter(records: list[RecordManifest], max_normalized_distance: float) -> FilterReport:
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
        except ValidationError:
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
# Preference-pair selection
# -----------------------------------------------------------------------------


def dpo_pair_select(
    group: list[tuple[str, float]], min_diff: float
) -> list[tuple[str, str]]:
    """Every ordered (win, lose) pair whose score difference exceeds min_diff
    and whose winner scores above the group's third quartile (linear
    interpolation). Output sorted by (win id, lose id). A one-score group
    gives no pair, since min_diff >= 0 (PipelineConfig holds it)."""
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


def _structure_problem(record: RecordManifest, lines: list[str] | None) -> str | None:
    """The skip reason of the first segment without a caption, or whose line
    range runs past the lyric lines (unknown when `lines` is None)."""
    for idx, seg in enumerate(record.segments):
        if str(idx) not in record.captions:
            return f"missing-caption:{idx}"
        if lines is not None and seg.get("lines", [0, 0])[1] > len(lines):
            return f"segment-lines:{idx}"
    return None


def _render_lyrics_block(record: RecordManifest, lines: list[str]) -> str:
    """Boundary marker, then per structural block a bracketed segment caption
    followed by its lyric lines."""
    parts = [f"[{BOUNDARY_START_TEXT}]"]
    for idx, seg in enumerate(record.segments):
        parts.append(f"[{record.captions[str(idx)]}]")
        lo, hi = seg.get("lines", [0, 0])
        parts.extend(lines[lo:hi])
    parts.append(f"[{BOUNDARY_END_TEXT}]")
    return "\n".join(parts)


def build_duration_dataset(
    records: list[RecordManifest],
) -> tuple[list[dict], list[tuple[str, str]]]:
    """(instruction, target) pairs for timestamp-predictor training.

    The instruction renders the template with the record's global description
    and caption-bracketed lyrics: the plain `lyrics` lines, or the LRC's
    non-empty line texts when the record has none. The target is the
    canonical LRC text of the ground-truth document. Records lacking
    timestamps or captions, whose segment lines run past the lyrics, or whose
    LRC does not parse are skipped with a reason, in that order."""
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
            doc = parse_lrc(rec.lyrics_lrc, total_duration=rec.duration)
        except ValidationError:
            doc = None
        lines = rec.lyrics
        if lines is None and doc is not None:
            lines = [line.text for line in doc.lines if line.text]
        problem = _structure_problem(rec, lines)
        if problem is not None:
            skipped.append((rec.id, problem))
            continue
        if doc is None:
            skipped.append((rec.id, "invalid-lrc"))
            continue
        entries.append(
            {
                "instruction": DURATION_INSTRUCTION_TEMPLATE.format(
                    description=description, lyrics=_render_lyrics_block(rec, lines)
                ),
                "target": serialize_lrc(doc),
            }
        )
    return entries, skipped
