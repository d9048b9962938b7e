"""Heuristic sentence-level duration prediction.

Stands behind the interface a learned timestamp predictor would satisfy:
plain lyric lines plus prompts in, a timestamped LrcDocument out. Each line
gets base + per-syllable time (syllables approximated by CJK character count
plus maximal vowel groups elsewhere), chorus-flavoured segments run 10%
slower, and segments are separated by fixed instrumental gaps. An optional
total-duration hint rescales every timestamp proportionally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ContractError
from .lrc import LrcDocument, LrcLine

__all__ = ["DurationHeuristic", "syllable_count", "predict_durations"]

_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")

# Main CJK blocks: unified ideographs (+ext A), hiragana, katakana, hangul.
_CJK_RANGES = (
    (0x3400, 0x4DBF),
    (0x4E00, 0x9FFF),
    (0x3040, 0x30FF),
    (0xAC00, 0xD7AF),
)


def _is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


def syllable_count(text: str) -> int:
    """CJK characters count one each; Latin-script syllables are approximated
    by maximal vowel groups."""
    cjk = sum(1 for ch in text if _is_cjk(ch))
    rest = "".join(ch for ch in text if not _is_cjk(ch)).lower()
    return cjk + len(_VOWEL_GROUP_RE.findall(rest))


@dataclass(frozen=True)
class DurationHeuristic:
    """The rates predict_durations uses; deliberately plain."""

    base_seconds: float = 0.4
    per_syllable_seconds: float = 0.35
    chorus_slowdown: float = 1.1
    gap_seconds: float = 2.0

    def line_seconds(self, text: str, chorus: bool) -> float:
        dur = self.base_seconds + self.per_syllable_seconds * syllable_count(text)
        return dur * self.chorus_slowdown if chorus else dur


def _split_even(n_lines: int, n_groups: int) -> list[int]:
    base, rem = divmod(n_lines, n_groups)
    return [base + (1 if i < rem else 0) for i in range(n_groups)]


def predict_durations(
    lyrics: list[str],
    global_prompt: str = "",
    segment_prompts: list[str] | None = None,
    total_duration_hint: float | None = None,
) -> LrcDocument:
    """Assign onset timestamps to plain lyric lines.

    Lines are split evenly (in order) across the segment prompts; a segment
    whose prompt mentions "chorus" uses the slower chorus rate. Blank lines
    are dropped. With a hint, all timestamps scale by hint / unscaled_total.
    """
    lines = [ln.strip() for ln in lyrics if ln.strip()]
    if not lines:
        raise ContractError("predict_durations needs at least one non-empty lyric line")
    if total_duration_hint is not None and total_duration_hint <= 0:
        raise ContractError("total_duration_hint must be positive")
    prompts = list(segment_prompts) if segment_prompts else [global_prompt]
    prompts = prompts[: len(lines)] or [global_prompt]  # never more groups than lines

    sizes = _split_even(len(lines), len(prompts))
    heuristic = DurationHeuristic()
    t = heuristic.gap_seconds  # intro gap
    stamped: list[LrcLine] = []
    idx = 0
    for gi, size in enumerate(sizes):
        chorus = "chorus" in prompts[gi].lower()
        for _ in range(size):
            stamped.append(LrcLine(timestamp=t, text=lines[idx]))
            t += heuristic.line_seconds(lines[idx], chorus)
            idx += 1
        if gi < len(sizes) - 1:
            t += heuristic.gap_seconds
    total = t + heuristic.gap_seconds  # outro gap

    if total_duration_hint is not None:
        factor = total_duration_hint / total
        stamped = [LrcLine(timestamp=line.timestamp * factor, text=line.text) for line in stamped]
        total = total_duration_hint
    return LrcDocument(lines=tuple(stamped), total_duration=total)
