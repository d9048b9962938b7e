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

from .errors import ContractError
from .lrc import LrcDocument, LrcLine

__all__ = ["line_seconds", "syllable_count", "predict_durations"]

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


# The rates predict_durations uses; deliberately plain.
BASE_SECONDS = 0.4
PER_SYLLABLE_SECONDS = 0.35
CHORUS_SLOWDOWN = 1.1
GAP_SECONDS = 2.0


def line_seconds(text: str, chorus: bool) -> float:
    dur = BASE_SECONDS + PER_SYLLABLE_SECONDS * syllable_count(text)
    return dur * CHORUS_SLOWDOWN if chorus else dur


def _split_even(n_lines: int, n_groups: int) -> list[int]:
    base, rem = divmod(n_lines, n_groups)
    return [base + (1 if i < rem else 0) for i in range(n_groups)]


def predict_durations(
    lyrics: list[str],
    global_prompt: str,
    segment_prompts: list[str],
    total_duration_hint: float | None,
) -> LrcDocument:
    """Assign onset timestamps to plain lyric lines.

    Lines are split evenly (in order) across the segment prompts, or all go
    under the global prompt when there are none; a segment whose prompt
    mentions "chorus" uses the slower chorus rate. Blank lines are dropped.
    With a hint, all timestamps scale by hint / unscaled_total.
    """
    lines = [ln.strip() for ln in lyrics if ln.strip()]
    if not lines:
        raise ContractError("predict_durations needs at least one non-empty lyric line")
    if total_duration_hint is not None and total_duration_hint <= 0:
        raise ContractError("total_duration_hint must be positive")
    prompts = segment_prompts[: len(lines)] or [global_prompt]  # never more groups than lines

    sizes = _split_even(len(lines), len(prompts))
    t = GAP_SECONDS  # intro gap
    stamped: list[LrcLine] = []
    idx = 0
    for gi, size in enumerate(sizes):
        chorus = "chorus" in prompts[gi].lower()
        for _ in range(size):
            stamped.append(LrcLine(timestamp=t, text=lines[idx]))
            t += line_seconds(lines[idx], chorus)
            idx += 1
        if gi < len(sizes) - 1:
            t += GAP_SECONDS
    total = t + GAP_SECONDS  # outro gap

    if total_duration_hint is not None:
        factor = total_duration_hint / total
        stamped = [LrcLine(timestamp=line.timestamp * factor, text=line.text) for line in stamped]
        total = total_duration_hint
    return LrcDocument(lines=tuple(stamped), total_duration=total)
