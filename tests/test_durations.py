import numpy as np
import pytest

from songflow.durations import GAP_SECONDS, line_seconds, predict_durations, syllable_count
from songflow.errors import ContractError
from songflow.lrc import parse_lrc, serialize_lrc


def test_syllable_count_vowel_groups():
    assert syllable_count("la") == 1
    assert syllable_count("hello world") == 3  # e, o, o
    assert syllable_count("rhythm") == 1  # the y
    assert syllable_count("hmm") == 0


def test_syllable_count_cjk_per_character():
    assert syllable_count("春眠不覚暁") == 5
    assert syllable_count("春 la") == 2


def test_single_line_with_hint():
    doc = predict_durations(["one lonely line"], "", [], total_duration_hint=10.0)
    assert len(doc.lines) == 1
    assert doc.total_duration == 10.0
    unscaled_total = 2 * GAP_SECONDS + line_seconds("one lonely line", chorus=False)
    assert doc.lines[0].timestamp == pytest.approx(GAP_SECONDS * 10.0 / unscaled_total)


def test_empty_lyrics_is_contract_error():
    with pytest.raises(ContractError):
        predict_durations([], "", [], None)
    with pytest.raises(ContractError):
        predict_durations(["", "   "], "", [], None)


def _line_durations(doc, n_first_group):
    """Recover per-line durations from consecutive onsets within one group."""
    ts = [l.timestamp for l in doc.lines]
    return [b - a for a, b in zip(ts[: n_first_group - 1], ts[1:n_first_group])]


def test_doubling_characters_increases_every_duration(rng):
    syllables = ["la", "mi", "so", "den", "rol", "ka"]
    for _ in range(25):
        n = int(rng.integers(2, 6))
        lines = [
            "".join(syllables[int(i)] for i in rng.integers(0, len(syllables), size=rng.integers(1, 5)))
            for _ in range(n)
        ]
        base = predict_durations(lines, "", [], None)
        doubled = predict_durations([ln + ln for ln in lines], "", [], None)
        for ln in lines:
            assert line_seconds(ln + ln, False) > line_seconds(ln, False)
        # Onset gaps within the single group reflect the increase directly.
        for a, b in zip(_line_durations(base, n), _line_durations(doubled, n)):
            assert b > a


def test_hint_double_is_pure_scale():
    lines = ["la la la", "mi mi", "so"]
    base = predict_durations(lines, "", [], None)
    scaled = predict_durations(lines, "", [], total_duration_hint=base.total_duration * 2)
    for a, b in zip(base.lines, scaled.lines):
        assert b.timestamp == pytest.approx(2.0 * a.timestamp)
    assert scaled.total_duration == pytest.approx(2.0 * base.total_duration)


def test_chorus_segments_run_slower():
    lines = ["same words here", "same words here"]
    verse = predict_durations(lines, "", ["gentle verse", "gentle verse"], None)
    chorus = predict_durations(lines, "", ["soaring chorus", "soaring chorus"], None)
    assert line_seconds("same words here", True) == pytest.approx(
        1.1 * line_seconds("same words here", False)
    )
    assert chorus.total_duration > verse.total_duration


def test_output_always_parses_and_validates(rng):
    words = ["la", "mei", "sol", "春", "風"]
    for _ in range(30):
        n = int(rng.integers(1, 10))
        lines = [
            " ".join(words[int(i)] for i in rng.integers(0, len(words), size=rng.integers(1, 6)))
            for _ in range(n)
        ]
        k = int(rng.integers(0, 4))
        prompts = [f"part {i}" for i in range(k)]
        hint = float(rng.uniform(20, 200)) if rng.random() < 0.5 else None
        doc = predict_durations(lines, "", prompts, total_duration_hint=hint)
        text = serialize_lrc(doc)
        back = parse_lrc(text, total_duration=doc.total_duration)
        assert len(back.lines) == n
        ts = [l.timestamp for l in doc.lines]
        assert all(a <= b for a, b in zip(ts, ts[1:]))
        assert ts[-1] < doc.total_duration
