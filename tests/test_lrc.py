import math
from fractions import Fraction

import numpy as np
import pytest

from songflow.errors import ParseError, ValidationError
from songflow.lrc import (
    LrcDocument,
    LrcLine,
    SegmentSpec,
    frame_count,
    parse_lrc,
    serialize_lrc,
    serialize_timestamp,
    time_to_frame,
    validate_segments,
    windows_from_segments,
)


def test_parse_single_line():
    doc = parse_lrc("[00:12.34] hello")
    assert len(doc.lines) == 1
    assert doc.lines[0].timestamp == pytest.approx(12.34)
    assert doc.lines[0].text == "hello"


def test_parse_accepts_equal_timestamps():
    doc = parse_lrc("[01:00.00] a\n[01:00.00] b")
    assert [l.text for l in doc.lines] == ["a", "b"]
    assert doc.lines[0].timestamp == doc.lines[1].timestamp == 60.0


def test_parse_rejects_out_of_range_seconds():
    with pytest.raises(ParseError):
        parse_lrc("[00:61.00] x")


def test_parse_rejects_a_minute_field_past_float_range():
    for digits in (308, 400, 5000):  # inf seconds, OverflowError, int()'s digit limit
        with pytest.raises(ParseError) as err:
            parse_lrc("[00:00.00] a\n[" + "9" * digits + ":00.00] x")
        assert err.value.line_number == 2


@pytest.mark.parametrize(
    "line", ["[\u0660\u0661:02.\u0660\u0663] la", "[01:0\u0662.03] la", "[01:02.\uff10\uff13] la"]
)
def test_parse_rejects_non_ascii_digits_in_a_timestamp(line):
    """int() reads every Unicode decimal digit, so only the pattern can keep
    "[\u0660\u0661:02.\u0660\u0663]" from parsing as 62.03 s."""
    with pytest.raises(ParseError) as err:
        parse_lrc("[00:01.00] ok\n" + line)
    assert err.value.line_number == 2


def test_parse_rejects_malformed_and_reports_line():
    with pytest.raises(ParseError) as err:
        parse_lrc("[00:01.00] ok\nnot a lyric line")
    assert err.value.line_number == 2


def test_malformed_line_after_blank_lines_keeps_its_line_number():
    """Blank lines are only recognised once the tag match has failed; they
    still count towards the reported line number."""
    with pytest.raises(ParseError) as err:
        parse_lrc("\n  \n[00:01.00] ok\n\t\n\n[00:02.00]x no space\n")
    assert err.value.line_number == 6
    with pytest.raises(ParseError) as err:
        parse_lrc("\n\n   stray text\n")
    assert err.value.line_number == 3


def test_parse_rejects_decreasing_timestamps():
    with pytest.raises(ValidationError):
        parse_lrc("[00:10.00] a\n[00:05.00] b")


def test_parse_skips_blank_lines_and_allows_bare_tags():
    doc = parse_lrc("\n[00:01.00] a\n\n[00:02.00]\n")
    assert [l.text for l in doc.lines] == ["a", ""]


def test_serialize_examples():
    doc = LrcDocument(lines=(LrcLine(12.34, "hello"),), total_duration=20.0)
    assert serialize_lrc(doc) == "[00:12.34] hello\n"
    doc = LrcDocument(lines=(LrcLine(125.0, "x"),), total_duration=130.0)
    assert serialize_lrc(doc) == "[02:05.00] x\n"


def test_roundtrip_on_random_documents(rng):
    for _ in range(100):
        n = int(rng.integers(1, 12))
        ts = np.sort(rng.uniform(0, 300, size=n))
        lines = tuple(
            LrcLine(float(t), f"line {i} with words") for i, t in enumerate(ts)
        )
        doc = LrcDocument(lines=lines, total_duration=301.0)
        once = serialize_lrc(doc)
        parsed = parse_lrc(once, total_duration=301.0)
        for orig, back in zip(doc.lines, parsed.lines):
            assert abs(orig.timestamp - back.timestamp) <= 0.005
            assert orig.text == back.text
        assert serialize_lrc(parsed) == once  # canonical text fixpoint


def test_canonical_text_is_a_fixpoint_of_parse_then_serialize(rng):
    """Random canonical documents, bare tags and minutes >= 100 included,
    come back text-exact; every tag matches serialize_timestamp."""
    for _ in range(200):
        n = int(rng.integers(0, 15))
        centis = np.sort(rng.integers(0, 200 * 6000, size=n))  # up to 200 minutes
        lines = []
        for cs in centis.tolist():
            tag = f"[{cs // 6000:02d}:{cs // 100 % 60:02d}.{cs % 100:02d}]"
            assert tag == serialize_timestamp(cs / 100)
            text = ["", "", "la", "la la [00:01.00]", " padded ", "歌 词"][int(rng.integers(0, 6))]
            lines.append(f"{tag} {text}" if text else tag)
        canonical = "".join(line + "\n" for line in lines)
        assert serialize_lrc(parse_lrc(canonical)) == canonical
    long_song = "[100:00.00] a\n[123:59.99]\n[1000:00.01] b\n"
    assert serialize_lrc(parse_lrc(long_song)) == long_song


# The breaks str.splitlines() knows that LrcLine does not forbid.
_TEXT_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", _TEXT_BREAKS, ids=[f"U+{ord(c):04X}" for c in _TEXT_BREAKS])
def test_line_text_with_a_unicode_break_round_trips(brk):
    doc = LrcDocument(lines=(LrcLine(1.0, f"la{brk}la"), LrcLine(2.5, f"so {brk}")),
                      total_duration=3.5)
    once = serialize_lrc(doc)
    parsed = parse_lrc(once, total_duration=3.5)
    assert parsed == doc
    assert serialize_lrc(parsed) == once


def test_crlf_and_cr_text_parse_as_lf():
    lf = "[00:01.00] a\n\n[00:02.50] b c\n[00:03.00]\n"
    expected = parse_lrc(lf)
    assert parse_lrc(lf.replace("\n", "\r\n")) == expected
    assert parse_lrc(lf.replace("\n", "\r")) == expected
    with pytest.raises(ParseError) as err:  # line numbers count CRLF and CR breaks once
        parse_lrc("[00:01.00] a\r\n\r\nstray\r")
    assert err.value.line_number == 3


def test_time_to_frame_examples():
    assert time_to_frame(0.0, 21.5) == 0
    assert time_to_frame(2.0, 21.5) == 43
    assert time_to_frame(10.0, 21.5) == 215
    assert time_to_frame(4.0, 44100 / 2048) == 86  # 44.1 kHz audio, 2048-sample hop


# Integer rates, and non-integer ones: 21.5 Hz and a 44.1 kHz / 2048 hop
# (21.533203125 Hz), whose exact ratios have denominators 2 and 2048.
GRID_RATES = [4.0, 25.0, 50.0, 100.0, 21.5, 44100 / 2048]


@pytest.mark.parametrize("rate", GRID_RATES)
def test_time_to_frame_is_exact_on_every_centisecond_stamp(rate):
    """Every [mm:ss.xx] stamp below 6 min, as parse_lrc reads it, against
    exact rational flooring (the float product floors 2,292 of them wrong at
    100 Hz, e.g. [00:00.57] to 56)."""
    stamps = [f"[{cs // 6000:02d}:{cs // 100 % 60:02d}.{cs % 100:02d}]" for cs in range(36_000)]
    doc = parse_lrc("\n".join(stamps))
    for cs, line in enumerate(doc.lines):
        assert time_to_frame(line.timestamp, rate) == math.floor(Fraction(cs, 100) * Fraction(rate))


def test_time_to_frame_contract_and_monotonicity(rng):
    for t in (1.7e308, math.inf, math.nan):  # no finite frame
        with pytest.raises(ValidationError):
            time_to_frame(t, 4.0)
    with pytest.raises(ValidationError):
        frame_count(1.7e308, 4.0)
    with pytest.raises(ValidationError, match="covers no frame"):
        frame_count(1e-9, 4.0)  # within 1e-8 s of the grid mark 0
    assert time_to_frame(1e307, 4.0) == math.floor(1e307 * 4.0)  # t * 100 overflows, t * rate does not
    ts = np.sort(rng.uniform(0, 100, size=200))
    frames = [time_to_frame(float(t), 21.5) for t in ts]
    assert all(a <= b for a, b in zip(frames, frames[1:]))


def test_frame_count():
    assert frame_count(20.0, 21.5) == 430
    assert frame_count(1.0, 4.0) == 4
    assert frame_count(0.07, 100) == 7


@pytest.mark.parametrize("rate", GRID_RATES)
def test_frame_count_is_exact_on_every_centisecond_duration(rate):
    """Every duration from 0.01 s to 6 min against exact rational ceiling (the
    float product ceils 2,295 of them wrong at 100 Hz, e.g. 0.07 s to 8)."""
    for cs in range(1, 36_001):
        assert frame_count(cs / 100, rate) == math.ceil(Fraction(cs, 100) * Fraction(rate))


def test_validate_segments_rejects_overlap():
    good = [SegmentSpec(0.0, 2.0, "a"), SegmentSpec(2.0, 4.0, "b")]
    validate_segments(good)
    bad = [SegmentSpec(0.0, 2.5, "a"), SegmentSpec(2.0, 4.0, "b")]
    with pytest.raises(ValidationError):
        validate_segments(bad)


def test_windows_from_segments_maps_and_skips_empty():
    segs = [SegmentSpec(0.0, 2.0, "a"), SegmentSpec(2.0, 2.01, "b"), SegmentSpec(3.0, 4.0, "c")]
    windows = windows_from_segments(segs, 4.0, 16)
    assert windows == [(0, 8, segs[0]), (12, 16, segs[2])]
