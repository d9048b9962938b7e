import math
from fractions import Fraction

import numpy as np
import pytest

from songflow.errors import ContractError, ParseError, ValidationError
from songflow.lrc import (
    INSTRUMENTAL,
    LYRIC,
    LrcDocument,
    LrcLine,
    SegmentSpec,
    StructureEntry,
    derive_windows,
    frame_count,
    parse_lrc,
    serialize_lrc,
    structure_from_json,
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


def test_parse_rejects_malformed_and_reports_line():
    with pytest.raises(ParseError) as err:
        parse_lrc("[00:01.00] ok\nnot a lyric line")
    assert err.value.line_number == 2


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


def test_time_to_frame_examples():
    assert time_to_frame(0.0, 21.5) == 0
    assert time_to_frame(2.0, 21.5) == 43
    assert time_to_frame(10.0, 21.5) == 215
    assert time_to_frame(4.0, 44100, 2048) == int(4.0 * 44100 / 2048)


@pytest.mark.parametrize("rate", [4.0, 25.0, 50.0, 100.0])
def test_time_to_frame_is_exact_on_every_centisecond_stamp(rate):
    """Every [mm:ss.xx] stamp below 6 min, as parse_lrc reads it, against
    exact rational flooring (the float product floors 2,292 of them wrong at
    100 Hz, e.g. [00:00.57] to 56)."""
    stamps = [f"[{cs // 6000:02d}:{cs // 100 % 60:02d}.{cs % 100:02d}]" for cs in range(36_000)]
    doc = parse_lrc("\n".join(stamps))
    for cs, line in enumerate(doc.lines):
        exact = math.floor(Fraction(cs, 100) * Fraction(rate))
        assert time_to_frame(line.timestamp, rate) == exact
        if cs % 97 == 0:  # the rational path: a sampling rate and a downsample factor
            assert time_to_frame(line.timestamp, rate * 441, 441) == exact


def test_time_to_frame_contract_and_monotonicity(rng):
    with pytest.raises(ContractError):
        time_to_frame(-0.1, 21.5)
    with pytest.raises(ContractError):
        time_to_frame(1.0, 0.0)
    ts = np.sort(rng.uniform(0, 100, size=200))
    frames = [time_to_frame(float(t), 21.5) for t in ts]
    assert all(a <= b for a, b in zip(frames, frames[1:]))


def test_frame_count():
    assert frame_count(20.0, 21.5) == 430
    assert frame_count(1.0, 4.0) == 4
    assert frame_count(0.07, 100) == 7


@pytest.mark.parametrize("rate", [4.0, 25.0, 50.0, 100.0])
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
    assert [(w.frame_start, w.frame_end) for w in windows] == [(0, 8), (12, 16)]


# -----------------------------------------------------------------------------
# derive_windows
# -----------------------------------------------------------------------------


def _doc(onsets, total, texts=None):
    texts = texts or [f"l{i}" for i in range(len(onsets))]
    return LrcDocument(
        lines=tuple(LrcLine(float(t), x) for t, x in zip(onsets, texts)),
        total_duration=total,
    )


def test_single_lyric_block_spans_everything():
    doc = _doc([0.0, 3.0, 6.0], total=10.0)
    windows = derive_windows(doc, [StructureEntry(LYRIC, "verse", (0, 3))], 4.0, 40)
    assert [(w.frame_start, w.frame_end) for w in windows] == [(0, 40)]


def test_intro_then_verse_hand_example():
    doc = _doc([10.0, 12.0, 14.0], total=20.0)
    structure = [
        StructureEntry(INSTRUMENTAL, "intro", (0, 0)),
        StructureEntry(LYRIC, "verse", (0, 3)),
    ]
    T = frame_count(20.0, 21.5)
    windows = derive_windows(doc, structure, 21.5, T)
    assert [(w.frame_start, w.frame_end) for w in windows] == [(0, 215), (215, 430)]
    assert windows[0].provenance == INSTRUMENTAL
    assert windows[1].provenance == LYRIC


def test_marker_anchored_instrumental_uses_its_timestamp():
    # The bridge owns a marker line at 8s, so its window starts exactly there.
    doc = _doc([1.0, 4.0, 8.0, 12.0, 14.0], total=20.0, texts=["a", "b", "", "c", "d"])
    structure = [
        StructureEntry(LYRIC, "verse", (0, 2)),
        StructureEntry(INSTRUMENTAL, "bridge", (2, 3)),
        StructureEntry(LYRIC, "chorus", (3, 5)),
    ]
    windows = derive_windows(doc, structure, 4.0, 80)
    assert [(w.frame_start, w.frame_end) for w in windows] == [(0, 32), (32, 48), (48, 80)]


def test_unanchored_tail_goes_to_following_instrumental():
    doc = _doc([1.0, 2.0, 3.0], total=20.0)
    structure = [
        StructureEntry(LYRIC, "verse", (0, 3)),
        StructureEntry(INSTRUMENTAL, "outro", (3, 3)),
    ]
    windows = derive_windows(doc, structure, 4.0, 80)
    assert windows[0].frame_start == 0  # first block absorbs the song start
    assert windows[0].frame_end == windows[1].frame_start
    assert windows[1].frame_end == 80
    # The verse keeps its last line plus roughly one line of tail.
    assert windows[0].frame_end > time_to_frame(3.0, 4.0)
    assert windows[1].provenance == INSTRUMENTAL


def test_structure_must_cover_all_lines():
    doc = _doc([1.0, 2.0], total=10.0)
    with pytest.raises(ValidationError):
        derive_windows(doc, [StructureEntry(LYRIC, "verse", (0, 1))], 4.0, 40)
    with pytest.raises(ValidationError):
        derive_windows(
            doc,
            [StructureEntry(LYRIC, "a", (0, 1)), StructureEntry(LYRIC, "b", (0, 2))],
            4.0,
            40,
        )


def _random_structure_case(rng):
    frame_rate = float(rng.choice([2.0, 4.0, 21.5]))
    onset = rng.uniform(0.5, 3.0)
    blocks = []
    onsets = []
    n_blocks = int(rng.integers(1, 6))
    kinds = []
    for b in range(n_blocks):
        if b > 0 and rng.random() < 0.4:
            kinds.append(INSTRUMENTAL)
        else:
            kinds.append(LYRIC)
    if all(k == INSTRUMENTAL for k in kinds):
        kinds[-1] = LYRIC
    cursor = 0
    for b, kind in enumerate(kinds):
        if kind == LYRIC:
            n_lines = int(rng.integers(1, 4))
        else:
            n_lines = int(rng.integers(0, 2))  # optional marker line
        for _ in range(n_lines):
            onsets.append(onset)
            onset += float(rng.uniform(1.5, 4.0))
        blocks.append(StructureEntry(kind, f"b{b}", (cursor, cursor + n_lines)))
        cursor += n_lines
    total = onset + float(rng.uniform(2.5, 6.0))
    doc = _doc(onsets, total=total)
    T = frame_count(total, frame_rate)
    return doc, blocks, frame_rate, T


def test_randomized_structures_partition_frames(rng):
    for _ in range(200):
        doc, blocks, frame_rate, T = _random_structure_case(rng)
        windows = derive_windows(doc, blocks, frame_rate, T)
        counts = np.zeros(T, dtype=int)
        for w in windows:
            counts[w.frame_start : w.frame_end] += 1
        assert (counts == 1).all(), f"not a partition for {blocks}"
        assert len(windows) == len(blocks)


def test_structure_from_json():
    entries = structure_from_json(
        '[{"kind": "instrumental", "label": "intro", "lines": [0, 0]},'
        ' {"kind": "lyric", "label": "verse", "lines": [0, 2]}]'
    )
    assert entries[0].kind == INSTRUMENTAL and entries[0].lines == (0, 0)
    assert entries[1].kind == LYRIC and entries[1].lines == (0, 2)
