import json
from pathlib import Path

import numpy as np
import pytest

from songflow import cli
from songflow.config import PipelineConfig
from songflow.errors import ValidationError
from songflow.lrc import parse_lrc
from songflow.pipeline import (
    BOUNDARY_END_TEXT,
    BOUNDARY_START_TEXT,
    DURATION_INSTRUCTION_TEMPLATE,
    FilterReport,
    RecordManifest,
    build_duration_dataset,
    dpo_pair_select,
    finetune_filter,
    levenshtein,
    lyric_edit_filter,
    normalize_lyric_text,
    pretrain_filter,
    quantile,
    read_manifest,
    write_manifest,
)

# The stage thresholds at their config defaults, as the CLI passes them.
_PC = PipelineConfig()
_PRETRAIN = dict(min_sampling_rate=_PC.pretrain_min_sampling_rate,
                 min_duration=_PC.pretrain_min_duration, max_duration=_PC.pretrain_max_duration,
                 drop_fraction=_PC.pretrain_drop_fraction)
_FINETUNE = dict(min_sampling_rate=_PC.finetune_min_sampling_rate,
                 required_channels=_PC.finetune_channels)


def _record(rid, duration=120.0, rate=44100.0, channels=2, scores=None, **kw):
    return RecordManifest(
        id=rid,
        duration=duration,
        sampling_rate=rate,
        channels=channels,
        quality_scores=scores if scores is not None else {"q": 3.0},
        **kw,
    )


def _partition_ok(report, records):
    ids = {r.id for r in records}
    kept = set(report.kept)
    rejected = {rid for rid, _ in report.rejected}
    return kept | rejected == ids and not (kept & rejected)


# -----------------------------------------------------------------------------
# quantile
# -----------------------------------------------------------------------------


def test_quantile_matches_numpy_linear(rng):
    for _ in range(50):
        values = rng.uniform(-5, 5, size=int(rng.integers(1, 40))).tolist()
        for q in (0.05, 0.25, 0.5, 0.75, 0.95):
            assert quantile(values, q) == pytest.approx(
                float(np.quantile(values, q, method="linear"))
            )


def test_quantile_of_neighbours_whose_distance_overflows(rng):
    """Two finite neighbours more than the largest double apart are weighted
    instead of subtracted; every other input keeps the one-formula bytes."""
    assert quantile([-1e308, 1e308], 0.5) == 0.0
    assert quantile([1e308, -1e308], 0.25) == -1e308 * 0.75 + 1e308 * 0.25
    assert quantile([-10**308, 10**308], 0.5) == 0.0  # JSON integers, as a manifest gives them
    for _ in range(50):
        values = sorted(rng.uniform(-1e307, 1e307, size=int(rng.integers(2, 40))).tolist())
        for q in (0.05, 0.25, 0.5, 0.75, 0.95):
            pos = (len(values) - 1) * q
            lo = int(pos)
            assert quantile(values, q) == values[lo] + (pos - lo) * (values[lo + 1] - values[lo])


def test_stage_gates_of_scores_whose_sum_or_distance_overflows():
    """The true median of +-1e308 is 0 and the true 0.5 cutoff of the means
    [1e308, 1.5e308, 5.0] is 1e308; an overflowing difference or sum made
    them inf and NaN."""
    records = [_record("low", scores={"q": -1e308}), _record("high", scores={"q": 1e308})]
    report = finetune_filter(records, **_FINETUNE)
    assert report.kept == ["high"] and report.rejected == [("low", "below-median:q")]
    records = [_record("a", scores={"x": 1e308, "y": 1e308}),
               _record("b", scores={"x": 1.5e308, "y": 1.5e308}),
               _record("c", scores={"x": 5.0})]
    report = pretrain_filter(records, **{**_PRETRAIN, "drop_fraction": 0.5})
    assert report.kept == ["a", "b"] and report.rejected == [("c", "quality-percentile")]


# -----------------------------------------------------------------------------
# pretrain filter
# -----------------------------------------------------------------------------


def test_pretrain_rejects_short_duration_with_reason():
    report = pretrain_filter([_record("x", duration=10.0)], **_PRETRAIN)
    assert report.rejected == [("x", "duration-out-of-range")]


def test_pretrain_boundaries():
    records = [
        _record("exact-rate", rate=32_000.0),
        _record("below-rate", rate=31_999.0),
        _record("exact-30s", duration=30.0),
        _record("exact-6min", duration=360.0),
        _record("too-long", duration=360.5),
    ]
    report = pretrain_filter(records, **_PRETRAIN)
    rejected = dict(report.rejected)
    assert "exact-rate" in report.kept
    assert rejected["below-rate"] == "sampling-rate"
    assert "exact-30s" in report.kept and "exact-6min" in report.kept
    assert rejected["too-long"] == "duration-out-of-range"


def test_pretrain_percentile_keeps_95_of_100():
    records = [_record(f"r{i:03d}", scores={"q": float(i)}) for i in range(100)]
    report = pretrain_filter(records, **_PRETRAIN)
    assert len(report.kept) == 95
    dropped = {rid for rid, reason in report.rejected if reason == "quality-percentile"}
    assert dropped == {f"r{i:03d}" for i in range(5)}


def test_pretrain_missing_score():
    report = pretrain_filter([_record("a", scores={}), _record("b")], **_PRETRAIN)
    assert ("a", "missing-score") in report.rejected
    assert report.kept == ["b"]


def test_pretrain_rejects_flagged_records_in_rule_order():
    """compression and energy come after the metadata rules and before the
    score rules, so a flagged record is left out of the quality percentile."""
    records = [
        _record("compressed", compression_ok=False),
        _record("quiet", energy_ok=False),
        _record("both", compression_ok=False, energy_ok=False),
        _record("low-rate", rate=16_000.0, compression_ok=False, energy_ok=False),
        _record("too-long", duration=400.0, compression_ok=False, energy_ok=False),
        _record("quiet-unscored", scores={}, energy_ok=False),
        _record("compressed-low", scores={"q": -100.0}, compression_ok=False),
        *[_record(f"r{i}", scores={"q": float(i)}) for i in range(20)],
    ]
    report = pretrain_filter(records, **_PRETRAIN)
    assert report.rejected[:7] == [
        ("compressed", "compression"),
        ("quiet", "energy"),
        ("both", "compression"),
        ("low-rate", "sampling-rate"),
        ("too-long", "duration-out-of-range"),
        ("quiet-unscored", "energy"),
        ("compressed-low", "compression"),
    ]
    # Over r0..r19 alone the 5% cutoff is 0.95, so r0 goes; with -100 among
    # the scores it would be 0.0, and r0 would stay.
    assert report.rejected[7:] == [("r0", "quality-percentile")]
    assert report.kept == [f"r{i}" for i in range(1, 20)]


@pytest.mark.parametrize("flag", ["compression_ok", "energy_ok"])
def test_quality_flags_must_be_booleans(tmp_path, flag):
    base = {"id": "x", "duration": 60.0, "sampling_rate": 44100, "channels": 2}
    for value in ("no", "false", 0, 1, None):
        with pytest.raises(ValidationError, match=f"{flag} must be a boolean"):
            RecordManifest.from_json({**base, flag: value})
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({**base, flag: "no"}) + "\n" + json.dumps({**base, "id": "y"}) + "\n",
                    encoding="utf-8")
    records, rejects = read_manifest(path)
    assert [r.id for r in records] == ["y"]
    assert rejects == [(1, f"record 'x': {flag} must be a boolean")]


def test_pretrain_matches_brute_force_on_random_manifests(rng):
    for _ in range(30):
        n = int(rng.integers(1, 40))
        records = [
            _record(
                f"r{i}",
                duration=float(rng.uniform(5, 400)),
                rate=float(rng.choice([16_000, 32_000, 44_100, 48_000])),
                scores={"q": float(rng.normal())},
            )
            for i in range(n)
        ]
        report = pretrain_filter(records, **_PRETRAIN)
        # brute force: full sort over metadata survivors
        survivors = [
            r for r in records if r.sampling_rate >= 32_000 and 30 <= r.duration <= 360
        ]
        scores = sorted(r.quality_scores["q"] for r in survivors)
        if survivors:
            cutoff = float(np.quantile(scores, 0.05, method="linear"))
            expected = {r.id for r in survivors if r.quality_scores["q"] >= cutoff}
        else:
            expected = set()
        assert set(report.kept) == expected
        assert _partition_ok(report, records)


# -----------------------------------------------------------------------------
# finetune filter
# -----------------------------------------------------------------------------


def test_finetune_mono_rejected_with_channels_reason():
    report = finetune_filter([_record("m", channels=1)], **_FINETUNE)
    assert report.rejected == [("m", "channels")]


def test_finetune_exact_median_is_kept():
    records = [
        _record("lo", scores={"a": 1.0}),
        _record("mid", scores={"a": 2.0}),
        _record("hi", scores={"a": 3.0}),
    ]
    report = finetune_filter(records, **_FINETUNE)
    assert set(report.kept) == {"mid", "hi"}  # median 2.0, inclusive


def test_finetune_conjunction_over_metrics():
    scores_a = [1.0, 2.0, 3.0, 4.0]
    scores_b = [4.0, 3.0, 2.0, 1.0]
    records = [
        _record(f"r{i}", scores={"a": scores_a[i], "b": scores_b[i]}) for i in range(4)
    ]
    report = finetune_filter(records, **_FINETUNE)
    # medians: a -> 2.5, b -> 2.5; no record has both >= 2.5
    assert report.kept == []
    assert all(reason.startswith("below-median:") for _, reason in report.rejected)


def test_finetune_matches_brute_force(rng):
    metrics = ["a", "b", "c"]
    for _ in range(30):
        n = int(rng.integers(2, 30))
        records = [
            _record(
                f"r{i}",
                rate=float(rng.choice([32_000, 44_000, 48_000])),
                channels=int(rng.choice([1, 2])),
                scores={m: float(rng.normal()) for m in metrics},
            )
            for i in range(n)
        ]
        report = finetune_filter(records, **_FINETUNE)
        medians = {m: float(np.median([r.quality_scores[m] for r in records])) for m in metrics}
        expected = {
            r.id
            for r in records
            if r.sampling_rate >= 44_000
            and r.channels == 2
            and all(r.quality_scores[m] >= medians[m] for m in metrics)
        }
        assert set(report.kept) == expected
        assert _partition_ok(report, records)


# -----------------------------------------------------------------------------
# lyric edit filter
# -----------------------------------------------------------------------------


def test_levenshtein_examples():
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("abc", "abd") == 1
    assert levenshtein("", "xyz") == 3
    assert levenshtein("kitten", "sitting") == 3


def _brute_levenshtein(a, b):
    import functools

    @functools.cache
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            go(i - 1, j) + 1,
            go(i, j - 1) + 1,
            go(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return go(len(a), len(b))


def test_levenshtein_matches_recursive_oracle(rng):
    alphabet = "ab春c"
    for _ in range(200):
        a = "".join(rng.choice(list(alphabet), size=rng.integers(0, 13)))
        b = "".join(rng.choice(list(alphabet), size=rng.integers(0, 13)))
        assert levenshtein(a, b) == _brute_levenshtein(a, b)


def _dp_levenshtein(a, b):
    """Two-row dynamic programming, the reference for the bit-parallel
    distance on strings too long for the recursive oracle."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a):
        current = [i + 1]
        for j, cb in enumerate(b):
            current.append(
                min(previous[j + 1] + 1, current[j] + 1, previous[j] + (ca != cb))
            )
        previous = current
    return previous[-1]


def test_levenshtein_matches_dp_oracle_across_int_widths(rng):
    # Lengths straddle the 30-bit digits of Python ints and 64-bit words.
    lengths = [0, 1, 29, 30, 31, 63, 64, 65, 127, 128, 129, 300]
    alphabets = [list("ab春𝄞"), list("abcdefgh 春夏秋冬𝄞𝄢")]
    for n in lengths:
        for m in lengths:
            alphabet = alphabets[(n + m) % 2]
            a = "".join(rng.choice(alphabet, size=n))
            b = "".join(rng.choice(alphabet, size=m))
            assert levenshtein(a, b) == _dp_levenshtein(a, b), (n, m)


@pytest.mark.parametrize(
    "alphabet, novel",
    [
        ("abcdefghijklmnopqrstuvwxyz ", "ABCDEFG0123456789"),
        ("春夏秋冬雨雪風花𝄞𝄢𠀀𠀁", "月星空海山川xyz𝄪"),
    ],
    ids=["latin", "cjk-astral"],
)
def test_levenshtein_counts_planted_edits_exactly(rng, alphabet, novel):
    base = list(rng.choice(list(alphabet), size=1500))
    for k in (1, 7, 40, 150):
        edited = list(base)
        subs = rng.choice(len(base), size=k // 2, replace=False)
        for pos in subs:
            edited[pos] = str(rng.choice(list(novel)))
        for _ in range(k - len(subs)):
            edited.insert(int(rng.integers(0, len(edited) + 1)), str(rng.choice(list(novel))))
        a, b = "".join(base), "".join(edited)
        # Every novel character costs one edit and no edit is needed elsewhere.
        assert levenshtein(a, b) == k
        assert levenshtein(b, a) == k


def test_normalize_lyric_text():
    assert normalize_lyric_text("Hello,   World!") == "hello world"
    assert normalize_lyric_text("春眠、不覚暁。") == "春眠不覚暁"


def test_lyric_filter_identity_and_threshold():
    same = _record("same", lyrics=["hello world"], transcript=["hello world"])
    near = _record("near", lyrics=["abc"], transcript=["abd"])  # 1/3 > 0.3
    report = lyric_edit_filter([same, near], max_normalized_distance=0.3)
    assert report.kept == ["same"]
    assert report.rejected == [("near", "edit-distance")]
    wide = lyric_edit_filter([near], max_normalized_distance=0.34)
    assert wide.kept == ["near"]


def test_lyric_filter_missing_transcript_flags_unverified(monkeypatch):
    rec = _record("u", lyrics=["la la"])
    timed = _record("t", lyrics_lrc="[00:01.00] la la\n")
    bare = _record("b")
    limit = _PC.lyric_edit_max_distance
    report = lyric_edit_filter([rec, timed, bare], limit)
    assert report.kept == ["u", "t", "b"]
    assert report.flagged == {"u": ["unverified"], "t": ["unverified"]}

    # Without a transcript the decision is made from the fields alone: no LRC is parsed.
    def no_parse(*args, **kwargs):
        raise AssertionError("parse_lrc called without a transcript")

    monkeypatch.setattr("songflow.pipeline.parse_lrc", no_parse)
    assert lyric_edit_filter([rec, timed, bare], limit).to_json() == report.to_json()


def test_lyric_filter_rejects_invalid_lrc():
    records = [
        _record("overrun", duration=30.0, lyrics_lrc="[00:45.00] la\n", transcript=["la"]),
        _record("malformed", lyrics_lrc="no timestamp\n", transcript=["la"]),
        _record("decreasing", lyrics_lrc="[00:05.00] a\n[00:02.00] b\n", transcript=["a b"]),
        _record("good", lyrics_lrc="[00:01.00] la\n", transcript=["la"]),
    ]
    report = lyric_edit_filter(records, _PC.lyric_edit_max_distance)
    assert report.kept == ["good"]
    assert report.rejected == [
        ("overrun", "invalid-lrc"),
        ("malformed", "invalid-lrc"),
        ("decreasing", "invalid-lrc"),
    ]


# -----------------------------------------------------------------------------
# preference pairs
# -----------------------------------------------------------------------------


def test_dpo_all_equal_scores_yield_no_pairs():
    assert dpo_pair_select([("a", 2.0), ("b", 2.0), ("c", 2.0)], min_diff=0.0) == []


def test_dpo_hand_example_with_q3():
    group = [("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0)]
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.75) == pytest.approx(3.25)
    pairs = dpo_pair_select(group, min_diff=1.5)
    assert pairs == [("d", "a"), ("d", "b")]


def test_dpo_one_score_group_has_no_pair():
    assert dpo_pair_select([("a", 1.0)], min_diff=0.1) == []


def test_dpo_matches_brute_force_on_random_groups(rng):
    for _ in range(50):
        n = 16
        group = [(f"s{i:02d}", float(rng.normal())) for i in range(n)]
        min_diff = float(rng.uniform(0, 2))
        pairs = dpo_pair_select(group, min_diff)
        q3 = float(np.quantile([s for _, s in group], 0.75, method="linear"))
        expected = sorted(
            (w, l)
            for w, ws in group
            for l, ls in group
            if ws - ls > min_diff and ws > q3
        )
        assert pairs == expected
        scores = dict(group)
        assert all(scores[w] > scores[l] for w, l in pairs)


# -----------------------------------------------------------------------------
# duration dataset
# -----------------------------------------------------------------------------


def _lrc_record(rid="song"):
    return _record(
        rid,
        duration=30.0,
        lyrics=["hey there friend", "take this song along"],
        lyrics_lrc="[00:02.00] hey there friend\n[00:06.50] take this song along\n",
        segments=[
            {"kind": "instrumental", "label": "intro", "lines": [0, 0]},
            {"kind": "lyric", "label": "verse", "lines": [0, 2]},
        ],
        captions={
            "global": "a gentle acoustic tune",
            "0": "soft piano intro",
            "1": "warm first verse",
        },
    )


def test_duration_dataset_contains_verbatim_instruction():
    entries, skipped = build_duration_dataset([_lrc_record()])
    assert not skipped
    text = entries[0]["instruction"]
    assert "Return: Output a complete `.lrc` style list with timestamps" in text
    assert "You are a professional music composer and vocal arranger." in text
    assert "a gentle acoustic tune" in text
    assert "[soft piano intro]" in text
    assert "[warm first verse]" in text
    assert f"[{BOUNDARY_START_TEXT}]" in text
    assert "hey there friend" in text


def test_duration_dataset_single_line_target():
    rec = _record(
        "one",
        duration=20.0,
        lyrics=["only line"],
        lyrics_lrc="[00:03.00] only line\n",
        segments=[{"kind": "lyric", "label": "verse", "lines": [0, 1]}],
        captions={"global": "desc", "0": "verse cap"},
    )
    entries, _ = build_duration_dataset([rec])
    target = entries[0]["target"]
    assert target.count("\n") == 1
    doc = parse_lrc(target, total_duration=20.0)
    assert len(doc.lines) == 1


def test_duration_dataset_roundtrip_timestamps(rng):
    rec = _lrc_record()
    entries, _ = build_duration_dataset([rec])
    emitted = parse_lrc(entries[0]["target"], total_duration=30.0)
    source = parse_lrc(rec.lyrics_lrc, total_duration=30.0)
    for a, b in zip(emitted.lines, source.lines):
        assert abs(a.timestamp - b.timestamp) <= 0.005


def test_duration_dataset_skips_missing_captions():
    rec = _lrc_record("no-cap")
    rec.captions = {"global": "desc"}  # segment captions missing
    entries, skipped = build_duration_dataset([rec])
    assert not entries
    assert skipped == [("no-cap", "missing-caption:0")]
    rec2 = _lrc_record("no-lrc")
    rec2.lyrics_lrc = None
    _, skipped2 = build_duration_dataset([rec2])
    assert skipped2 == [("no-lrc", "missing-timestamps")]


def test_duration_dataset_skips_invalid_lrc():
    overrun = _lrc_record("overrun")
    overrun.lyrics_lrc = "[00:02.00] hey there friend\n[00:45.00] take this song along\n"
    malformed = _lrc_record("malformed")
    malformed.lyrics_lrc = "hey there friend\n"
    entries, skipped = build_duration_dataset([_lrc_record("a"), overrun, malformed, _lrc_record("b")])
    assert len(entries) == 2
    assert skipped == [("overrun", "invalid-lrc"), ("malformed", "invalid-lrc")]


def test_duration_dataset_lists_lrc_lines_without_plain_lyrics():
    """A record with timed lyrics only lists its LRC line texts (bare tags
    skipped) under each caption, exactly as its plain lyrics would."""
    plain = _lrc_record("plain")
    timed_only = _lrc_record("timed-only")
    timed_only.lyrics = None
    timed_only.lyrics_lrc += "[00:20.00]\n"
    entries, skipped = build_duration_dataset([plain, timed_only])
    assert not skipped
    block = "\n".join([f"[{BOUNDARY_START_TEXT}]", "[soft piano intro]", "[warm first verse]",
                       "hey there friend", "take this song along", f"[{BOUNDARY_END_TEXT}]"])
    assert block in entries[0]["instruction"]
    assert entries[1]["instruction"] == entries[0]["instruction"]


def test_duration_dataset_skips_lines_past_the_lyrics():
    """A segment line range past the lyric lines is skipped with
    segment-lines:<idx>: after a missing segment caption, before an LRC that
    does not parse."""
    long_plain = _lrc_record("long-plain")
    long_plain.segments[1]["lines"] = [0, 3]
    long_timed = _lrc_record("long-timed")
    long_timed.lyrics = None
    long_timed.segments[1]["lines"] = [1, 3]
    bad_lrc = _lrc_record("bad-lrc")
    bad_lrc.segments[1]["lines"] = [0, 3]
    bad_lrc.lyrics_lrc = "not lrc\n"
    no_caption = _lrc_record("no-caption")
    no_caption.segments[1]["lines"] = [0, 3]
    del no_caption.captions["0"]
    timed_bad_lrc = _lrc_record("timed-bad-lrc")
    timed_bad_lrc.lyrics = None
    timed_bad_lrc.lyrics_lrc = "not lrc\n"
    entries, skipped = build_duration_dataset(
        [long_plain, long_timed, bad_lrc, no_caption, timed_bad_lrc, _lrc_record("ok")])
    assert len(entries) == 1
    assert skipped == [
        ("long-plain", "segment-lines:1"),
        ("long-timed", "segment-lines:1"),
        ("bad-lrc", "segment-lines:1"),
        ("no-caption", "missing-caption:0"),
        ("timed-bad-lrc", "invalid-lrc"),
    ]


# -----------------------------------------------------------------------------
# manifest IO
# -----------------------------------------------------------------------------


def test_manifest_roundtrip_and_schema_rejects(tmp_path):
    path = tmp_path / "m.jsonl"
    lines_ok = [{"kind": "lyric", "lines": [0, 0]}, {"kind": "lyric", "lines": [1, 3]}, {"kind": "lyric"}]
    write_manifest([_record("a", segments=lines_ok), _record("b", channels=1)], path)
    base = {"duration": 60.0, "sampling_rate": 44100, "channels": 2}
    mistyped = [
        {"duration": float("nan")},  # written as the bare NaN token
        {"duration": float("inf")},
        {"sampling_rate": float("nan")},
        {"sampling_rate": float("-inf")},
        {"duration": "60"},
        {"duration": True},
        {"channels": True},
        {"channels": 2.0},
        {"channels": 0},
        {"id": 5},
        {"id": None},
        {"segments": [{"kind": "lyric", "lines": "ab"}]},
        {"segments": [{"kind": "lyric", "lines": [0]}]},
        {"segments": [{"kind": "lyric", "lines": [0, 1, 2]}]},
        {"segments": [{"kind": "lyric", "lines": [True, 1]}]},
        {"segments": [{"kind": "lyric", "lines": [0, 1.0]}]},
        {"segments": [{"kind": "lyric", "lines": [-1, 1]}]},
        {"segments": [{"kind": "lyric", "lines": [2, 1]}]},
        {"segments": [{"kind": "lyric", "lines": None}]},
        {"lyrics": "hello world", "transcript": ["hello world"]},
        {"lyrics": ["hello world"], "transcript": "hello world"},
        {"lyrics": ["ok", 3]},
        {"lyrics_lrc": ["[00:01.00] la"]},
        {"quality_scores": [1]},
        {"quality_scores": {"q": "high"}},
        {"quality_scores": {"q": True}},
        {"captions": ["a caption"]},
        {"captions": {"global": 1}},
        {"segments": {"kind": "lyric"}},
        {"segments": ["verse"]},
    ]
    # Valid JSON that is not one object of known record fields.
    not_records = ["[1, 2]", '"a record"', "null", "7",
                   json.dumps({"id": "typo", **base, "lyric_lrc": "[00:01.00] la", "cpations": {}})]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"id": "broken", "duration": -3, "sampling_rate": 44100, "channels": 2}\n')
        fh.write("not json at all\n")
        for i, fields in enumerate(mistyped):
            fh.write(json.dumps({"id": f"typed{i}", **base, **fields}) + "\n")
        fh.write("".join(line + "\n" for line in not_records))
    records, rejects = read_manifest(path)
    assert [r.id for r in records] == ["a", "b"]
    assert records[0].segments == lines_ok
    first_not_record = 5 + len(mistyped)
    assert [line for line, _ in rejects] == list(range(3, first_not_record + len(not_records)))
    assert [err for line, err in rejects if line >= first_not_record] == [
        "record must be a JSON object, got list",
        "record must be a JSON object, got str",
        "record must be a JSON object, got NoneType",
        "record must be a JSON object, got int",
        "unknown record keys: ['lyric_lrc', 'cpations']",
    ]
    errors = dict(rejects)
    for row in (5, 6, 9, 10):
        assert "duration must be positive" in errors[row]
    assert all("sampling_rate must be positive" in errors[row] for row in (7, 8))
    assert all("channels must be an integer" in errors[row] for row in (11, 12, 13))
    assert all("id must be a string" in errors[row] for row in (14, 15))
    assert all("segment lines must be [lo, hi]" in errors[row] for row in range(16, 24))
    assert "lyrics must be a list of strings" in errors[24]
    assert "transcript must be a list of strings" in errors[25]
    for fields in mistyped:  # each is a ValidationError from the constructor too
        with pytest.raises(ValidationError):
            RecordManifest.from_json({"id": "direct", **base, **fields})


def test_read_manifest_rejects_a_repeated_id_naming_the_earlier_line(tmp_path):
    """The first record with an id is kept; a later one is a schema reject,
    so no stage reports that id twice. A schema reject claims no id."""
    path = tmp_path / "m.jsonl"
    write_manifest([_record("a", duration=60.0), _record("a", duration=10.0), _record("b")], path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"id": "c", "duration": -1, "sampling_rate": 44100, "channels": 2}\n')
        fh.write('{"id": "c", "duration": 30, "sampling_rate": 44100, "channels": 2}\n')
        fh.write('{"id": "b", "duration": 30, "sampling_rate": 44100, "channels": 2}\n')
    records, rejects = read_manifest(path)
    assert [(r.id, r.duration) for r in records] == [("a", 60.0), ("b", 120.0), ("c", 30)]
    assert [line for line, _ in rejects] == [2, 4, 6]
    assert rejects[0][1] == "record 'a': id repeats line 1"
    assert rejects[2][1] == "record 'b': id repeats line 3"
    report = pretrain_filter(records, **_PRETRAIN)
    assert sorted(report.kept + [rid for rid, _ in report.rejected]) == ["a", "b", "c"]


def test_filter_report_partition_property(rng):
    records = [
        _record(f"r{i}", duration=float(rng.uniform(5, 400))) for i in range(25)
    ]
    for report in (pretrain_filter(records, **_PRETRAIN), finetune_filter(records, **_FINETUNE)):
        assert _partition_ok(report, records)


# -----------------------------------------------------------------------------
# JSON decoding: schema.loads against json.loads
# -----------------------------------------------------------------------------


def _json_loads(text):
    """The reference decoder: json.loads, with nesting past the recursion
    limit as the ValidationError every input reader reports."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValidationError("JSON nests too deeply") from None


def _reference_read_manifest(path):
    """read_manifest as per-line json.loads defines it, with JSON Lines'
    line rule: lines end at "\n" (universal newlines has turned "\r\n" and
    "\r" into "\n"). The first record with an id keeps it."""
    records, record_lines, rejects = [], [], []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = RecordManifest.from_json(_json_loads(line))
        except (TypeError, KeyError, ValueError) as exc:
            rejects.append((lineno, str(exc)))
            continue
        earlier = [ln for ln, r in zip(record_lines, records) if r.id == record.id]
        if earlier:
            rejects.append((lineno, f"record {record.id!r}: id repeats line {earlier[0]}"))
        else:
            records.append(record)
            record_lines.append(lineno)
    return records, rejects


_LINE = json.dumps({"id": "ok", "duration": 60.0, "sampling_rate": 44100, "channels": 2,
                    "quality_scores": {"q": 1.5}})
_SCORE = '{"group": "g", "id": "a", "score": 1.5}'
_DEEP = "[" * 100_000 + "]" * 100_000

# Manifest text, one case per row, valid or not: each file is read by
# read_manifest and by the per-line json.loads reference.
_DECODED_LINES = [
    ("valid", _LINE),
    ("spaces-and-tabs", " \t " + _LINE + "\t \t"),
    ("blank-and-whitespace-lines", "\n \t \n\r\n" + _LINE),
    ("vertical-tab", _LINE + "\x0b" + _LINE.replace('"ok"', '"vt"')),
    ("form-feed", _LINE + "\x0c " + _LINE.replace('"ok"', '"ff"') + " \x0c"),
    ("line-separator", _LINE + "\u2028" + _LINE.replace('"ok"', '"ls"')),
    ("line-separator-in-string", _LINE.replace('"ok"', '"o\u2028k"')),
    ("next-line-in-string", _LINE.replace('"ok"', '"o\x85k"')),
    ("carriage-returns", _LINE + "\r" + _LINE.replace('"ok"', '"cr"') + "\r\n" + _LINE),
    ("bom", "\ufeff" + _LINE),
    ("nan-token", _LINE.replace("60.0", "NaN")),
    ("infinity-token", _LINE.replace("1.5", "Infinity")),
    ("negative-infinity-token", _LINE.replace("60.0", "-Infinity")),
    ("two-objects", "{} {}"),
    ("object-then-space-and-more", _LINE + " x"),
    ("truncated-object", _LINE[:-9]),
    ("raw-control-character", _LINE.replace('"ok"', '"o\tk"')),
    ("duplicate-keys", _LINE.replace('{"id": "ok"', '{"id": "first", "id": "second"')),
    ("huge-int", _LINE.replace("60.0", "9" * 400)),
    ("top-level-list", "[1, 2]"),
    ("top-level-string", '"ok"'),
    ("deep-nesting", _DEEP),
    ("deep-nesting-inside-object", _LINE[:-1] + ', "segments": ' + _DEEP + "}"),
]


@pytest.mark.parametrize("text", [row[1] for row in _DECODED_LINES],
                         ids=[row[0] for row in _DECODED_LINES])
def test_read_manifest_equals_per_line_json_loads(tmp_path, text):
    """Records and rejects (line, message) are those of per-line json.loads;
    a valid line after the case keeps line numbers in view."""
    path = tmp_path / "m.jsonl"
    path.write_text(text + "\n" + _LINE.replace('"ok"', '"after"') + "\n", encoding="utf-8")
    records, rejects = read_manifest(path)
    expected_records, expected_rejects = _reference_read_manifest(path)
    assert [r.to_json() for r in records] == [r.to_json() for r in expected_records]
    assert rejects == expected_rejects
    assert records[-1].id == "after"


@pytest.mark.parametrize("brk", ["\x85", "\u2028", "\u2029"])
def test_a_raw_unicode_break_inside_a_string_keeps_one_record(tmp_path, brk):
    """json.dumps(ensure_ascii=False) writes these three raw, and JSON allows
    them inside a string, so they do not end a manifest line."""
    record = {**json.loads(_LINE), "lyrics": [f"first{brk}second"]}
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    records, rejects = read_manifest(path)
    assert rejects == []
    assert [r.lyrics for r in records] == [[f"first{brk}second"]]


def _score_outcome(path):
    try:
        return cli._read_score_groups(path)
    except ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("text", [
    _SCORE,
    " \t" + _SCORE + " \t",
    "\n  \n" + _SCORE + "\n\t\n" + _SCORE.replace('"a"', '"b"'),
    _SCORE + "\x0c" + _SCORE.replace('"a"', '"b"'),
    _SCORE + "\u2028" + _SCORE.replace('"a"', '"b"'),
    "\ufeff" + _SCORE,
    _SCORE.replace("1.5", "NaN"),
    _SCORE.replace("1.5", "-Infinity"),
    "{} {}",
    _SCORE + _SCORE,
    _SCORE[:-3],
    _SCORE.replace('"a"', '"a\tb"'),
    _SCORE.replace('"id": "a"', '"id": "x", "id": "a"'),
    _SCORE.replace("1.5", "1" * 400),
    '["g", "a", 1.5]',
    _DEEP,
], ids=["valid", "spaces-and-tabs", "blank-lines", "form-feed", "line-separator", "bom",
        "nan-token", "infinity-token", "two-objects", "two-rows-on-a-line", "truncated",
        "raw-control-character", "duplicate-keys", "huge-int", "top-level-list", "deep-nesting"])
def test_score_rows_equal_per_line_json_loads(tmp_path, monkeypatch, text):
    """The score reader gives the same groups or the same error (with its
    line number) as the same reader decoding each line with json.loads."""
    path = tmp_path / "scores.jsonl"
    path.write_text(text + "\n", encoding="utf-8")
    got = _score_outcome(path)
    monkeypatch.setattr(cli, "loads", _json_loads)
    assert got == _score_outcome(path)


def test_schema_loads_equals_json_loads():
    from songflow.schema import loads

    texts = ["", " ", "1", " 1", "1 ", "1 2", "\ufeff1", "NaN", "-Infinity", '"x"', '"\\u00e9"',
             "1e400", "-0", "[1,]", "{", '{"a": 1, "a": 2}', "tru", "null", "[] ", "\n{}\n",
             '{"a" 1}', "[1, 2", '"\x01"', "9" * 400, _LINE]
    for text in texts:
        try:
            expected = ("value", repr(json.loads(text)))
        except json.JSONDecodeError as exc:
            expected = ("error", exc.msg, exc.pos)
        try:
            got = ("value", repr(loads(text)))
        except json.JSONDecodeError as exc:
            got = ("error", exc.msg, exc.pos)
        assert got == expected, text
    with pytest.raises(ValidationError, match="JSON nests too deeply"):
        loads(_DEEP)


def test_each_read_decodes_the_file_it_finds(tmp_path):
    """Rewriting an input between two reads in one process changes what the
    second read returns: no reader keeps text or values across calls."""
    manifest, scores = tmp_path / "m.jsonl", tmp_path / "scores.jsonl"
    manifest.write_text(_LINE + "\n", encoding="utf-8")
    scores.write_text(_SCORE + "\n", encoding="utf-8")
    assert [r.id for r in read_manifest(manifest)[0]] == ["ok"]
    assert cli._read_score_groups(scores) == {"g": [("a", 1.5)]}
    manifest.write_text(_LINE.replace('"ok"', '"new"') + "\n" + _LINE + "\n", encoding="utf-8")
    scores.write_text(_SCORE.replace("1.5", "2.5") + "\n", encoding="utf-8")
    assert [r.id for r in read_manifest(manifest)[0]] == ["new", "ok"]
    assert cli._read_score_groups(scores) == {"g": [("a", 2.5)]}
