import base64
import copy
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import songflow
import songflow.cli as cli
from songflow.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from songflow.errors import ContractError
from songflow.lrc import parse_lrc
from songflow.pipeline import RecordManifest, write_manifest

TINY = [
    "model.n_blocks=1",
    "model.model_width=8",
    "model.n_heads=2",
    "model.d_t=4",
    "conditioning.d_global=4",
    "conditioning.d_segment=4",
    "conditioning.d_text=4",
    "conditioning.d_lyrics=4",
    "task.T=12",
    "task.d_audio=2",
    "task.min_width=4",
    "train.steps=4",
    "train.batch_size=2",
    "guidance.steps=4",
]


def _tiny_args(extra):
    command, rest = extra[0], extra[1:]
    args = [command]
    for o in TINY:
        args += ["--set", o]
    return args + rest


def _write_prompt(path, duration=3.0):
    path.write_text(
        json.dumps(
            {
                "global": "ember",
                "segments": [
                    {"start_s": 0.0, "end_s": 1.5, "text": "pulse"},
                    {"start_s": 1.5, "end_s": 3.0, "text": "wave"},
                ],
                "duration_s": duration,
            }
        ),
        encoding="utf-8",
    )


def _write_lrc(path):
    path.write_text("[00:00.00] p0 p1 p2\n[00:01.50] p0 p1 p2\n", encoding="utf-8")


def _train_tiny(tmp_path):
    out = tmp_path / "run"
    code = main(_tiny_args(["train", "--out-dir", str(out)]))
    assert code == EXIT_OK
    return out / "checkpoint.json"


# -----------------------------------------------------------------------------
# usage and exit codes
# -----------------------------------------------------------------------------


def test_unknown_stage_is_usage_error(tmp_path):
    code = main(
        ["pipeline", "--stage", "bogus", "--manifest", "x.jsonl", "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_USAGE


def test_generate_without_lrc_is_usage_error(tmp_path):
    prompt = tmp_path / "p.json"
    _write_prompt(prompt)
    code = main(
        _tiny_args(
            [
                "generate",
                "--out-dir",
                str(tmp_path / "g"),
                "--checkpoint",
                "nope.json",
                "--prompt",
                str(prompt),
            ]
        )
    )
    assert code == EXIT_USAGE
    assert not (tmp_path / "g").exists()  # refused before any output is made


def test_generate_with_lrc_and_lyrics_is_usage_error(tmp_path, capsys):
    prompt, lrc, lyrics = tmp_path / "p.json", tmp_path / "a.lrc", tmp_path / "l.txt"
    _write_prompt(prompt)
    _write_lrc(lrc)
    lyrics.write_text("la la la\n", encoding="utf-8")
    code = main(_tiny_args(["generate", "--out-dir", str(tmp_path / "g"), "--checkpoint",
                            "nope.json", "--prompt", str(prompt), "--lrc", str(lrc),
                            "--lyrics", str(lyrics)]))
    assert code == EXIT_USAGE
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_missing_manifest_is_data_error(tmp_path):
    code = main(
        ["pipeline", "--stage", "pretrain", "--manifest", str(tmp_path / "absent.jsonl"),
         "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_DATA


@pytest.mark.parametrize("prompt_kind", ["directory", "not-utf8"])
def test_unreadable_prompt_is_data_error(tmp_path, capsys, prompt_kind):
    """An OSError (here IsADirectoryError) or a UnicodeDecodeError while
    reading an input is a data error, not a traceback."""
    prompt = tmp_path / "prompt"
    if prompt_kind == "directory":
        prompt.mkdir()
    else:
        prompt.write_bytes(b'{"global": "\xff\xfe"}')
    lrc = tmp_path / "x.lrc"
    _write_lrc(lrc)
    code = main(
        _tiny_args(
            ["generate", "--out-dir", str(tmp_path / "g"), "--checkpoint", str(tmp_path / "c.json"),
             "--prompt", str(prompt), "--lrc", str(lrc)]
        )
    )
    assert code == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error:")


def test_invalid_prompt_json_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"global": "x", unquoted}', encoding="utf-8")
    lrc = tmp_path / "x.lrc"
    _write_lrc(lrc)
    ckpt = _train_tiny(tmp_path)
    code = main(
        _tiny_args(
            ["generate", "--out-dir", str(tmp_path / "g"), "--checkpoint", str(ckpt),
             "--prompt", str(bad), "--lrc", str(lrc)]
        )
    )
    assert code == EXIT_DATA
    assert "line" in capsys.readouterr().err  # parse location reported


# -----------------------------------------------------------------------------
# pipeline
# -----------------------------------------------------------------------------


def test_empty_manifest_gives_empty_report(tmp_path):
    manifest = tmp_path / "empty.jsonl"
    manifest.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["pipeline", "--stage", "pretrain", "--manifest", str(manifest),
                 "--out-dir", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "pretrain_report.json").read_text())
    assert report["kept"] == [] and report["rejected"] == []


def test_pretrain_stage_matches_oracle_on_fixture(tmp_path, rng):
    records = [
        RecordManifest(
            id=f"r{i:03d}",
            duration=float(rng.uniform(5, 400)),
            sampling_rate=float(rng.choice([16_000, 32_000, 44_100])),
            channels=2,
            quality_scores={"q": float(rng.normal())},
        )
        for i in range(100)
    ]
    manifest = tmp_path / "m.jsonl"
    write_manifest(records, manifest)
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "bad-score", "duration": 60.0, "sampling_rate": 44100,
                             "channels": 2, "quality_scores": [1]}) + "\n")
    out = tmp_path / "out"
    assert main(["pipeline", "--stage", "pretrain", "--manifest", str(manifest),
                 "--out-dir", str(out)]) == EXIT_OK
    report = json.loads((out / "pretrain_report.json").read_text())
    assert [r["line"] for r in report["schema_rejects"]] == [101]
    assert "quality_scores" in report["schema_rejects"][0]["error"]
    survivors = [r for r in records if r.sampling_rate >= 32_000 and 30 <= r.duration <= 360]
    cutoff = float(np.quantile([r.quality_scores["q"] for r in survivors], 0.05))
    expected = {r.id for r in survivors if r.quality_scores["q"] >= cutoff}
    assert set(report["kept"]) == expected
    assert (out / "run_manifest.json").exists()


@pytest.mark.parametrize("stage", ["pretrain", "finetune"])
def test_quality_gates_reject_a_nan_score_as_a_schema_error(tmp_path, stage):
    manifest = tmp_path / "m.jsonl"
    lines = [
        json.dumps({"id": f"r{i}", "duration": 60.0, "sampling_rate": 48_000, "channels": 2,
                    "quality_scores": {"q": float("nan") if i == 3 else float(i)}})
        for i in range(20)
    ]
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert "NaN" in lines[3]
    out = tmp_path / "out"
    assert main(["pipeline", "--stage", stage, "--manifest", str(manifest),
                 "--out-dir", str(out)]) == EXIT_OK
    report = json.loads((out / f"{stage}_report.json").read_text())
    assert [r["line"] for r in report["schema_rejects"]] == [4]
    assert "quality_scores" in report["schema_rejects"][0]["error"]
    assert "r3" not in report["kept"]
    assert report["kept"]


def test_dpo_stage_requires_min_diff_and_selects_pairs(tmp_path):
    scores = tmp_path / "scores.jsonl"
    rows = [{"group": "g1", "id": s, "score": v} for s, v in
            [("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0)]]
    scores.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["pipeline", "--stage", "dpo-pairs", "--manifest", str(scores),
                 "--out-dir", str(out)]) == EXIT_DATA  # min_diff unset
    assert main(["pipeline", "--stage", "dpo-pairs", "--manifest", str(scores),
                 "--set", "pipeline.dpo_min_diff=1.5", "--out-dir", str(out)]) == EXIT_OK
    pairs = json.loads((out / "dpo_pairs.json").read_text())["pairs"]
    assert pairs == [
        {"group": "g1", "win": "d", "lose": "a"},
        {"group": "g1", "win": "d", "lose": "b"},
    ]


def test_duration_dataset_stage(tmp_path):
    rec = RecordManifest(
        id="song",
        duration=30.0,
        sampling_rate=44100.0,
        channels=2,
        quality_scores={"q": 1.0},
        lyrics=["hello there"],
        lyrics_lrc="[00:02.00] hello there\n",
        segments=[{"kind": "lyric", "label": "verse", "lines": [0, 1]}],
        captions={"global": "desc", "0": "verse cap"},
    )
    manifest = tmp_path / "m.jsonl"
    write_manifest([rec], manifest)
    out = tmp_path / "out"
    assert main(["pipeline", "--stage", "duration-dataset", "--manifest", str(manifest),
                 "--out-dir", str(out)]) == EXIT_OK
    lines = (out / "duration_dataset.jsonl").read_text().splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    assert "Output a complete `.lrc` style list with timestamps" in entry["instruction"]
    assert entry["target"] == "[00:02.00] hello there\n"


def test_duration_dataset_stage_skips_overrunning_lrc(tmp_path):
    def song(rid, lrc):
        return RecordManifest(
            id=rid,
            duration=30.0,
            sampling_rate=44100.0,
            channels=2,
            quality_scores={"q": 1.0},
            lyrics=["hello there"],
            lyrics_lrc=lrc,
            segments=[{"kind": "lyric", "label": "verse", "lines": [0, 1]}],
            captions={"global": "desc", "0": "verse cap"},
        )

    records = [
        song("a", "[00:02.00] hello there\n"),
        song("overrun", "[00:45.00] hello there\n"),  # past the 30 s duration
        song("b", "[00:03.00] hello there\n"),
    ]
    manifest = tmp_path / "m.jsonl"
    write_manifest(records, manifest)
    out = tmp_path / "out"
    assert main(["pipeline", "--stage", "duration-dataset", "--manifest", str(manifest),
                 "--out-dir", str(out)]) == EXIT_OK
    report = json.loads((out / "duration_dataset_report.json").read_text())
    assert report["emitted"] == 2
    assert report["skipped"] == [["overrun", "invalid-lrc"]]
    targets = [json.loads(line)["target"] for line in
               (out / "duration_dataset.jsonl").read_text().splitlines()]
    assert targets == ["[00:02.00] hello there\n", "[00:03.00] hello there\n"]


def test_lyric_edit_stage_reports_kept_rejected_and_flagged(tmp_path):
    def rec(rid, **kw):
        return RecordManifest(id=rid, duration=30.0, sampling_rate=44100.0, channels=2, **kw)

    records = [
        rec("match", lyrics=["hello world"], transcript=["Hello, world!"]),
        rec("far", lyrics=["hello world"], transcript=["zzzz qqqq"]),
        rec("bad-lrc", lyrics_lrc="[00:45.00] too late\n", transcript=["too late"]),
        rec("no-transcript", lyrics_lrc="[00:01.00] la la\n"),
        rec("instrumental"),
    ]
    manifest = tmp_path / "m.jsonl"
    write_manifest(records, manifest)
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("not json\n")
    out = tmp_path / "out"
    assert main(["pipeline", "--stage", "lyric-edit", "--manifest", str(manifest),
                 "--out-dir", str(out)]) == EXIT_OK
    report = json.loads((out / "lyric_edit_report.json").read_text())
    assert report["kept"] == ["match", "no-transcript", "instrumental"]
    assert report["rejected"] == [
        {"id": "far", "reason": "edit-distance"},
        {"id": "bad-lrc", "reason": "invalid-lrc"},
    ]
    assert report["flagged"] == {"no-transcript": ["unverified"]}
    assert [r["line"] for r in report["schema_rejects"]] == [6]
    manifest_files = json.loads((out / "run_manifest.json").read_text())["files"]
    assert manifest_files == ["lyric_edit_report.json"]
    # The threshold comes from pipeline.lyric_edit_max_distance.
    wide = tmp_path / "wide"
    assert main(["pipeline", "--stage", "lyric-edit", "--manifest", str(manifest),
                 "--set", "pipeline.lyric_edit_max_distance=1.0", "--out-dir", str(wide)]) == EXIT_OK
    assert "far" in json.loads((wide / "lyric_edit_report.json").read_text())["kept"]


# -----------------------------------------------------------------------------
# train / generate determinism
# -----------------------------------------------------------------------------


def test_train_twice_is_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(_tiny_args(["train", "--out-dir", str(out)])) == EXIT_OK
        outs.append(out)
    a, b = outs
    assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()


def test_train_manifest_lists_only_the_files_the_run_wrote(tmp_path):
    """A second run into the same --out-dir does not list the checkpoints an
    earlier run left there."""
    out = tmp_path / "run"

    def files(steps, every):
        argv = _tiny_args(["train", "--out-dir", str(out), "--set", f"train.steps={steps}",
                           "--set", f"train.checkpoint_every={every}"])
        assert main(argv) == EXIT_OK
        return json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))["files"]

    assert files(4, 2) == ["checkpoint-000002.json", "checkpoint.json", "train_log.jsonl"]
    assert files(2, 0) == ["checkpoint.json", "train_log.jsonl"]
    assert (out / "checkpoint-000002.json").exists()  # left by the first run, not listed


def test_generate_twice_is_byte_identical_and_logged(tmp_path):
    ckpt = _train_tiny(tmp_path)
    prompt = tmp_path / "p.json"
    _write_prompt(prompt)
    lrc = tmp_path / "x.lrc"
    _write_lrc(lrc)
    outs = []
    for name in ("g1", "g2"):
        out = tmp_path / name
        code = main(
            _tiny_args(
                ["generate", "--out-dir", str(out), "--checkpoint", str(ckpt),
                 "--prompt", str(prompt), "--lrc", str(lrc)]
            )
        )
        assert code == EXIT_OK
        outs.append(out)
    a, b = outs
    assert (a / "latent.json").read_bytes() == (b / "latent.json").read_bytes()
    log = [json.loads(l) for l in (a / "sample_log.jsonl").read_text().splitlines()]
    assert [e["step"] for e in log] == list(range(4))


def test_generate_with_predicted_durations(tmp_path):
    ckpt = _train_tiny(tmp_path)
    prompt = tmp_path / "p.json"
    _write_prompt(prompt)
    lyrics = tmp_path / "ly.txt"
    lyrics.write_text("la la la\nso so\n", encoding="utf-8")
    out = tmp_path / "g"
    code = main(
        _tiny_args(
            ["generate", "--out-dir", str(out), "--checkpoint", str(ckpt),
             "--prompt", str(prompt), "--lyrics", str(lyrics)]
        )
    )
    assert code == EXIT_OK
    predicted = parse_lrc((out / "predicted.lrc").read_text(), total_duration=3.0)
    assert len(predicted.lines) == 2
    assert (out / "latent.json").exists()
    _write_prompt(prompt, duration=1e300)
    too_long = tmp_path / "too-long"
    code = main(
        _tiny_args(
            ["generate", "--out-dir", str(too_long), "--checkpoint", str(ckpt),
             "--prompt", str(prompt), "--lyrics", str(lyrics)]
        )
    )
    assert code == EXIT_DATA
    assert not (too_long / "predicted.lrc").exists()  # no 300-digit minute field left behind


# -----------------------------------------------------------------------------
# eval
# -----------------------------------------------------------------------------


def test_eval_count_mismatch_is_data_error(tmp_path):
    code = main(_tiny_args(["eval", "--out-dir", str(tmp_path), "--latent", "a.json",
                            "--prompt"]))
    assert code == EXIT_DATA


def test_eval_empty_inputs_give_empty_report(tmp_path):
    out = tmp_path / "out"
    assert main(_tiny_args(["eval", "--out-dir", str(out)])) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["samples"] == [] and report["aggregate"] == {}


def test_eval_report_schema_and_scores(tmp_path):
    from songflow.evaluate import validate_report

    ckpt = _train_tiny(tmp_path)
    prompt = tmp_path / "p.json"
    _write_prompt(prompt)
    lrc = tmp_path / "x.lrc"
    _write_lrc(lrc)
    gen = tmp_path / "g"
    assert main(
        _tiny_args(
            ["generate", "--out-dir", str(gen), "--checkpoint", str(ckpt),
             "--prompt", str(prompt), "--lrc", str(lrc)]
        )
    ) == EXIT_OK
    out = tmp_path / "e"
    code = main(
        _tiny_args(
            ["eval", "--out-dir", str(out),
             "--latent", str(gen / "latent.json"), "--prompt", str(prompt),
             "--pred-lrc", str(lrc), "--true-lrc", str(lrc)]
        )
    )
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    validate_report(report)
    assert report["aggregate"]["duration_mae_mean"] == 0.0
    assert -1.0 <= report["samples"][0]["global_alignment"] <= 1.0
    assert len(report["samples"][0]["segment_alignment"]["per_segment"]) == 2


def test_eval_scores_a_huge_latent_like_its_unscaled_self(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((12, 2))
    prompt = tmp_path / "p.json"
    prompt.write_text(_prompt_text(), encoding="utf-8")
    for name, latent in (("plain.json", values), ("huge.json", values * 1e200)):
        (tmp_path / name).write_text(_latent_text([12, 2], latent.reshape(-1).tolist()),
                                     encoding="utf-8")
    out = tmp_path / "e"
    assert main(_tiny_args(["eval", "--out-dir", str(out),
                            "--latent", str(tmp_path / "plain.json"), str(tmp_path / "huge.json"),
                            "--prompt", str(prompt), str(prompt)])) == EXIT_OK
    plain, huge = json.loads((out / "report.json").read_text())["samples"]
    scores = [(s["global_alignment"], *s["segment_alignment"]["per_segment"]) for s in (plain, huge)]
    assert all(s != 0.0 for s in scores[0])
    assert np.abs(np.subtract(*scores)).max() <= 1e-12


@pytest.mark.parametrize("segments", [
    [{"start_s": 0.0, "end_s": 1.5, "text": "pulse"}, {"start_s": 1.5, "end_s": 1.6, "text": "wave"}],
    [{"start_s": 0.0, "end_s": 1.5, "text": "pulse", "kind": "boundary"}],
], ids=["segment-shorter-than-a-frame", "only-boundary-segment"])
def test_eval_leaves_a_sample_unscored(tmp_path, segments):
    """A segment that floors to no frame (at 4 frames/s), or no segment that
    is not a boundary marker, leaves the sample without a segment score."""
    latent = tmp_path / "latent.json"
    latent.write_text(_latent_text([12, 2], [0.5, -0.5] * 12), encoding="utf-8")
    prompt = tmp_path / "p.json"
    prompt.write_text(_prompt_text(segments=segments), encoding="utf-8")
    out = tmp_path / "e"
    assert main(_tiny_args(["eval", "--out-dir", str(out), "--latent", str(latent),
                            "--prompt", str(prompt)])) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["samples"][0]["segment_alignment"] == {"per_segment": [], "mean": None}
    assert report["aggregate"]["segment_alignment_mean"] is None


# -----------------------------------------------------------------------------
# predict-durations
# -----------------------------------------------------------------------------


def test_predict_durations_output_parses(tmp_path):
    lyrics = tmp_path / "ly.txt"
    lyrics.write_text("first line here\nsecond line\nthird\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(
        ["predict-durations", "--out-dir", str(out), "--lyrics", str(lyrics),
         "--global-prompt", "calm song", "--segment-prompt", "verse",
         "--segment-prompt", "chorus part", "--duration-hint", "30"]
    )
    assert code == EXIT_OK
    doc = parse_lrc((out / "predicted.lrc").read_text(), total_duration=30.0)
    assert len(doc.lines) == 3
    assert doc.lines[-1].timestamp < 30.0


def _pipeline_fixture(tmp_path):
    """One manifest that reaches every reason code of every record stage,
    plus a score file with a group too small to pair."""
    def rec(rid, **kw):
        return {"id": rid, "duration": 60.0, "sampling_rate": 44100.0, "channels": 2,
                "quality_scores": {"a": 0.9, "b": 0.8}, **kw}

    song = {"lyrics": ["hello world", "second line"], "transcript": ["Hello, world! Second line."],
            "lyrics_lrc": "[00:01.00] hello world\n\n[00:04.50] second line\n[00:07.25]\n",
            "segments": [{"kind": "lyric", "label": "verse", "lines": [0, 2]}],
            "captions": {"global": "a calm song", "0": "soft verse"}}
    rows = [json.dumps(r) for r in (
        rec("keep", **song),
        rec("low-rate", sampling_rate=16000.0),
        rec("mono", channels=1),
        rec("short", duration=10.0),
        rec("no-score", quality_scores={}),
        rec("below", quality_scores={"a": 0.1, "b": 0.9}),
        rec("far", **{**song, "transcript": ["zzz qqq"]}),
        rec("no-caption", **{**song, "captions": {"0": "soft verse"}}),
        rec("bad-lrc", **{**song, "lyrics": None,
                          "lyrics_lrc": "[00:09.00] late\n[00:08.00] early\n"}),
        rec("unverified", lyrics=["la la"]),
        rec("keep", duration=10.0),  # a repeated id: a schema reject, not a second "keep"
    )]
    rows.insert(3, "not json")
    rows.insert(5, json.dumps(rec("neg", duration=-1.0)))
    (tmp_path / "m.jsonl").write_text("\n".join(rows) + "\n", encoding="utf-8")
    scores = [{"group": g, "id": f"{g}-{i}", "score": v}
              for g, values in (("g1", [0.1, 0.5, 0.9, 0.95]), ("g2", [1, 2]), ("g3", [0.3]))
              for i, v in enumerate(values)]
    (tmp_path / "s.jsonl").write_text("".join(json.dumps(r) + "\n" for r in scores), encoding="utf-8")


_SCHEMA_REJECTS = [{"line": 4, "error": "Expecting value: line 1 column 1 (char 0)"},
                   {"line": 6, "error": "record 'neg': duration must be positive"},
                   {"line": 13, "error": "record 'keep': id repeats line 1"}]
_MISSING = "missing-timestamps"
# Each stage's report, as the indented writer produced it; only the content
# is pinned, not the formatting.
PINNED_REPORTS = {
    "pretrain": {
        "kept": ["keep", "mono", "far", "no-caption", "bad-lrc", "unverified"],
        "rejected": [{"id": "low-rate", "reason": "sampling-rate"},
                     {"id": "short", "reason": "duration-out-of-range"},
                     {"id": "no-score", "reason": "missing-score"},
                     {"id": "below", "reason": "quality-percentile"}],
        "flagged": {}, "schema_rejects": _SCHEMA_REJECTS},
    "finetune": {
        "kept": ["keep", "short", "far", "no-caption", "bad-lrc", "unverified"],
        "rejected": [{"id": "low-rate", "reason": "sampling-rate"}, {"id": "mono", "reason": "channels"},
                     {"id": "no-score", "reason": "missing-score"},
                     {"id": "below", "reason": "below-median:a"}],
        "flagged": {}, "schema_rejects": _SCHEMA_REJECTS},
    "lyric-edit": {
        "kept": ["keep", "low-rate", "mono", "short", "no-score", "below", "no-caption", "unverified"],
        "rejected": [{"id": "far", "reason": "edit-distance"}, {"id": "bad-lrc", "reason": "invalid-lrc"}],
        "flagged": {"unverified": ["unverified"]}, "schema_rejects": _SCHEMA_REJECTS},
    "duration-dataset": {
        "emitted": 2,
        "skipped": [["low-rate", _MISSING], ["mono", _MISSING], ["short", _MISSING],
                    ["no-score", _MISSING], ["below", _MISSING],
                    ["no-caption", "missing-caption:global"], ["bad-lrc", "invalid-lrc"],
                    ["unverified", _MISSING]],
        "schema_rejects": _SCHEMA_REJECTS},
    "dpo-pairs": {"pairs": [{"group": "g1", "win": "g1-3", "lose": "g1-0"},
                            {"group": "g1", "win": "g1-3", "lose": "g1-1"},
                            {"group": "g2", "win": "g2-1", "lose": "g2-0"}]},
}


@pytest.mark.parametrize("stage", list(PINNED_REPORTS))
def test_pipeline_reports_decode_to_the_pinned_objects(tmp_path, stage):
    _pipeline_fixture(tmp_path)
    out = tmp_path / "out"
    manifest = tmp_path / ("s.jsonl" if stage == "dpo-pairs" else "m.jsonl")
    assert main(["pipeline", "--stage", stage, "--set", "pipeline.dpo_min_diff=0.3",
                 "--manifest", str(manifest), "--out-dir", str(out)]) == EXIT_OK
    name = "dpo_pairs.json" if stage == "dpo-pairs" else f"{stage.replace('-', '_')}_report.json"
    assert json.loads((out / name).read_text(encoding="utf-8")) == PINNED_REPORTS[stage]
    files = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    extra = ["duration_dataset.jsonl"] if stage == "duration-dataset" else []
    assert files == {"command": f"pipeline:{stage}", "files": sorted(extra + [name])}
    if extra:
        entries = [json.loads(line) for line in (out / extra[0]).read_text(encoding="utf-8").splitlines()]
        assert [e["target"] for e in entries] == ["[00:01.00] hello world\n[00:04.50] second line\n[00:07.25]\n"] * 2
        assert "[soft verse]\nhello world\nsecond line\n" in entries[0]["instruction"]


# -----------------------------------------------------------------------------
# malformed inputs: exit codes, no traceback, strict JSON out
# -----------------------------------------------------------------------------


def _strict_parse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _assert_strict_json(out_dir):
    """Every JSON artifact parses with the NaN/Infinity tokens refused."""
    for path in out_dir.glob("*.json"):
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_strict_parse_constant)
    for path in out_dir.glob("*.jsonl"):
        for line in path.read_text(encoding="utf-8").splitlines():
            json.loads(line, parse_constant=_strict_parse_constant)


def _prompt_text(**changes):
    prompt = {"global": "ember", "segments": [{"start_s": 0.0, "end_s": 1.5, "text": "pulse"},
                                              {"start_s": 1.5, "end_s": 3.0, "text": "wave"}],
              "duration_s": 3.0}
    prompt.update(changes)
    return json.dumps(prompt)


def _manifest_text(duration=30.0, lines=(0, 1), **extra):
    """One duration-dataset record; `lines` is its segment's line range and
    `extra` adds (possibly unknown) keys."""
    return json.dumps({"id": "song", "duration": duration, "sampling_rate": 44100.0, "channels": 2,
                       "lyrics": ["hello there"], "lyrics_lrc": "[00:02.00] hello there\n",
                       "segments": [{"kind": "lyric", "label": "verse", "lines": list(lines)
                                     if isinstance(lines, tuple) else lines}],
                       "captions": {"global": "desc", "0": "verse cap"}, **extra}) + "\n"


def _latent_text(shape, values):
    return json.dumps({"shape": shape, "values": values})


def _checkpoint_with(edit):
    """A checkpoint function: the valid tiny checkpoint payload, edited."""
    def build(payload):
        edit(payload)
        return json.dumps(payload)
    return build


def _bad_base64(p):
    p["params"][0]["f64le"] = "AAAA!AAA"


def _short_payload(p):
    rec = p["params"][0]
    rec["f64le"] = rec["f64le"][:-12]  # 8 bytes fewer, still valid base64


def _as_v1(p):
    p["format"] = "songflow-params-v1"
    for rec in p["params"]:
        rec["values"] = [0.0] * int(np.prod(rec["shape"]))
        del rec["f64le"]


def _non_finite(p):
    raw = bytearray(base64.b64decode(p["params"][0]["f64le"]))
    raw[:8] = np.array([np.nan], dtype="<f8").tobytes()
    p["params"][0]["f64le"] = base64.b64encode(bytes(raw)).decode("ascii")


def _filled(value):
    """A checkpoint edit: every parameter entry set to the finite `value`."""
    def edit(p):
        for rec in p["params"]:
            values = np.full(int(np.prod(rec["shape"])), value, dtype="<f8")
            rec["f64le"] = base64.b64encode(values.tobytes()).decode("ascii")
    return edit


_NAN_LATENT = '{"shape": [12, 2], "values": [' + ", ".join(["0.5"] * 23 + ["NaN"]) + "]}"

_HUGE_MINUTE_LRC = "[" + "9" * 400 + ":00.00] hello there\n"
_HUGE_MINUTE_RECORD = _manifest_text(lyrics=None, lyrics_lrc=_HUGE_MINUTE_LRC,
                                     transcript=["hello there"])

# Valid JSON nested far past the recursion limit.
_DEEP = "[" * 100_000 + "]" * 100_000


def _pipeline_config(**values):
    return json.dumps({"pipeline": values})


# (case, subcommand, files written into the case directory, expected exit code,
#  text stderr must contain). Unlisted inputs are valid.
MALFORMED = [
    ("eval-1d-latent", "eval", {"latent.json": _latent_text([24], [0.5] * 24)}, EXIT_DATA, "shape"),
    ("eval-channels", "eval", {"latent.json": _latent_text([8, 3], [0.5] * 24)}, EXIT_DATA, "shape"),
    ("eval-shape-vs-values", "eval", {"latent.json": _latent_text([12, 2], [0.5] * 20)}, EXIT_DATA,
     "does not match"),
    ("eval-no-frames", "eval", {"latent.json": _latent_text([0, 2], [])}, EXIT_DATA, "shape"),
    ("eval-string-values", "eval", {"latent.json": _latent_text([1, 2], ["a", "b"])}, EXIT_DATA,
     "latent.json: latent.values must be list[float], got list"),
    ("eval-nan-latent", "eval", {"latent.json": _NAN_LATENT}, EXIT_DATA,
     "values must be list[float]"),
    ("eval-inf-latent", "eval", {"latent.json": _latent_text([12, 2], [0.5] * 23 + [1e999])},
     EXIT_DATA, "values must be list[float]"),
    ("eval-huge-int-latent", "eval", {"latent.json": _latent_text([12, 2], [0] * 23 + [10**400])},
     EXIT_DATA, "values must be list[float]"),
    ("eval-bool-shape", "eval", {"latent.json": _latent_text([True, 2], [0.5, 0.5])}, EXIT_DATA,
     "latent.shape must be list[int]"),
    ("eval-no-values", "eval", {"latent.json": '{"shape": [12, 2]}'}, EXIT_DATA,
     "latent is missing keys ['values']"),
    ("eval-raw-f64-latent", "eval", {"latent.json": np.zeros(24).astype("<f8").tobytes()},
     EXIT_DATA, "latent.json: latent is not JSON: Expecting value"),
    ("eval-non-utf8-latent", "eval", {"latent.json": np.full(24, np.inf).astype("<f8").tobytes()},
     EXIT_DATA, "latent.json: latent is not JSON: 'utf-8'"),
    ("generate-list-prompt", "generate", {"prompt.json": '[{"global": "ember"}]'}, EXIT_DATA,
     "object"),
    ("generate-number-global", "generate", {"prompt.json": _prompt_text(**{"global": 5})},
     EXIT_DATA, "global"),
    ("generate-string-segments", "generate", {"prompt.json": _prompt_text(segments="verse")},
     EXIT_DATA, "prompt.segments must be list, got 'verse'"),
    ("generate-string-segment", "generate", {"prompt.json": _prompt_text(segments=["verse"])},
     EXIT_DATA, "prompt.segments[0] must be an object, got 'verse'"),
    ("generate-string-time", "generate",
     {"prompt.json": _prompt_text(segments=[{"start_s": "0", "end_s": 1.5, "text": "p"}])},
     EXIT_DATA, "prompt.segments[0].start_s must be float, got '0'"),
    ("generate-unknown-key", "generate",
     {"prompt.json": _prompt_text(segmnts=[{"start_s": 0.0, "end_s": 1.5, "text": "pulse"}])},
     EXIT_DATA, "prompt has unknown keys ['segmnts']"),
    ("generate-unknown-segment-key", "generate",
     {"prompt.json": _prompt_text(segments=[{"start_s": 0.0, "end_s": 1.5, "text": "p",
                                             "knd": "boundary"}])},
     EXIT_DATA, "prompt.segments[0] has unknown keys ['knd']"),
    ("generate-segment-without-text", "generate",
     {"prompt.json": _prompt_text(segments=[{"start_s": 0.0, "end_s": 1.5}])},
     EXIT_DATA, "prompt.segments[0] is missing keys ['text']"),
    ("generate-unknown-negative-key", "generate",
     {"prompt.json": _prompt_text(negative={"global": "hiss", "segment": "hum", "globl": "x"})},
     EXIT_DATA, "prompt.negative has unknown keys ['globl']"),
    ("generate-huge-int-duration", "generate", {"prompt.json": _prompt_text(duration_s=10**400)},
     EXIT_DATA, "prompt.duration_s must be float | None"),
    ("generate-negative-list", "generate", {"prompt.json": _prompt_text(negative=["x"])},
     EXIT_DATA, "negative"),
    ("generate-nan-duration", "generate",
     {"prompt.json": _prompt_text(duration_s=None).replace("null", "NaN")}, EXIT_DATA,
     "duration_s"),
    ("generate-huge-end", "generate",
     {"prompt.json": _prompt_text(segments=[{"start_s": 0.0, "end_s": 1e9, "text": "p"}],
                                  duration_s=None)},
     EXIT_DATA, "pretrain_max_duration"),
    ("generate-long-duration", "generate", {"prompt.json": _prompt_text(duration_s=360.01)},
     EXIT_DATA, "pretrain_max_duration"),
    ("generate-infinite-frame-end", "generate",
     {"prompt.json": _prompt_text(segments=[{"start_s": 0.0, "end_s": 1.7e308, "text": "p"}])},
     EXIT_DATA, "has no finite frame"),
    ("generate-sub-frame-duration", "generate",
     {"prompt.json": _prompt_text(segments=[], duration_s=1e-9), "x.lrc": ""}, EXIT_DATA,
     "covers no frame"),
    ("generate-huge-lrc-minute", "generate", {"x.lrc": _HUGE_MINUTE_LRC}, EXIT_DATA,
     "minute field out of range"),
    ("predict-durations-infinite-hint", "predict-durations", {"hint.txt": "1.7e308"}, EXIT_DATA,
     "pretrain_max_duration"),
    ("predict-durations-huge-hint", "predict-durations", {"hint.txt": "1e300"}, EXIT_DATA,
     "pretrain_max_duration"),
    # Lyrics, LRC files and prompts that no computation fits are data errors too.
    ("predict-durations-empty-lyrics", "predict-durations", {"lyrics.txt": "\n   \n"}, EXIT_DATA,
     "predict_durations needs at least one non-empty lyric line"),
    ("generate-empty-lyrics", "generate-lyrics", {"lyrics.txt": " \n"}, EXIT_DATA,
     "predict_durations needs at least one non-empty lyric line"),
    # 1.000000005 s snaps to the 1.00 s grid mark, 4 frames: the line at 1.00 s has none.
    ("generate-onset-snapped-to-end", "generate",
     {"prompt.json": _prompt_text(segments=[], duration_s=1.000000005),
      "x.lrc": "[00:00.00] p0\n[00:01.00] p1\n"}, EXIT_DATA, "a lyric line's onset maps outside [0, T)"),
    ("eval-unknown-text", "eval", {"prompt.json": _prompt_text(**{"global": "nowhere"})}, EXIT_DATA,
     "text 'nowhere' is in neither vocabulary"),
    ("eval-prompt-past-latent", "eval", {"latent.json": _latent_text([8, 2], [0.5] * 16)}, EXIT_DATA,
     "segment [1.5, 3.0)s maps past frame 8"),
    ("eval-lrc-line-counts", "eval-lrc", {"true.lrc": "[00:00.00] p0 p1 p2\n"}, EXIT_DATA,
     "line counts differ: 2 vs 1"),
    ("eval-lrc-texts", "eval-lrc", {"true.lrc": "[00:00.00] p0 p1 p2\n[00:01.50] p3\n"}, EXIT_DATA,
     "line 2 texts differ after normalization"),
    ("eval-lrc-no-lines", "eval-lrc", {"pred.lrc": "", "true.lrc": ""}, EXIT_DATA,
     "documents have no lines"),
    ("checkpoint-bad-base64", "generate", {"ckpt.json": _checkpoint_with(_bad_base64)},
     EXIT_DATA, "base64"),
    ("checkpoint-short-payload", "generate", {"ckpt.json": _checkpoint_with(_short_payload)},
     EXIT_DATA, "bytes for shape"),
    ("checkpoint-v1", "generate", {"ckpt.json": _checkpoint_with(_as_v1)}, EXIT_DATA,
     "songflow-params-v1"),
    ("checkpoint-non-finite", "generate", {"ckpt.json": _checkpoint_with(_non_finite)},
     EXIT_DATA, "non-finite"),
    # Finite weights that overflow are a numeric abort, whichever value overflows first.
    ("checkpoint-overflowing-encoding", "generate", {"ckpt.json": _checkpoint_with(_filled(1e200))},
     EXIT_NUMERIC, "condition encoding left finite range"),
    ("checkpoint-overflowing-trajectory", "generate", {"ckpt.json": _checkpoint_with(_filled(1e100))},
     EXIT_NUMERIC, "trajectory left finite range (step 0)"),
    ("dpo-nan-string", "dpo-pairs", {"scores.jsonl": '{"group": "g", "id": "a", "score": "nan"}'},
     EXIT_DATA, "finite number"),
    ("dpo-nan-token", "dpo-pairs", {"scores.jsonl": '{"group": "g", "id": "a", "score": NaN}'},
     EXIT_DATA, "finite number"),
    ("dpo-infinity", "dpo-pairs", {"scores.jsonl": '{"group": "g", "id": "a", "score": 1e999}'},
     EXIT_DATA, "finite number"),
    ("dpo-bool", "dpo-pairs", {"scores.jsonl": '{"group": "g", "id": "a", "score": true}'},
     EXIT_DATA, "finite number"),
    ("dpo-huge-int", "dpo-pairs", {"scores.jsonl": f'{{"group": "g", "id": "a", "score": {10**400}}}'},
     EXIT_DATA, "finite number"),
    ("dpo-int-group", "dpo-pairs",
     {"scores.jsonl": '{"group": "5", "id": "a", "score": 1.0}\n{"group": 5, "id": "b", "score": 2.0}'},
     EXIT_DATA, "line 2: group must be a string, got int"),
    ("dpo-int-id", "dpo-pairs", {"scores.jsonl": '{"group": "g", "id": 7, "score": 1.0}'},
     EXIT_DATA, "line 1: id must be a string, got int"),
    ("dpo-repeated-id", "dpo-pairs",
     {"scores.jsonl": '{"group": "g", "id": "a", "score": 1.0}\n{"group": "g", "id": "a", "score": 2.0}'},
     EXIT_DATA, "line 2: id 'a' repeats in group 'g'"),
    # JSON nested past the recursion limit: a schema reject in a manifest, a
    # data error anywhere else.
    ("pretrain-deep-nesting", "pretrain", {"manifest.jsonl": _DEEP + "\n"}, EXIT_OK,
     "JSON nests too deeply"),
    ("dpo-deep-nesting", "dpo-pairs", {"scores.jsonl": _DEEP}, EXIT_DATA,
     "line 1: bad score row: JSON nests too deeply"),
    ("train-deep-config", "train", {"config.json": _DEEP}, EXIT_DATA,
     "config.json: config is not JSON: JSON nests too deeply"),
    ("generate-deep-prompt", "generate", {"prompt.json": _DEEP}, EXIT_DATA,
     "prompt.json: prompt is not JSON: JSON nests too deeply"),
    ("checkpoint-deep-nesting", "generate", {"ckpt.json": _DEEP}, EXIT_DATA,
     "ckpt.json: checkpoint is not JSON: JSON nests too deeply"),
    ("eval-deep-latent", "eval", {"latent.json": _DEEP}, EXIT_DATA,
     "latent.json: latent is not JSON: JSON nests too deeply"),
    # An input file that is not JSON or not UTF-8 is named in the error.
    ("train-config-syntax-error", "train", {"config.json": '{"train": }'}, EXIT_DATA,
     "config.json: config is not JSON: Expecting value: line 1 column 11 (char 10)"),
    ("generate-prompt-syntax-error", "generate", {"prompt.json": '{"global": }'}, EXIT_DATA,
     "prompt.json: prompt is not JSON: Expecting value: line 1 column 12 (char 11)"),
    ("generate-non-utf8-lrc", "generate", {"x.lrc": b"[00:00.00] p0 \xff\n"}, EXIT_DATA,
     "x.lrc: LRC is not UTF-8: 'utf-8' codec can't decode byte 0xff"),
    ("pretrain-non-utf8-manifest", "pretrain", {"manifest.jsonl": b'{"id": "\xff"}\n'}, EXIT_DATA,
     "manifest.jsonl: manifest is not UTF-8: 'utf-8' codec can't decode byte 0xff"),
    # A bad record is a schema reject in the stage's report, and the stage succeeds.
    ("duration-dataset-string-lines", "duration-dataset", {"manifest.jsonl": _manifest_text(lines="ab")},
     EXIT_OK, "segment lines"),
    ("duration-dataset-short-lines", "duration-dataset", {"manifest.jsonl": _manifest_text(lines=[0])},
     EXIT_OK, "segment lines"),
    ("duration-dataset-nan-duration", "duration-dataset",
     {"manifest.jsonl": _manifest_text(duration=float("nan"))}, EXIT_OK, "duration must be positive"),
    ("duration-dataset-list-record", "duration-dataset", {"manifest.jsonl": "[1, 2]\n"}, EXIT_OK,
     "must be a JSON object"),
    ("duration-dataset-unknown-key", "duration-dataset",
     {"manifest.jsonl": _manifest_text(lyric_lrc="[00:02.00] hello there\n")}, EXIT_OK,
     "unknown record keys: ['lyric_lrc']"),
    # An LRC that does not parse rejects its record for that reason.
    ("lyric-edit-huge-lrc-minute", "lyric-edit", {"manifest.jsonl": _HUGE_MINUTE_RECORD},
     EXIT_OK, "invalid-lrc"),
    ("duration-dataset-huge-lrc-minute", "duration-dataset",
     {"manifest.jsonl": _HUGE_MINUTE_RECORD}, EXIT_OK, "invalid-lrc"),
    ("pretrain-huge-int-score", "pretrain",
     {"manifest.jsonl": _manifest_text(quality_scores={"q": 10**400})}, EXIT_OK,
     "quality_scores must map names to numbers"),
    ("finetune-huge-int-score", "finetune",
     {"manifest.jsonl": _manifest_text(quality_scores={"q": -10**400})}, EXIT_OK,
     "quality_scores must map names to numbers"),
    # Config values out of range are data errors at load, before any work.
    ("train-zero-min-width", "train", {"config.json": '{"task": {"min_width": 0}}'}, EXIT_DATA,
     "task.min_width must be >= 1"),
    ("train-zero-max-segments", "train", {"config.json": '{"task": {"max_segments": 0}}'},
     EXIT_DATA, "task.max_segments must be >= 1"),
    ("train-negative-max-segments", "train", {"config.json": '{"task": {"max_segments": -2}}'},
     EXIT_DATA, "task.max_segments must be >= 1"),
    ("train-zero-d-text", "train", {"config.json": '{"conditioning": {"d_text": 0}}'}, EXIT_DATA,
     "conditioning.d_text must be >= 1"),
    ("train-zero-ff-mult", "train", {"config.json": '{"model": {"ff_mult": 0}}'}, EXIT_DATA,
     "model.ff_mult must be >= 1"),
    ("train-negative-checkpoint-every", "train",
     {"config.json": '{"train": {"checkpoint_every": -1}}'}, EXIT_DATA,
     "train.checkpoint_every must be >= 0"),
    # The stage's one record would be rejected before the bad value is used.
    ("pretrain-zero-sampling-rate", "pretrain",
     {"config.json": _pipeline_config(pretrain_min_sampling_rate=0)}, EXIT_DATA,
     "pipeline.pretrain_min_sampling_rate must be > 0"),
    ("finetune-negative-sampling-rate", "finetune",
     {"config.json": _pipeline_config(finetune_min_sampling_rate=-1)}, EXIT_DATA,
     "pipeline.finetune_min_sampling_rate must be > 0"),
    ("pretrain-negative-min-duration", "pretrain",
     {"config.json": _pipeline_config(pretrain_min_duration=-1)}, EXIT_DATA,
     "pipeline.pretrain_min_duration must be in [0, pipeline.pretrain_max_duration]"),
    ("pretrain-min-above-max-duration", "pretrain",
     {"config.json": _pipeline_config(pretrain_min_duration=400)}, EXIT_DATA,
     "pipeline.pretrain_min_duration must be in [0, pipeline.pretrain_max_duration]"),
    ("pretrain-drop-fraction-above-one", "pretrain",
     {"config.json": _pipeline_config(pretrain_drop_fraction=2)}, EXIT_DATA,
     "pipeline.pretrain_drop_fraction must be in [0, 1]"),
    ("pretrain-negative-drop-fraction", "pretrain",
     {"config.json": _pipeline_config(pretrain_drop_fraction=-0.1)}, EXIT_DATA,
     "pipeline.pretrain_drop_fraction must be in [0, 1]"),
    ("finetune-negative-channels", "finetune",
     {"config.json": _pipeline_config(finetune_channels=-3)}, EXIT_DATA,
     "pipeline.finetune_channels must be >= 1"),
    ("lyric-edit-negative-distance", "lyric-edit",
     {"config.json": _pipeline_config(lyric_edit_max_distance=-0.5)}, EXIT_DATA,
     "pipeline.lyric_edit_max_distance must be >= 0"),
    ("train-negative-dpo-min-diff", "train", {"config.json": _pipeline_config(dpo_min_diff=-1)},
     EXIT_DATA, "pipeline.dpo_min_diff must be >= 0"),
]


# A default-size train run kept short; the table's rows set its config file.
_TRAIN_ARGV = ["train", "--set", "train.steps=2", "--set", "train.batch_size=1"]


@pytest.fixture(scope="module")
def tiny_checkpoint_payload(tmp_path_factory):
    from songflow.config import load_config
    from songflow.system import build_song_model

    path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
    build_song_model(load_config(None, TINY), trainable=False).save(path)
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("fault", [KeyError, ContractError])
def test_a_program_fault_is_not_a_data_error(tmp_path, monkeypatch, fault):
    """Data paths that index a key check it first, and outside input raises
    ValidationError, so a KeyError or ContractError reaching main is a bug:
    it propagates with its traceback instead of exiting 2."""
    def broken(*args):
        raise fault("steps")

    monkeypatch.setattr(cli, "load_config", broken)
    with pytest.raises(fault, match="steps"):
        main(["train", "--out-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("case, command, files, expected, message", MALFORMED,
                         ids=[row[0] for row in MALFORMED])
def test_malformed_input_exit_codes(tmp_path, capsys, tiny_checkpoint_payload,
                                    case, command, files, expected, message):
    lrc = "[00:00.00] p0 p1 p2\n[00:01.50] p0 p1 p2\n"
    inputs = {
        "prompt.json": _prompt_text(),
        "latent.json": _latent_text([12, 2], [0.5] * 24),
        "x.lrc": lrc,
        "pred.lrc": lrc,
        "true.lrc": lrc,
        "ckpt.json": json.dumps(tiny_checkpoint_payload),
        "scores.jsonl": '{"group": "g", "id": "a", "score": 1.0}\n'
                        '{"group": "g", "id": "b", "score": 2.0}\n',
        "manifest.jsonl": _manifest_text(),
        "lyrics.txt": "la la la\nso so\n",
        "hint.txt": "30.0",
        "config.json": "{}",
        **files,
    }
    for name, content in inputs.items():
        if callable(content):
            content = content(copy.deepcopy(tiny_checkpoint_payload))
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content, encoding="utf-8")
    out = tmp_path / "out"
    if command == "eval":
        argv = _tiny_args(["eval", "--out-dir", str(out), "--latent", str(tmp_path / "latent.json"),
                           "--prompt", str(tmp_path / "prompt.json")])
    elif command == "eval-lrc":
        argv = _tiny_args(["eval", "--out-dir", str(out), "--pred-lrc", str(tmp_path / "pred.lrc"),
                           "--true-lrc", str(tmp_path / "true.lrc")])
    elif command in ("generate", "generate-lyrics"):
        lyrics = ["--lyrics", str(tmp_path / "lyrics.txt")] if command == "generate-lyrics" else [
            "--lrc", str(tmp_path / "x.lrc")]
        argv = _tiny_args(["generate", "--out-dir", str(out),
                           "--checkpoint", str(tmp_path / "ckpt.json"),
                           "--prompt", str(tmp_path / "prompt.json"), *lyrics])
    elif command == "predict-durations":
        argv = ["predict-durations", "--out-dir", str(out), "--lyrics", str(tmp_path / "lyrics.txt"),
                "--duration-hint", (tmp_path / "hint.txt").read_text(encoding="utf-8")]
    elif command == "train":
        argv = _TRAIN_ARGV + ["--config", str(tmp_path / "config.json"), "--out-dir", str(out)]
    else:
        manifest = "scores.jsonl" if command == "dpo-pairs" else "manifest.jsonl"
        argv = ["pipeline", "--stage", command, "--config", str(tmp_path / "config.json"),
                "--set", "pipeline.dpo_min_diff=0.5",
                "--manifest", str(tmp_path / manifest), "--out-dir", str(out)]
    code = main(argv)  # returns: nothing may escape as a traceback
    err = capsys.readouterr().err
    assert code == expected, err
    if expected == EXIT_OK:
        report = json.loads((out / f"{command.replace('-', '_')}_report.json").read_text())
        assert report.get("emitted", 0) == 0 and not report.get("kept")
        if message == "invalid-lrc":
            reasons = [r["reason"] for r in report.get("rejected", [])]
            reasons += [reason for _, reason in report.get("skipped", [])]
            assert reasons == [message] and not report["schema_rejects"], report
        else:
            assert not report.get("skipped")
            [reject] = report["schema_rejects"]
            assert reject["line"] == 1 and message in reject["error"], reject
    else:
        prefix = "numeric abort:" if expected == EXIT_NUMERIC else "data error:"
        assert err.startswith(prefix) and message in err, err
        assert not out.exists()  # inputs are checked before --out-dir is made
    _assert_strict_json(out)


def test_valid_inputs_of_the_table_succeed(tmp_path, tiny_checkpoint_payload):
    """The table's defaults are valid, so each row fails for its own reason."""
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(tiny_checkpoint_payload), encoding="utf-8")
    prompt = tmp_path / "prompt.json"
    prompt.write_text(_prompt_text(), encoding="utf-8")
    lrc = tmp_path / "x.lrc"
    _write_lrc(lrc)
    lyrics = tmp_path / "lyrics.txt"
    lyrics.write_text("la la la\nso so\n", encoding="utf-8")
    gen = tmp_path / "g"
    assert main(_tiny_args(["generate", "--out-dir", str(gen), "--checkpoint", str(ckpt),
                            "--prompt", str(prompt), "--lrc", str(lrc)])) == EXIT_OK
    assert main(_tiny_args(["generate", "--out-dir", str(tmp_path / "gl"), "--checkpoint", str(ckpt),
                            "--prompt", str(prompt), "--lyrics", str(lyrics)])) == EXIT_OK
    latent = tmp_path / "latent.json"
    latent.write_text(_latent_text([12, 2], [0.5] * 24), encoding="utf-8")
    assert main(_tiny_args(["eval", "--out-dir", str(tmp_path / "e"), "--latent", str(latent),
                            str(gen / "latent.json"), "--prompt", str(prompt), str(prompt),
                            "--pred-lrc", str(lrc), "--true-lrc", str(lrc)])) == EXIT_OK
    scores = tmp_path / "scores.jsonl"
    scores.write_text('{"group": "g", "id": "a", "score": 1}\n'
                      '{"group": "g", "id": "b", "score": 2.0}\n', encoding="utf-8")
    out = tmp_path / "d"
    assert main(["pipeline", "--stage", "dpo-pairs", "--set", "pipeline.dpo_min_diff=0.5",
                 "--manifest", str(scores), "--out-dir", str(out)]) == EXIT_OK
    assert json.loads((out / "dpo_pairs.json").read_text())["pairs"] == [
        {"group": "g", "win": "b", "lose": "a"}]
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(_manifest_text(), encoding="utf-8")
    dataset = tmp_path / "dd"
    assert main(["pipeline", "--stage", "duration-dataset", "--manifest", str(manifest),
                 "--out-dir", str(dataset)]) == EXIT_OK
    assert json.loads((dataset / "duration_dataset_report.json").read_text())["emitted"] == 1
    assert main(["predict-durations", "--out-dir", str(tmp_path / "p"), "--lyrics", str(lyrics),
                 "--duration-hint", "30.0"]) == EXIT_OK
    config = tmp_path / "config.json"
    config.write_text("{}", encoding="utf-8")
    assert main(_TRAIN_ARGV + ["--config", str(config), "--out-dir", str(tmp_path / "t")]) == EXIT_OK
    for written in (gen, tmp_path / "e", out, dataset):
        _assert_strict_json(written)


# -----------------------------------------------------------------------------
# allocator policy
# -----------------------------------------------------------------------------


_FAULTS_SCRIPT = """
import resource
import numpy as np
from songflow.cli import main

main(["bogus"])  # a usage error; main sets the allocator policy first
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    live = [np.ones(1 << 17) for _ in range(4)]  # four live 1 MiB arrays
    del live
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
def test_main_keeps_freed_arrays_in_the_heap():
    """Default glibc unmaps or trims the four freed 1 MiB arrays on every
    cycle and faults them in again (~99,000 minor faults); kept in the
    heap they are reused. A fresh interpreter, so earlier tests cannot have
    moved glibc's dynamic thresholds."""
    src = Path(songflow.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert int(done.stdout.split()[-1]) < 2000, done.stdout


def test_parser_is_built_once_and_parses_stay_independent():
    from songflow.cli import build_parser

    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["train", "--out-dir", "a", "--set", "train.steps=1"])
    second = parser.parse_args(["train", "--out-dir", "b"])
    assert first.overrides == ["train.steps=1"] and second.overrides == []
