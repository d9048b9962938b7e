import json

import numpy as np
import pytest

from songflow.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
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
             "--prompt", str(prompt), "--predict-durations", "--lyrics", str(lyrics)]
        )
    )
    assert code == EXIT_OK
    predicted = parse_lrc((out / "predicted.lrc").read_text(), total_duration=3.0)
    assert len(predicted.lines) == 2
    assert (out / "latent.json").exists()


def test_generate_raw_f64_format(tmp_path):
    ckpt = _train_tiny(tmp_path)
    prompt = tmp_path / "p.json"
    _write_prompt(prompt)
    lrc = tmp_path / "x.lrc"
    _write_lrc(lrc)
    out = tmp_path / "g"
    code = main(
        _tiny_args(
            ["generate", "--out-dir", str(out), "--checkpoint", str(ckpt),
             "--prompt", str(prompt), "--lrc", str(lrc), "--latent-format", "f64"]
        )
    )
    assert code == EXIT_OK
    raw = np.frombuffer((out / "latent.f64").read_bytes(), dtype="<f8")
    assert raw.size == 12 * 2  # T x d_audio


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
