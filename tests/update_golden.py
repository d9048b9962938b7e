"""The golden SHA-256 table of the CLI's artifacts, and the script that
rewrites it.

`artifact_hashes()` runs train (with a periodic checkpoint), generate with
--lrc and with --lyrics, predict-durations, eval and all five pipeline
stages at a tiny config, in one fresh interpreter with one BLAS thread and
a fixed working directory (eval echoes its input paths), and returns the
SHA-256 of every artifact by its path under that directory.
`train_log.jsonl` is left out: its `wall_ms` field is a wall-clock time.

A change that moves artifact bytes on purpose rewrites the table with

    python tests/update_golden.py

and lists each changed artifact in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
TABLE = HERE / "golden_sha256.json"
SRC = HERE.parent / "src"

TINY = [
    "model.n_blocks=1", "model.model_width=8", "model.n_heads=2", "model.d_t=4",
    "conditioning.d_global=4", "conditioning.d_segment=4", "conditioning.d_text=4",
    "conditioning.d_lyrics=4", "task.T=12", "task.d_audio=2", "task.min_width=4",
    "train.steps=4", "train.batch_size=2", "train.checkpoint_every=2", "guidance.steps=4",
]

PROMPT = {"global": "ember", "segments": [{"start_s": 0.0, "end_s": 1.5, "text": "pulse"},
                                          {"start_s": 1.5, "end_s": 2.5, "text": "drift",
                                           "kind": "instrumental"},
                                          {"start_s": 2.5, "end_s": 3.0, "text": "wave"}],
          "duration_s": 3.0}
LRC = "[00:00.00] la la la\n[00:01.50] so so\n"
LYRICS = "la la la\nso so\n"


def _record(rid, **fields):
    return {"id": rid, "duration": 60.0, "sampling_rate": 44100.0, "channels": 2,
            "quality_scores": {"a": 0.9, "b": 0.8}, **fields}


_SONG = {"lyrics": ["hello world", "second line"], "transcript": ["Hello, world! Second line."],
         "lyrics_lrc": "[00:01.00] hello world\n\n[00:04.50] second line\n[00:07.25]\n",
         "segments": [{"kind": "lyric", "label": "verse", "lines": [0, 2]}],
         "captions": {"global": "a calm song", "0": "soft verse"}}

# Every reason code of every record stage, and every kind of schema reject.
MANIFEST = [json.dumps(row) for row in (
    _record("keep", **_SONG),
    _record("low-rate", sampling_rate=16000.0),
    _record("mono", channels=1),
    _record("short", duration=10.0),
    _record("long", duration=400.0),
    _record("no-score", quality_scores={}),
    _record("below", quality_scores={"a": 0.1, "b": 0.9}),
    _record("far", **{**_SONG, "transcript": ["zzz qqq"]}),
    _record("no-caption", **{**_SONG, "captions": {"0": "soft verse"}}),
    _record("no-segment-caption", **{**_SONG, "captions": {"global": "a calm song"}}),
    _record("past-lines", **{**_SONG, "segments": [{"kind": "lyric", "lines": [0, 5]}]}),
    _record("lrc-only", **{**_SONG, "lyrics": None}),
    _record("bad-lrc", **{**_SONG, "lyrics": None,
                          "lyrics_lrc": "[00:09.00] late\n[00:08.00] early\n"}),
    _record("unverified", lyrics=["la la"]),
    _record("neg", duration=-1.0),
    _record("unknown-key", lyric_lrc="[00:01.00] hi\n"),
    _record("nan-score", quality_scores={"a": float("nan")}),
    [1, 2],
)] + ["not json"]
SCORES = [{"group": g, "id": f"{g}-{i}", "score": v}
          for g, values in (("g1", [0.1, 0.5, 0.9, 0.95]), ("g2", [1, 2]), ("g3", [0.3]))
          for i, v in enumerate(values)]

COMMANDS = [
    ["train", "--out-dir", "train"],
    ["generate", "--out-dir", "gen-lrc", "--checkpoint", "train/checkpoint.json",
     "--prompt", "prompt.json", "--lrc", "song.lrc"],
    ["generate", "--out-dir", "gen-predict", "--checkpoint", "train/checkpoint.json",
     "--prompt", "prompt.json", "--lyrics", "lyrics.txt"],
    ["predict-durations", "--out-dir", "predict", "--lyrics", "lyrics.txt",
     "--global-prompt", "calm song", "--segment-prompt", "verse", "--segment-prompt", "chorus",
     "--duration-hint", "30"],
    ["eval", "--out-dir", "eval", "--latent", "gen-lrc/latent.json", "gen-predict/latent.json",
     "--prompt", "prompt.json", "prompt.json",
     "--pred-lrc", "gen-predict/predicted.lrc", "predict/predicted.lrc",
     "--true-lrc", "song.lrc", "gen-predict/predicted.lrc"],
] + [
    ["pipeline", "--stage", stage, "--manifest", "scores.jsonl" if stage == "dpo-pairs" else
     "manifest.jsonl", "--out-dir", f"pipeline-{stage}", "--set", "pipeline.dpo_min_diff=0.3"]
    for stage in ("pretrain", "finetune", "lyric-edit", "duration-dataset", "dpo-pairs")
]

INPUTS = {
    "prompt.json": json.dumps(PROMPT),
    "song.lrc": LRC,
    "lyrics.txt": LYRICS,
    "manifest.jsonl": "\n".join(MANIFEST) + "\n",
    "scores.jsonl": "".join(json.dumps(row) + "\n" for row in SCORES),
}

_RUNNER = """
import json, sys
from songflow.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code != 0:
        sys.exit(f"exit {code}: {argv}")
"""

_ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def artifact_hashes() -> dict[str, str]:
    """{path under the working directory: SHA-256} of every artifact."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in INPUTS.items():
            (work / name).write_text(text, encoding="utf-8")
        argvs = [argv + [arg for o in TINY for arg in ("--set", o)]
                 if argv[0] != "pipeline" else argv for argv in COMMANDS]
        env = dict(os.environ, PYTHONPATH=str(SRC), **{name: "1" for name in _ONE_THREAD})
        done = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(argvs)], cwd=work,
                              env=env, capture_output=True, text=True, timeout=120)
        if done.returncode:
            raise RuntimeError(f"the CLI run failed:\n{done.stderr}")
        return {
            path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.glob("*/*"))
            if path.name != "train_log.jsonl"
        }


if __name__ == "__main__":
    table = artifact_hashes()
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(table)} artifacts -> {TABLE}")
