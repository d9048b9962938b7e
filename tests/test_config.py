import dataclasses
import json
import re
from pathlib import Path

import pytest

from songflow.cli import EXIT_DATA, main
from songflow.conditioning import NegativePrompts
from songflow.config import load_config
from songflow.errors import ValidationError


def test_unknown_section_is_rejected():
    with pytest.raises(ValidationError, match=r"config has unknown keys \['modle'\]"):
        load_config(overrides=["modle.n_blocks=3"])


def test_unknown_section_key_is_rejected():
    with pytest.raises(ValidationError, match="train has unknown keys"):
        load_config(overrides=["train.stepz=3"])


@pytest.mark.parametrize("key", ["segment_text", "global_text", "globl"])
def test_unknown_negative_key_is_rejected(tmp_path, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"negative": {key: "x"}}), encoding="utf-8")
    with pytest.raises(ValidationError, match="negative has unknown keys"):
        load_config(path)


def test_negative_keys_are_read():
    cfg = load_config(overrides=["negative.global=hiss", "negative.segment=clipping"])
    assert cfg.negative == NegativePrompts(global_text="hiss", segment_text="clipping")
    assert load_config().negative == NegativePrompts()


# Every key a config file or --set may hold; nothing else is accepted.
CONFIG_KEYS = [
    "seed",
    "model.n_blocks", "model.model_width", "model.n_heads", "model.d_t", "model.ff_mult",
    "conditioning.d_global", "conditioning.d_segment", "conditioning.d_text",
    "conditioning.d_lyrics",
    "train.steps", "train.batch_size", "train.learning_rate", "train.p_drop_global",
    "train.p_drop_segment", "train.p_drop_lyrics", "train.grad_clip_norm", "train.checkpoint_every",
    "train.seed",
    "guidance.cfg", "guidance.cfg_n", "guidance.steps", "guidance.seed",
    "task.T", "task.d_audio", "task.frame_rate", "task.noise_sigma", "task.max_segments",
    "task.min_width",
    "pipeline.pretrain_min_sampling_rate", "pipeline.pretrain_min_duration",
    "pipeline.pretrain_max_duration", "pipeline.pretrain_drop_fraction",
    "pipeline.finetune_min_sampling_rate", "pipeline.finetune_channels",
    "pipeline.lyric_edit_max_distance", "pipeline.dpo_min_diff",
    "negative.global", "negative.segment",
]
REMOVED_KEYS = ["conditioning.proj_hidden", "task.global_vocab", "task.segment_vocab",
                "task.offset_scale"]


def _config_value(cfg, key):
    section, _, name = key.rpartition(".")
    if section == "negative":
        return getattr(cfg.negative, f"{name}_text")
    return getattr(getattr(cfg, section) if section else cfg, name)


def test_config_inventory_is_pinned():
    """The 39 keys are exactly the config's fields, and each one is read:
    setting it to its default (or 1 when that is None) comes back as set."""
    assert len(CONFIG_KEYS) == len(set(CONFIG_KEYS)) == 39
    defaults = load_config()
    fields = {"seed", "negative.global", "negative.segment"} | {
        f"{section.name}.{f.name}"
        for section in dataclasses.fields(defaults)
        if dataclasses.is_dataclass(getattr(defaults, section.name)) and section.name != "negative"
        for f in dataclasses.fields(getattr(defaults, section.name))
    }
    assert fields == set(CONFIG_KEYS)
    for key in CONFIG_KEYS:
        value = _config_value(defaults, key)
        value = 1 if value is None else value
        assert _config_value(load_config(overrides=[f"{key}={json.dumps(value)}"]), key) == value


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_config_keys_are_unknown(key):
    section, _, name = key.partition(".")
    with pytest.raises(ValidationError, match=f"{section} has unknown keys \\['{name}'\\]"):
        load_config(overrides=[f"{key}=1"])


# (override, text the error must contain): each is a data error (exit 2),
# not a traceback.
MISTYPED = [
    ("train=5", "config.train must be dict, got 5"),
    ('train.steps="x"', "train.steps must be int, got 'x'"),
    ("negative=5", "config.negative must be dict, got 5"),
    ('seed="abc"', "seed must be int, got 'abc'"),
    ("guidance.steps=null", "guidance.steps must be int, got None"),
    ("seed=1.5", "seed must be int"),
    ("model.n_blocks=2.0", "model.n_blocks must be int"),
    ("task.frame_rate=true", "task.frame_rate must be float"),
    ("train.p_drop_lyrics=[0.1]", "train.p_drop_lyrics must be float | None, got list"),
    ("negative.global=5", "negative.global must be str"),
    ("task.frame_rate=NaN", "task.frame_rate must be float, got nan"),
    ("pipeline.dpo_min_diff=-Infinity", "pipeline.dpo_min_diff must be float | None, got -inf"),
    ('train.p_drop_global={"a": 1}', "train.p_drop_global must be float, got dict"),
    (f"task.frame_rate={10**400}", "task.frame_rate must be float, got 1000"),
    ("train.steps=" + "[" * 100_000 + "]" * 100_000, "JSON nests too deeply"),
]


@pytest.mark.parametrize("override, message", MISTYPED, ids=[row[0][:40] for row in MISTYPED])
def test_mistyped_config_values_are_data_errors(tmp_path, capsys, override, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_config(overrides=[override])
    lyrics = tmp_path / "lyrics.txt"
    lyrics.write_text("la la\n", encoding="utf-8")
    code = main(["predict-durations", "--lyrics", str(lyrics), "--out-dir", str(tmp_path / "out"),
                 "--set", override])
    assert code == EXIT_DATA
    assert message in capsys.readouterr().err


def test_config_numbers_keep_their_json_type():
    """A float field takes an int as it is; an optional field takes null."""
    cfg = load_config(overrides=["task.frame_rate=4", "train.grad_clip_norm=null",
                                 "pipeline.dpo_min_diff=0.5"])
    assert cfg.task.frame_rate == 4 and isinstance(cfg.task.frame_rate, int)
    assert cfg.train.grad_clip_norm is None and cfg.pipeline.dpo_min_diff == 0.5


@pytest.mark.parametrize("override", [
    "pipeline.pretrain_min_duration=0",
    "pipeline.pretrain_min_duration=360",  # equal to the default maximum
    "pipeline.pretrain_drop_fraction=0",
    "pipeline.pretrain_drop_fraction=1",
    "pipeline.finetune_channels=1",
    "pipeline.lyric_edit_max_distance=0",
    "pipeline.dpo_min_diff=0",
])
def test_pipeline_range_bounds_are_accepted(override):
    """Each range check's closed end is a valid value."""
    key, _, value = override.partition("=")
    assert getattr(load_config(overrides=[override]).pipeline, key.split(".")[1]) == json.loads(value)


@pytest.mark.parametrize("override", [
    "train.seed=0",
    "guidance.seed=0",
    "task.noise_sigma=0",
    "task.frame_rate=1000",
    "train.p_drop_global=0",
    "train.p_drop_global=1",
    "train.p_drop_segment=0",
    "train.p_drop_segment=1",
    "train.p_drop_lyrics=0",
    "train.p_drop_lyrics=1",
])
def test_setting_range_bounds_are_accepted(override):
    """The closed ends of the other sections' ranges are valid values too."""
    key, _, value = override.partition("=")
    assert _config_value(load_config(overrides=[override]), key) == json.loads(value)


# (override, the key the message names): one row per range rule of every
# section. Each is a ValidationError at load, so every command exits 2
# before it reads an input, makes --out-dir or runs a step.
OUT_OF_RANGE = [
    ("model.n_blocks=0", "model.n_blocks"),
    ("model.model_width=0", "model.model_width"),
    ("model.n_heads=0", "model.n_heads"),
    ("model.n_heads=3", "model.n_heads"),  # 64 is not divisible by 3
    ("model.d_t=5", "model.d_t"),
    ("model.d_t=2", "model.d_t"),
    ("model.ff_mult=0", "model.ff_mult"),
    ("conditioning.d_global=0", "conditioning.d_global"),
    ("conditioning.d_segment=0", "conditioning.d_segment"),
    ("conditioning.d_text=0", "conditioning.d_text"),
    ("conditioning.d_lyrics=0", "conditioning.d_lyrics"),
    ("train.steps=0", "train.steps"),
    ("train.batch_size=0", "train.batch_size"),
    ("train.learning_rate=0", "train.learning_rate"),
    ("train.learning_rate=-0.1", "train.learning_rate"),
    ("train.p_drop_global=1.5", "train.p_drop_global"),
    ("train.p_drop_segment=-0.1", "train.p_drop_segment"),
    ("train.p_drop_lyrics=2.0", "train.p_drop_lyrics"),
    ("train.grad_clip_norm=0", "train.grad_clip_norm"),
    ("train.checkpoint_every=-1", "train.checkpoint_every"),
    ("train.seed=-1", "train.seed"),
    ("guidance.steps=0", "guidance.steps"),
    ("guidance.seed=-5", "guidance.seed"),
    ("task.T=0", "task.T"),
    ("task.d_audio=0", "task.d_audio"),
    ("task.frame_rate=0", "task.frame_rate"),
    ("task.frame_rate=-4", "task.frame_rate"),
    ("task.frame_rate=1001", "task.frame_rate"),  # past 1000 Hz lrc's grid snap moves frames
    ("task.noise_sigma=-0.01", "task.noise_sigma"),
    ("task.max_segments=0", "task.max_segments"),
    ("task.min_width=0", "task.min_width"),
    ("pipeline.pretrain_min_sampling_rate=0", "pipeline.pretrain_min_sampling_rate"),
    ("pipeline.finetune_min_sampling_rate=-1", "pipeline.finetune_min_sampling_rate"),
    ("pipeline.pretrain_min_duration=-1", "pipeline.pretrain_min_duration"),
    ("pipeline.pretrain_min_duration=400", "pipeline.pretrain_min_duration"),
    ("pipeline.pretrain_drop_fraction=1.5", "pipeline.pretrain_drop_fraction"),
    ("pipeline.finetune_channels=0", "pipeline.finetune_channels"),
    ("pipeline.lyric_edit_max_distance=-0.5", "pipeline.lyric_edit_max_distance"),
    ("pipeline.dpo_min_diff=-1", "pipeline.dpo_min_diff"),
]


@pytest.mark.parametrize("override, key", OUT_OF_RANGE, ids=[row[0] for row in OUT_OF_RANGE])
def test_out_of_range_settings_are_rejected_at_load(tmp_path, capsys, override, key):
    with pytest.raises(ValidationError, match=re.escape(key)):
        load_config(overrides=[override])
    out = tmp_path / "out"
    # A short run, so a row the config let through fails fast; the row's
    # override comes last and wins.
    argv = ["train", "--set", "train.steps=1", "--set", "train.batch_size=1", "--set", override,
            "--out-dir", str(out)]
    assert main(argv) == EXIT_DATA
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", ["guidance.seed=-5", "guidance.steps=0"])
def test_generate_rejects_guidance_out_of_range_before_reading_inputs(tmp_path, capsys, override):
    """The inputs do not exist: the config is loaded, and refused, first."""
    out = tmp_path / "out"
    argv = ["generate", "--checkpoint", str(tmp_path / "missing.json"), "--prompt",
            str(tmp_path / "missing.json"), "--lrc", str(tmp_path / "missing.lrc"),
            "--set", override, "--out-dir", str(out)]
    assert main(argv) == EXIT_DATA
    assert override.partition("=")[0] in capsys.readouterr().err
    assert not out.exists()


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name, tiny", [
    ("train-t64", False), ("train-t64", True),
    ("generate-t256", False), ("generate-t256", True),
    ("curate-10k", True),  # its config does not depend on --tiny
])
def test_benchmark_configs_pass_the_range_rules(monkeypatch, tmp_path, name, tiny):
    """Every config a benchmark workload writes loads, so a rule that would
    refuse one fails here rather than in a benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.WORKLOADS[name](0, tmp_path, tiny)
    try:  # TrainWorkload installs its timing hooks when it is made
        workload.setup()
        load_config(workload.config_path)
    finally:
        workload.close()
