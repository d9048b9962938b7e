"""Run configuration: one JSON file, dotted-key CLI overrides, and a single
root seed from which every stochastic component derives its own stream.

Precedence is CLI override > file > defaults. Unless a section pins its own
seed, training uses derive_seed(seed, "train") and sampling
derive_seed(seed, "generate"), so partial reruns stay reproducible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .backbone import ModelConfig
from .conditioning import NegativePrompts
from .errors import ValidationError
from .flow import TrainConfig
from .sampler import GuidanceConfig
from .synthetic import SyntheticTaskSpec, default_task

__all__ = [
    "ConditioningDims",
    "TaskConfig",
    "PipelineConfig",
    "RunConfig",
    "derive_seed",
    "load_config",
    "apply_overrides",
]


def derive_seed(root_seed: int, name: str) -> int:
    """Stable 63-bit stream seed for a named component."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class ConditioningDims:
    d_global: int = 32
    d_segment: int = 32
    d_text: int = 32
    d_lyrics: int = 16
    proj_hidden: int | None = None  # None -> d_text

    @property
    def hidden(self) -> int:
        return self.d_text if self.proj_hidden is None else self.proj_hidden


@dataclass(frozen=True)
class TaskConfig:
    T: int = 64
    d_audio: int = 8
    frame_rate: float = 4.0
    noise_sigma: float = 0.05
    offset_scale: float = 0.8
    max_segments: int = 3
    min_width: int = 8
    global_vocab: dict | None = None  # text -> list of d_audio floats
    segment_vocab: dict | None = None  # text -> [amplitude, period]


@dataclass(frozen=True)
class PipelineConfig:
    pretrain_min_sampling_rate: float = 32_000.0
    pretrain_min_duration: float = 30.0
    pretrain_max_duration: float = 360.0
    pretrain_drop_fraction: float = 0.05
    finetune_min_sampling_rate: float = 44_000.0
    finetune_channels: int = 2
    lyric_edit_max_distance: float = 0.3
    dpo_min_diff: float | None = None  # deliberately no default; required for dpo-pairs


@dataclass(frozen=True)
class ModelSection:
    n_blocks: int = 2
    model_width: int = 64
    n_heads: int = 4
    d_t: int = 16
    ff_mult: int = 2


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    model: ModelSection = field(default_factory=ModelSection)
    conditioning: ConditioningDims = field(default_factory=ConditioningDims)
    train: TrainConfig = field(default_factory=TrainConfig)
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    task: TaskConfig = field(default_factory=TaskConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    negative: NegativePrompts = field(default_factory=NegativePrompts)

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            n_blocks=self.model.n_blocks,
            model_width=self.model.model_width,
            n_heads=self.model.n_heads,
            d_audio=self.task.d_audio,
            d_t=self.model.d_t,
            d_text=self.conditioning.d_text,
            d_lyrics=self.conditioning.d_lyrics,
            ff_mult=self.model.ff_mult,
        )

    def task_spec(self) -> SyntheticTaskSpec:
        t = self.task
        base = default_task(
            T=t.T,
            d_audio=t.d_audio,
            frame_rate=t.frame_rate,
            noise_sigma=t.noise_sigma,
            offset_scale=t.offset_scale,
        )
        if t.global_vocab is None and t.segment_vocab is None:
            return base
        global_vocab = (
            {k: np.asarray(v, dtype=np.float64) for k, v in t.global_vocab.items()}
            if t.global_vocab is not None
            else base.global_vocab
        )
        segment_vocab = (
            {k: (float(v[0]), int(v[1])) for k, v in t.segment_vocab.items()}
            if t.segment_vocab is not None
            else base.segment_vocab
        )
        return SyntheticTaskSpec(
            T=t.T,
            d_audio=t.d_audio,
            frame_rate=t.frame_rate,
            global_vocab=global_vocab,
            segment_vocab=segment_vocab,
            noise_sigma=t.noise_sigma,
        )


_SECTION_TYPES = {
    "model": ModelSection,
    "conditioning": ConditioningDims,
    "train": TrainConfig,
    "guidance": GuidanceConfig,
    "task": TaskConfig,
    "pipeline": PipelineConfig,
}


def _build_section(cls, data: dict, section: str):
    fields = set(cls.__dataclass_fields__)
    unknown = set(data) - fields
    if unknown:
        raise ValidationError(f"unknown {section} config keys: {sorted(unknown)}")
    return cls(**data)


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply dotted-key overrides like "train.steps=50"; values parse as JSON
    literals, falling back to plain strings."""
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValidationError(f"override {key!r} descends through a non-section")
        node[parts[-1]] = parsed
    return raw


def load_config(path=None, overrides: list[str] | None = None) -> RunConfig:
    raw: dict = {}
    if path is not None:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValidationError("config file must hold a JSON object")
    raw = apply_overrides(raw, overrides or [])
    known = {"seed", "negative", *_SECTION_TYPES}
    unknown = set(raw) - known
    if unknown:
        raise ValidationError(f"unknown config sections: {sorted(unknown)}")

    seed = int(raw.get("seed", 0))
    sections = {}
    for name, cls in _SECTION_TYPES.items():
        data = dict(raw.get(name, {}))
        if name == "train" and "seed" not in data:
            data["seed"] = derive_seed(seed, "train")
        if name == "guidance" and "seed" not in data:
            data["seed"] = derive_seed(seed, "generate")
        sections[name] = _build_section(cls, data, name)
    negative_raw = raw.get("negative", {})
    unknown = set(negative_raw) - {"global", "segment"}
    if unknown:
        raise ValidationError(f"unknown negative config keys: {sorted(unknown)}")
    negative = NegativePrompts(
        global_text=negative_raw.get("global", NegativePrompts.global_text),
        segment_text=negative_raw.get("segment", NegativePrompts.segment_text),
    )
    return RunConfig(seed=seed, negative=negative, **sections)
