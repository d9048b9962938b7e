"""Run configuration: one JSON file, dotted-key CLI overrides, and a single
root seed from which every stochastic component derives its own stream.

Precedence is CLI override > file > defaults. Unless a section pins its own
seed, training uses derive_seed(seed, "train") and sampling
derive_seed(seed, "generate"), so partial reruns stay reproducible.

Each section checks its keys' ranges when it is built: a value outside its
range is a ValidationError naming <section>.<key> at load, before any input
is read or output made. Consumers trust the typed section and do not check again.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import dataclass, field

from .backbone import ModelConfig
from .conditioning import NegativePrompts
from .errors import ValidationError
from .flow import TrainConfig
from .sampler import GuidanceConfig
from .schema import check_object, loads, read_json
from .synthetic import TaskConfig

__all__ = [
    "ConditioningDims",
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

    def __post_init__(self):
        if self.d_global < 1:
            raise ValidationError("conditioning.d_global must be >= 1")
        if self.d_segment < 1:
            raise ValidationError("conditioning.d_segment must be >= 1")
        if self.d_text < 1:
            raise ValidationError("conditioning.d_text must be >= 1")
        if self.d_lyrics < 1:
            raise ValidationError("conditioning.d_lyrics must be >= 1")


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

    def __post_init__(self):
        if self.pretrain_min_sampling_rate <= 0:
            raise ValidationError("pipeline.pretrain_min_sampling_rate must be > 0")
        if self.finetune_min_sampling_rate <= 0:
            raise ValidationError("pipeline.finetune_min_sampling_rate must be > 0")
        if not 0 <= self.pretrain_min_duration <= self.pretrain_max_duration:
            raise ValidationError(
                "pipeline.pretrain_min_duration must be in [0, pipeline.pretrain_max_duration]"
            )
        if not 0 <= self.pretrain_drop_fraction <= 1:
            raise ValidationError("pipeline.pretrain_drop_fraction must be in [0, 1]")
        if self.finetune_channels < 1:
            raise ValidationError("pipeline.finetune_channels must be >= 1")
        if self.lyric_edit_max_distance < 0:
            raise ValidationError("pipeline.lyric_edit_max_distance must be >= 0")
        if self.dpo_min_diff is not None and self.dpo_min_diff < 0:
            raise ValidationError("pipeline.dpo_min_diff must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)
    conditioning: ConditioningDims = field(default_factory=ConditioningDims)
    train: TrainConfig = field(default_factory=TrainConfig)
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    task: TaskConfig = field(default_factory=TaskConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    negative: NegativePrompts = field(default_factory=NegativePrompts)

    def task_spec(self) -> TaskConfig:
        """The task section, under the name perfbench/ calls."""
        return self.task


_SECTION_TYPES = {
    "model": ModelConfig,
    "conditioning": ConditioningDims,
    "train": TrainConfig,
    "guidance": GuidanceConfig,
    "task": TaskConfig,
    "pipeline": PipelineConfig,
}
_FIELD_TYPES = {name: typing.get_type_hints(cls) for name, cls in _SECTION_TYPES.items()}
_TOP_TYPES = {"seed": int, "negative": dict, **dict.fromkeys(_SECTION_TYPES, dict)}
_SEED_STREAMS = {"train": "train", "guidance": "generate"}  # derive_seed names of unpinned seeds


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply dotted-key overrides like "train.steps=50"; values parse as JSON
    literals, falling back to plain strings."""
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        try:
            parsed = loads(value)
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
        raw = read_json(path, "config")
        if not isinstance(raw, dict):
            raise ValidationError("config file must hold a JSON object")
    raw = check_object(apply_overrides(raw, overrides or []), _TOP_TYPES, "config")
    seed = raw.get("seed", 0)
    sections = {}
    for name, cls in _SECTION_TYPES.items():
        data = dict(check_object(raw.get(name, {}), _FIELD_TYPES[name], name))
        if name in _SEED_STREAMS:
            data.setdefault("seed", derive_seed(seed, _SEED_STREAMS[name]))
        sections[name] = cls(**data)
    negative = NegativePrompts.from_json(raw.get("negative", {}), "negative")
    return RunConfig(seed=seed, negative=negative, **sections)
