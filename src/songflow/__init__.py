"""Segment-conditioned flow matching over latent frame sequences.

A desk-scale system: timed prompt broadcasting into frame windows, sentence-
level lyric alignment, conditional flow-matching training with condition
dropout, dual classifier-free-guidance Euler sampling, LRC timing tools, a
manifest data pipeline, and alignment metrics over a synthetic controllable
task.
"""

from .backbone import ModelConfig, VelocityModel, parameter_count, time_embedding
from .conditioning import (
    ConditioningBundle,
    ConditioningEncoder,
    ConditionRow,
    HashEmbedder,
    NegativePrompts,
    OutputProjection,
    PromptSpec,
    apply_condition_dropout,
    assemble_input,
    encode_lyrics,
    prompt_spec_from_json,
    prompt_spec_to_json,
)
from .config import RunConfig, derive_seed, load_config
from .durations import DurationHeuristic, predict_durations, syllable_count
from .errors import (
    ContractError,
    DimensionError,
    NumericAbort,
    ParseError,
    ValidationError,
)
from .evaluate import (
    PatternOracleScorer,
    duration_mae,
    global_alignment_score,
    segment_alignment_score,
)
from .flow import (
    TrainBatch,
    TrainConfig,
    TrainExample,
    cfm_loss,
    interpolate,
    target_velocity,
    train,
)
from .lrc import (
    LrcDocument,
    LrcLine,
    SegmentSpec,
    SegmentWindow,
    frame_count,
    parse_lrc,
    serialize_lrc,
    time_to_frame,
    windows_from_segments,
)
from .optim import AdamState, adam_init, adam_step, clip_grad_norm, grad_norm
from .pipeline import (
    FilterReport,
    RecordManifest,
    build_duration_dataset,
    dpo_pair_select,
    finetune_filter,
    levenshtein,
    lyric_edit_filter,
    pretrain_filter,
)
from .sampler import (
    GuidanceConfig,
    build_condition_triple,
    build_negative_condition,
    euler_sample,
    guided_velocity,
)
from .synthetic import SyntheticDataset, SyntheticTaskSpec, default_task, sample_prompt, synth_sample
from .system import SongModel, build_song_model
from .tensor import Tensor, backward, zero_grads

__version__ = "0.1.0"
