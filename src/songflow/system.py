"""Assembly of the trainable system: velocity backbone plus conditioning
projection under one flat parameter namespace, with checkpoint round trips."""

from __future__ import annotations

import numpy as np

from .backbone import VelocityModel
from .checkpoint import load_into, save_params
from .conditioning import ConditioningEncoder, HashEmbedder, OutputProjection
from .config import RunConfig, derive_seed
from .tensor import Tensor

__all__ = ["SongModel", "build_song_model"]


class SongModel:
    """Everything the training loop owns; sampling reuses it frozen."""

    def __init__(self, model: VelocityModel, encoder: ConditioningEncoder):
        self.model = model
        self.encoder = encoder

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return self.model.named_parameters() + self.encoder.named_parameters()

    def save(self, path) -> None:
        save_params(self.named_parameters(), path)

    def load(self, path) -> None:
        load_into(self.named_parameters(), path)


def build_song_model(cfg: RunConfig, trainable: bool) -> SongModel:
    """Deterministic initialization from derive_seed(cfg.seed, "init");
    backbone parameters draw first, then the conditioning projection."""
    rng = np.random.default_rng(derive_seed(cfg.seed, "init"))
    dims = cfg.conditioning
    model = VelocityModel(cfg.model, dims.d_text, dims.d_lyrics, cfg.task.d_audio, rng)
    out_proj = OutputProjection(dims.d_global + dims.d_segment, dims.d_text, rng)
    encoder = ConditioningEncoder(
        global_embedder=HashEmbedder("global-prompt", dims.d_global),
        segment_embedder=HashEmbedder("segment-prompt", dims.d_segment),
        lyric_embedder=HashEmbedder("lyric-token", dims.d_lyrics),
        out_proj=out_proj,
        frame_rate=cfg.task.frame_rate,
    )
    system = SongModel(model, encoder)
    for _, t in system.named_parameters():
        t.requires_grad = trainable
    return system
