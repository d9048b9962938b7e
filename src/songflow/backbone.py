"""Toy velocity-field network over latent frame sequences.

Sinusoidal time embedding, an input projection, a small stack of pre-norm
transformer blocks (bidirectional multi-head self-attention plus a gated
feed-forward, both residual), and a zero-initialized output head of width
d_audio so the initial field is exactly zero. There is no positional
encoding: per-frame conditioning supplies all position information, which
keeps the network permutation-equivariant over frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditioning import ConditioningBundle
from .errors import ValidationError
from .tensor import (
    Tensor,
    add,
    add_row,
    attention,
    concat_channels,
    fan_in_uniform,
    layer_norm,
    matmul,
    mul,
    silu,
)

__all__ = ["ModelConfig", "time_embedding", "Block", "VelocityModel"]


@dataclass(frozen=True)
class ModelConfig:
    """The `model` config section; the input widths come from other sections."""

    n_blocks: int = 2
    model_width: int = 64
    n_heads: int = 4
    d_t: int = 16
    ff_mult: int = 2

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ValidationError("model.n_blocks must be >= 1")
        if self.model_width < 1:
            raise ValidationError("model.model_width must be >= 1")
        if self.n_heads < 1:
            raise ValidationError("model.n_heads must be >= 1")
        if self.model_width % self.n_heads != 0:
            raise ValidationError("model.model_width must be a multiple of model.n_heads")
        if self.d_t < 4 or self.d_t % 2 != 0:
            raise ValidationError("model.d_t must be an even integer >= 4")
        if self.ff_mult < 1:
            raise ValidationError("model.ff_mult must be >= 1")


def time_embedding(t: float, d_t: int) -> np.ndarray:
    """Sinusoidal features: pairs (sin(w_k t), cos(w_k t)) with w_k spaced
    geometrically in [1, 1000]. d_t is ModelConfig's, checked there."""
    half = d_t // 2
    omegas = 1000.0 ** (np.arange(half) / (half - 1))
    emb = np.empty(d_t)
    emb[0::2] = np.sin(omegas * t)
    emb[1::2] = np.cos(omegas * t)
    return emb


class Block:
    """Pre-norm self-attention + gated feed-forward, both with residuals."""

    def __init__(self, width: int, n_heads: int, ff_mult: int, rng: np.random.Generator):
        self.n_heads = n_heads
        ff = ff_mult * width
        self.ln1_g = Tensor(np.ones(width), requires_grad=True)
        self.ln1_b = Tensor(np.zeros(width), requires_grad=True)
        self.wq = fan_in_uniform(rng, (width, width))
        self.wk = fan_in_uniform(rng, (width, width))
        self.wv = fan_in_uniform(rng, (width, width))
        self.wo = fan_in_uniform(rng, (width, width))
        self.ln2_g = Tensor(np.ones(width), requires_grad=True)
        self.ln2_b = Tensor(np.zeros(width), requires_grad=True)
        self.w_gate = fan_in_uniform(rng, (width, ff))
        self.w_up = fan_in_uniform(rng, (width, ff))
        self.w_down = fan_in_uniform(rng, (ff, width))

    def forward(self, x: Tensor, attn_sink: list | None = None) -> Tensor:
        # q goes straight into attention, which keeps only a scaled copy, so
        # no local holds it through the feed-forward half.
        return self.finish(x, attention(*self.project(x), self.n_heads, sink=attn_sink))

    def project(self, x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """The pre-attention half: q, k and v of the layer-normed x."""
        h = layer_norm(x, self.ln1_g, self.ln1_b)
        return matmul(h, self.wq), matmul(h, self.wk), matmul(h, self.wv)

    def finish(self, x: Tensor, a: Tensor) -> Tensor:
        """The post-attention half: the residual add of the attention output
        a, then the gated feed-forward and its residual add."""
        x = add(x, matmul(a, self.wo))
        h = layer_norm(x, self.ln2_g, self.ln2_b)
        return add(x, matmul(mul(silu(matmul(h, self.w_gate)), matmul(h, self.w_up)), self.w_down))

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [
            (f"{prefix}.ln1.gain", self.ln1_g),
            (f"{prefix}.ln1.bias", self.ln1_b),
            (f"{prefix}.wq", self.wq),
            (f"{prefix}.wk", self.wk),
            (f"{prefix}.wv", self.wv),
            (f"{prefix}.wo", self.wo),
            (f"{prefix}.ln2.gain", self.ln2_g),
            (f"{prefix}.ln2.bias", self.ln2_b),
            (f"{prefix}.ff.gate", self.w_gate),
            (f"{prefix}.ff.up", self.w_up),
            (f"{prefix}.ff.down", self.w_down),
        ]


class VelocityModel:
    """Maps (t, conditioning, x_t) to a per-frame velocity of width d_audio."""

    def __init__(self, config: ModelConfig, d_text: int, d_lyrics: int, d_audio: int,
                 rng: np.random.Generator):
        self.config = config
        w = config.model_width
        self.w_in = fan_in_uniform(rng, (d_text + d_lyrics + d_audio + config.d_t, w))
        self.b_in = Tensor(np.zeros(w), requires_grad=True)
        self.blocks = [Block(w, config.n_heads, config.ff_mult, rng) for _ in range(config.n_blocks)]
        # Zero-initialized head: the untrained velocity field is identically 0.
        self.w_head = Tensor(np.zeros((w, d_audio)), requires_grad=True)
        self.b_head = Tensor(np.zeros(d_audio), requires_grad=True)

    def forward(
        self,
        x_t: Tensor,
        cond: ConditioningBundle,
        t: list[float],
        attn_sink: list | None = None,
        attend=None,
    ) -> Tensor:
        """Velocity of (B, T, d_audio) frames: row b at time t[b], under row b of cond.

        Off the tape, attend(block, h) may stand in for each block's
        attention over block.project(h). Every other op works per frame, so a
        forward over a range of frames whose attend sees the keys and values
        of all frames gives those frames' velocities; the sampler's token
        split does this.
        """
        T = x_t.data.shape[-2]
        emb = np.stack([time_embedding(float(tb), self.config.d_t) for tb in t])
        e_t = Tensor(np.repeat(emb[:, None, :], T, axis=1))
        # Channel order (E_text, E_lyrics, E_audio = x_t, E_t): checkpoints depend on it.
        # No local keeps the concatenation: off the tape nothing reads it after
        # the input projection.
        h = add_row(matmul(concat_channels([cond.e_text, cond.e_lyrics, x_t, e_t]), self.w_in),
                    self.b_in)
        for block in self.blocks:
            if attend is None:
                h = block.forward(h, attn_sink=attn_sink)
            else:
                h = block.finish(h, attend(block, h))
        return add_row(matmul(h, self.w_head), self.b_head)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        named = [("backbone.input.w", self.w_in), ("backbone.input.b", self.b_in)]
        for i, block in enumerate(self.blocks):
            named.extend(block.named_parameters(f"backbone.block{i}"))
        named.extend([("backbone.head.w", self.w_head), ("backbone.head.b", self.b_head)])
        return named
