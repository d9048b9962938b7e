"""Prompt and lyric conditioning.

A song is conditioned by one global prompt broadcast to every latent frame
and by timed segment prompts broadcast only to their frame windows. Both are
embedded, concatenated channel-wise, and pushed through a three-layer
projection to give the text embedding E_text. Lyric lines are tokenized and
their token embeddings placed one-per-frame from each line's onset. The full
model input concatenates (E_text, E_lyrics, E_audio, E_t) along channels.

Training encodes the same few texts every step, so nothing is embedded or
tokenized twice: each HashEmbedder caches its vectors and stacked line
blocks (per embedder, unbounded: an embedder sees one model's vocabulary),
and line tokenization is memoized in a bounded LRU of 4,096 texts. Cached
arrays are read-only.

ConditioningEncoder.encode is the one path that broadcasts, zeroes and
projects. It encodes a batch of rows (prompt spec, lyrics, three drop flags)
sharing T frames. Condition dropout draws the flags first
(apply_condition_dropout) and encode zeroes the dropped global and/or
segment halves *before* the single projection of all rows (and the lyric
frames wholesale), so the projection always sees a well-defined
unconditional input.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .lrc import (
    LYRIC,
    LrcDocument,
    SegmentSpec,
    time_to_frame,
    validate_segments,
    windows_from_segments,
)
from .schema import check_object
from .tensor import Tensor, add_row, fan_in_uniform, matmul, silu

__all__ = [
    "HashEmbedder",
    "OutputProjection",
    "NegativePrompts",
    "PromptSpec",
    "prompt_spec_from_json",
    "prompt_spec_to_json",
    "ConditionRow",
    "ConditioningBundle",
    "broadcast_prompt_halves",
    "lyric_tokens",
    "encode_lyrics",
    "apply_condition_dropout",
    "ConditioningEncoder",
]


class HashEmbedder:
    """Stand-in encoder: a unit-norm vector seeded by a keyed hash of
    (namespace, text). Equal texts always embed identically; distinct short
    texts collide with negligible probability. `vector` and `stack` return
    cached read-only arrays."""

    def __init__(self, namespace: str, dimension: int):
        self.namespace = namespace
        self.dimension = dimension
        self._cache: dict[str, np.ndarray] = {}
        self._blocks: dict[tuple[str, ...], np.ndarray] = {}

    def vector(self, text: str) -> np.ndarray:
        """The cached, read-only embedding of `text`."""
        vec = self._cache.get(text)
        if vec is None:
            digest = hashlib.sha256(f"{self.namespace}\x1f{text}".encode("utf-8")).digest()
            rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
            raw = rng.standard_normal(self.dimension)
            norm = float(np.linalg.norm(raw))
            if norm < 1e-12:
                raw[0] = 1.0
                norm = 1.0
            vec = raw / norm
            vec.flags.writeable = False
            self._cache[text] = vec
        return vec

    def stack(self, texts: tuple[str, ...]) -> np.ndarray:
        """The cached, read-only (len(texts), dimension) rows of `texts`."""
        block = self._blocks.get(texts)
        if block is None:
            block = np.array([self.vector(text) for text in texts])
            block = block.reshape(len(texts), self.dimension)  # (0, d) for no texts
            block.flags.writeable = False
            self._blocks[texts] = block
        return block


class OutputProjection:
    """linear -> silu -> linear -> silu -> linear, applied per row; every
    layer is d_out wide."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.w1 = fan_in_uniform(rng, (d_in, d_out))
        self.b1 = Tensor(np.zeros(d_out), requires_grad=True)
        self.w2 = fan_in_uniform(rng, (d_out, d_out))
        self.b2 = Tensor(np.zeros(d_out), requires_grad=True)
        self.w3 = fan_in_uniform(rng, (d_out, d_out))
        self.b3 = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, e_cat: Tensor) -> Tensor:
        h = silu(add_row(matmul(e_cat, self.w1), self.b1))
        h = silu(add_row(matmul(h, self.w2), self.b2))
        return add_row(matmul(h, self.w3), self.b3)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        names = ("w1", "b1", "w2", "b2", "w3", "b3")
        return [(f"conditioning.proj.{name}", getattr(self, name)) for name in names]


@dataclass(frozen=True)
class NegativePrompts:
    """Texts that replace the prompts in the negative CFG branch. The
    defaults are placeholders, overridable in config and per prompt."""

    global_text: str = "low quality, noisy"
    segment_text: str = "low quality"

    @classmethod
    def from_json(cls, obj, name: str, required=()) -> "NegativePrompts":
        """From {"global": str, "segment": str}; a missing key keeps its
        default unless it is `required`."""
        check_object(obj, {"global": str, "segment": str}, name, required)
        return cls(obj.get("global", cls.global_text), obj.get("segment", cls.segment_text))


@dataclass(frozen=True)
class PromptSpec:
    """One global prompt plus timed segment prompts (sorted, non-overlapping)."""

    global_text: str
    segments: tuple[SegmentSpec, ...] = ()
    negative: NegativePrompts | None = None
    duration_s: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        validate_segments(self.segments)
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValidationError("duration_s must be positive when given")

    def end_time(self) -> float | None:
        """Explicit duration if present, else the last segment's end."""
        if self.duration_s is not None:
            return self.duration_s
        if self.segments:
            return max(s.t_e for s in self.segments)
        return None


_PROMPT_TYPES = {"global": str, "segments": list, "negative": dict | None,
                 "duration_s": float | None}
_SEGMENT_TYPES = {"start_s": float, "end_s": float, "text": str, "kind": str}


def prompt_spec_from_json(obj) -> PromptSpec:
    """From decoded JSON:
    {"global": str, "segments": [{"start_s", "end_s", "text", "kind"?}, ...],
     "negative": {"global": str, "segment": str}?, "duration_s"?: number}.
    Prompts come from outside, so an unknown or missing key, a mistyped
    field or a non-finite time is a ValidationError."""
    check_object(obj, _PROMPT_TYPES, "prompt", required=("global",))
    segments = []
    for i, seg in enumerate(obj.get("segments", [])):
        check_object(seg, _SEGMENT_TYPES, f"prompt.segments[{i}]", ("start_s", "end_s", "text"))
        segments.append(SegmentSpec(float(seg["start_s"]), float(seg["end_s"]), seg["text"],
                                    seg.get("kind", LYRIC)))
    negative = obj.get("negative")
    if negative is not None:
        negative = NegativePrompts.from_json(negative, "prompt.negative", ("global", "segment"))
    duration = obj.get("duration_s")
    return PromptSpec(obj["global"], segments, negative, None if duration is None else float(duration))


def prompt_spec_to_json(spec: PromptSpec) -> dict:
    out: dict = {
        "global": spec.global_text,
        "segments": [
            {"start_s": s.t_s, "end_s": s.t_e, "text": s.text, "kind": s.kind}
            for s in spec.segments
        ],
    }
    if spec.negative is not None:
        out["negative"] = {
            "global": spec.negative.global_text,
            "segment": spec.negative.segment_text,
        }
    if spec.duration_s is not None:
        out["duration_s"] = spec.duration_s
    return out


# -----------------------------------------------------------------------------
# Prompt broadcasting (global across all frames, segments into their windows)
# -----------------------------------------------------------------------------


def broadcast_prompt_halves(
    spec: PromptSpec,
    T: int,
    f_g: HashEmbedder,
    f_l: HashEmbedder,
    frame_rate: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-projection halves: E_g repeats the global vector on every frame
    (a read-only broadcast view of the cached vector, not a copy); E_l starts
    at zeros and each segment's vector fills its frame window from
    windows_from_segments. Frames covered by no segment keep the zero row."""
    e_g = np.broadcast_to(f_g.vector(spec.global_text), (T, f_g.dimension))
    e_l = np.zeros((T, f_l.dimension))
    for start, end, seg in windows_from_segments(spec.segments, frame_rate, T):
        e_l[start:end] = f_l.vector(seg.text)
    return e_g, e_l


# -----------------------------------------------------------------------------
# Lyric alignment
# -----------------------------------------------------------------------------


# Main CJK blocks: unified ideographs (+ext A), hiragana, katakana, hangul.
_CJK_RANGES = (
    (0x3400, 0x4DBF),
    (0x4E00, 0x9FFF),
    (0x3040, 0x30FF),
    (0xAC00, 0xD7AF),
)


def _is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


def lyric_tokens(text: str) -> list[str]:
    """CJK characters are single tokens; other runs split on whitespace."""
    tokens: list[str] = []
    buf: list[str] = []

    def flush():
        if buf:
            tokens.extend("".join(buf).split())
            buf.clear()

    for ch in text:
        if _is_cjk(ch):
            flush()
            tokens.append(ch)
        else:
            buf.append(ch)
    flush()
    return tokens


@functools.lru_cache(maxsize=4096)
def _line_tokens(text: str) -> tuple[str, ...]:
    """lyric_tokens of one line text, memoized: training encodes the same
    lines every step."""
    return tuple(lyric_tokens(text))


def encode_lyrics(
    doc: LrcDocument | None,
    lyric_embedder: HashEmbedder,
    T: int,
    frame_rate: float,
) -> np.ndarray:
    """Place each line's token embeddings one-per-frame, left-aligned at the
    line's onset frame and clipped at the next line's onset (or T). Unfilled
    frames stay zero. Each line is one slice write of its cached
    (n_tokens, d) block from the embedder."""
    e = np.zeros((T, lyric_embedder.dimension))
    if doc is None or not doc.lines:
        return e
    starts = [time_to_frame(line.timestamp, frame_rate) for line in doc.lines]
    if max(starts) >= T:
        raise ValidationError("a lyric line's onset maps outside [0, T)")
    ends = starts[1:]
    ends.append(T)
    for line, start, end in zip(doc.lines, starts, ends):
        block = lyric_embedder.stack(_line_tokens(line.text))
        n = min(len(block), max(0, end - start))
        e[start:start + n] = block[:n]
    return e


# -----------------------------------------------------------------------------
# The assembled conditioning bundle
# -----------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionRow:
    """One sample to encode: its prompts, its lyrics, and the parts that
    condition dropout removes."""

    spec: PromptSpec
    doc: LrcDocument | None = None
    drop_global: bool = False
    drop_segment: bool = False
    drop_lyrics: bool = False


@dataclass
class ConditioningBundle:
    """The prompt and lyric conditioning of B samples that share T frames.

    e_text is the projected (B, T, d_text) text embedding and e_lyrics the
    (B, T, d_lyrics) lyric frames. A dropped half was zeroed before the
    projection; dropped lyric frames are all zero. The noisy frames and the
    time embedding change every forward pass, so they are not part of the
    bundle: VelocityModel.forward adds them.
    """

    e_text: Tensor
    e_lyrics: Tensor

    def window(self, rows: slice, frames: slice = slice(None)) -> "ConditioningBundle":
        """The given rows and frames as a bundle off the tape, whose arrays
        are views of this bundle's."""
        return ConditioningBundle(
            Tensor(self.e_text.data[rows, frames]), Tensor(self.e_lyrics.data[rows, frames])
        )


def apply_condition_dropout(
    p_global: float, p_segment: float, p_lyrics: float, rng: np.random.Generator
) -> tuple[bool, bool, bool]:
    """Independently draw whether to drop the global half, the segment half
    and the lyric frames, one uniform each in that fixed order. Returns the
    (drop_global, drop_segment, drop_lyrics) flags for encode."""
    drop_g = bool(rng.random() < p_global)
    drop_s = bool(rng.random() < p_segment)
    drop_l = bool(rng.random() < p_lyrics)
    return drop_g, drop_s, drop_l


class ConditioningEncoder:
    """Bundles the embedders, projection, and frame rate used for encoding."""

    def __init__(
        self,
        global_embedder: HashEmbedder,
        segment_embedder: HashEmbedder,
        lyric_embedder: HashEmbedder,
        out_proj: OutputProjection,
        frame_rate: float,
    ):
        self.global_embedder = global_embedder
        self.segment_embedder = segment_embedder
        self.lyric_embedder = lyric_embedder
        self.out_proj = out_proj
        self.frame_rate = frame_rate

    def encode(self, rows: Sequence[ConditionRow], T: int) -> ConditioningBundle:
        """Broadcast each row's prompts, zero its dropped halves, and project
        all rows at once. Dropped lyric frames are zeroed; the lyrics are
        still encoded so an onset outside [0, T) is an error whatever the
        flags."""
        d_g, d_l = self.global_embedder.dimension, self.segment_embedder.dimension
        halves = np.zeros((len(rows), T, d_g + d_l))
        lyrics = np.zeros((len(rows), T, self.lyric_embedder.dimension))
        for b, row in enumerate(rows):
            e_g, e_l = broadcast_prompt_halves(
                row.spec, T, self.global_embedder, self.segment_embedder, self.frame_rate
            )
            if not row.drop_global:
                halves[b, :, :d_g] = e_g
            if not row.drop_segment:
                halves[b, :, d_g:] = e_l
            lyr = encode_lyrics(row.doc, self.lyric_embedder, T, self.frame_rate)
            if not row.drop_lyrics:
                lyrics[b] = lyr
        return ConditioningBundle(e_text=self.out_proj(Tensor(halves)), e_lyrics=Tensor(lyrics))

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return self.out_proj.named_parameters()
