import numpy as np
import pytest

from conftest import brute_force_text_embedding
from songflow.conditioning import (
    ConditioningBundle,
    ConditioningEncoder,
    ConditionRow,
    HashEmbedder,
    OutputProjection,
    PromptSpec,
    apply_condition_dropout,
    broadcast_prompt_halves,
    encode_lyrics,
    lyric_tokens,
    prompt_spec_from_json,
    prompt_spec_to_json,
)
from songflow.errors import ValidationError
from songflow.lrc import LrcDocument, LrcLine, SegmentSpec, time_to_frame
from songflow.tensor import Tensor


def _embedders(dg=4, dl=4):
    return HashEmbedder("g", dg), HashEmbedder("l", dl)


def _encoder(dg=4, dl=4, dly=3, d_text=5, frame_rate=4.0, seed=0):
    return ConditioningEncoder(
        HashEmbedder("g", dg),
        HashEmbedder("l", dl),
        HashEmbedder("lyr", dly),
        OutputProjection(dg + dl, d_text, np.random.default_rng(seed)),
        frame_rate,
    )


def _encode(encoder, spec, doc, T, *flags):
    """encode() of one row, as (T, d) arrays: (e_text, e_lyrics)."""
    bundle = encoder.encode([ConditionRow(spec, doc, *flags)], T)
    return bundle.e_text.data[0], bundle.e_lyrics.data[0]


# -----------------------------------------------------------------------------
# stub (hash) embedder
# -----------------------------------------------------------------------------


def test_stub_embedder_is_deterministic_and_unit_norm():
    emb = HashEmbedder("ns", 16)
    a, b = emb.vector("some text"), HashEmbedder("ns", 16).vector("some text")
    assert np.array_equal(a, b)
    for text in ("a", "b", "", "long text with words", "春"):
        assert abs(np.linalg.norm(emb.vector(text)) - 1.0) < 1e-12


def test_stub_embedder_namespaces_differ():
    a = HashEmbedder("one", 8).vector("same")
    b = HashEmbedder("two", 8).vector("same")
    assert not np.allclose(a, b)


def test_stub_embedder_collisions_are_rare():
    emb = HashEmbedder("collision", 32)
    vectors = np.stack([emb.vector(f"text-{i}") for i in range(1000)])
    sims = vectors @ vectors.T
    np.fill_diagonal(sims, 0.0)
    assert np.abs(sims).max() < 0.9


# -----------------------------------------------------------------------------
# prompt broadcasting
# -----------------------------------------------------------------------------


def test_no_segments_leaves_zero_segment_half():
    f_g, f_l = _embedders()
    spec = PromptSpec(global_text="calm song")
    e_g, e_l = broadcast_prompt_halves(spec, 6, f_g, f_l, frame_rate=4.0)
    assert np.array_equal(e_l, np.zeros((6, 4)))
    assert np.array_equal(e_g, np.tile(f_g.vector("calm song"), (6, 1)))
    encoder = _encoder(d_text=5)
    out, _ = _encode(encoder, spec, None, 6)
    expected = encoder.out_proj(Tensor(np.concatenate([e_g, e_l], axis=1))).data
    assert np.array_equal(out, expected)


def test_single_segment_fills_only_its_window():
    f_g, f_l = _embedders()
    spec = PromptSpec(
        global_text="g", segments=(SegmentSpec(t_s=0.5, t_e=1.0, text="strings"),)
    )
    _, e_l = broadcast_prompt_halves(spec, 8, f_g, f_l, frame_rate=4.0)
    vec = f_l.vector("strings")
    for f in range(8):
        if 2 <= f < 4:
            assert np.array_equal(e_l[f], vec)
        else:
            assert np.array_equal(e_l[f], np.zeros(4))


def test_adjacent_segments_switch_exactly_at_boundary():
    f_g, f_l = _embedders()
    spec = PromptSpec(
        global_text="g",
        segments=(
            SegmentSpec(t_s=0.0, t_e=1.0, text="first"),
            SegmentSpec(t_s=1.0, t_e=2.0, text="second"),
        ),
    )
    _, e_l = broadcast_prompt_halves(spec, 8, f_g, f_l, frame_rate=4.0)
    a, b = f_l.vector("first"), f_l.vector("second")
    assert all(np.array_equal(e_l[f], a) for f in range(0, 4))
    assert all(np.array_equal(e_l[f], b) for f in range(4, 8))


def test_segment_window_outside_frames_is_validation_error():
    f_g, f_l = _embedders()
    spec = PromptSpec(global_text="g", segments=(SegmentSpec(t_s=0.0, t_e=5.0, text="x"),))
    with pytest.raises(ValidationError, match="maps past frame 8"):
        broadcast_prompt_halves(spec, 8, f_g, f_l, frame_rate=4.0)


def _random_spec(rng, T, frame_rate, f_l_vocab=("a", "b", "c", "d", "e", "f", "g", "h")):
    n_seg = int(rng.integers(0, 9))
    cuts = np.sort(rng.choice(np.arange(0, T + 1), size=min(2 * n_seg, T + 1), replace=False))
    segments = []
    for i in range(0, len(cuts) - 1, 2):
        js, je = int(cuts[i]), int(cuts[i + 1])
        if js == je:
            continue
        segments.append(
            SegmentSpec(
                t_s=js / frame_rate,
                t_e=je / frame_rate,
                text=str(rng.choice(f_l_vocab)),
            )
        )
    return PromptSpec(global_text=f"global-{rng.integers(0, 5)}", segments=tuple(segments))


def test_encode_prompts_matches_brute_force_bit_exactly(rng):
    encoders = {
        rate: _encoder(dg=5, dl=3, d_text=6, frame_rate=rate, seed=3) for rate in (2.0, 4.0, 8.0)
    }
    for _ in range(60):
        T = int(rng.integers(1, 257))
        frame_rate = float(rng.choice([2.0, 4.0, 8.0]))
        spec = _random_spec(rng, T, frame_rate)
        encoder = encoders[frame_rate]
        ours, _ = _encode(encoder, spec, None, T)
        reference = brute_force_text_embedding(
            spec, T, encoder.global_embedder, encoder.segment_embedder, encoder.out_proj,
            frame_rate,
        )
        assert np.array_equal(ours, reference)


def test_locality_of_segment_text_changes(rng):
    f_g, f_l = _embedders()
    frame_rate = 4.0
    T = 64
    for _ in range(20):
        spec = _random_spec(rng, T, frame_rate)
        if not spec.segments:
            continue
        _, before = broadcast_prompt_halves(spec, T, f_g, f_l, frame_rate)
        idx = int(rng.integers(0, len(spec.segments)))
        seg = spec.segments[idx]
        changed = list(spec.segments)
        changed[idx] = SegmentSpec(t_s=seg.t_s, t_e=seg.t_e, text=seg.text + "-changed")
        _, after = broadcast_prompt_halves(
            PromptSpec(global_text=spec.global_text, segments=tuple(changed)),
            T, f_g, f_l, frame_rate,
        )
        js = int(seg.t_s * frame_rate)
        je = int(seg.t_e * frame_rate)
        diff_rows = np.where(np.any(before != after, axis=1))[0]
        assert set(diff_rows) <= set(range(js, je))


def test_rows_within_a_segment_are_identical_after_projection():
    encoder = _encoder(d_text=6, seed=1)
    spec = PromptSpec(global_text="g", segments=(SegmentSpec(0.0, 2.0, "pattern"),))
    out, _ = _encode(encoder, spec, None, 8)
    for f in range(1, 8):
        assert np.allclose(out[f], out[0], rtol=1e-10, atol=1e-12)


# -----------------------------------------------------------------------------
# lyric alignment
# -----------------------------------------------------------------------------


def test_lyric_tokens_mixed_scripts():
    assert lyric_tokens("hello world") == ["hello", "world"]
    assert lyric_tokens("春眠 morning light") == ["春", "眠", "morning", "light"]
    assert lyric_tokens("") == []


def test_encode_lyrics_empty_document_is_zero():
    emb = HashEmbedder("lyr", 4)
    e = encode_lyrics(None, emb, 10, 4.0)
    assert np.array_equal(e, np.zeros((10, 4)))


def test_encode_lyrics_places_tokens_left_aligned():
    emb = HashEmbedder("lyr", 4)
    doc = LrcDocument(
        lines=(LrcLine(1.25, "la li lu"), LrcLine(5.0, "end")), total_duration=10.0
    )
    e = encode_lyrics(doc, emb, 40, 4.0)
    for k, tok in enumerate(["la", "li", "lu"]):
        assert np.array_equal(e[5 + k], emb.vector(tok))
    assert np.array_equal(e[8:20], np.zeros((12, 4)))
    assert np.array_equal(e[20], emb.vector("end"))


def test_encode_lyrics_truncates_at_the_next_onset():
    emb = HashEmbedder("lyr", 4)
    doc = LrcDocument(
        lines=(
            LrcLine(0.0, "t0 t1 t2 t3 t4 t5 t6 t7 t8 t9"),
            LrcLine(1.0, "next"),
        ),
        total_duration=4.0,
    )
    e = encode_lyrics(doc, emb, 16, 4.0)  # 10 tokens, 4 frames before the next line
    for k in range(4):
        assert np.array_equal(e[k], emb.vector(f"t{k}"))
    assert np.array_equal(e[4], emb.vector("next"))
    assert not e[5:].any()  # t4..t9 were cut, not written past "next"


def test_encode_lyrics_nonzero_rows_per_line(rng):
    emb = HashEmbedder("lyr", 4)
    for _ in range(20):
        T = 32
        n_lines = int(rng.integers(1, 5))
        starts = np.sort(rng.choice(np.arange(0, T, 2), size=n_lines, replace=False))
        lines = []
        counts = []
        for i, s in enumerate(starts):
            n_tok = int(rng.integers(0, 10))
            lines.append(LrcLine(float(s / 4.0), " ".join(f"w{i}x{k}" for k in range(n_tok))))
            window_end = int(starts[i + 1]) if i + 1 < n_lines else T
            counts.append(min(n_tok, window_end - int(s)))
        doc = LrcDocument(lines=tuple(lines), total_duration=T / 4.0)
        e = encode_lyrics(doc, emb, T, 4.0)
        nonzero = int(np.sum(np.any(e != 0, axis=1)))
        assert nonzero == sum(counts)


def _lyrics_per_token(doc, emb, T, frame_rate):
    """Reference for encode_lyrics: one vector() per placed token, each
    line's tokens from its onset up to the next onset (or T)."""
    e = np.zeros((T, emb.dimension))
    starts = [time_to_frame(line.timestamp, frame_rate) for line in doc.lines]
    for i, line in enumerate(doc.lines):
        end = starts[i + 1] if i + 1 < len(starts) else T
        tokens = lyric_tokens(line.text)
        room = max(0, end - starts[i])
        for k, tok in enumerate(tokens[:room]):
            e[starts[i] + k] = emb.vector(tok)
    return e


def test_encode_lyrics_blocks_equal_the_per_token_reference(rng):
    words = ["la", "li", "春", "眠", "晓", "oh", "夜来 风雨"]
    texts = ["", "la la la", "春眠不觉晓", "oh 春 la", "la la la"]  # a repeat on purpose
    emb, reference = HashEmbedder("lyr", 5), HashEmbedder("lyr", 5)
    fixed = LrcDocument(
        lines=(
            LrcLine(0.0, "春眠不觉晓 la"),  # 6 tokens, 4 frames: 2 truncated at the next onset
            LrcLine(1.0, ""),
            LrcLine(1.0, "la la"),  # same onset as the empty line
            LrcLine(1.5, "la la"),
            LrcLine(3.5, "la li oh 春 眠"),  # 5 tokens, 2 frames before T: 3 truncated
        ),
        total_duration=4.0,
    )
    assert np.array_equal(encode_lyrics(fixed, emb, 16, 4.0),
                          _lyrics_per_token(fixed, reference, 16, 4.0))
    for _ in range(200):
        T = int(rng.integers(1, 40))
        n_lines = int(rng.integers(1, 8))
        onsets = np.sort(rng.integers(0, T, size=n_lines)) / 4.0
        lines = []
        for onset in onsets:
            if rng.random() < 0.5:
                text = texts[int(rng.integers(0, len(texts)))]
            else:
                text = " ".join(words[int(k)] for k in rng.integers(0, len(words), size=rng.integers(0, 9)))
            lines.append(LrcLine(float(onset), text))
        doc = LrcDocument(lines=tuple(lines), total_duration=T / 4.0)
        got, want = encode_lyrics(doc, emb, T, 4.0), _lyrics_per_token(doc, reference, T, 4.0)
        assert np.array_equal(got, want)


def test_embedder_caches_are_read_only():
    emb = HashEmbedder("lyr", 4)
    assert emb.vector("la") is emb.vector("la")
    block = emb.stack(("la", "li", "la"))
    assert block.shape == (3, 4) and np.array_equal(block[2], emb.vector("la"))
    assert emb.stack(("la", "li", "la")) is block and emb.stack(()).shape == (0, 4)
    for cached in (emb.vector("la"), block):
        with pytest.raises(ValueError):
            cached[0] = 1.0


def test_encode_lyrics_onset_outside_frames_is_error():
    emb = HashEmbedder("lyr", 4)
    doc = LrcDocument(lines=(LrcLine(9.0, "late"),), total_duration=10.0)
    with pytest.raises(ValidationError, match="onset maps outside"):
        encode_lyrics(doc, emb, 8, 4.0)


# -----------------------------------------------------------------------------
# dropout and assembly
# -----------------------------------------------------------------------------


def _bundle(encoder, T=8):
    spec = PromptSpec(global_text="g", segments=(SegmentSpec(0.0, 1.0, "s"),))
    doc = LrcDocument(lines=(LrcLine(0.0, "la"),), total_duration=T / 4.0)
    return encoder.encode([ConditionRow(spec, doc)], T), spec, doc


def _halves(encoder, spec, T=8):
    return broadcast_prompt_halves(
        spec, T, encoder.global_embedder, encoder.segment_embedder, encoder.frame_rate
    )


def test_dropout_zero_probability_is_identity(rng):
    encoder = _encoder()
    bundle, spec, doc = _bundle(encoder)
    flags = apply_condition_dropout(0.0, 0.0, 0.0, rng)
    assert flags == (False, False, False)
    e_text, e_lyrics = _encode(encoder, spec, doc, 8, *flags)
    assert np.array_equal(e_text, bundle.e_text.data[0])
    assert np.array_equal(e_lyrics, bundle.e_lyrics.data[0])


def test_dropout_certain_event_zeroes_global(rng):
    encoder = _encoder()
    bundle, spec, doc = _bundle(encoder)
    flags = apply_condition_dropout(1.0, 0.0, 0.0, rng)
    assert flags == (True, False, False)
    e_text, e_lyrics = _encode(encoder, spec, doc, 8, *flags)
    e_g, e_l = _halves(encoder, spec)
    expected = encoder.out_proj(
        Tensor(np.concatenate([np.zeros_like(e_g), e_l], axis=1))
    ).data
    assert np.array_equal(e_text, expected)
    assert np.array_equal(e_lyrics, bundle.e_lyrics.data[0])


def test_dropout_rates_and_independence():
    encoder = _encoder()
    _, spec, doc = _bundle(encoder)
    rng = np.random.default_rng(1234)
    n = 10_000
    flags = np.zeros((n, 2), dtype=bool)
    for i in range(n):
        drop_g, drop_s, drop_l = apply_condition_dropout(0.2, 0.2, 0.0, rng)
        assert not drop_l
        flags[i] = (drop_g, drop_s)
    rates = flags.mean(axis=0)
    assert 0.18 <= rates[0] <= 0.22
    assert 0.18 <= rates[1] <= 0.22
    corr = np.corrcoef(flags[:, 0], flags[:, 1])[0, 1]
    assert abs(corr) < 0.05
    # encode honours every flag combination the draws produced
    e_g, e_l = _halves(encoder, spec)
    for drop_g, drop_s in {tuple(map(bool, row)) for row in flags}:
        e_text, _ = _encode(encoder, spec, doc, 8, drop_g, drop_s)
        halves = [np.zeros_like(e_g) if drop_g else e_g, np.zeros_like(e_l) if drop_s else e_l]
        expected = encoder.out_proj(Tensor(np.concatenate(halves, axis=1))).data
        assert np.array_equal(e_text, expected)


def test_encode_rows_match_one_row_encodes():
    encoder = _encoder()
    _, spec, doc = _bundle(encoder)
    other = PromptSpec(global_text="h", segments=(SegmentSpec(0.5, 1.5, "t"),))
    rows = [
        ConditionRow(spec, doc),
        ConditionRow(other, None, drop_segment=True),
        ConditionRow(spec, doc, True, True, True),
    ]
    bundle = encoder.encode(rows, 8)
    assert bundle.e_text.data.shape == (3, 8, 5)
    for b, row in enumerate(rows):
        e_text, e_lyrics = _encode(encoder, row.spec, row.doc, 8, row.drop_global,
                                   row.drop_segment, row.drop_lyrics)
        assert np.allclose(bundle.e_text.data[b], e_text, rtol=1e-14, atol=1e-15)
        assert np.array_equal(bundle.e_lyrics.data[b], e_lyrics)
    window = bundle.window(slice(1, 3), slice(2, 6))
    assert np.array_equal(window.e_text.data, bundle.e_text.data[1:3, 2:6])
    assert np.array_equal(window.e_lyrics.data, bundle.e_lyrics.data[1:3, 2:6])
    assert np.shares_memory(window.e_text.data, bundle.e_text.data)


def test_dropped_lyrics_are_all_zero(rng):
    encoder = _encoder()
    bundle, spec, doc = _bundle(encoder)
    flags = apply_condition_dropout(0.0, 0.0, 1.0, rng)
    assert flags == (False, False, True)
    e_text, e_lyrics = _encode(encoder, spec, doc, 8, *flags)
    assert np.any(bundle.e_lyrics.data != 0)
    assert np.array_equal(e_lyrics, np.zeros_like(bundle.e_lyrics.data[0]))
    assert np.array_equal(e_text, bundle.e_text.data[0])


def test_all_zero_bundle_assembles_to_zero():
    encoder = _encoder()
    spec = PromptSpec(global_text="g")
    bundle = encoder.encode([ConditionRow(spec, None, True, True, True)], 4)
    proj_of_zero = encoder.out_proj(Tensor(np.zeros((4, 8)))).data
    assert np.array_equal(bundle.e_text.data[0], proj_of_zero)
    assert np.array_equal(bundle.e_lyrics.data, np.zeros((1, 4, 3)))


# -----------------------------------------------------------------------------
# prompt JSON
# -----------------------------------------------------------------------------


def test_prompt_spec_json_roundtrip():
    raw = {
        "global": "warm acoustic song",
        "segments": [
            {"start_s": 0.0, "end_s": 4.0, "text": "gentle intro", "kind": "instrumental"},
            {"start_s": 4.0, "end_s": 12.0, "text": "soaring strings"},
        ],
        "negative": {"global": "harsh", "segment": "noise"},
        "duration_s": 16.0,
    }
    spec = prompt_spec_from_json(raw)
    assert spec.global_text == "warm acoustic song"
    assert spec.segments[0].kind == "instrumental"
    assert spec.segments[1].kind == "lyric"
    assert spec.negative.global_text == "harsh"
    assert spec.end_time() == 16.0
    back = prompt_spec_to_json(spec)
    assert prompt_spec_from_json(back) == spec


def test_prompt_spec_rejects_overlap():
    with pytest.raises(ValidationError):
        PromptSpec(
            global_text="g",
            segments=(SegmentSpec(0.0, 5.0, "a"), SegmentSpec(4.0, 8.0, "b")),
        )
