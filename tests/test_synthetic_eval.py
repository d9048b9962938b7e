import dataclasses
import hashlib
import json

import numpy as np
import pytest

from songflow.conditioning import PromptSpec, prompt_spec_to_json
from songflow.errors import ContractError, ValidationError
import songflow.evaluate as evaluate
from songflow.evaluate import (
    _pearson,
    alignment_score,
    duration_mae,
    segment_alignment_score,
    validate_report,
)
from songflow.lrc import (
    BOUNDARY,
    LYRIC,
    LrcDocument,
    LrcLine,
    SegmentSpec,
    SegmentWindow,
    serialize_lrc,
    windows_from_segments,
)
from songflow.synthetic import (
    SEGMENT_PATTERNS,
    SyntheticDataset,
    TaskConfig,
    pattern_trace,
    sample_prompt,
    synth_sample,
)


# The default task section.
_TASK = TaskConfig()


def _noiseless_task():
    return TaskConfig(noise_sigma=0.0)


def _dataset(task):
    return SyntheticDataset(task, max_segments=_TASK.max_segments, min_width=_TASK.min_width)


def _spec(task, entries):
    """entries: list of (start_frame, end_frame, text)."""
    segments = tuple(
        SegmentSpec(ws / task.frame_rate, we / task.frame_rate, text) for ws, we, text in entries
    )
    return PromptSpec(global_text="ember", segments=segments, duration_s=task.duration)


# -----------------------------------------------------------------------------
# synthetic task
# -----------------------------------------------------------------------------


def test_task_validation():
    """The task section checks its numbers at load (test_config); the fixed
    vocabularies hold what a draw needs at any d_audio, as pinned here, and
    each task derives its offsets once."""
    for d_audio in (1, 2, _TASK.d_audio):
        task = TaskConfig(d_audio=d_audio)
        assert task.global_vocab and SEGMENT_PATTERNS
        assert task.global_vocab is task.global_vocab
        assert all(np.shape(vec) == (d_audio,) for vec in task.global_vocab.values())
        assert all(period >= 2 for _, period in SEGMENT_PATTERNS.values())


def test_noiseless_sample_without_segments_is_constant_offset(rng):
    task = _noiseless_task()
    spec = PromptSpec(global_text="ember", duration_s=task.duration)
    x = synth_sample(task, spec, rng)
    assert np.allclose(x, np.tile(task.global_vocab["ember"], (task.T, 1)))


def test_pattern_repeats_exactly_over_its_period(rng):
    task = _noiseless_task()
    text = "wave"  # period 4
    spec = _spec(task, [(0, 8, text)])
    x = synth_sample(task, spec, rng)
    window = x[:8] - task.global_vocab["ember"]
    assert np.allclose(window[:4], window[4:8], atol=1e-12)
    amp, period = SEGMENT_PATTERNS[text]
    assert period == 4
    assert np.allclose(window[:, 0], pattern_trace(text, 8), atol=1e-12)


def test_changing_segment_text_changes_only_its_window(rng):
    task = _noiseless_task()
    spec_a = _spec(task, [(0, 16, "pulse"), (16, 32, "wave")])
    spec_b = _spec(task, [(0, 16, "pulse"), (16, 32, "drift")])
    xa = synth_sample(task, spec_a, rng)
    xb = synth_sample(task, spec_b, rng)
    assert np.array_equal(xa[:16], xb[:16])
    assert np.array_equal(xa[32:], xb[32:])
    assert not np.allclose(xa[16:32], xb[16:32])


def test_unknown_text_is_contract_error(rng):
    task = _noiseless_task()
    with pytest.raises(ContractError):
        synth_sample(task, PromptSpec(global_text="unknown", duration_s=task.duration), rng)
    with pytest.raises(ContractError):
        synth_sample(task, _spec(task, [(0, 8, "unknown-pattern")]), rng)


def test_sample_prompt_layouts_are_valid(rng):
    task = _TASK
    for _ in range(50):
        spec, doc = sample_prompt(task, rng, _TASK.max_segments, _TASK.min_width)
        assert spec.segments
        assert spec.global_text in task.global_vocab
        for seg in spec.segments:
            assert seg.text in SEGMENT_PATTERNS
        assert doc.total_duration == task.duration
        synth_sample(task, spec, rng)  # must be constructible


def test_dataset_draw_is_deterministic():
    task = _TASK
    a = _dataset(task).draw(np.random.default_rng(3), 4)
    b = _dataset(task).draw(np.random.default_rng(3), 4)
    for ea, eb in zip(a, b):
        assert ea.id == eb.id
        assert np.array_equal(ea.x1, eb.x1)
        assert ea.spec == eb.spec


# SHA-256 of the first four default batches (seed 0, batch 8): every id, the
# prompt JSON, the lyric LRC and the latent bytes. A draw that moves an RNG
# call, a cut candidate or a float changes it.
DEFAULT_DRAW_SHA256 = "f237834f46215967bc840fd6bddf0c1abab5164e010cd50277f48c18b1a07c32"


def test_default_draw_stream_is_pinned():
    dataset = _dataset(_TASK)
    rng = np.random.default_rng(0)
    h = hashlib.sha256()
    for _ in range(4):
        for ex in dataset.draw(rng, 8):
            h.update(ex.id.encode())
            h.update(json.dumps(prompt_spec_to_json(ex.spec), sort_keys=True).encode())
            h.update(serialize_lrc(ex.doc).encode())
            h.update(ex.x1.tobytes())
    assert h.hexdigest() == DEFAULT_DRAW_SHA256


# -----------------------------------------------------------------------------
# oracle scorer and alignment metrics
# -----------------------------------------------------------------------------


def test_groundtruth_segments_score_one(rng):
    task = _noiseless_task()
    spec = _spec(task, [(0, 20, "pulse"), (20, 44, "shimmer"), (44, 64, "hum")])
    x = synth_sample(task, spec, rng)
    windows = windows_from_segments(spec.segments, task.frame_rate, task.T)
    per, mean = segment_alignment_score(x, windows, task)
    assert all(p == pytest.approx(1.0, abs=1e-9) for p in per)
    assert mean == pytest.approx(1.0, abs=1e-9)


def test_single_segment_mean_equals_its_score(rng):
    task = _noiseless_task()
    spec = _spec(task, [(0, 32, "drift")])
    x = synth_sample(task, spec, rng)
    windows = windows_from_segments(spec.segments, task.frame_rate, task.T)
    per, mean = segment_alignment_score(x, windows, task)
    assert len(per) == 1 and mean == per[0]


def test_shuffled_patterns_score_lower(rng):
    task = _noiseless_task()
    layout = [(0, 20, "pulse"), (20, 44, "wave"), (44, 64, "drift")]
    spec = _spec(task, layout)
    x = synth_sample(task, spec, rng)
    windows = windows_from_segments(spec.segments, task.frame_rate, task.T)
    _, truth_mean = segment_alignment_score(x, windows, task)
    shuffled = _spec(task, [(0, 20, "wave"), (20, 44, "drift"), (44, 64, "pulse")])
    shuffled_windows = windows_from_segments(shuffled.segments, task.frame_rate, task.T)
    _, shuffled_mean = segment_alignment_score(x, shuffled_windows, task)
    assert shuffled_mean < truth_mean


def test_mean_is_arithmetic_mean_bit_exactly(rng):
    task = _noiseless_task()
    spec = _spec(task, [(0, 20, "pulse"), (20, 44, "wave"), (44, 64, "drift")])
    x = synth_sample(task, spec, rng)
    windows = windows_from_segments(spec.segments, task.frame_rate, task.T)
    per, mean = segment_alignment_score(x, windows, task)
    assert mean == sum(per) / len(per)


def test_boundary_segments_excluded_by_default(rng, monkeypatch):
    task = _noiseless_task()
    segments = (
        SegmentSpec(0.0, 0.5, "start-marker", kind=BOUNDARY),
        SegmentSpec(0.5, 8.0, "pulse", kind=LYRIC),
    )
    spec = PromptSpec(global_text="ember", segments=segments, duration_s=task.duration)
    windows = windows_from_segments(spec.segments, task.frame_rate, task.T)
    x = np.zeros((task.T, task.d_audio))
    x[2:32] += pattern_trace("pulse", 30)[:, None]

    def tolerant(task, latent, text):
        if text == "start-marker":
            raise AssertionError("boundary segment must be skipped")
        return alignment_score(task, latent, text)

    monkeypatch.setattr(evaluate, "alignment_score", tolerant)
    per, mean = segment_alignment_score(x, windows, task)
    assert len(per) == 1


def test_empty_segment_list_is_undefined_mean(rng):
    """No window, or only boundary windows: no score, and the mean is None."""
    task = _noiseless_task()
    x = np.zeros((task.T, task.d_audio))
    boundary = SegmentWindow(0, 4, SegmentSpec(0.0, 1.0, "start-marker", kind=BOUNDARY))
    assert segment_alignment_score(x, [], task) == ([], None)
    assert segment_alignment_score(x, [boundary], task) == ([], None)


def test_global_alignment_self_is_max(rng):
    task = _noiseless_task()
    for text in task.global_vocab:
        spec = PromptSpec(global_text=text, duration_s=task.duration)
        x = synth_sample(task, spec, rng)
        own = alignment_score(task, x, text)
        others = [alignment_score(task, x, o) for o in task.global_vocab if o != text]
        assert own == pytest.approx(1.0, abs=1e-9)
        assert all(own > other for other in others)
        assert all(-1.0 <= s <= 1.0 for s in [own, *others])


def test_pearson_is_scale_free_without_overflow(rng):
    a, b = rng.standard_normal(12), rng.standard_normal(12)
    r = _pearson(a, b)
    assert r != 0.0
    for k in (1e200, -1e200):
        assert abs(_pearson(a * k, b) - np.sign(k) * r) <= 1e-12
        assert abs(_pearson(a, b * k) - np.sign(k) * r) <= 1e-12
    assert _pearson(a * 2.0**600, b * 2.0**-600) == r  # power-of-two scaling is exact
    # the constant rule: a centred norm product below 1e-12 scores 0.0
    assert _pearson(np.full(12, 1e300), b) == 0.0
    assert _pearson(a * 1e-200, b) == 0.0


# -----------------------------------------------------------------------------
# duration MAE
# -----------------------------------------------------------------------------


def _doc(onsets, texts=None, total=100.0):
    texts = texts or [f"line {i}" for i in range(len(onsets))]
    return LrcDocument(
        lines=tuple(LrcLine(float(t), s) for t, s in zip(onsets, texts)), total_duration=total
    )


def test_duration_mae_identity_is_zero():
    doc = _doc([1.0, 5.0, 9.0])
    assert duration_mae(doc, doc) == 0.0


def test_duration_mae_uniform_shift():
    truth = _doc([1.0, 5.0, 9.0])
    shifted = _doc([2.0, 6.0, 10.0])
    assert duration_mae(shifted, truth) == pytest.approx(1.0)


def test_duration_mae_matches_brute_force(rng):
    for _ in range(30):
        n = int(rng.integers(1, 10))
        onsets = np.sort(rng.uniform(0, 90, size=n))
        noise = rng.normal(0, 2.0, size=n)
        truth = _doc(onsets)
        pred = _doc(np.sort(np.clip(onsets + noise, 0, 99.0)))
        got = duration_mae(pred, truth)
        expected = float(
            np.mean([abs(a.timestamp - b.timestamp) for a, b in zip(pred.lines, truth.lines)])
        )
        assert got == pytest.approx(expected, abs=1e-12)


def test_duration_mae_contract_errors():
    with pytest.raises(ValidationError):
        duration_mae(_doc([1.0]), _doc([1.0, 2.0]))
    with pytest.raises(ValidationError):
        duration_mae(_doc([1.0], texts=["one"]), _doc([1.0], texts=["different"]))


def test_validate_report():
    good = {
        "samples": [
            {
                "global_alignment": 0.5,
                "segment_alignment": {"per_segment": [0.4], "mean": 0.4},
            }
        ],
        "aggregate": {"global_alignment_mean": 0.5, "segment_alignment_mean": 0.4},
    }
    validate_report(good)
    with pytest.raises(ContractError):
        validate_report({"samples": []})
    with pytest.raises(ContractError):
        validate_report({"samples": [{}], "aggregate": {}})
    # Every CLI report also carries "duration"; a missing key is still a ContractError.
    with pytest.raises(ContractError):
        validate_report({"samples": [], "duration": []})
    with pytest.raises(ContractError):
        validate_report({"aggregate": {}, "duration": []})
