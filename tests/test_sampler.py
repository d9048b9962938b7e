import mmap
import os
import signal

import numpy as np
import pytest

from songflow.backbone import Block
from songflow.conditioning import ConditioningBundle, ConditionRow, NegativePrompts, PromptSpec
from songflow.config import load_config
from songflow.errors import ContractError, NumericAbort
from songflow.lrc import LrcDocument, LrcLine, SegmentSpec, windows_from_segments
from songflow.sampler import (
    GuidanceConfig,
    build_condition_triple,
    build_negative_condition,
    euler_sample,
    guided_velocity,
    _TokenSplit,
    _velocities,
)
from songflow.system import build_song_model
from songflow.tensor import Tensor, attention


def _small_system():
    cfg = load_config(
        overrides=[
            "model.n_blocks=1",
            "model.model_width=8",
            "model.n_heads=2",
            "model.d_t=4",
            "conditioning.d_global=4",
            "conditioning.d_segment=4",
            "conditioning.d_text=4",
            "conditioning.d_lyrics=4",
            "task.T=12",
            "task.d_audio=2",
        ]
    )
    return cfg, build_song_model(cfg, trainable=False)


def _spec_and_doc():
    spec = PromptSpec(
        global_text="ember",
        segments=(SegmentSpec(0.0, 1.5, "pulse"), SegmentSpec(1.5, 3.0, "wave")),
        duration_s=3.0,
    )
    doc = LrcDocument(
        lines=(LrcLine(0.0, "p0 p1 p2"), LrcLine(1.5, "p0 p1 p2")), total_duration=3.0
    )
    return spec, doc


# -----------------------------------------------------------------------------
# guided_velocity
# -----------------------------------------------------------------------------


def test_guidance_reduces_to_conditional_bit_exactly(rng):
    v_u = rng.standard_normal((5, 3))
    v_c = rng.standard_normal((5, 3))
    v_n = rng.standard_normal((5, 3))
    assert np.array_equal(guided_velocity(v_u, v_c, v_n, 1.0, 0.0), v_c)


def test_guidance_reduces_to_unconditional(rng):
    v_u = rng.standard_normal((5, 3))
    v_c = rng.standard_normal((5, 3))
    v_n = rng.standard_normal((5, 3))
    assert np.array_equal(guided_velocity(v_u, v_c, v_n, 0.0, 0.0), v_u)


def test_guidance_hand_value_on_constant_fields():
    shape = (4, 2)
    v_u = np.zeros(shape)
    v_c = np.ones(shape)
    v_n = np.zeros(shape)
    out = guided_velocity(v_u, v_c, v_n, 3.0, 1.0)
    assert np.array_equal(out, np.full(shape, 3.0))
    # with a nonzero negative field the pushback shows up
    out = guided_velocity(v_u, v_c, np.full(shape, 0.5), 3.0, 1.0)
    assert np.array_equal(out, np.full(shape, 2.5))


def test_guidance_shape_error(rng):
    with pytest.raises(ContractError):
        guided_velocity(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)), 3.0, 1.0)


def test_guidance_is_affine(rng):
    v_u = rng.standard_normal((4, 2))
    v_c = rng.standard_normal((4, 2))
    v_n = rng.standard_normal((4, 2))
    base = guided_velocity(v_u, v_c, v_n, 2.5, 0.75)
    scaled = guided_velocity(3.0 * v_u, 3.0 * v_c, 3.0 * v_n, 2.5, 0.75)
    assert np.allclose(scaled, 3.0 * base, atol=1e-12)
    shift = rng.standard_normal((4, 2))
    shifted = guided_velocity(v_u + shift, v_c + shift, v_n + shift, 2.5, 0.75)
    assert np.allclose(shifted, base + shift, atol=1e-12)


# -----------------------------------------------------------------------------
# negative condition
# -----------------------------------------------------------------------------


def test_negative_condition_zeroes_lyrics_and_keeps_windows():
    cfg, system = _small_system()
    spec, doc = _spec_and_doc()
    T = cfg.task.T
    conditional = system.encoder.encode([ConditionRow(spec, doc)], T)
    row = build_negative_condition(spec, doc, cfg.negative)
    negative = system.encoder.encode([row], T)
    assert row.drop_lyrics
    assert np.array_equal(negative.e_lyrics.data, np.zeros_like(conditional.e_lyrics.data))

    def windows(s):
        found = windows_from_segments(s.segments, system.encoder.frame_rate, T)
        return [(start, end, seg.kind) for start, end, seg in found]

    assert windows(row.spec) == windows(spec)


def test_negative_identity_when_negative_equals_original():
    cfg, system = _small_system()
    spec, doc = _spec_and_doc()
    # with negative.segment == first segment's text, only windows with other
    # texts (and the zeroed lyrics) differ; for a single-text spec they match
    single = PromptSpec(
        global_text=spec.global_text,
        segments=(spec.segments[0],),
        negative=NegativePrompts(spec.global_text, spec.segments[0].text),
        duration_s=spec.duration_s,
    )
    conditional = system.encoder.encode([ConditionRow(single, doc)], cfg.task.T)
    row = build_negative_condition(single, doc, cfg.negative)
    negative = system.encoder.encode([row], cfg.task.T)
    assert np.array_equal(negative.e_text.data, conditional.e_text.data)
    assert np.array_equal(negative.e_lyrics.data, np.zeros_like(conditional.e_lyrics.data))


def test_negative_empty_segment_list_has_zero_segment_half():
    cfg, system = _small_system()
    spec = PromptSpec(global_text="ember", duration_s=3.0)
    encoder = system.encoder
    negative = encoder.encode([build_negative_condition(spec, None, cfg.negative)], cfg.task.T)
    g = np.tile(encoder.global_embedder.vector(cfg.negative.global_text), (cfg.task.T, 1))
    zeros = np.zeros((cfg.task.T, encoder.segment_embedder.dimension))
    expected = encoder.out_proj(Tensor(np.concatenate([g, zeros], axis=1))).data
    assert np.array_equal(negative.e_text.data[0], expected)


def test_condition_triple_shares_shapes():
    cfg, system = _small_system()
    spec, doc = _spec_and_doc()
    T, d = cfg.task.T, cfg.task.d_audio
    triple = build_condition_triple(system.encoder, spec, doc, T, cfg.negative)
    assert triple.e_text.data.shape == (3, T, cfg.conditioning.d_text)
    assert triple.e_lyrics.data.shape == (3, T, cfg.conditioning.d_lyrics)
    conditional, unconditional, negative = triple.rows
    assert conditional == ConditionRow(spec, doc)
    assert unconditional.drop_global and unconditional.drop_segment
    assert unconditional.drop_lyrics
    assert negative == build_negative_condition(spec, doc, cfg.negative)
    with pytest.raises(ContractError):
        euler_sample(system.model, triple.window(slice(0, 2)), GuidanceConfig(), T, d)


def _perturbed_system(seed=0):
    """The small system with every parameter (the zero head too) moved off its init."""
    cfg, system = _small_system()
    rng = np.random.default_rng(seed)
    for _, p in system.named_parameters():
        p.data += 0.05 * rng.standard_normal(p.data.shape)
    return cfg, system


def test_stacked_guidance_rows_match_separate_forwards(rng):
    cfg, system = _perturbed_system()
    spec, doc = _spec_and_doc()
    T, d = cfg.task.T, cfg.task.d_audio
    triple = build_condition_triple(system.encoder, spec, doc, T, cfg.negative)
    x = rng.standard_normal((T, d))
    stacked = system.model.forward(Tensor(np.broadcast_to(x, (3, T, d))), triple, [0.3] * 3).data
    for i in range(3):
        alone = system.model.forward(Tensor(x[None]), triple.window(slice(i, i + 1)), [0.3]).data[0]
        assert np.abs(stacked[i]).max() > 1e-3
        assert np.abs(stacked[i] - alone).max() <= 1e-12 * np.abs(alone).max()


@pytest.mark.parametrize("cfg_pair", [(3.0, 1.0), (1.0, 0.0), (0.0, 0.0), (2.0, 0.0), (0.0, 0.5)])
def test_euler_sample_matches_per_branch_forwards(cfg_pair):
    """One stacked forward per step against the three separate B=1 forwards."""
    cfg, system = _perturbed_system(seed=1)
    spec, doc = _spec_and_doc()
    T, d = cfg.task.T, cfg.task.d_audio
    triple = build_condition_triple(system.encoder, spec, doc, T, cfg.negative)
    gc = GuidanceConfig(*cfg_pair, steps=6, seed=4)
    out, log = euler_sample(system.model, triple, gc, T, d)
    x = np.random.default_rng(gc.seed).standard_normal((T, d))
    for k in range(gc.steps):
        t = k / gc.steps
        v_c, v_u, v_n = (
            system.model.forward(Tensor(x[None]), triple.window(slice(i, i + 1)), [t]).data[0] for i in range(3)
        )
        v = guided_velocity(v_u, v_c, v_n, gc.cfg, gc.cfg_n)
        assert abs(log[k]["v_norm"] - np.linalg.norm(v)) <= 1e-12 * np.linalg.norm(v)
        x = x + (1.0 / gc.steps) * v
    assert np.abs(out - x).max() <= 1e-12 * np.abs(x).max()


# -----------------------------------------------------------------------------
# euler integration
# -----------------------------------------------------------------------------


class _ConstantModel:
    def __init__(self, c):
        self.c = c

    def forward(self, x_t, cond, t):
        return Tensor(np.full_like(x_t.data, self.c))


class _DecayModel:
    def forward(self, x_t, cond, t):
        return Tensor(-x_t.data)


def _dummy_triple(system, T):
    spec = PromptSpec(global_text="ember", duration_s=3.0)
    return system.encoder.encode([ConditionRow(spec)] * 3, T)


def test_constant_field_integrates_exactly():
    cfg, system = _small_system()
    T, d = cfg.task.T, cfg.task.d_audio
    for steps in (5, 13, 32):
        gc = GuidanceConfig(cfg=1.0, cfg_n=0.0, steps=steps, seed=3)
        out, _ = euler_sample(_ConstantModel(0.7), _dummy_triple(system, T), gc, T, d)
        x_init = np.random.default_rng(3).standard_normal((T, d))
        assert np.allclose(out, x_init + 0.7, atol=1e-12)


def test_euler_first_order_convergence_on_exponential_decay():
    cfg, system = _small_system()
    T, d = 3, cfg.task.d_audio
    triple = _dummy_triple(system, T)
    errors = []
    for steps in (10, 20, 40, 80):
        gc = GuidanceConfig(cfg=1.0, cfg_n=0.0, steps=steps, seed=11)
        out, _ = euler_sample(_DecayModel(), triple, gc, T, d)
        x_init = np.random.default_rng(11).standard_normal((T, d))
        errors.append(np.abs(out - x_init * np.exp(-1.0)).max())
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.7 <= coarse / fine <= 2.3


def test_cfg_one_trajectory_matches_conditional_only_bit_exactly():
    cfg, system = _small_system()
    spec, doc = _spec_and_doc()
    T, d = cfg.task.T, cfg.task.d_audio
    triple = build_condition_triple(system.encoder, spec, doc, T, cfg.negative)
    cond_only = system.encoder.encode([ConditionRow(spec, doc)] * 3, T)
    a, _ = euler_sample(system.model, triple, GuidanceConfig(1.0, 0.0, 16, seed=5), T, d)
    b, _ = euler_sample(system.model, cond_only, GuidanceConfig(1.0, 0.0, 16, seed=5), T, d)
    assert np.array_equal(a, b)


def test_euler_is_deterministic_and_logs():
    cfg, system = _small_system()
    spec, doc = _spec_and_doc()
    T, d = cfg.task.T, cfg.task.d_audio
    triple = build_condition_triple(system.encoder, spec, doc, T, cfg.negative)
    gc = GuidanceConfig(cfg=3.0, cfg_n=1.0, steps=8, seed=9)
    a, log_a = euler_sample(system.model, triple, gc, T, d)
    b, log_b = euler_sample(system.model, triple, gc, T, d)
    assert np.array_equal(a, b)
    assert log_a == log_b
    assert [e["step"] for e in log_a] == list(range(8))


def test_step_log_norm_of_a_huge_finite_field_is_finite():
    """A 1e200-scale field keeps the trajectory finite, and so its logged
    norm (its square would overflow; RuntimeWarning is an error here)."""
    cfg, system = _small_system()
    T, d = cfg.task.T, cfg.task.d_audio

    class Huge:
        def forward(self, x_t, cond, t):
            return Tensor(np.full(x_t.data.shape, 1e200))

    latent, log = euler_sample(
        Huge(), _dummy_triple(system, T), GuidanceConfig(1.0, 0.0, 4, seed=0), T, d
    )
    assert np.isfinite(latent).all() and len(log) == 4
    for row in log:
        assert abs(row["v_norm"] - 1e200 * np.sqrt(T * d)) <= 1e-15 * row["v_norm"]


def test_euler_aborts_on_divergence():
    cfg, system = _small_system()
    T, d = cfg.task.T, cfg.task.d_audio

    class Explode:
        """Runaway field: overflows to inf after a couple of updates."""

        def forward(self, x_t, cond, t):
            out = Tensor(np.zeros_like(x_t.data))
            with np.errstate(over="ignore"):
                out.data = x_t.data * 1e200
            return out

    with pytest.raises(NumericAbort) as err:
        euler_sample(
            Explode(), _dummy_triple(system, T), GuidanceConfig(1.0, 0.0, 4, seed=0), T, d
        )
    assert err.value.step is not None


# -----------------------------------------------------------------------------
# the token split: a worker process runs the query tokens [ceil(T/2), T)
# -----------------------------------------------------------------------------


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count the sampler sees; returns the list of fork calls."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)

    def allow(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        return forks

    return allow


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _shifted_row_case(T):
    """The default model and a three-row bundle in which only row 0's
    block-0 q and k are large, and only in the worker's tokens, so the row's
    softmax shift is decided by tokens the caller does not compute.

    Layer norm rescales every frame, except that a frame whose variance is
    far below its 1e-5 epsilon stays near zero. So the input projection
    reads the conditioning only (the x and time channels are zeroed, with
    the bias), the conditioning is 1e-4 small everywhere but in row 0's
    worker frames, and block 0's ln1 gain is raised."""
    cfg = load_config(overrides=[f"task.T={T}"])
    system = build_song_model(cfg, trainable=False)
    rng = np.random.default_rng(5)
    for _, p in system.named_parameters():
        p.data += 0.05 * rng.standard_normal(p.data.shape)
    model = system.model
    model.w_in.data[model.d_text + model.d_lyrics:] = 0.0
    model.b_in.data[...] = 0.0
    model.blocks[0].ln1_g.data[...] = 40.0
    spec = PromptSpec(global_text="ember", duration_s=T / cfg.task.frame_rate)
    scale = np.full((3, T, 1), 1e-4)
    scale[0, (T + 1) // 2:] = 1.0
    cond = ConditioningBundle(
        e_text=Tensor(scale * rng.standard_normal((3, T, cfg.conditioning.d_text))),
        e_lyrics=Tensor(scale * rng.standard_normal((3, T, cfg.conditioning.d_lyrics))),
        rows=(ConditionRow(spec),) * 3,
    )
    return model, cond, 1e-4 * rng.standard_normal((T, cfg.task.d_audio))


def _unshifted_bound(q, k, v, n_heads):
    """attention's B + ln T + |ln max|v|| for one row's (T, d) q, k and v:
    the row takes the shifted path when this exceeds 700."""
    T, d = q.shape
    hd = d // n_heads
    qq = (((q / np.sqrt(hd)).reshape(T, n_heads, hd)) ** 2).sum(-1).max()
    kk = (k.reshape(T, n_heads, hd) ** 2).sum(-1).max()
    return np.sqrt(qq) * np.sqrt(kk) + np.log(T) + abs(np.log(np.abs(v).max()))


@pytest.mark.parametrize("T", [256, 101])
@pytest.mark.parametrize("used", [[0, 1, 2], [0, 1], [0]], ids=["cfg3-1", "cfg2-0", "cfg1-0"])
def test_token_split_forward_equals_the_full_forward(T, used):
    """The used rows of (3, 1), (2, 0) and (1, 0), whose row 0 takes the
    shifted softmax path only because of the worker's tokens: the two halves
    of a token-split forward are the full forward's bytes."""
    model, cond, x = _shifted_row_case(T)
    cond = cond.window(slice(0, len(used)))
    blocks = []

    def record(block, h):
        q, k, v = block.project(h)
        blocks.append((q.data, k.data, v.data))
        return attention(q, k, v, block.n_heads)

    full = _velocities(model, cond, 0.3, x, attend=record)
    assert np.array_equal(full, _velocities(model, cond, 0.3, x))
    q, k, v = blocks[0]
    heads, half = model.config.n_heads, (T + 1) // 2
    assert _unshifted_bound(q[0], k[0], v[0], heads) > 800.0
    assert _unshifted_bound(q[0, :half], k[0, :half], v[0, :half], heads) < 600.0
    for row in range(1, len(used)):
        assert _unshifted_bound(q[row], k[row], v[row], heads) < 600.0
    split = _TokenSplit(model, cond, T, x.shape[1])
    try:
        assert np.array_equal(split.velocities(0.3, x), full)
    finally:
        split.close()


@pytest.mark.parametrize(
    "cfg_pair", [(3.0, 1.0), (2.0, 0.0), (1.0, 0.0), (0.0, 0.0), (0.0, 0.5)]
)
def test_euler_sample_bytes_do_not_depend_on_the_cpu_count(cpus, cfg_pair):
    cfg, system = _perturbed_system(seed=2)
    spec, doc = _spec_and_doc()
    T, d = cfg.task.T, cfg.task.d_audio
    triple = build_condition_triple(system.encoder, spec, doc, T, cfg.negative)
    gc = GuidanceConfig(*cfg_pair, steps=6, seed=7)
    runs = {}
    for n_cpus in (1, 2):
        forks = cpus(n_cpus)
        runs[n_cpus] = euler_sample(system.model, triple, gc, T, d)
        assert len(forks) == (n_cpus == 2)  # every cfg pair splits its tokens
        forks.clear()
    (one, log_one), (two, log_two) = runs[1], runs[2]
    assert np.array_equal(one, two)
    assert log_one == log_two
    _no_child_left()


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
def test_songs_shorter_than_four_frames_run_in_one_process(cpus, T):
    """A worker half of one frame would make one-row products, which BLAS
    rounds differently, so T < 4 keeps the whole forward in the caller; from
    T = 4 on the split gives the same bytes."""
    cfg, system = _perturbed_system(seed=3)
    spec = PromptSpec(global_text="ember", duration_s=T / cfg.task.frame_rate)
    triple = build_condition_triple(system.encoder, spec, None, T, cfg.negative)
    gc = GuidanceConfig(3.0, 1.0, steps=3, seed=1)
    cpus(1)
    expected = euler_sample(system.model, triple, gc, T, cfg.task.d_audio)
    forks = cpus(2)
    latent, log = euler_sample(system.model, triple, gc, T, cfg.task.d_audio)
    assert len(forks) == (T >= 4)
    assert np.array_equal(latent, expected[0]) and log == expected[1]


@pytest.mark.parametrize("fails", ["fork", "mmap"])
def test_a_failed_fork_or_mapping_runs_the_full_forward_in_the_caller(cpus, monkeypatch, fails):
    cfg, system = _perturbed_system(seed=2)
    spec, doc = _spec_and_doc()
    T, d = cfg.task.T, cfg.task.d_audio
    triple = build_condition_triple(system.encoder, spec, doc, T, cfg.negative)
    gc = GuidanceConfig(3.0, 1.0, steps=4, seed=7)
    cpus(1)
    expected = euler_sample(system.model, triple, gc, T, d)
    forks = cpus(2)
    open_fds = len(os.listdir("/proc/self/fd"))

    def no_resource(*args):
        raise BlockingIOError(f"{fails}: nothing to spare")

    if fails == "fork":
        monkeypatch.setattr(os, "fork", no_resource)
    else:
        monkeypatch.setattr(mmap, "mmap", no_resource)
    latent, log = euler_sample(system.model, triple, gc, T, d)
    assert np.array_equal(latent, expected[0]) and log == expected[1]
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert not forks


def test_no_worker_outlives_a_numeric_abort(cpus):
    """An infinite head bias makes every velocity inf at the first step
    (cfg 1 forms no inf - inf); the caller raises NumericAbort with the
    worker reaped."""
    cfg, system = _small_system()
    spec, doc = _spec_and_doc()
    T, d = cfg.task.T, cfg.task.d_audio
    triple = build_condition_triple(system.encoder, spec, doc, T, cfg.negative)
    system.model.b_head.data[...] = np.inf
    forks = cpus(2)
    with pytest.raises(NumericAbort) as err:
        euler_sample(system.model, triple, GuidanceConfig(1.0, 0.0, 4, seed=0), T, d)
    assert err.value.step == 0
    assert len(forks) == 1
    _no_child_left()


def test_a_worker_crash_is_a_runtime_error_not_a_hang(cpus, monkeypatch):
    """The worker's forward raises after the first of two block exchanges;
    the caller sees its pipe end and raises RuntimeError, with the worker
    reaped."""
    cfg = load_config(overrides=["model.n_blocks=2", "model.model_width=8", "model.n_heads=2",
                                 "task.T=12", "task.d_audio=2"])
    system = build_song_model(cfg, trainable=False)
    spec, doc = _spec_and_doc()
    T, d = cfg.task.T, cfg.task.d_audio
    triple = build_condition_triple(system.encoder, spec, doc, T, cfg.negative)
    caller, finish = os.getpid(), Block.finish

    def fails_in_the_worker(self, x, a):
        if os.getpid() != caller:
            raise ValueError("worker block failed")
        return finish(self, x, a)

    monkeypatch.setattr(Block, "finish", fails_in_the_worker)

    def hung(signum, frame):
        raise TimeoutError("euler_sample hung after the worker died")

    forks = cpus(2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        with pytest.raises(RuntimeError, match="worker"):
            euler_sample(system.model, triple, GuidanceConfig(3.0, 1.0, 4, seed=0), T, d)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forks) == 1
    _no_child_left()
