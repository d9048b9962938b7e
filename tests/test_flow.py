import hashlib
import json
import mmap
import os
import signal
import tracemalloc
import weakref

import numpy as np
import pytest

import songflow.flow as flow_mod
from conftest import fd_max_rel_error, no_child_left
from songflow.conditioning import OutputProjection
from songflow.checkpoint import load_params
from songflow.config import load_config
from songflow.errors import NumericAbort, ValidationError
from songflow.flow import (
    TrainConfig,
    TrainExample,
    cfm_loss,
    interpolate,
    train,
)
from songflow.optim import adam_init
from songflow.synthetic import SyntheticDataset
from songflow.system import build_song_model
from songflow.tensor import Tensor, _Node, _topo_order, backward, zero_grads


def _tiny_overrides(steps=5, batch=2):
    return [
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
        "task.min_width=4",
        f"train.steps={steps}",
        f"train.batch_size={batch}",
    ]


def _tiny_setup(steps=5, batch=2):
    cfg = load_config(overrides=_tiny_overrides(steps, batch))
    system = build_song_model(cfg, trainable=True)
    dataset = SyntheticDataset(cfg.task, max_segments=2, min_width=4)
    return cfg, system, dataset


def test_interpolate_endpoints_exact(rng):
    x0 = rng.standard_normal((5, 3))
    x1 = rng.standard_normal((5, 3))
    assert np.array_equal(interpolate(x0, x1, 0.0), x0)
    assert np.array_equal(interpolate(x0, x1, 1.0), x1)


def test_interpolate_midpoint_constant():
    x0 = np.zeros((4, 2))
    x1 = np.full((4, 2), 2.0)
    assert np.array_equal(interpolate(x0, x1, 0.5), np.ones((4, 2)))


def test_interpolate_is_affine_in_t(rng):
    x0 = rng.standard_normal((6, 2))
    x1 = rng.standard_normal((6, 2))
    for _ in range(20):
        a, b = sorted(rng.uniform(0, 1, size=2))
        mid = interpolate(x0, x1, (a + b) / 2)
        avg = (interpolate(x0, x1, a) + interpolate(x0, x1, b)) / 2
        assert np.abs(mid - avg).max() < 1e-12


def test_interpolation_identity(rng):
    x0 = rng.standard_normal((4, 2))
    x1 = rng.standard_normal((4, 2))
    for t in rng.uniform(0, 1, size=10):
        lhs = interpolate(x0, x1, float(t)) + (1.0 - t) * (x1 - x0)
        assert np.abs(lhs - x1).max() < 1e-12


class _OracleModel:
    """Always returns the true displacement; the loss must be exactly zero."""

    def __init__(self):
        self.x0 = None
        self.x1 = None

    def forward(self, x_t, cond, t):
        return Tensor(self.x1 - self.x0)


def test_cfm_loss_zero_for_oracle_model(rng):
    cfg, system, dataset = _tiny_setup()
    batch = dataset.draw(rng, 2)

    class Oracle:
        def forward(self, x_t, cond, t):
            # x_t = (1-t) x0 + t x1  =>  x1 - x0 = (x1 - x_t) / (1 - t)
            ex, t = self._current, t[0]
            x0 = (x_t.data - t * ex.x1) / (1.0 - t) if t < 1.0 else None
            return Tensor(ex.x1 - x0)

    oracle = Oracle()
    total = 0.0
    for ex in batch:
        oracle._current = ex
        loss = cfm_loss(oracle, system.encoder, (ex,), np.random.default_rng(7), 0.0, 0.0, 0.0)
        total += float(loss.data)
    assert total < 1e-18


def test_cfm_loss_of_zero_model_matches_variance_sum():
    """v = 0 and unit-variance x1 make the loss E||x1 - x0||^2 / N = 2."""
    cfg, system, _ = _tiny_setup()
    rng = np.random.default_rng(5)
    shape = (cfg.task.T, cfg.task.d_audio)
    examples = [
        TrainExample(
            id=f"u{i}",
            spec=_unit_spec(cfg),
            doc=None,
            x1=rng.standard_normal(shape),
        )
        for i in range(1000)
    ]

    class ZeroModel:
        def forward(self, x_t, cond, t):
            return Tensor(np.zeros_like(x_t.data))

    loss = cfm_loss(ZeroModel(), system.encoder, tuple(examples),
                    np.random.default_rng(11), 0.0, 0.0, 0.0)
    assert abs(float(loss.data) - 2.0) < 0.3
    assert float(loss.data) >= 0.0


def _unit_spec(cfg):
    from songflow.conditioning import PromptSpec

    return PromptSpec(global_text="ember")


def test_cfm_loss_gradient_matches_finite_differences(rng):
    cfg, system, dataset = _tiny_setup()
    batch = dataset.draw(rng, 1)
    params = [t for _, t in system.named_parameters()]

    def build_loss():
        return cfm_loss(
            system.model,
            system.encoder,
            batch,
            np.random.default_rng(21),  # frozen (t, x0, dropout) draw
            p_drop_global=0.5,
            p_drop_segment=0.5,
            p_drop_lyrics=0.0,
        )

    assert fd_max_rel_error(build_loss, params) < 1e-3


def test_cfm_loss_projects_each_example_once_under_dropout(rng, monkeypatch):
    cfg, system, dataset = _tiny_setup()
    batch = dataset.draw(rng, 3)
    calls = []
    projection = OutputProjection.__call__

    def counted(self, e_cat):
        calls.append(e_cat.data.copy())
        return projection(self, e_cat)

    monkeypatch.setattr(OutputProjection, "__call__", counted)
    cfm_loss(system.model, system.encoder, batch, rng, p_drop_global=1.0, p_drop_segment=0.0,
             p_drop_lyrics=0.0)
    assert [e_cat.shape[0] for e_cat in calls] == [3]  # one call carrying the 3 rows
    d_global = system.encoder.global_embedder.dimension
    assert not calls[0][..., :d_global].any()
    assert calls[0][..., d_global:].any()


def _perturbed(system, seed=0):
    """Move every parameter (the zero head too) off its init."""
    rng = np.random.default_rng(seed)
    for _, p in system.named_parameters():
        p.data += 0.05 * rng.standard_normal(p.data.shape)
    return system


def test_batched_cfm_loss_matches_mean_of_single_examples(rng):
    cfg, system, dataset = _tiny_setup()
    _perturbed(system)
    params = [t for _, t in system.named_parameters()]
    batch = dataset.draw(rng, 4)
    drops = dict(p_drop_global=0.5, p_drop_segment=0.5, p_drop_lyrics=0.5)

    zero_grads(params)
    loss = cfm_loss(system.model, system.encoder, batch, np.random.default_rng(3), **drops)
    backward(loss)
    batched = [p.grad.copy() for p in params]

    zero_grads(params)
    single_rng = np.random.default_rng(3)  # the same stream, one example per call
    losses = []
    for ex in batch:
        single = cfm_loss(system.model, system.encoder, (ex,), single_rng, **drops)
        backward(single)
        losses.append(float(single.data))
    assert abs(float(loss.data) - np.mean(losses)) <= 1e-12 * float(loss.data)
    for g_batched, p in zip(batched, params):
        g_mean = p.grad / len(losses)
        assert np.abs(g_batched - g_mean).max() <= 1e-12 * max(np.abs(g_mean).max(), 1e-300)


def test_row_halves_of_cfm_loss_sum_to_the_whole_batch(rng):
    """Each half's loss is its squared differences over the whole batch's
    element count, from the same draws: the halves' losses and gradients
    add up to the whole batch's, and each call leaves rng in one state."""
    cfg, system, dataset = _tiny_setup()
    _perturbed(system)
    params = [t for _, t in system.named_parameters()]
    batch = dataset.draw(rng, 5)
    drops = dict(p_drop_global=0.5, p_drop_segment=0.5, p_drop_lyrics=0.5)
    results = []
    for rows in (slice(None), slice(0, 3), slice(3, 5)):
        zero_grads(params)
        draws = np.random.default_rng(4)
        loss = cfm_loss(system.model, system.encoder, batch, draws, **drops, rows=rows)
        backward(loss)
        results.append((float(loss.data), np.concatenate([p.grad.ravel() for p in params]),
                        draws.random()))
    (whole, g, after), (l_a, g_a, after_a), (l_b, g_b, after_b) = results
    assert after == after_a == after_b
    assert abs(l_a + l_b - whole) <= 1e-14 * whole and 0 < l_b < whole
    assert np.abs(g_a + g_b - g).max() <= 1e-13 * np.abs(g).max()


def _assert_flat_layout(system, state):
    """Every parameter's data and grad are views of state.values and
    state.grads at consecutive offsets, in named_parameters order."""
    start = 0
    for name, p in system.named_parameters():
        for arr, flat in ((p.data, state.values), (p.grad, state.grads)):
            assert arr.base is flat and arr.flags.c_contiguous, name
            assert arr.ctypes.data == flat[start:].ctypes.data, name
        start += p.data.size
    assert start == state.values.size == state.grads.size


def test_training_keeps_every_parameter_in_the_flat_layout(tmp_path, monkeypatch):
    cfg, system, dataset = _tiny_setup(steps=1)
    params = [t for _, t in system.named_parameters()]
    before = [p.data.copy() for p in params]
    state = adam_init(params, cfg.train.learning_rate)
    _assert_flat_layout(system, state)
    assert all(np.array_equal(p.data, b) for p, b in zip(params, before))
    assert not state.grads.any()

    system.save(tmp_path / "checkpoint.json")
    state.values += 1.0
    system.load(tmp_path / "checkpoint.json")
    _assert_flat_layout(system, state)
    assert all(np.array_equal(p.data, b) for p, b in zip(params, before))

    state.grads[...] = 1.0
    zero_grads(params)
    _assert_flat_layout(system, state)
    assert not state.grads.any()
    standalone = Tensor([1.0], requires_grad=True)
    zero_grads([standalone])
    assert standalone.grad is None

    seen = {}
    real_adam = flow_mod.adam_step

    def capturing_adam(ps, train_state):
        real_adam(ps, train_state)
        seen["state"] = train_state

    monkeypatch.setattr(flow_mod, "adam_step", capturing_adam)
    train(system, dataset, cfg.train, tmp_path)
    _assert_flat_layout(system, seen["state"])
    assert seen["state"].step == 1 and seen["state"].grads.any()


def _tape_nodes(root):
    """Op nodes reachable from the loss root (leaves and constants excluded)."""
    return sum(isinstance(node, _Node) for node in _topo_order(root._node))


def test_cfm_loss_tape_does_not_grow_with_the_batch(rng):
    cfg, system, dataset = _tiny_setup()
    counts = [
        _tape_nodes(cfm_loss(system.model, system.encoder, dataset.draw(rng, b), rng,
                             p_drop_global=0.5, p_drop_segment=0.5, p_drop_lyrics=0.0))
        for b in (1, 4)
    ]
    assert counts[0] == counts[1] > 0


def test_train_aborts_on_non_finite_gradient(tmp_path, monkeypatch, cpus):
    cpus(2)  # the worker's backward calls are its own: two in all, at step 1
    cfg, system, dataset = _tiny_setup(steps=4, batch=2)
    config = TrainConfig(**{**cfg.train.__dict__, "checkpoint_every": 1})
    params = [t for _, t in system.named_parameters()]
    real_backward, real_adam = flow_mod.backward, flow_mod.adam_step
    seen = {"backward": 0, "adam": 0}

    def planting_backward(loss):
        real_backward(loss)
        seen["backward"] += 1
        if seen["backward"] == 2:  # step 1: one inf in the last parameter's gradient
            seen["params"] = [p.data.copy() for p in params]
            params[-1].grad.reshape(-1)[0] = np.inf

    def counted_adam(ps, state):
        real_adam(ps, state)
        seen["adam"] += 1
        seen["state"] = state
        seen["moments"] = (state.m.tobytes(), state.v.tobytes())

    monkeypatch.setattr(flow_mod, "backward", planting_backward)
    monkeypatch.setattr(flow_mod, "adam_step", counted_adam)
    with pytest.raises(NumericAbort) as err:
        train(system, dataset, config, tmp_path)
    assert err.value.step == 1 and len(err.value.batch_ids) == 2
    assert "gradient is not finite" in str(err.value)
    assert (seen["backward"], seen["adam"]) == (2, 1)
    assert all(np.array_equal(p.data, s) for p, s in zip(params, seen["params"]))
    state = seen["state"]
    assert state.step == 1
    assert (state.m.tobytes(), state.v.tobytes()) == seen["moments"]
    written = sorted(f.name for f in tmp_path.iterdir())
    assert written == ["checkpoint-000001.json", "train_log.jsonl"]
    assert (tmp_path / "train_log.jsonl").read_text().count("\n") == 1  # step 0 only
    saved = load_params(tmp_path / "checkpoint-000001.json")
    assert all(np.array_equal(a, s) for (_, a), s in zip(saved, seen["params"]))


def test_train_drops_each_graph_before_the_next_forward(tmp_path, monkeypatch, cpus):
    cpus(2)  # one cfm_loss call per step here, one in the worker
    cfg, system, dataset = _tiny_setup(steps=4, batch=2)
    real = flow_mod.cfm_loss
    losses = []

    def tracked(*args, **kwargs):
        if losses:
            assert losses[-1]() is None, "the previous step's graph is still alive"
        loss = real(*args, **kwargs)
        losses.append(weakref.ref(loss))
        return loss

    monkeypatch.setattr(flow_mod, "cfm_loss", tracked)
    train(system, dataset, cfg.train, tmp_path)
    assert len(losses) == 4


def _default_step_memory():
    """(graph alive after cfm_loss, forward peak, backward peak) in bytes of
    one default-config step, traced from the start of cfm_loss
    (allocations are deterministic)."""
    cfg = load_config()
    system = build_song_model(cfg, trainable=True)
    dataset = SyntheticDataset(cfg.task, max_segments=cfg.task.max_segments,
                               min_width=cfg.task.min_width)
    rng = np.random.default_rng(0)
    batch = dataset.draw(rng, cfg.train.batch_size)
    drops = dict(p_drop_global=cfg.train.p_drop_global, p_drop_segment=cfg.train.p_drop_segment,
                 p_drop_lyrics=cfg.train.lyric_dropout)
    tracemalloc.start()
    try:
        loss = cfm_loss(system.model, system.encoder, batch, rng, **drops)
        alive, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        backward(loss)
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return alive, forward_peak, backward_peak


def test_backward_peak_memory_stays_near_the_forward_graph():
    """backward allocates at most 15% on top of the graph that cfm_loss
    leaves alive."""
    alive, _, peak = _default_step_memory()
    assert peak <= 1.15 * alive, (peak, alive)


def test_default_step_graph_holds_only_what_the_vjps_read():
    """Nodes hold no result array, so the residual sums and the projections
    into them are gone once cfm_loss returns, and the forward's peak stays
    near the graph too."""
    alive, peak, _ = _default_step_memory()
    assert alive <= 14e6, alive
    assert peak <= 1.15 * alive, (peak, alive)


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_the_gradient_adam_sees_is_the_whole_batch_gradient(tmp_path, monkeypatch, cpus, n_cpus):
    """Step 0's summed halves, from either process layout, against one
    backward over the whole batch drawn from the same stream."""
    cfg, system, dataset = _tiny_setup(steps=1, batch=3)
    _perturbed(system)
    seen = {}
    real_adam = flow_mod.adam_step

    def capturing_adam(params, state):
        seen["grads"] = state.grads.copy()
        real_adam(params, state)

    monkeypatch.setattr(flow_mod, "adam_step", capturing_adam)
    cpus(n_cpus)
    report = train(system, dataset, cfg.train, tmp_path)
    _, fresh, fresh_dataset = _tiny_setup(steps=1, batch=3)
    params = [p for _, p in _perturbed(fresh).named_parameters()]
    rng = np.random.default_rng(cfg.train.seed)
    batch = fresh_dataset.draw(rng, 3)
    loss = cfm_loss(fresh.model, fresh.encoder, batch, rng, cfg.train.p_drop_global,
                    cfg.train.p_drop_segment, cfg.train.lyric_dropout)
    backward(loss)
    whole = np.concatenate([p.grad.ravel() for p in params])
    assert abs(report.losses[0] - float(loss.data)) <= 1e-14 * float(loss.data)
    assert np.abs(seen["grads"] - whole).max() <= 1e-13 * np.abs(whole).max()


def test_train_clips_the_gradient_norm_jointly(tmp_path, monkeypatch):
    """Above train.grad_clip_norm, every gradient is scaled by one factor,
    clip / norm, so Adam sees the clip norm; at or below it, the gradients
    reach Adam as they are. The guard's norm is the only one computed."""
    cfg, system, dataset = _tiny_setup(steps=4, batch=2)
    config = TrainConfig(**{**cfg.train.__dict__, "grad_clip_norm": 1.1})
    real_norm, real_adam = flow_mod.grad_norm, flow_mod.adam_step
    seen = []

    def guard_norm(params):
        norm = real_norm(params)
        seen.append((norm, np.concatenate([p.grad.reshape(-1) for p in params])))
        return norm

    def checking_adam(params, state):
        norm, before = seen[-1]
        if norm > 1.1:
            assert np.array_equal(state.grads, before * (1.1 / norm))
            assert real_norm(params) == pytest.approx(1.1, rel=1e-12)
        else:
            assert np.array_equal(state.grads, before)
        real_adam(params, state)

    monkeypatch.setattr(flow_mod, "grad_norm", guard_norm)
    monkeypatch.setattr(flow_mod, "adam_step", checking_adam)
    train(system, dataset, config, tmp_path)
    clipped = [norm > 1.1 for norm, _ in seen]
    assert len(seen) == 4 and any(clipped) and not all(clipped)


# SHA-256 of the checkpoints of a tiny run clipped at train.grad_clip_norm=1.1,
# where steps 0 and 1 clip and steps 2 and 3 do not.
CLIPPED_CHECKPOINT_SHA256 = {
    "checkpoint-000002.json": "98cc99417a2804533bb219cabaf5264c7a881b9a5f1c49b514bd65a7e8938288",
    "checkpoint.json": "38e5b868a9a9c95f9847722e3e224020e6556d99f69cc220852b2735b2b3e9ed",
}


def test_clipped_train_checkpoints_are_pinned(tmp_path):
    cfg, system, dataset = _tiny_setup(steps=4, batch=2)
    config = TrainConfig(**{**cfg.train.__dict__, "grad_clip_norm": 1.1, "checkpoint_every": 2})
    report = train(system, dataset, config, tmp_path)
    hashes = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in report.files[1:]}
    assert hashes == CLIPPED_CHECKPOINT_SHA256


def test_train_requires_at_least_one_step():
    with pytest.raises(ValidationError, match=r"train\.steps must be >= 1"):
        TrainConfig(steps=0)


def test_train_is_deterministic(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir(), b_dir.mkdir()
    for out in (a_dir, b_dir):
        cfg, system, dataset = _tiny_setup(steps=5, batch=2)
        train(system, dataset, cfg.train, out)
    assert (a_dir / "checkpoint.json").read_bytes() == (b_dir / "checkpoint.json").read_bytes()


def test_train_reduces_loss_and_logs(tmp_path):
    cfg, system, dataset = _tiny_setup(steps=60, batch=4)
    report = train(system, dataset, cfg.train, tmp_path)
    log = tmp_path / "train_log.jsonl"
    assert len(report.losses) == 60
    assert report.files == ["train_log.jsonl", "checkpoint.json"]
    first, last = np.mean(report.losses[:15]), np.mean(report.losses[-15:])
    assert last < first
    assert report.smoothed() == (np.mean(report.losses[:50]), np.mean(report.losses[-50:]))
    lines = [json.loads(l) for l in log.read_text().splitlines()]
    assert len(lines) == 60
    assert set(lines[0]) == {"step", "loss", "wall_ms"}


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_aborts_on_nan_with_diagnostics(tmp_path):
    cfg, system, dataset = _tiny_setup(steps=3, batch=2)

    class PoisonedDataset:
        def __init__(self, inner):
            self.inner = inner

        def draw(self, rng, n):
            batch = self.inner.draw(rng, n)
            bad = TrainExample(
                id="poison", spec=batch[0].spec, doc=batch[0].doc, x1=batch[0].x1 * 1e200
            )
            return (bad,) + batch[1:]

    with pytest.raises(NumericAbort) as err:
        train(system, PoisonedDataset(dataset), cfg.train, tmp_path)
    assert err.value.step == 0
    assert "poison" in err.value.batch_ids


def test_dropout_frequency_during_training(tmp_path, monkeypatch, cpus):
    cpus(2)  # the worker replays the same draws in its own process
    cfg, system, dataset = _tiny_setup(steps=2500, batch=2)
    observed = []
    real = flow_mod.apply_condition_dropout

    def spy(p_g, p_l, p_lyrics, rng):
        flags = real(p_g, p_l, p_lyrics, rng)
        observed.append(flags[:2])
        return flags

    monkeypatch.setattr(flow_mod, "apply_condition_dropout", spy)
    train(system, dataset, cfg.train, tmp_path)
    flags = np.array(observed, dtype=float)
    assert flags.shape[0] == 2500 * 2
    assert abs(flags[:, 0].mean() - cfg.train.p_drop_global) <= 0.02
    assert abs(flags[:, 1].mean() - cfg.train.p_drop_segment) <= 0.02


# -----------------------------------------------------------------------------
# the train split: rows [ceil(B/2), B) of every step in a forked worker
# -----------------------------------------------------------------------------


def _train_bytes(tmp_path, batch, **overrides):
    """The checkpoint bytes and the (step, loss) log of a tiny 4-step run
    with a checkpoint every 2 steps."""
    cfg, system, dataset = _tiny_setup(steps=4, batch=batch)
    config = TrainConfig(**{**cfg.train.__dict__, "checkpoint_every": 2, **overrides})
    out = tmp_path / f"run-{len(list(tmp_path.iterdir()))}"
    out.mkdir()
    report = train(system, dataset, config, out)
    log = [(row["step"], row["loss"]) for row in map(json.loads, (out / "train_log.jsonl").open())]
    return {name: (out / name).read_bytes() for name in report.files[1:]}, log


@pytest.mark.parametrize("batch, clip", [(1, None), (2, None), (3, None), (8, None), (2, 1.1)])
def test_train_bytes_do_not_depend_on_the_cpu_count(tmp_path, cpus, batch, clip):
    forks = cpus(1)
    one = _train_bytes(tmp_path, batch, grad_clip_norm=clip)
    assert not forks
    forks = cpus(2)
    two = _train_bytes(tmp_path, batch, grad_clip_norm=clip)
    assert len(forks) == (batch > 1)  # one worker per train call; B = 1 starts none
    assert list(one[0]) == ["checkpoint-000002.json", "checkpoint.json"] and len(one[1]) == 4
    assert one == two
    no_child_left()


@pytest.mark.parametrize("fails", ["fork", "mmap"])
def test_a_failed_fork_or_mapping_trains_in_the_caller_to_the_same_bytes(
    tmp_path, cpus, monkeypatch, fails
):
    cpus(1)
    expected = _train_bytes(tmp_path, 3)
    forks = cpus(2)
    open_fds = len(os.listdir("/proc/self/fd"))

    def no_resource(*args):
        raise BlockingIOError(f"{fails}: nothing to spare")

    if fails == "fork":
        monkeypatch.setattr(os, "fork", no_resource)
    else:
        monkeypatch.setattr(mmap, "mmap", no_resource)
    assert _train_bytes(tmp_path, 3) == expected
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert not forks


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("half", ["caller", "worker"])
def test_a_non_finite_loss_in_either_half_aborts_with_no_child_left(tmp_path, cpus, n_cpus, half):
    """A 1e200-scaled example in the caller's rows (row 0) or the worker's
    (row 2 of 3) overflows that half's loss at step 1."""
    cfg, system, dataset = _tiny_setup(steps=3, batch=3)
    row = 0 if half == "caller" else 2
    draws = []

    class PoisonedDataset:
        def draw(self, rng, n):
            batch = list(dataset.draw(rng, n))
            draws.append(n)
            if len(draws) == 2:
                bad = batch[row]
                batch[row] = TrainExample("poison", bad.spec, bad.doc, bad.x1 * 1e200)
            return tuple(batch)

    forks = cpus(n_cpus)
    with pytest.raises(NumericAbort) as err:
        train(system, PoisonedDataset(), cfg.train, tmp_path)
    assert err.value.step == 1 and "loss is not finite" in str(err.value)
    assert err.value.batch_ids[row] == "poison"
    assert len(forks) == (n_cpus == 2)
    no_child_left()


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("half", ["caller", "worker"])
def test_a_non_finite_gradient_in_either_half_aborts_with_no_child_left(
    tmp_path, monkeypatch, cpus, n_cpus, half
):
    """An inf planted in one half's gradient at step 1 reaches the caller's
    guard through the sum, whichever process ran that half."""
    cfg, system, dataset = _tiny_setup(steps=4, batch=2)
    params = [t for _, t in system.named_parameters()]
    real_loss, real_backward = flow_mod.cfm_loss, flow_mod.backward
    planted = {"rows": None, "calls": 0}

    def recording_loss(*args, rows):
        planted["rows"] = rows
        return real_loss(*args, rows=rows)

    def planting_backward(loss):
        real_backward(loss)
        if (planted["rows"].start == 0) == (half == "caller"):
            planted["calls"] += 1
            if planted["calls"] == 2:
                params[-1].grad.reshape(-1)[0] = np.inf

    monkeypatch.setattr(flow_mod, "cfm_loss", recording_loss)
    monkeypatch.setattr(flow_mod, "backward", planting_backward)
    forks = cpus(n_cpus)
    with pytest.raises(NumericAbort) as err:
        train(system, dataset, cfg.train, tmp_path)
    assert err.value.step == 1 and "gradient is not finite" in str(err.value)
    assert len(forks) == (n_cpus == 2)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["train_log.jsonl"]
    no_child_left()


def test_a_train_worker_crash_is_a_runtime_error_not_a_hang(tmp_path, monkeypatch, cpus):
    """The worker's backward raises at step 2; the caller sees its pipe end
    and raises RuntimeError, with the worker reaped and no checkpoint
    written after it."""
    cfg, system, dataset = _tiny_setup(steps=4, batch=2)
    config = TrainConfig(**{**cfg.train.__dict__, "checkpoint_every": 1})
    caller, real_backward = os.getpid(), flow_mod.backward
    calls = []

    def fails_in_the_worker(loss):
        calls.append(1)
        if os.getpid() != caller and len(calls) == 3:
            raise ValueError("worker backward failed")
        real_backward(loss)

    monkeypatch.setattr(flow_mod, "backward", fails_in_the_worker)

    def hung(signum, frame):
        raise TimeoutError("train hung after the worker died")

    forks = cpus(2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        with pytest.raises(RuntimeError, match="worker"):
            train(system, dataset, config, tmp_path)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forks) == 1
    written = sorted(f.name for f in tmp_path.iterdir())
    assert written == ["checkpoint-000001.json", "checkpoint-000002.json", "train_log.jsonl"]
    no_child_left()
