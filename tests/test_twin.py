"""The two-process module: a Twin's exchange, and the lifecycle of the
token split's worker (no child left after a return, an abort or a crash; a
crash is a RuntimeError, not a hang; a failed fork or mapping falls back
with no fd leaked). Training's split has its own in test_flow.py."""

import mmap
import os
import signal

import numpy as np
import pytest

from conftest import no_child_left
from songflow.backbone import Block
from songflow.config import load_config
from songflow.errors import NumericAbort
from songflow.sampler import GuidanceConfig, build_condition_triple, euler_sample
from songflow.system import build_song_model
from songflow.twin import Twin, start
from test_sampler import _perturbed_system, _small_system, _spec_and_doc


def test_the_worker_serves_each_byte_once_through_the_mapping(cpus):
    """Each caller byte runs serve once in the worker, whose writes to the
    shared arrays the caller reads after its wait; start forks only when
    two CPUs are allowed."""
    forks = cpus(1)
    assert start(lambda: Twin([(1,)])) is None and not forks
    forks = cpus(2)
    twin = start(lambda: Twin([(2,), (3,)]))
    assert twin.arrays[0].tobytes() == bytes(16)
    inbox, outbox = twin.arrays

    def serve():
        outbox[...] = inbox.sum() + np.arange(3)

    twin.fork(serve)
    try:
        for k in range(3):
            inbox[...] = (k, 10.0)
            twin.signal()
            twin.wait()
            assert outbox.tolist() == [k + 10.0, k + 11.0, k + 12.0]
    finally:
        twin.close()
    assert len(forks) == 1
    no_child_left()


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
    no_child_left()


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
    no_child_left()
