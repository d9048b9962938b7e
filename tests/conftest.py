"""Shared oracles: central finite differences and a brute-force per-frame
reference for prompt broadcasting."""

import os

import numpy as np
import pytest

from songflow.lrc import time_to_frame
from songflow.tensor import Tensor, backward, zero_grads


def fd_max_rel_error(build_loss, params, h=1e-4):
    """Worst relative error between backward() gradients and central finite
    differences of build_loss() over every entry of every param.

    Relative error uses max(1, |analytic|, |numeric|) as the scale so
    near-zero gradients are compared absolutely.
    """
    zero_grads(params)
    backward(build_loss())
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(build_loss().data)
            flat[i] = orig - h
            down = float(build_loss().data)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            err = abs(numeric - gflat[i]) / max(1.0, abs(numeric), abs(gflat[i]))
            worst = max(worst, err)
    return worst


def random_tensor(rng, shape, requires_grad=True):
    return Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=requires_grad)


def brute_force_text_embedding(spec, T, f_g, f_l, out_proj, frame_rate):
    """Per-frame reference for prompt broadcasting: every frame's row is
    decided independently by window membership (later segments would win,
    but specs are validated non-overlapping), then the same projection runs
    on the assembled matrix."""
    dg, dl = f_g.dimension, f_l.dimension
    e_cat = np.zeros((T, dg + dl))
    windows = [
        (time_to_frame(s.t_s, frame_rate), time_to_frame(s.t_e, frame_rate), s.text)
        for s in spec.segments
    ]
    for f in range(T):
        e_cat[f, :dg] = f_g.vector(spec.global_text)
        row = np.zeros(dl)
        for js, je, text in windows:
            if js <= f < je:
                row = f_l.vector(text)
        e_cat[f, dg:] = row
    return out_proj(Tensor(e_cat)).data


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count that `twin.start` sees; returns the list of fork calls."""
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


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# The pid of the test session. A forked copy that returns into a test must
# not go on to run the rest of the session, which would exit 0 on its own.
_SESSION_PID = os.getpid()


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped,
    and end a forked copy of the session that reaches a test's teardown."""
    yield
    if os.getpid() != _SESSION_PID:
        os._exit(1)
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test: waitpid(-1, WNOHANG) gave {left}")
