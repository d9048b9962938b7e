import builtins

import numpy as np
import pytest

import songflow.checkpoint as checkpoint
from songflow.checkpoint import load_into, load_params, save_params
from songflow.errors import ContractError, ValidationError
from songflow.optim import adam_init, adam_step, clip_grad_norm
from songflow.tensor import Tensor, backward, mse, zero_grads


def test_zero_gradient_is_a_fixed_point():
    w = Tensor([1.0, -2.0], requires_grad=True)
    w.grad = np.zeros(2)
    state = adam_init([w], learning_rate=0.1)
    before = w.data.copy()
    adam_step([w], state)
    assert np.array_equal(w.data, before)
    assert state.step == 1


def test_one_step_descends_on_quadratic():
    w = Tensor([1.0], requires_grad=True)
    state = adam_init([w], learning_rate=0.1)
    backward(mse(w, Tensor([0.0])))  # f(w) = w^2
    adam_step([w], state)
    assert abs(float(w.data[0])) < 1.0


def test_converges_to_quadratic_minimum():
    w = Tensor([1.0], requires_grad=True)
    target = Tensor([3.0])
    state = adam_init([w], learning_rate=0.1)
    for _ in range(500):
        zero_grads([w])
        backward(mse(w, target))  # f(w) = (w - 3)^2
        adam_step([w], state)
    assert abs(float(w.data[0]) - 3.0) < 0.05


def test_missing_grad_is_contract_error():
    w = Tensor([1.0], requires_grad=True)
    state = adam_init([w], learning_rate=0.1)
    with pytest.raises(ContractError):
        adam_step([w], state)


def test_step_counter_increases_and_grads_untouched():
    w = Tensor([1.0, 2.0], requires_grad=True)
    state = adam_init([w], learning_rate=0.01)
    w.grad = np.array([0.5, -0.5])
    g = w.grad.copy()
    for expected in (1, 2, 3):
        adam_step([w], state)
        assert state.step == expected
    assert np.array_equal(w.grad, g)
    assert state.m[0].shape == w.data.shape and state.v[0].shape == w.data.shape


def test_clip_grad_norm_scales_jointly():
    a = Tensor([3.0], requires_grad=True)
    b = Tensor([4.0], requires_grad=True)
    a.grad, b.grad = np.array([3.0]), np.array([4.0])
    norm = clip_grad_norm([a, b], max_norm=1.0)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(float(a.grad[0] ** 2 + b.grad[0] ** 2))
    assert total == pytest.approx(1.0)


def test_checkpoint_roundtrip_is_value_exact(tmp_path, rng):
    named = [
        ("layer.w", Tensor(rng.standard_normal((7, 3)))),
        ("layer.b", Tensor(rng.standard_normal(3) * 1e-17)),
        ("scalarish", Tensor(np.array([np.pi, np.e, 2.0**-1040]))),
    ]
    path = tmp_path / "ckpt.json"
    save_params(named, path)
    loaded = load_params(path)
    assert [name for name, _ in loaded] == [name for name, _ in named]
    for (_, tensor), (_, arr) in zip(named, loaded):
        assert arr.shape == tensor.data.shape
        assert np.array_equal(arr, tensor.data)  # bit-exact for float64


def test_load_into_checks_names_and_shapes(tmp_path):
    path = tmp_path / "ckpt.json"
    save_params([("a", Tensor([1.0, 2.0]))], path)
    with pytest.raises(ValidationError):
        load_into([("b", Tensor([0.0, 0.0]))], path)
    with pytest.raises(ValidationError):
        load_into([("a", Tensor([0.0]))], path)
    target = Tensor([0.0, 0.0])
    load_into([("a", target)], path)
    assert target.data.tolist() == [1.0, 2.0]


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    """A write that fails midway (say, a full disk) leaves the previous
    checkpoint.json byte-identical and no temp file behind."""
    path = tmp_path / "checkpoint.json"
    save_params([("a", Tensor([1.0, 2.0]))], path)
    before = path.read_bytes()

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(checkpoint, "open", lambda *a, **k: FullDisk(builtins.open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError):
        save_params([("a", Tensor([3.0, 4.0]))], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]
