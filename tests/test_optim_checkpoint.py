import base64
import builtins
import json

import numpy as np
import pytest

import songflow.checkpoint as checkpoint
import songflow.cli as cli
from songflow.checkpoint import load_into, load_params, save_params
from songflow.errors import ContractError, ValidationError
from songflow.optim import adam_init, adam_step
from songflow.tensor import Tensor, backward, mse


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
        state.grads.fill(0.0)
        backward(mse(w, target))  # f(w) = (w - 3)^2
        adam_step([w], state)
    assert abs(float(w.data[0]) - 3.0) < 0.05


def test_step_counter_increases_and_grads_untouched():
    w = Tensor([1.0, 2.0], requires_grad=True)
    state = adam_init([w], learning_rate=0.01)
    w.grad[...] = [0.5, -0.5]
    g = w.grad.copy()
    for expected in (1, 2, 3):
        adam_step([w], state)
        assert state.step == expected
    assert np.array_equal(w.grad, g)
    assert state.m.shape == state.v.shape == (w.data.size,)


def test_flat_adam_equals_a_per_parameter_update_bit_for_bit():
    """Five steps on mixed shapes, a 0-d and a 1-element parameter among
    them, against the per-parameter loop the flat update replaces."""
    rng = np.random.default_rng(7)
    shapes = [(3, 4), (), (1,), (5,), (2, 3), (7, 1)]
    params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    ref = [p.data.copy() for p in params]
    ref_m = [np.zeros_like(r) for r in ref]
    ref_v = [np.zeros_like(r) for r in ref]
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    state = adam_init(params, learning_rate=lr)
    for step in range(1, 6):
        grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
        for p, g in zip(params, grads):
            p.grad[...] = g
        adam_step(params, state)
        bc1, bc2 = 1.0 - b1**step, 1.0 - b2**step
        for r, m, v, g in zip(ref, ref_m, ref_v, grads):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            r -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        start = 0
        for p, r, m, v, g in zip(params, ref, ref_m, ref_v, grads):
            stop = start + r.size
            assert p.data.shape == r.shape and p.data.tobytes() == r.tobytes()
            assert state.m[start:stop].tobytes() == m.tobytes()
            assert state.v[start:stop].tobytes() == v.tobytes()
            assert np.array_equal(p.grad, g)  # gradients untouched
            start = stop
    assert start == state.m.size == state.v.size


@pytest.mark.parametrize("field", ["grad", "data"])
def test_adam_step_refuses_a_parameter_that_left_the_layout(field):
    """A rebound array would be skipped silently by the flat update."""
    params = [Tensor([1.0, 2.0], requires_grad=True), Tensor([3.0], requires_grad=True)]
    state = adam_init(params, learning_rate=0.1)
    state.grads[...] = 1.0
    before = state.values.copy()
    setattr(params[1], field, np.array([0.5]))
    with pytest.raises(ContractError, match="flat layout"):
        adam_step(params, state)
    assert state.step == 0 and np.array_equal(state.values, before)


def test_checkpoint_roundtrip_is_value_exact(tmp_path, rng):
    named = [
        ("layer.w", Tensor(rng.standard_normal((7, 3)))),
        ("layer.b", Tensor(rng.standard_normal(3) * 1e-17)),
        ("scalarish", Tensor(np.array([np.pi, np.e, 2.0**-1040]))),
        ("edges", Tensor(np.array([-0.0, 2.0**-1074, 1.79e308, -1.79e308, 0.0]))),
        ("empty", Tensor(np.zeros((0,)))),
        ("transposed", Tensor(rng.standard_normal((4, 5)).T)),  # not C-contiguous
    ]
    path = tmp_path / "ckpt.json"
    save_params(named, path)
    loaded = load_params(path)
    assert [name for name, _ in loaded] == [name for name, _ in named]
    for (_, tensor), (_, arr) in zip(named, loaded):
        assert arr.shape == tensor.data.shape and arr.dtype == np.float64
        assert arr.tobytes() == tensor.data.tobytes()  # bit-exact, -0.0 included
        assert arr.flags.writeable


def test_checkpoint_v2_layout(tmp_path):
    """Each record is {name, shape, f64le}: base64 of little-endian float64."""
    path = tmp_path / "ckpt.json"
    save_params([("w", Tensor(np.array([[1.0, -0.0], [2.0**-1074, 3.5]])))], path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["format"] == checkpoint.FORMAT == "songflow-params-v2"
    (rec,) = payload["params"]
    assert set(rec) == {"name", "shape", "f64le"} and rec["shape"] == [2, 2]
    expected = np.array([1.0, -0.0, 2.0**-1074, 3.5], dtype="<f8").tobytes()
    assert base64.b64decode(rec["f64le"], validate=True) == expected


@pytest.mark.parametrize(
    "record, message",
    [
        ({"name": "a", "shape": [-2], "f64le": ""}, r"params\[0\].shape has a negative size"),
        ({"name": "a", "shape": [2], "values": [1.0, 2.0]}, r"params\[0\] has unknown keys"),
        ({"name": "a", "shape": [2]}, r"params\[0\] is missing keys \['f64le'\]"),
        ({"name": "a", "shape": [2.0], "f64le": ""}, r"params\[0\].shape must be list\[int\]"),
        ([1.0, 2.0], r"params\[0\] must be an object, got list"),
    ],
    ids=["record0-shape", "record1-f64le", "record2-record 0", "record3-missing", "record4-float"],
)
def test_load_params_rejects_malformed_records(tmp_path, record, message):
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps({"format": checkpoint.FORMAT, "params": [record]}), encoding="utf-8")
    with pytest.raises(ValidationError, match=message):
        load_params(path)


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


def _save_checkpoint(path):
    save_params([("a", Tensor([1.0, 2.0]))], path)


def _save_latent(path):
    cli._write_latent(path, np.arange(6.0).reshape(3, 2))


def _save_eval_report(path):
    code = cli.main(["eval", "--out-dir", str(path.parent)])
    if code == cli.EXIT_DATA:  # main reports the OSError as a data error
        raise OSError("eval could not write its report")
    assert code == cli.EXIT_OK


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    """A write that fails midway (say, a full disk) leaves the previous
    artifact byte-identical and no temp file behind: a checkpoint, a latent
    and an eval report."""

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    for name, save in [("checkpoint.json", _save_checkpoint), ("latent.json", _save_latent),
                       ("report.json", _save_eval_report)]:
        path = tmp_path / name.split(".")[0] / name
        path.parent.mkdir()
        save(path)
        before = path.read_bytes()
        listing = sorted(p.name for p in path.parent.iterdir())
        with monkeypatch.context() as patch:
            patch.setattr(checkpoint, "open", lambda *a, **k: FullDisk(builtins.open(*a, **k)),
                          raising=False)
            with pytest.raises(OSError):
                save(path)
        assert path.read_bytes() == before, name
        assert sorted(p.name for p in path.parent.iterdir()) == listing, name
