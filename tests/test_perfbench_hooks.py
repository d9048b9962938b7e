"""The benchmark's tracer wraps songflow names by attribute lookup, so a
deleted or renamed hook would otherwise fail only under
`python3 perfbench/run.py --trace 1`. Installing it here fails tier-1 instead.
Tiny items of each workload run here too, so a songflow name that the
benchmark's inputs or gates call cannot change unseen."""

from pathlib import Path

import numpy as np
import pytest

from songflow import backbone
from songflow.backbone import ModelConfig, VelocityModel
from songflow.conditioning import ConditioningBundle
from songflow.tensor import Tensor, backward, concat_channels, mse, zero_grads

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_over_the_hooks_and_undoes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads  # noqa: F401  (its module-level imports name the workload hooks)

    forward = VelocityModel.forward
    rng = np.random.default_rng(0)
    model = VelocityModel(ModelConfig(n_blocks=1, model_width=8, n_heads=2, d_t=4), 4, 2, 2, rng)
    bundle = ConditioningBundle(Tensor(np.zeros((1, 3, 4))), Tensor(np.zeros((1, 3, 2))))
    tracer, patches = tracing.Tracer(), tracing.Patches()
    try:
        tracing.install_tracer(tracer, patches)
        model.forward(Tensor(np.zeros((1, 3, 2))), bundle, [0.5])
    finally:
        patches.undo()
    assert tracer.calls["backbone.forward"] == tracer.calls["backbone.block"] == 1
    assert tracer.calls["tensor.op.concat_channels"] == 1  # the input concat is traced
    assert VelocityModel.forward is forward and backbone.concat_channels is concat_channels


def _tiny_on_tape_model():
    rng = np.random.default_rng(1)
    model = VelocityModel(ModelConfig(n_blocks=1, model_width=8, n_heads=2, d_t=4), 4, 2, 2, rng)
    for _, p in model.named_parameters():  # the zero head would zero every upstream gradient
        p.data += 0.1 * rng.standard_normal(p.data.shape)
    bundle = ConditioningBundle(Tensor(rng.standard_normal((2, 5, 4))),
                                Tensor(rng.standard_normal((2, 5, 2))))
    x_t, target = Tensor(rng.standard_normal((2, 5, 2))), Tensor(rng.standard_normal((2, 5, 2)))
    return model, lambda: mse(model.forward(x_t, bundle, [0.25, 0.75]), target)


def test_traced_backward_runs_every_wrapped_vjp(monkeypatch):
    """The tracer wraps each vjp when the op is recorded; backward must call
    exactly those wrappers, one per tape node, and give the same gradients."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    model, build_loss = _tiny_on_tape_model()
    params = [p for _, p in model.named_parameters()]
    backward(build_loss())
    untraced = [p.grad.copy() for p in params]
    zero_grads(params)
    tracer, patches = tracing.Tracer(), tracing.Patches()
    try:
        tracing.install_tracer(tracer, patches)
        backward(build_loss())
    finally:
        patches.undo()
    vjp_calls = {name: n for name, n in tracer.calls.items() if name.startswith("tensor.vjp.")}
    assert vjp_calls["tensor.vjp.matmul"] > 0 and vjp_calls["tensor.vjp.attention"] == 1
    assert sum(vjp_calls.values()) == tracer.counts["tape_nodes"] > 0
    assert all(np.array_equal(p.grad, g) for p, g in zip(params, untraced))


def test_benchmark_train_items_pass_their_checks(monkeypatch, tmp_path):
    """Two tiny train-t64 items, in-process: the step hooks on
    `SyntheticDataset.draw` and `flow.adam_step`, the loss gates and the
    byte-exact reload of the final checkpoint all hold."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.TrainWorkload(3, tmp_path, tiny=True)
    run = workloads.Run()
    try:  # TrainWorkload installs its timing hooks when it is made
        workload.setup()
        workload.item(run)
        workload.item(run)
    finally:
        workload.close()
    assert run.errors == [] and run.failed == 0
    assert run.items == 2 * workload.steps


@pytest.mark.parametrize("name", ["generate-t256", "curate-10k"])
def test_benchmark_generate_and_curate_items_pass_their_checks(monkeypatch, tmp_path, name):
    """Two tiny items and `finish`, in-process: the input builders in
    `inputs.py` (prompts through `sample_prompt`, shard manifests through
    `RecordManifest` and `write_manifest`), the generate gate's repeat and
    `eval --workers` report check, and every curate stage's planted
    outcomes all hold."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.WORKLOADS[name](3, tmp_path, tiny=True)
    run = workloads.Run()
    try:
        workload.setup()
        workload.item(run)
        workload.item(run)
        workload.finish(run)
    finally:
        workload.close()
    assert run.errors == [] and run.failed == 0
