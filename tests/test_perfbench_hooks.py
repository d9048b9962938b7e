"""The benchmark's tracer wraps songflow names by attribute lookup, so a
deleted or renamed hook would otherwise fail only under
`python3 perfbench/run.py --trace 1`. Installing it here fails tier-1 instead."""

from pathlib import Path

import numpy as np

from songflow import backbone
from songflow.backbone import ModelConfig, VelocityModel
from songflow.conditioning import ConditioningBundle, ConditionRow, PromptSpec
from songflow.tensor import Tensor, concat_channels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_over_the_hooks_and_undoes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads  # noqa: F401  (its module-level imports name the workload hooks)

    forward = VelocityModel.forward
    rng = np.random.default_rng(0)
    model = VelocityModel(ModelConfig(n_blocks=1, model_width=8, n_heads=2, d_t=4), 4, 2, 2, rng)
    bundle = ConditioningBundle(Tensor(np.zeros((1, 3, 4))), Tensor(np.zeros((1, 3, 2))),
                                (ConditionRow(PromptSpec("g")),))
    tracer, patches = tracing.Tracer(), tracing.Patches()
    try:
        tracing.install_tracer(tracer, patches)
        model.forward(Tensor(np.zeros((1, 3, 2))), bundle, [0.5])
    finally:
        patches.undo()
    assert tracer.calls["backbone.forward"] == tracer.calls["backbone.block"] == 1
    assert tracer.calls["tensor.op.concat_channels"] == 1  # the input concat is traced
    assert VelocityModel.forward is forward and backbone.concat_channels is concat_channels
