"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

They use tiny configs, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import inputs  # noqa: E402
from tracing import PER_LAYER, Patches, Tracer, install_tracer  # noqa: E402
from workloads import Run, TrainWorkload  # noqa: E402

COUNTS = (
    "tensor.tape_nodes_per_item",
    "tensor.op_calls_per_item",
    "backbone.forward_calls_per_item",
    "conditioning.projection_calls_per_item",
)


def _bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_smoke_run(workload):
    code, out = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0", "--tiny")
    result = _result(out)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert [*result["metrics"]] == [name for name, _, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracing_does_not_change_training(tmp_path):
    workload = TrainWorkload(seed=9, work=tmp_path, tiny=True)
    try:
        workload.setup()
        plain = Run()
        workload.loop(0.0, plain)
        untraced = workload.last_losses
        tracer, patches = Tracer(), Patches()
        install_tracer(tracer, patches)
        try:
            traced = Run()
            workload.loop(0.0, traced)
        finally:
            patches.undo()
    finally:
        workload.close()
    assert tracer.counts["tape_nodes"] > 0
    assert workload.last_losses == untraced
    assert plain.failed == traced.failed == 0


def test_counts_repeat_exactly_across_traced_runs():
    first = {}
    for seconds in ("1", "2"):
        code, out = _bench("--workload", "train-t64", "--seed", "4", "--seconds", seconds,
                           "--trace", "1", "--tiny")
        metrics = _result(out)["metrics"]
        assert code == 0
        counts = {name: metrics[name]["value"] for name in COUNTS}
        assert counts == (first or counts)
        first = counts
    code, out = _bench("--workload", "generate-t256", "--seed", "4", "--seconds", "1", "--trace", "1", "--tiny")
    metrics = _result(out)["metrics"]
    assert metrics["backbone.forward_calls_per_item"]["value"] == 3 * 4  # 3 branches x 4 tiny steps
    assert metrics["tensor.tape_nodes_per_item"]["value"] == 0


def test_manifest_is_a_function_of_the_seed(tmp_path):
    paths = []
    for name in ("a", "b"):
        manifest = inputs.generate_manifest(12, n_records=200, scale=0.02)
        manifest.write(tmp_path / f"{name}.jsonl", tmp_path / f"{name}-scores.jsonl")
        paths.append(tmp_path / f"{name}.jsonl")
    assert paths[0].read_bytes() == paths[1].read_bytes()
    other = inputs.generate_manifest(13, n_records=200, scale=0.02)
    other.write(tmp_path / "c.jsonl", tmp_path / "c-scores.jsonl")
    assert (tmp_path / "c.jsonl").read_bytes() != paths[0].read_bytes()


def test_edit_gate_work_is_the_same_on_every_seed():
    cells = inputs.SONG_PAIRS * 1500 * 1400 + inputs.VERSE_PAIRS * 160 * 150
    shards = [inputs.generate_manifest(1, 0), inputs.generate_manifest(1, 3), inputs.generate_manifest(2, 0)]
    assert [m.gate_cells for m in shards] == [cells] * 3


def test_tail_level_keeps_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 401)]
    assert run.tail(values) == (300.25, 75.0)
    value, level = run.tail(values[:30])
    assert level == 66 and sum(v > value for v in values[:30]) >= 10
    assert run.tail(values[:19])[1] == 50


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, out = _bench("--workload", "train-t64", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in out.splitlines())
