"""songflow benchmark.

    python3 perfbench/run.py --workload train-t64 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a songflow checkout; the program is imported from
`src/`. Each workload runs in its own process with one BLAS thread. The last
line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, the end-to-end metrics with `--trace 0` and the
per-layer metrics with `--trace 1`. End-to-end times and rates are scaled
to a reference host speed by a probe loop timed during the run (see
`workloads.Placement`). A traced run first measures a third of
its time untraced, then installs the wrappers in `tracing.py` for the rest and
reports the difference as `trace.overhead_pct`. Each run also writes a
record (environment, tail level and sample counts, every metric) and, when
traced, its spans under `.perfbench/` in the checkout.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
# The probe loop's typical time (`workloads.probe_s`) on the host the README
# figures come from; every end-to-end time is scaled to a host that runs it
# this fast.
REFERENCE_PROBE_MS = 1.9
COLD_START_REPEATS = 7  # one start in three or four can take twice as long on a shared host

WORKLOAD_NAMES = ("train-t64", "generate-t256", "curate-10k")

# (name, unit, better); bounds live in BENCHMARK.json.
END_TO_END = (
    ("latency_ms_mean", "ms", "lower"),
    ("latency_ms_tail", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)

# What the generic end-to-end names mean on each workload.
ALIASES = {
    "train-t64": {"latency_ms_mean": "train_step_ms_mean", "latency_ms_tail": "train_step_ms_tail",
                  "throughput_per_s": "train_examples_per_s"},
    "generate-t256": {"latency_ms_mean": "generate_ms_mean", "latency_ms_tail": "generate_ms_tail",
                      "throughput_per_s": "generate_requests_per_s"},
    "curate-10k": {"latency_ms_mean": "curate_pass_ms_mean", "latency_ms_tail": "curate_pass_ms_tail",
                   "throughput_per_s": "curate_records_per_s"},
}


TAIL_CAP = 75.0  # above p75, slow spells of a shared host dominate the run-to-run spread


def tail(values: list[float]) -> tuple[float, float]:
    """(value, level): the highest whole percentile up to TAIL_CAP with at
    least ten samples beyond it, never below the median."""
    n = len(values)
    level = min(TAIL_CAP, max(50.0, math.floor(100.0 * (1.0 - 10.0 / n)))) if n >= 20 else 50.0
    return float(np.percentile(values, level)), level


def median(values: list[float]) -> float:
    """0 when nothing was measured, as when every item failed."""
    return statistics.median(values) if values else 0.0


def environment(args, config) -> dict:
    commit, dirty = None, None
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
            dirty = bool(subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
                                        capture_output=True, text=True, timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": commit,
        "src_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python_threads": threading.active_count(),
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "config": dataclasses.asdict(config),
    }


def cold_start_s() -> float:
    """Wall time of a fresh interpreter importing the CLI, as `songflow` pays on every run."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import songflow.cli"], env=env, check=True, timeout=120)
    return perf_counter() - t0


def run_workload(args) -> dict:
    sys.path[:0] = [str(SRC), str(HERE)]
    from songflow.config import load_config
    from tracing import PER_LAYER, Patches, Tracer, install_tracer, layer_metrics
    from workloads import Run, WORKLOADS

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    workload = WORKLOADS[args.workload](args.seed, work, args.tiny)
    try:
        cold_starts = [cold_start_s() for _ in range(COLD_START_REPEATS)]
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            workload.setup()
            setups.append(perf_counter() - t0)
        config = load_config(workload.config_path)
        # The benchmark's own inputs and plants (the whole curate manifest)
        # are no part of the program's heap: keep them out of its collections.
        gc.collect()
        gc.freeze()

        untraced, traced, tracer = Run(), Run(), None
        if args.trace:
            workload.loop(args.seconds / 3.0, untraced)
            tracer, patches = Tracer(), Patches()
            install_tracer(tracer, patches)
            try:
                workload.loop(args.seconds * 2.0 / 3.0, traced)
            finally:
                patches.undo()
            measured = traced
        else:
            workload.loop(args.seconds, untraced)
            measured = untraced
        workload.finish(measured)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    errors = untraced.errors + traced.errors
    details = {
        "environment": environment(args, config),
        "errors": errors,
        "setup_s_samples": setups,
        "latency_ms_samples": measured.latencies_ms,
        "cold_start_s_samples": cold_starts,
        "probe_ms_samples": workload.placement.probe_ms,
    }
    if args.trace:
        p50_off, p50_on = median(untraced.latencies_ms), median(traced.latencies_ms)
        metrics = layer_metrics(tracer, traced.items, traced.items if workload.name == "train-t64" else 0,
                                traced.items if workload.name == "generate-t256" else 0)
        metrics.update(workload.layer_metrics())
        metrics["trace.overhead_pct"] = 100.0 * (p50_on / p50_off - 1.0) if p50_off else 0.0
        details.update({"untraced_p50_ms": p50_off, "traced_p50_ms": p50_on,
                        "untraced_items": untraced.items, "traced_items": traced.items})
        units = {name: unit for name, unit, _ in PER_LAYER}
        missing = set(units) - set(metrics)
        metrics.update({name: 0.0 for name in missing})
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        details["spans"] = str(spans_path.relative_to(ROOT))
    else:
        tail_ms, level = tail(measured.latencies_ms) if measured.latencies_ms else (0.0, 50.0)
        wall = {
            # The mean, not the median: item times are bimodal on a shared
            # host, and the median jumps between the two modes.
            "latency_ms_mean": statistics.fmean(measured.latencies_ms) if measured.latencies_ms else 0.0,
            "latency_ms_tail": tail_ms,
            "throughput_per_s": measured.work / measured.busy_s if measured.busy_s else 0.0,
            "setup_s": statistics.median(cold_starts) + statistics.median(setups),
        }
        # A slow host slows the probe and the program alike; the probe's mean
        # over the run measures it, so times are scaled by
        # REFERENCE_PROBE_MS / that mean (the mean for the same reason).
        scale = REFERENCE_PROBE_MS / statistics.fmean(workload.placement.probe_ms)
        metrics = {name: value / scale if name == "throughput_per_s" else value * scale
                   for name, value in wall.items()}
        metrics.update({
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - failed / attempted,
        })
        units = {name: unit for name, unit, _ in END_TO_END}
        details.update({"wall_clock": wall, "speed_scale": scale,
                        "tail_level": level, "samples": len(measured.latencies_ms),
                        "items": measured.items, "work": measured.work,
                        "work_unit": workload.unit_of_work,
                        "aliases": ALIASES[workload.name]})
        details.update(workload.layer_metrics())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    record = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, "details": details}, indent=1), encoding="utf-8")
    return result, details


def print_table(workload: str, result: dict) -> None:
    aliases = ALIASES.get(workload, {})
    print(f"[{workload}] correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        alias = f" ({aliases[name]})" if name in aliases else ""
        print(f"  {name}{alias}: {m['value']:.6g} {m['unit']}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny configs, for smoke tests of the benchmark")
    args = parser.parse_args(argv)
    if not (SRC / "songflow" / "__init__.py").is_file():
        print(f"error: {SRC / 'songflow'} not found; run from a songflow checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, details = run_workload(args)
    print("env: " + json.dumps(details["environment"], sort_keys=True))
    print("details: " + json.dumps({k: v for k, v in details.items() if k != "environment"}))
    print_table(args.workload, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
