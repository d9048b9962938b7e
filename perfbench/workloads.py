"""The three closed-loop workloads: set-up, the measured loop, and the
correctness gates.

One client drives the program from outside: through `songflow.cli.main`
in-process where a command exists, and through public functions where none
does (the lyric edit gate). Each workload repeats whole items (a `train`
invocation, a `generate` request, a curate pass over one shard) until its
time budget is spent, so every phase covers whole items and per-item counts
repeat exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import songflow.cli as cli
import songflow.flow as flow
import songflow.pipeline as pipeline
from songflow.checkpoint import load_params
from songflow.config import load_config
from songflow.evaluate import validate_report
from songflow.lrc import parse_lrc
from songflow.synthetic import SyntheticDataset
from songflow.system import build_song_model

from inputs import DPO_MIN_DIFF, generate_prompts, generate_shards
from tracing import STAGES, Patches

# Model size for smoke runs of the benchmark itself; the real workloads use
# the default config.
TINY_MODEL = {
    "model": {"n_blocks": 1, "model_width": 8, "n_heads": 2, "d_t": 4},
    "conditioning": {"d_global": 4, "d_segment": 4, "d_text": 4, "d_lyrics": 4},
}


@dataclass
class Run:
    """What one phase of a workload measured and checked."""

    latencies_ms: list[float] = field(default_factory=list)
    work: int = 0  # examples, requests or records processed
    busy_s: float = 0.0  # wall time that work took
    items: int = 0  # train steps, generate requests or curate shard passes
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, attempted: int, failed: int, errors: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.errors += errors[: max(0, 20 - len(self.errors))]


def probe_s(cpu: int | None = None) -> float:
    """Time of a fixed ~2 ms interpreter loop, the better of two, on `cpu`
    if given (which then becomes this thread's only CPU)."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    best = math.inf
    for _ in range(2):
        t0 = perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        best = min(best, perf_counter() - t0)
    return best


class Placement:
    """Host speed probes, and the move of this thread to the fastest CPU.

    On a shared host the same code runs up to ~40% slower for seconds to
    minutes at a time: another tenant's load on a CPU's sibling hyperthread
    slows that CPU alone, and the whole host drifts too. `pick`, at most once
    a second between items or train steps, probes every allowed CPU, moves
    this thread to the fastest and records that CPU's probe time, from which
    `run.py` scales the run's times to a reference host speed. The thread
    is not pinned: the full CPU set is restored at once, so threads and
    processes the program starts may use every CPU. `spent_s` is the probing
    time to leave out of busy time."""

    every_s = 1.0

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        self.last = -math.inf
        self.spent_s = 0.0
        self.probe_ms: list[float] = []  # the chosen CPU's probe time at each pick

    def pick(self) -> None:
        t0 = perf_counter()
        if t0 - self.last < self.every_s:
            return
        if self.cpus:
            seconds, cpu = min((probe_s(cpu), cpu) for cpu in self.cpus)
            os.sched_setaffinity(0, {cpu})
            os.sched_setaffinity(0, self.cpus)
        else:
            seconds = probe_s()
        self.probe_ms.append(seconds * 1000.0)
        self.last = perf_counter()
        self.spent_s += self.last - t0


class Workload:
    """Repeats whole items until a phase's time is spent; subclasses define
    `setup` (timed, repeated) and `item` (one measured item), and may check
    more in `finish` and undo hooks in `close`."""

    placement: Placement

    def loop(self, seconds: float, run: Run) -> None:
        started = perf_counter()
        while True:
            self.placement.pick()
            self.item(run)
            if perf_counter() - started >= seconds:
                return

    def finish(self, run: Run) -> None:
        pass

    def close(self) -> None:
        pass


def _cli(*argv: str) -> int:
    """`songflow <argv>` in-process, its progress line kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# -----------------------------------------------------------------------------
# train-t64
# -----------------------------------------------------------------------------


class TrainWorkload(Workload):
    """`songflow train` on the default config (T=64, batch 8), 100 steps per
    invocation with a checkpoint every 25. Step time runs from the batch draw
    to the end of the Adam update, taken by hooks around
    `SyntheticDataset.draw` and `songflow.flow.adam_step`."""

    name = "train-t64"
    unit_of_work = "examples"

    def __init__(self, seed: int, work: Path, tiny: bool):
        self.seed, self.work, self.tiny = seed, work, tiny
        self.placement = Placement()
        self.steps = 40 if tiny else 100
        self.checkpoint_every = 10 if tiny else 25
        self.config: dict = {
            "seed": seed,
            "train": {"steps": self.steps, "checkpoint_every": self.checkpoint_every},
        }
        if tiny:
            self.config.update(TINY_MODEL)
            self.config["task"] = {"T": 12, "d_audio": 2, "min_width": 4}
            self.config["train"].update({"batch_size": 2, "learning_rate": 0.01})
        self.config_path = work / "train.json"
        self.first_losses: list[float] | None = None
        self.last_losses: list[float] | None = None
        self.invocations = 0
        self._hooks = Patches()
        self._step_start = 0.0
        self._step_ms: list[float] = []
        self._system = None
        self._install_hooks()

    def setup(self) -> None:
        _write_json(self.config_path, self.config)
        cfg = load_config(self.config_path)
        build_song_model(cfg, trainable=True)
        SyntheticDataset(cfg.task_spec(), max_segments=cfg.task.max_segments,
                         min_width=cfg.task.min_width)
        self.batch_size = cfg.train.batch_size

    def _install_hooks(self) -> None:
        draw, adam, build = SyntheticDataset.draw, flow.adam_step, cli.build_song_model

        def timed_draw(dataset, rng, n):
            self.placement.pick()
            self._step_start = perf_counter()
            return draw(dataset, rng, n)

        def timed_adam(params, state):
            adam(params, state)
            self._step_ms.append((perf_counter() - self._step_start) * 1000.0)

        def capture(cfg, trainable=True):
            self._system = build(cfg, trainable=trainable)
            return self._system

        self._hooks.set(SyntheticDataset, "draw", timed_draw)
        self._hooks.set(flow, "adam_step", timed_adam)
        self._hooks.set(cli, "build_song_model", capture)

    def close(self) -> None:
        self._hooks.undo()

    def item(self, run: Run) -> None:
        out = self.work / f"train-{self.invocations}"
        self.invocations += 1
        self._step_ms = []
        probing = self.placement.spent_s
        t0 = perf_counter()
        code = _cli("train", "--config", str(self.config_path), "--out-dir", str(out))
        wall = perf_counter() - t0 - (self.placement.spent_s - probing)
        errors = [f"train exited {code}"] if code != 0 else self._check(out)
        shutil.rmtree(out, ignore_errors=True)
        run.latencies_ms += self._step_ms
        run.items += len(self._step_ms)
        run.work += len(self._step_ms) * self.batch_size
        run.busy_s += wall
        run.record(self.steps, self.steps if errors else 0, errors)

    def _check(self, out: Path) -> list[str]:
        errors = []
        log = (out / "train_log.jsonl").read_text(encoding="utf-8").splitlines()
        losses = [json.loads(line)["loss"] for line in log]
        if len(losses) != self.steps or len(self._step_ms) != self.steps:
            errors.append(f"{len(losses)} logged and {len(self._step_ms)} timed steps, expected {self.steps}")
        if not all(math.isfinite(x) for x in losses):
            errors.append("a training loss is not finite")
        k = min(50, len(losses) // 2)
        if k and not np.mean(losses[-k:]) < np.mean(losses[:k]):
            errors.append("smoothed last loss is not below the first")
        self.last_losses = losses
        if self.first_losses is None:
            self.first_losses = losses
        elif losses != self.first_losses:
            errors.append("loss sequence differs from the first invocation at the same seed")
        periodic = len(list(out.glob("checkpoint-*.json")))
        if periodic != (self.steps - 1) // self.checkpoint_every:
            errors.append(f"{periodic} periodic checkpoints")
        loaded = load_params(out / "checkpoint.json")
        live = self._system.named_parameters()
        if [n for n, _ in loaded] != [n for n, _ in live] or any(
            a.tobytes() != t.data.tobytes() for (_, a), (_, t) in zip(loaded, live)
        ):
            errors.append("final checkpoint does not reload value-exact")
        return errors

    def layer_metrics(self) -> dict[str, float]:
        k = min(50, len(self.first_losses or []))
        return {"train.loss_final": float(np.mean(self.first_losses[-k:])) if k else 0.0}


# -----------------------------------------------------------------------------
# generate-t256
# -----------------------------------------------------------------------------


class GenerateWorkload(Workload):
    """`songflow generate` requests one after another: 64 s prompts at 4 Hz
    (T=256), 32 Euler steps x 3 guidance branches, each request loading a
    checkpoint whose head the benchmark seeded non-zero."""

    name = "generate-t256"
    unit_of_work = "requests"
    n_prompts = 4

    def __init__(self, seed: int, work: Path, tiny: bool):
        self.seed, self.work, self.tiny = seed, work, tiny
        self.placement = Placement()
        self.T = 16 if tiny else 256
        self.config: dict = {"seed": seed, "task": {"T": self.T}}
        if tiny:
            self.config.update(TINY_MODEL)
            self.config["task"].update({"d_audio": 2})
            self.config["guidance"] = {"steps": 4}
        self.config_path = work / "generate.json"
        self.checkpoint = work / "generate-checkpoint.json"
        self.requests = 0
        self.kept: list[tuple[Path, Path]] = []  # (latent, prompt) of the first requests
        self.eval_ms_per_latent = 0.0

    def setup(self) -> None:
        _write_json(self.config_path, self.config)
        cfg = load_config(self.config_path)
        self.steps = cfg.guidance.steps
        self.d_audio = cfg.task.d_audio
        system = build_song_model(cfg, trainable=False)
        rng = np.random.default_rng([self.seed, 1])
        width = cfg.model.model_width
        system.model.w_head.data[...] = rng.normal(0.0, 1.0 / np.sqrt(width), system.model.w_head.shape)
        system.model.b_head.data[...] = rng.normal(0.0, 0.1, system.model.b_head.shape)
        system.save(self.checkpoint)
        self.prompts = []
        pairs = generate_prompts(self.seed, self.n_prompts, self.T, cfg.task.frame_rate, self.d_audio)
        for i, (spec, lrc) in enumerate(pairs):
            lrc_path = self.work / f"prompt-{i}.lrc"
            lrc_path.write_text(lrc, encoding="utf-8")
            self.prompts.append((_write_json(self.work / f"prompt-{i}.json", spec), lrc_path))

    def _generate(self, k: int, out: Path) -> tuple[int, float]:
        prompt, lrc = self.prompts[k % len(self.prompts)]
        t0 = perf_counter()
        code = _cli("generate", "--config", str(self.config_path), "--out-dir", str(out),
                    "--checkpoint", str(self.checkpoint), "--prompt", str(prompt), "--lrc", str(lrc))
        return code, (perf_counter() - t0) * 1000.0

    def item(self, run: Run) -> None:
        k = self.requests
        self.requests += 1
        out = self.work / f"generate-{k}"
        code, ms = self._generate(k, out)
        errors = [f"generate exited {code}"] if code != 0 else self._check(out)
        run.latencies_ms.append(ms)
        run.items += 1
        run.work += 1
        run.busy_s += ms / 1000.0
        run.record(1, 1 if errors else 0, errors)
        if k < len(self.prompts) and not errors:
            self.kept.append((out / "latent.json", self.prompts[k][0]))
        else:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out: Path) -> list[str]:
        errors = []
        payload = json.loads((out / "latent.json").read_text(encoding="utf-8"))
        latent = np.asarray(payload["values"], dtype=np.float64)
        if payload["shape"] != [self.T, self.d_audio] or latent.size != self.T * self.d_audio:
            errors.append(f"latent shape {payload['shape']}")
        if not np.isfinite(latent).all():
            errors.append("latent is not finite")
        log = (out / "sample_log.jsonl").read_text(encoding="utf-8").splitlines()
        if len(log) != self.steps:
            errors.append(f"{len(log)} sample_log entries, expected {self.steps}")
        return errors

    def finish(self, run: Run) -> None:
        """A repeated request must reproduce the first latent byte for byte;
        one `eval` over the kept latents must give a valid report."""
        errors = [] if self.kept else ["no successful request to repeat"]
        if self.kept:
            out = self.work / "generate-repeat"
            code, _ = self._generate(0, out)
            if code != 0 or (out / "latent.json").read_bytes() != self.kept[0][0].read_bytes():
                errors.append("a repeated request did not reproduce the first latent")
            shutil.rmtree(out, ignore_errors=True)
        run.record(1, 1 if errors else 0, errors)

        errors = []
        latents = [str(p) for p, _ in self.kept]
        out = self.work / "eval"
        workers = min(2, os.cpu_count() or 1)
        t0 = perf_counter()
        code = _cli("eval", "--config", str(self.config_path), "--out-dir", str(out),
                    "--latent", *latents, "--prompt", *[str(p) for _, p in self.kept],
                    "--workers", str(workers))
        self.eval_ms_per_latent = (perf_counter() - t0) * 1000.0 / max(1, len(latents))
        try:
            if code != 0:
                raise ValueError(f"eval exited {code}")
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            validate_report(report)
            if len(report["samples"]) != len(latents) or not latents:
                raise ValueError(f"eval scored {len(report['samples'])} of {len(latents)} latents")
        except ValueError as exc:
            errors.append(f"eval: {exc}")
        run.record(1, 1 if errors else 0, errors)

    def layer_metrics(self) -> dict[str, float]:
        return {"evaluate.eval_ms_per_latent": self.eval_ms_per_latent}


# -----------------------------------------------------------------------------
# curate-10k
# -----------------------------------------------------------------------------


def _decisions(report: dict) -> dict[str, str]:
    out = {rid: "kept" for rid in report["kept"]}
    out.update({r["id"]: r["reason"] for r in report["rejected"]})
    return out


def _mismatches(got: dict[str, str], expected: dict[str, str]) -> list[str]:
    keys = sorted(set(got) | set(expected))
    return [f"{k}: {got.get(k)} != {expected.get(k)}" for k in keys if got.get(k) != expected.get(k)]


class CurateWorkload(Workload):
    """The 10k records come as ten 1k-record shard manifests, used in turn;
    one item is a pipeline pass over one shard: the pretrain and finetune
    filters, the lyric edit gate, the duration dataset and preference pairs.
    Every stage reads the same manifest, so each stage's work is fixed by the
    generator, not by an earlier stage's outcome."""

    name = "curate-10k"
    unit_of_work = "records"

    def __init__(self, seed: int, work: Path, tiny: bool):
        self.seed, self.work, self.tiny = seed, work, tiny
        self.placement = Placement()
        self.config_path = work / "curate.json"
        self.stage_ms: dict[str, list[float]] = {s: [] for s in STAGES}
        self.kept: Counter = Counter()  # stage -> useful outcomes
        self.tried: Counter = Counter()  # stage -> attempts
        self.gate_records_per_s: list[float] = []
        self.passes = 0

    def setup(self) -> None:
        _write_json(self.config_path, {"seed": self.seed, "pipeline": {"dpo_min_diff": DPO_MIN_DIFF}})
        self.max_distance = load_config(self.config_path).pipeline.lyric_edit_max_distance
        if self.tiny:
            self.shards = generate_shards(self.seed, n_shards=2, n_records=200, scale=0.02)
        else:
            self.shards = generate_shards(self.seed)
        self.paths = []
        for k, shard in enumerate(self.shards):
            paths = (self.work / f"manifest-{k}.jsonl", self.work / f"scores-{k}.jsonl")
            shard.write(*paths)
            self.paths.append(paths)

    def _cli_stage(self, stage: str, manifest: Path, out: Path) -> tuple[int, float]:
        t0 = perf_counter()
        code = _cli("pipeline", "--stage", stage, "--config", str(self.config_path),
                    "--manifest", str(manifest), "--out-dir", str(out))
        return code, (perf_counter() - t0) * 1000.0

    def item(self, run: Run) -> None:
        k = self.passes % len(self.shards)
        m, (manifest_path, scores_path) = self.shards[k], self.paths[k]
        n = len(m.records)
        out = self.work / f"curate-{self.passes}"
        self.passes += 1
        ms: dict[str, float] = {}
        checked: list[tuple[str, int, list[str]]] = []  # (stage, attempted, errors)

        for stage, expected in (("pretrain", m.pretrain), ("finetune", m.finetune)):
            code, ms[stage] = self._cli_stage(stage, manifest_path, out)
            if code != 0:
                checked.append((stage, n, [f"{stage} exited {code}"]))
                continue
            got = _decisions(json.loads((out / f"{stage}_report.json").read_text(encoding="utf-8")))
            self._count(stage, sum(v == "kept" for v in got.values()), n)
            checked.append((stage, n, _mismatches(got, expected)))

        t0 = perf_counter()
        records, _ = pipeline.read_manifest(manifest_path)
        t1 = perf_counter()
        report = pipeline.lyric_edit_filter(records, max_normalized_distance=self.max_distance)
        t2 = perf_counter()
        ms["lyric_gate"] = (t2 - t0) * 1000.0
        self.gate_records_per_s.append(len(records) / (t2 - t1))
        got = {rid: "kept" for rid in report.kept}
        got.update({rid: reason for rid, reason in report.rejected})
        got.update({rid: "kept-unverified" for rid, flags in report.flagged.items() if flags == ["unverified"]})
        self._count("lyric_gate", len(report.kept), n)
        checked.append(("lyric_gate", n, _mismatches(got, m.gate)))

        code, ms["duration_dataset"] = self._cli_stage("duration-dataset", manifest_path, out)
        checked.append(("duration_dataset", n, [f"duration-dataset exited {code}"] if code
                        else self._check_durations(m, out)))

        code, ms["dpo_pairs"] = self._cli_stage("dpo-pairs", scores_path, out)
        sizes = Counter(row["group"] for row in m.score_rows)
        groups = len(sizes)
        if code != 0:
            checked.append(("dpo_pairs", groups, [f"dpo-pairs exited {code}"]))
        else:
            pairs = json.loads((out / "dpo_pairs.json").read_text(encoding="utf-8"))["pairs"]
            got_pairs = {(p["group"], p["win"], p["lose"]) for p in pairs}
            wrong = {g for g, _, _ in got_pairs ^ m.dpo_pairs}
            self._count("dpo_pairs", len(pairs), sum(s * (s - 1) for s in sizes.values()))
            checked.append(("dpo_pairs", groups, [f"dpo-pairs group {g} differs" for g in sorted(wrong)]))
        shutil.rmtree(out, ignore_errors=True)

        for stage in STAGES:
            self.stage_ms[stage].append(ms[stage])
        pass_ms = sum(ms.values())
        run.latencies_ms.append(pass_ms)
        run.items += 1
        run.work += n
        run.busy_s += pass_ms / 1000.0
        for stage, attempted, errors in checked:
            run.record(attempted, min(attempted, len(errors)), [f"{stage}: {e}" for e in errors])

    def _count(self, stage: str, kept: int, tried: int) -> None:
        self.kept[stage] += kept
        self.tried[stage] += tried

    def _check_durations(self, m, out: Path) -> list[str]:
        """Skip reasons match the plants; every emitted target re-parses to
        the planted timed lines of the record it came from."""
        report = json.loads((out / "duration_dataset_report.json").read_text(encoding="utf-8"))
        got = {rid: reason for rid, reason in report["skipped"]}
        emitted = [r for r in m.records if m.duration[r.id] == "emitted"]
        entries = [json.loads(line) for line in
                   (out / "duration_dataset.jsonl").read_text(encoding="utf-8").splitlines()]
        errors = []
        if len(entries) != len(emitted):
            errors.append(f"{len(entries)} entries emitted, expected {len(emitted)}")
        for rec, entry in zip(emitted, entries):
            got[rec.id] = "emitted"
            try:
                doc = parse_lrc(entry["target"], total_duration=rec.duration)
            except ValueError as exc:
                errors.append(f"{rec.id}: target does not re-parse: {exc}")
                continue
            lines = [(round(line.timestamp * 100), line.text) for line in doc.lines]
            if lines != m.lrc_lines[rec.id] or rec.captions["global"] not in entry["instruction"]:
                errors.append(f"{rec.id}: target or instruction differs")
        self._count("duration_dataset", len(entries), len(m.records))
        return errors + _mismatches(got, m.duration)

    def layer_metrics(self) -> dict[str, float]:
        out = {f"pipeline.{s}_ms": float(np.median(v)) if v else 0.0 for s, v in self.stage_ms.items()}
        out.update({f"pipeline.{s}.kept_ratio": self.kept[s] / self.tried[s] if self.tried[s] else 0.0
                    for s in STAGES})
        out["pipeline.lyric_gate_records_per_s"] = (
            float(np.median(self.gate_records_per_s)) if self.gate_records_per_s else 0.0)
        return out


WORKLOADS = {w.name: w for w in (TrainWorkload, GenerateWorkload, CurateWorkload)}
