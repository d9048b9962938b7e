"""Spans and counts around the program's public functions and methods.

Every wrapper lives here, in the benchmark: nothing under `src/` changes.
`install_tracer` replaces module attributes (in each `songflow` module that
imports an op by name) and class attributes, and `Patches.undo` puts the
originals back, so an untraced phase runs the program exactly as shipped.

Spans carry (id, parent, name, start, end). They stay in memory and are
written when the run ends. Self time is a span's duration minus the time
its child spans cover. Only the first `keep` spans are stored; the totals
below cover every span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import songflow.cli as cli
import songflow.conditioning as conditioning
import songflow.flow as flow
import songflow.pipeline as pipeline
import songflow.tensor as tensor
from songflow.backbone import Block, VelocityModel
from songflow.conditioning import ConditioningEncoder, OutputProjection
from songflow.synthetic import SyntheticDataset
from songflow.system import SongModel

# Forward ops timed one by one; `<op>` in the tensor.op / tensor.vjp metrics.
OPS = (
    "matmul",
    "softmax_rows",
    "layer_norm",
    "silu",
    "concat_channels",
    "slice_channels",
    "transpose",
    "mul",
    "add",
    "add_row",
    "scale",
    "mse",
)


# The curate pass, in order; `<stage>` in the pipeline metrics.
STAGES = ("pretrain", "finetune", "lyric_gate", "duration_dataset", "dpo_pairs")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


class Tracer:
    def __init__(self, keep: int = 20_000):
        self.keep = keep
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.total: dict[str, float] = defaultdict(float)  # inclusive seconds
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # tape nodes, DP cells, bytes, records
        self.block: list | None = None  # [layer_norm calls, ff start] inside Block.forward
        self._stack: list[list] = []
        self._next = 0

    def enter(self, name: str) -> list:
        frame = [self._next, self._stack[-1][0] if self._stack else -1, name, perf_counter(), 0.0]
        self._next += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = perf_counter()
        self._stack.pop()
        sid, parent, name, start, child = frame
        duration = end - start
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][4] += duration
        if sid < self.keep:
            self.spans.append((sid, parent, name, start, end))
        return end

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(frame)

        return wrapper

    def write(self, path) -> None:
        """Spans as JSON lines, then one summary line per span name."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
            for name in sorted(self.total):
                fh.write(json.dumps({"summary": name, "calls": self.calls[name],
                                     "total_s": self.total[name],
                                     "self_s": self.self_time[name]}) + "\n")


def _songflow_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("songflow.") and m]


def install_tracer(tracer: Tracer, patches: Patches) -> None:
    """Wrap every op, the tape, and each layer's public entry points."""
    originals = {op: getattr(tensor, op) for op in OPS}

    def op_wrapper(op, fn):
        timed = tracer.timed(f"tensor.op.{op}", fn)
        if op != "layer_norm":
            return timed

        @functools.wraps(fn)
        def layer_norm(*args, **kwargs):
            # The second layer_norm in Block.forward starts the feed-forward half.
            if tracer.block is not None:
                tracer.block[0] += 1
                if tracer.block[0] == 2:
                    tracer.block[1] = perf_counter()
            return timed(*args, **kwargs)

        return layer_norm

    wrapped = {op: op_wrapper(op, fn) for op, fn in originals.items()}
    for module in _songflow_modules():
        for op, fn in originals.items():
            if module.__dict__.get(op) is fn:
                patches.set(module, op, wrapped[op])

    from_op = tensor.Tensor.__dict__["_from_op"].__func__

    def timed_vjp(vjp):
        return tracer.timed(f"tensor.vjp.{vjp.__qualname__.split('.')[0]}", vjp)

    def _from_op(cls, data, parents, vjp):
        tracer.counts["tape_nodes"] += 1
        return from_op(cls, data, parents, timed_vjp(vjp))

    patches.set(tensor.Tensor, "_from_op", classmethod(_from_op))

    block_forward = Block.forward

    @functools.wraps(block_forward)
    def block(self, x, attn_sink=None):
        frame = tracer.enter("backbone.block")
        outer, tracer.block = tracer.block, [0, None]
        try:
            return block_forward(self, x, attn_sink=attn_sink)
        finally:
            _, ff_start = tracer.block
            tracer.block = outer
            end = tracer.exit(frame)
            if ff_start is not None:
                tracer.total["backbone.attention"] += ff_start - frame[3]
                tracer.total["backbone.ff"] += end - ff_start

    patches.set(Block, "forward", block)

    save = SongModel.save

    @functools.wraps(save)
    def save_counted(self, path):
        save(self, path)
        tracer.counts["checkpoint_bytes"] += os.path.getsize(path)

    patches.set(SongModel, "save", tracer.timed("checkpoint.save", save_counted))
    patches.set(SongModel, "load", tracer.timed("checkpoint.load", SongModel.load))

    levenshtein = pipeline.levenshtein

    @functools.wraps(levenshtein)
    def levenshtein_counted(a, b):
        tracer.counts["levenshtein_cells"] += len(a) * len(b)
        return levenshtein(a, b)

    patches.set(pipeline, "levenshtein", tracer.timed("pipeline.levenshtein", levenshtein_counted))

    def read_counted(fn):
        @functools.wraps(fn)
        def read_manifest(path):
            records, rejects = fn(path)
            tracer.counts["manifest_records"] += len(records)
            return records, rejects

        return tracer.timed("pipeline.read_manifest", read_manifest)

    for module in (cli, pipeline):
        patches.set(module, "read_manifest", read_counted(module.read_manifest))
        patches.set(module, "parse_lrc", tracer.timed("lrc.parse", module.parse_lrc))

    for owner, name, span in (
        (flow, "backward", "tensor.backward"),
        (flow, "adam_step", "optim.adam"),
        (flow, "apply_condition_dropout", "conditioning.dropout"),
        (conditioning, "encode_lyrics", "conditioning.encode_lyrics"),
        (cli, "build_song_model", "system.build"),
        (cli, "build_condition_triple", "sampler.triple"),
        (cli, "euler_sample", "sampler.euler"),
        (SyntheticDataset, "draw", "synthetic.draw"),
        (ConditioningEncoder, "encode", "conditioning.encode"),
        (OutputProjection, "__call__", "conditioning.projection"),
        (VelocityModel, "forward", "backbone.forward"),
    ):
        patches.set(owner, name, tracer.timed(span, owner.__dict__[name]))


# -----------------------------------------------------------------------------
# Per-layer metrics
# -----------------------------------------------------------------------------

# (name, unit, better). `item` is a train step, a generate request or a
# curate pass over one shard; "per_step" metrics are per train step and
# "per_request" ones per generate request. A layer a workload never reaches
# reads 0 there.
PER_LAYER = (
    [
        ("tensor.tape_nodes_per_item", "count", "lower"),
        ("tensor.op_calls_per_item", "count", "lower"),
        ("tensor.backward_ms_per_step", "ms", "lower"),
    ]
    + [(f"tensor.vjp.{op}.ms_per_step", "ms", "lower") for op in OPS]
    + [(f"tensor.op.{op}.ms_per_item", "ms", "lower") for op in OPS]
    + [
        ("backbone.forward_calls_per_item", "count", "lower"),
        ("backbone.forward_ms_per_call", "ms", "lower"),
        ("backbone.attention_ms_per_item", "ms", "lower"),
        ("backbone.ff_ms_per_item", "ms", "lower"),
        ("conditioning.encode_ms_per_item", "ms", "lower"),
        ("conditioning.encode_lyrics_ms_per_item", "ms", "lower"),
        ("conditioning.projection_ms_per_item", "ms", "lower"),
        ("conditioning.dropout_ms_per_item", "ms", "lower"),
        ("conditioning.projection_calls_per_item", "count", "lower"),
        ("synthetic.draw_ms_per_step", "ms", "lower"),
        ("optim.adam_ms_per_step", "ms", "lower"),
        ("checkpoint.save_ms", "ms", "lower"),
        ("checkpoint.load_ms", "ms", "lower"),
        ("checkpoint.bytes", "B", "lower"),
        ("sampler.triple_ms_per_request", "ms", "lower"),
        ("sampler.euler_ms_per_request", "ms", "lower"),
        ("system.build_ms_per_request", "ms", "lower"),
        ("evaluate.eval_ms_per_latent", "ms", "lower"),
        ("train.loss_final", "loss", "lower"),
        ("pipeline.levenshtein_ms_per_pair", "ms", "lower"),
        ("pipeline.levenshtein_cells_per_s", "1/s", "higher"),
        ("pipeline.lyric_gate_records_per_s", "1/s", "higher"),
        ("pipeline.read_manifest_records_per_s", "1/s", "higher"),
        ("lrc.parse_ms_per_record", "ms", "lower"),
    ]
    + [(f"pipeline.{stage}_ms", "ms", "lower") for stage in STAGES]
    + [(f"pipeline.{stage}.kept_ratio", "ratio", "higher") for stage in STAGES]
    + [("trace.overhead_pct", "%", "lower")]
)


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def layer_metrics(tracer: Tracer, items: int, steps: int, requests: int) -> dict[str, float]:
    """The tracer's share of PER_LAYER; workloads add the rest."""
    def ms(name: str) -> float:
        return 1000.0 * tracer.total.get(name, 0.0)

    calls = tracer.calls
    out = {
        "tensor.tape_nodes_per_item": _per(tracer.counts["tape_nodes"], items),
        "tensor.op_calls_per_item": _per(sum(calls[f"tensor.op.{op}"] for op in OPS), items),
        "tensor.backward_ms_per_step": _per(ms("tensor.backward"), steps),
        "backbone.forward_calls_per_item": _per(calls["backbone.forward"], items),
        "backbone.forward_ms_per_call": _per(ms("backbone.forward"), calls["backbone.forward"]),
        "backbone.attention_ms_per_item": _per(ms("backbone.attention"), items),
        "backbone.ff_ms_per_item": _per(ms("backbone.ff"), items),
        "conditioning.encode_ms_per_item": _per(ms("conditioning.encode"), items),
        "conditioning.encode_lyrics_ms_per_item": _per(ms("conditioning.encode_lyrics"), items),
        "conditioning.projection_ms_per_item": _per(ms("conditioning.projection"), items),
        "conditioning.dropout_ms_per_item": _per(ms("conditioning.dropout"), items),
        "conditioning.projection_calls_per_item": _per(calls["conditioning.projection"], items),
        "synthetic.draw_ms_per_step": _per(ms("synthetic.draw"), steps),
        "optim.adam_ms_per_step": _per(ms("optim.adam"), steps),
        "checkpoint.save_ms": _per(ms("checkpoint.save"), calls["checkpoint.save"]),
        "checkpoint.load_ms": _per(ms("checkpoint.load"), calls["checkpoint.load"]),
        "checkpoint.bytes": _per(tracer.counts["checkpoint_bytes"], calls["checkpoint.save"]),
        "sampler.triple_ms_per_request": _per(ms("sampler.triple"), requests),
        "sampler.euler_ms_per_request": _per(ms("sampler.euler"), requests),
        "system.build_ms_per_request": _per(ms("system.build"), requests),
        "pipeline.levenshtein_ms_per_pair": _per(ms("pipeline.levenshtein"), calls["pipeline.levenshtein"]),
        "pipeline.levenshtein_cells_per_s": _per(
            tracer.counts["levenshtein_cells"], tracer.total.get("pipeline.levenshtein", 0.0)),
        "pipeline.read_manifest_records_per_s": _per(
            tracer.counts["manifest_records"], tracer.total.get("pipeline.read_manifest", 0.0)),
        "lrc.parse_ms_per_record": _per(ms("lrc.parse"), calls["lrc.parse"]),
    }
    for op in OPS:
        out[f"tensor.op.{op}.ms_per_item"] = _per(ms(f"tensor.op.{op}"), items)
        out[f"tensor.vjp.{op}.ms_per_step"] = _per(ms(f"tensor.vjp.{op}"), steps)
    return out
