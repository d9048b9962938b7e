"""Single command-line entry point wiring all modules.

Subcommands: pipeline, train, generate, eval, predict-durations. The
pipeline stages are pretrain, finetune, lyric-edit, duration-dataset and
dpo-pairs. generate takes its lyrics either timestamped (--lrc) or as plain
lines (--lyrics), which it timestamps as predict-durations does and writes
to predicted.lrc; exactly one of the two is required. Every command takes
one JSON config (--config) plus dotted-key overrides (--set), writes its
artifacts into --out-dir, and records them in run_manifest.json. The
directory is made only once every input has been read and checked, so a
data error leaves none behind.

Exit codes are stable: 0 success, 1 usage, 2 data error, 3 numeric abort.
Exit 2 is a `ValidationError` (a `ParseError` is one, with a line number) or
an `OSError`: outside input that is wrong or cannot be read. That includes an
input file that is not UTF-8 or not JSON, named in the message; a setting
outside its range, named by its key (its `config` section holds the rule); a
prompt or --duration-hint longer than pipeline.pretrain_max_duration, a time
with no finite frame or a duration with none, an LRC minute field past float
range, a JSON integer too large for a float, JSON nested too deeply, and a
prompt key that is unknown or missing (`schema` holds these rules). Exit 3 is
a `NumericAbort`, also a non-finite value that would reach a JSON artifact.
Any other exception, a `ContractError` or a `KeyError` included, is a program
fault and propagates with its traceback. Commands run with numpy's overflow
and invalid-value warnings off: every non-finite value is caught explicitly,
so a warning would only print lines ahead of the `numeric abort:` message.
Artifacts other than the streamed train_log.jsonl are written atomically; JSON
artifacts are strict (no NaN/Infinity tokens) and compact: without indentation
json's C encoder writes them, about 4x faster than its pure-Python indenting
encoder on a 1,000-record shard's reports; checkpoints use the
songflow-params-v2 container described in `checkpoint`. Latents are JSON only,
row-major as {"shape": [T, d_audio], "values": [...]}: generate writes
latent.json, and eval reads that form whatever a file's suffix; anything else
is a data error.

generate may use a second process: when this process may run on two or more
CPUs, the sampler forks one worker per request that runs the second half of
the frames of each Euler step's forward, for every cfg pair (see
`sampler`). The output bytes are the same either way; `taskset -c 0
songflow generate ...` keeps the request on one CPU and in one process.

Allocator policy: `main` first calls `_keep_freed_memory_in_heap`. A
generate request allocates and frees the same 0.4-0.8 MB arrays (stacked
activations, (T, T) score blocks) on every Euler step. glibc serves blocks
above its mmap threshold (128 KiB by default, raised only by earlier large
frees) with a fresh mmap and trims freed memory off the top of the heap,
so every step faulted its pages in again: 42,876 minor faults per
T=256 request and 441 per default train step. With the thresholds fixed at
32 MiB (mmap) and 64 MiB (trim), the freed blocks stay in the heap and are
reused: 2-12 faults per request once the heap has grown, and 18 per train
step (getrusage around in-process `main` calls, one BLAS thread).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .checkpoint import write_json_atomic, write_jsonl_atomic, write_text_atomic
from .conditioning import prompt_spec_from_json
from .config import load_config
from .errors import NumericAbort, ParseError, ValidationError
from .evaluate import alignment_score, duration_mae, segment_alignment_score
from .durations import predict_durations
from .flow import train
from .lrc import frame_count, parse_lrc, serialize_lrc, windows_from_segments
from .pipeline import (
    build_duration_dataset,
    dpo_pair_select,
    finetune_filter,
    lyric_edit_filter,
    pretrain_filter,
    read_manifest,
)
from .sampler import build_condition_triple, euler_sample
from .schema import check_object, is_number, loads, read_json, read_text, split_lines
from .synthetic import SyntheticDataset
from .system import build_song_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are 1 here
        raise UsageError(message)


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", help="JSON run config; defaults apply when omitted")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted-key config override, e.g. train.steps=50",
    )
    p.add_argument("--out-dir", required=True, help="directory for produced artifacts")


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process, built on first use: building it (five
    subparsers; each argument asks for the terminal size) takes over 10x as
    long as a parse, and parsing leaves it unchanged."""
    parser = _Parser(prog="songflow")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pipeline", parents=[], help="run one data-pipeline stage")
    _add_common(p)
    p.add_argument(
        "--stage",
        required=True,
        choices=["pretrain", "finetune", "lyric-edit", "dpo-pairs", "duration-dataset"],
    )
    p.add_argument("--manifest", required=True, help="JSONL input (records, or scores for dpo-pairs)")

    p = sub.add_parser("train", help="train the toy model on the synthetic task")
    _add_common(p)

    p = sub.add_parser("generate", help="sample a latent from a prompt")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prompt", required=True, help="prompt JSON file")
    lyrics = p.add_mutually_exclusive_group(required=True)
    lyrics.add_argument("--lrc", help="timestamped lyrics (LRC)")
    lyrics.add_argument(
        "--lyrics", help="plain lyric lines, one per line, timestamped as predict-durations does"
    )

    p = sub.add_parser("eval", help="score latents against their prompts")
    _add_common(p)
    p.add_argument("--latent", nargs="*", default=[], help="latent JSON files (as generate writes)")
    p.add_argument("--prompt", nargs="*", default=[], help="matching prompt JSON files")
    p.add_argument("--pred-lrc", nargs="*", default=[], help="predicted LRC files (for MAE)")
    p.add_argument("--true-lrc", nargs="*", default=[], help="matching reference LRC files")
    p.add_argument("--workers", type=int, default=4)

    p = sub.add_parser("predict-durations", help="timestamp plain lyrics heuristically")
    _add_common(p)
    p.add_argument("--lyrics", required=True, help="plain lyric lines, one per line")
    p.add_argument("--global-prompt", default="")
    p.add_argument("--segment-prompt", action="append", default=[], dest="segment_prompts")
    p.add_argument("--duration-hint", type=float)
    return parser


def _write_run_manifest(out_dir: Path, command: str, files: list[str]) -> None:
    payload = {"command": command, "files": sorted(files)}
    write_json_atomic(out_dir / "run_manifest.json", payload)


def _out_dir(args) -> Path:
    """--out-dir, made only once the command has read and checked every
    input, so a data error leaves no directory behind."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


# -----------------------------------------------------------------------------
# pipeline
# -----------------------------------------------------------------------------


def _read_score_groups(path) -> dict[str, list[tuple[str, float]]]:
    """JSONL rows {"group": str, "id": str, "score": number}, each id at most
    once per group. Anything else is a parse error naming the line: a group
    5 would merge with "5", a repeated id would pair with itself, and a NaN
    score would drop pairs silently, since it compares false against every
    margin."""
    groups: dict[str, dict[str, float]] = {}
    for lineno, line in enumerate(split_lines(read_text(path, "score file")), start=1):
        if not line.strip():
            continue
        try:
            row = loads(line)
            group, rid, score = row["group"], row["id"], row["score"]
        except (json.JSONDecodeError, ValidationError, KeyError, TypeError) as exc:
            raise ParseError(f"bad score row: {exc}", line_number=lineno) from exc
        if not isinstance(group, str):
            raise ParseError(f"group must be a string, got {type(group).__name__}", line_number=lineno)
        if not isinstance(rid, str):
            raise ParseError(f"id must be a string, got {type(rid).__name__}", line_number=lineno)
        if not is_number(score):
            raise ParseError(f"score must be a finite number, got {score!r}", line_number=lineno)
        scores = groups.setdefault(group, {})
        if rid in scores:
            raise ParseError(f"id {rid!r} repeats in group {group!r}", line_number=lineno)
        scores[rid] = float(score)
    return {gid: list(scores.items()) for gid, scores in groups.items()}


def cmd_pipeline(args) -> int:
    pc = load_config(args.config, args.overrides).pipeline
    files: list[str] = []

    if args.stage == "dpo-pairs":
        if pc.dpo_min_diff is None:
            raise ValidationError("pipeline.dpo_min_diff must be set for the dpo-pairs stage")
        groups = _read_score_groups(args.manifest)
        pairs = [
            {"group": gid, "win": w, "lose": l}
            for gid in sorted(groups)
            for w, l in dpo_pair_select(groups[gid], pc.dpo_min_diff)
        ]
        out_dir = _out_dir(args)
        out = out_dir / "dpo_pairs.json"
        write_json_atomic(out, {"pairs": pairs})
        files.append(out.name)
        print(f"dpo-pairs: {len(pairs)} pairs from {len(groups)} groups")
    else:
        records, schema_rejects = read_manifest(args.manifest)
        if args.stage == "pretrain":
            report = pretrain_filter(
                records,
                min_sampling_rate=pc.pretrain_min_sampling_rate,
                min_duration=pc.pretrain_min_duration,
                max_duration=pc.pretrain_max_duration,
                drop_fraction=pc.pretrain_drop_fraction,
            )
            payload = report.to_json()
        elif args.stage == "finetune":
            report = finetune_filter(
                records,
                min_sampling_rate=pc.finetune_min_sampling_rate,
                required_channels=pc.finetune_channels,
            )
            payload = report.to_json()
        elif args.stage == "lyric-edit":
            report = lyric_edit_filter(records, max_normalized_distance=pc.lyric_edit_max_distance)
            payload = report.to_json()
        else:  # duration-dataset
            entries, skipped = build_duration_dataset(records)
            payload = {"emitted": len(entries), "skipped": [list(s) for s in skipped]}
        payload["schema_rejects"] = [{"line": ln, "error": err} for ln, err in schema_rejects]
        out_dir = _out_dir(args)
        if args.stage == "duration-dataset":
            write_jsonl_atomic(out_dir / "duration_dataset.jsonl", entries)
            files.append("duration_dataset.jsonl")
        out = out_dir / f"{args.stage.replace('-', '_')}_report.json"
        write_json_atomic(out, payload)
        files.append(out.name)
        kept = len(payload.get("kept", [])) if "kept" in payload else payload.get("emitted", 0)
        print(f"{args.stage}: {kept} kept of {len(records)} records")

    _write_run_manifest(out_dir, f"pipeline:{args.stage}", files)
    return EXIT_OK


# -----------------------------------------------------------------------------
# train
# -----------------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.overrides)
    system = build_song_model(cfg, trainable=True)
    dataset = SyntheticDataset(cfg.task, max_segments=cfg.task.max_segments,
                               min_width=cfg.task.min_width)
    out_dir = _out_dir(args)
    report = train(system, dataset, cfg.train, out_dir)
    first, last = report.smoothed()
    _write_run_manifest(out_dir, "train", report.files)
    print(
        f"train: {len(report.losses)} steps, smoothed loss {first:.4f} -> {last:.4f}, "
        f"{report.wall_seconds:.1f}s, checkpoint {out_dir / report.files[-1]}"
    )
    return EXIT_OK


# -----------------------------------------------------------------------------
# generate
# -----------------------------------------------------------------------------


def _write_latent(path: Path, latent: np.ndarray) -> None:
    payload = {"shape": list(latent.shape), "values": latent.reshape(-1).tolist()}
    write_json_atomic(path, payload, separators=(",", ":"))


_LATENT_TYPES = {"shape": list[int], "values": list[float]}


def _read_latent(path, d_audio: int) -> np.ndarray:
    """A (T, d_audio) latent with T >= 1 and finite values, from JSON
    {"shape": [T, d_audio], "values": [...]} whatever the file's suffix."""
    payload = read_json(path, "latent")
    check_object(payload, _LATENT_TYPES, f"{path}: latent", required=tuple(_LATENT_TYPES))
    shape, values = payload["shape"], payload["values"]
    if len(shape) != 2 or shape[1] != d_audio or shape[0] < 1:
        raise ValidationError(f"{path}: latent shape {shape}, expected [T >= 1, {d_audio}]")
    if len(values) != shape[0] * shape[1]:
        raise ValidationError(f"{path}: shape {shape} does not match {len(values)} values")
    return np.asarray(values, dtype=np.float64).reshape(-1, d_audio)


def cmd_generate(args) -> int:
    cfg = load_config(args.config, args.overrides)
    spec = prompt_spec_from_json(read_json(args.prompt, "prompt"))
    if args.lyrics is not None:
        doc = predict_durations(
            split_lines(read_text(args.lyrics, "lyrics")),
            global_prompt=spec.global_text,
            segment_prompts=[s.text for s in spec.segments],
            total_duration_hint=spec.end_time(),
        )
    else:
        doc = parse_lrc(read_text(args.lrc, "LRC"), total_duration=spec.end_time())

    duration = spec.end_time() or doc.total_duration
    if duration > cfg.pipeline.pretrain_max_duration:  # bounds T before anything is allocated
        raise ValidationError(
            f"duration {duration} s exceeds pipeline.pretrain_max_duration "
            f"({cfg.pipeline.pretrain_max_duration} s)"
        )
    T = frame_count(duration, cfg.task.frame_rate)

    system = build_song_model(cfg, trainable=False)
    system.load(args.checkpoint)
    triple = build_condition_triple(system.encoder, spec, doc, T, cfg.negative)
    latent, step_log = euler_sample(system.model, triple, cfg.guidance, T, cfg.task.d_audio)

    out_dir = _out_dir(args)
    files: list[str] = []
    if args.lyrics is not None:
        predicted = out_dir / "predicted.lrc"
        write_text_atomic(predicted, serialize_lrc(doc))
        files.append(predicted.name)
    latent_path = out_dir / "latent.json"
    _write_latent(latent_path, latent)
    log_path = out_dir / "sample_log.jsonl"
    write_jsonl_atomic(log_path, step_log)
    files += [latent_path.name, log_path.name]
    _write_run_manifest(out_dir, "generate", files)
    print(f"generate: {T} frames x {cfg.task.d_audio} channels -> {latent_path}")
    return EXIT_OK


# -----------------------------------------------------------------------------
# eval
# -----------------------------------------------------------------------------


def _eval_one(index, latent_path, prompt_path, cfg):
    latent = _read_latent(latent_path, cfg.task.d_audio)
    spec = prompt_spec_from_json(read_json(prompt_path, "prompt"))
    T = latent.shape[0]
    windows = windows_from_segments(spec.segments, cfg.task.frame_rate, T)
    sample = {
        "index": index,
        "latent": str(latent_path),
        "prompt": str(prompt_path),
        "global_alignment": alignment_score(cfg.task, latent, spec.global_text),
    }
    # Unscored when a segment floors to no frame.
    per, mean = [], None
    if len(windows) == len(spec.segments):
        per, mean = segment_alignment_score(latent, windows, cfg.task)
    sample["segment_alignment"] = {"per_segment": per, "mean": mean}
    return sample


def cmd_eval(args) -> int:
    cfg = load_config(args.config, args.overrides)
    if len(args.latent) != len(args.prompt):
        raise ValidationError(
            f"{len(args.latent)} latent files but {len(args.prompt)} prompt files"
        )
    if len(args.pred_lrc) != len(args.true_lrc):
        raise ValidationError(
            f"{len(args.pred_lrc)} predicted LRC files but {len(args.true_lrc)} references"
        )
    with ThreadPoolExecutor(max_workers=max(1, args.workers)) as pool:
        samples = list(
            pool.map(
                lambda item: _eval_one(item[0], item[1][0], item[1][1], cfg),
                enumerate(zip(args.latent, args.prompt)),
            )
        )

    maes = []
    for pred_path, true_path in zip(args.pred_lrc, args.true_lrc):
        pred = parse_lrc(read_text(pred_path, "LRC"))
        true = parse_lrc(read_text(true_path, "LRC"))
        maes.append(
            {"predicted": str(pred_path), "reference": str(true_path),
             "duration_mae": duration_mae(pred, true)}
        )

    aggregate: dict = {}
    if samples:
        aggregate["global_alignment_mean"] = sum(s["global_alignment"] for s in samples) / len(samples)
        seg_means = [s["segment_alignment"]["mean"] for s in samples]
        seg_means = [m for m in seg_means if m is not None]
        aggregate["segment_alignment_mean"] = sum(seg_means) / len(seg_means) if seg_means else None
    if maes:
        aggregate["duration_mae_mean"] = sum(m["duration_mae"] for m in maes) / len(maes)

    report = {"samples": samples, "duration": maes, "aggregate": aggregate}
    out_dir = _out_dir(args)
    out = out_dir / "report.json"
    write_json_atomic(out, report)
    _write_run_manifest(out_dir, "eval", [out.name])
    print(f"eval: {len(samples)} samples, {len(maes)} LRC pairs -> {out}")
    return EXIT_OK


# -----------------------------------------------------------------------------
# predict-durations
# -----------------------------------------------------------------------------


def cmd_predict_durations(args) -> int:
    cfg = load_config(args.config, args.overrides)
    hint, longest = args.duration_hint, cfg.pipeline.pretrain_max_duration
    if hint is not None and not 0.0 < hint <= longest:  # also refuses NaN and inf
        raise ValidationError(
            f"--duration-hint {hint} s must be positive and at most "
            f"pipeline.pretrain_max_duration ({longest} s)"
        )
    doc = predict_durations(
        split_lines(read_text(args.lyrics, "lyrics")),
        global_prompt=args.global_prompt,
        segment_prompts=args.segment_prompts,
        total_duration_hint=hint,
    )
    out_dir = _out_dir(args)
    out = out_dir / "predicted.lrc"
    write_text_atomic(out, serialize_lrc(doc))
    _write_run_manifest(out_dir, "predict-durations", [out.name])
    print(f"predict-durations: {len(doc.lines)} lines over {doc.total_duration:.2f}s -> {out}")
    return EXIT_OK


_COMMANDS = {
    "pipeline": cmd_pipeline,
    "train": cmd_train,
    "generate": cmd_generate,
    "eval": cmd_eval,
    "predict-durations": cmd_predict_durations,
}


# glibc <malloc.h> parameter numbers.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory_in_heap() -> None:
    """Fix glibc's mmap threshold at 32 MiB (the cap of its own dynamic
    threshold on 64-bit) and its trim threshold at 64 MiB (the 2x ratio
    its dynamic rule keeps), so freed numpy temporaries stay in the heap
    for the next step instead of being unmapped or trimmed and faulted in
    again (see the module docstring for the fault counts). Without glibc's
    `mallopt` this does nothing. Only `main` calls it: importing songflow
    leaves the process's allocator as it was."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory_in_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericAbort as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValidationError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
