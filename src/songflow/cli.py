"""Single command-line entry point wiring all modules.

Subcommands: pipeline, train, generate, eval, predict-durations. The
pipeline stages are pretrain, finetune, lyric-edit, duration-dataset and
dpo-pairs. Every command takes one JSON config (--config) plus dotted-key
overrides (--set), writes its artifacts into --out-dir, and records them in
run_manifest.json.

Exit codes are stable: 0 success, 1 usage, 2 data error (also an input file
that cannot be read or is not UTF-8), 3 numeric abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .checkpoint import write_text_atomic
from .conditioning import prompt_spec_from_json
from .config import RunConfig, load_config
from .errors import ContractError, NumericAbort, ParseError, ValidationError
from .evaluate import PatternOracleScorer, duration_mae, global_alignment_score, segment_alignment_score
from .durations import predict_durations
from .flow import train
from .lrc import BOUNDARY, frame_count, parse_lrc, serialize_lrc, windows_from_segments
from .pipeline import (
    build_duration_dataset,
    dpo_pair_select,
    finetune_filter,
    lyric_edit_filter,
    pretrain_filter,
    read_manifest,
)
from .sampler import GuidanceConfig, build_condition_triple, euler_sample
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


def build_parser() -> _Parser:
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
    p.add_argument("--lrc", help="timestamped lyrics (LRC)")
    p.add_argument("--predict-durations", action="store_true", help="timestamp --lyrics heuristically")
    p.add_argument("--lyrics", help="plain lyric lines, one per line (with --predict-durations)")
    p.add_argument("--latent-format", choices=["json", "f64"], default="json")

    p = sub.add_parser("eval", help="score latents against their prompts")
    _add_common(p)
    p.add_argument("--latent", nargs="*", default=[], help="latent files (json or raw f64)")
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
    write_text_atomic(out_dir / "run_manifest.json", json.dumps(payload, indent=1))


def _prepare(args) -> tuple[RunConfig, Path]:
    cfg = load_config(args.config, args.overrides)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, out_dir


# -----------------------------------------------------------------------------
# pipeline
# -----------------------------------------------------------------------------


def _read_score_groups(path) -> dict[str, list[tuple[str, float]]]:
    """JSONL rows {"group": str, "id": str, "score": number}."""
    groups: dict[str, list[tuple[str, float]]] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            groups.setdefault(str(row["group"]), []).append((str(row["id"]), float(row["score"])))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad score row: {exc}", line_number=lineno) from exc
    return groups


def cmd_pipeline(args) -> int:
    cfg, out_dir = _prepare(args)
    pc = cfg.pipeline
    files: list[str] = []

    if args.stage == "dpo-pairs":
        if pc.dpo_min_diff is None:
            raise ValidationError("pipeline.dpo_min_diff must be set for the dpo-pairs stage")
        groups = _read_score_groups(args.manifest)
        pairs = [
            {"group": gid, "win": w, "lose": l}
            for gid in sorted(groups)
            if len(groups[gid]) >= 2
            for w, l in dpo_pair_select(groups[gid], pc.dpo_min_diff)
        ]
        out = out_dir / "dpo_pairs.json"
        out.write_text(json.dumps({"pairs": pairs}, indent=1), encoding="utf-8")
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
            dataset_path = out_dir / "duration_dataset.jsonl"
            with open(dataset_path, "w", encoding="utf-8") as fh:
                for entry in entries:
                    fh.write(json.dumps(entry) + "\n")
            files.append(dataset_path.name)
            payload = {"emitted": len(entries), "skipped": [list(s) for s in skipped]}
        payload["schema_rejects"] = [{"line": ln, "error": err} for ln, err in schema_rejects]
        out = out_dir / f"{args.stage.replace('-', '_')}_report.json"
        out.write_text(json.dumps(payload, indent=1), encoding="utf-8")
        files.append(out.name)
        kept = len(payload.get("kept", [])) if "kept" in payload else payload.get("emitted", 0)
        print(f"{args.stage}: {kept} kept of {len(records)} records")

    _write_run_manifest(out_dir, f"pipeline:{args.stage}", files)
    return EXIT_OK


# -----------------------------------------------------------------------------
# train
# -----------------------------------------------------------------------------


def cmd_train(args) -> int:
    cfg, out_dir = _prepare(args)
    system = build_song_model(cfg, trainable=True)
    dataset = SyntheticDataset(
        cfg.task_spec(), max_segments=cfg.task.max_segments, min_width=cfg.task.min_width
    )
    log_path = out_dir / "train_log.jsonl"
    report = train(system, dataset, cfg.train, checkpoint_dir=out_dir, log_path=log_path)
    first, last = report.smoothed()
    files = [Path(report.checkpoint_path).name, log_path.name]
    files += [p.name for p in out_dir.glob("checkpoint-*.json")]
    _write_run_manifest(out_dir, "train", files)
    print(
        f"train: {report.steps} steps, smoothed loss {first:.4f} -> {last:.4f}, "
        f"{report.wall_seconds:.1f}s, checkpoint {report.checkpoint_path}"
    )
    return EXIT_OK


# -----------------------------------------------------------------------------
# generate
# -----------------------------------------------------------------------------


def _write_latent(path: Path, latent: np.ndarray, fmt: str) -> None:
    if fmt == "json":
        payload = {"shape": list(latent.shape), "values": latent.reshape(-1).tolist()}
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
    else:  # raw little-endian float64, row-major
        path.write_bytes(latent.astype("<f8").tobytes())


def _read_latent(path: Path, d_audio: int) -> np.ndarray:
    if path.suffix == ".json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        return np.asarray(payload["values"], dtype=np.float64).reshape(payload["shape"])
    flat = np.frombuffer(path.read_bytes(), dtype="<f8")
    if flat.size % d_audio != 0:
        raise ValidationError(f"{path}: raw latent size {flat.size} not divisible by {d_audio}")
    return flat.reshape(-1, d_audio).astype(np.float64)


def cmd_generate(args) -> int:
    cfg, out_dir = _prepare(args)
    if args.lrc is None and not args.predict_durations:
        raise UsageError("provide --lrc, or --predict-durations with --lyrics")
    if args.predict_durations and args.lyrics is None:
        raise UsageError("--predict-durations needs --lyrics")

    spec = prompt_spec_from_json(Path(args.prompt).read_text(encoding="utf-8"))
    files: list[str] = []
    if args.predict_durations:
        lines = Path(args.lyrics).read_text(encoding="utf-8").splitlines()
        doc = predict_durations(
            lines,
            global_prompt=spec.global_text,
            segment_prompts=[s.text for s in spec.segments],
            total_duration_hint=spec.end_time(),
        )
        predicted = out_dir / "predicted.lrc"
        predicted.write_text(serialize_lrc(doc), encoding="utf-8")
        files.append(predicted.name)
    else:
        doc = parse_lrc(Path(args.lrc).read_text(encoding="utf-8"), total_duration=spec.end_time())

    duration = spec.end_time() or doc.total_duration
    T = frame_count(duration, cfg.task.frame_rate)

    system = build_song_model(cfg, trainable=False)
    system.load(args.checkpoint)
    triple = build_condition_triple(
        system.encoder,
        spec,
        doc,
        T,
        defaults=cfg.negative,
    )
    step_log: list[dict] = []
    latent = euler_sample(
        system.model, triple, cfg.guidance, T, cfg.task.d_audio, step_log=step_log
    )

    ext = "json" if args.latent_format == "json" else "f64"
    latent_path = out_dir / f"latent.{ext}"
    _write_latent(latent_path, latent, args.latent_format)
    log_path = out_dir / "sample_log.jsonl"
    with open(log_path, "w", encoding="utf-8") as fh:
        for entry in step_log:
            fh.write(json.dumps(entry) + "\n")
    files += [latent_path.name, log_path.name]
    _write_run_manifest(out_dir, "generate", files)
    print(f"generate: {T} frames x {cfg.task.d_audio} channels -> {latent_path}")
    return EXIT_OK


# -----------------------------------------------------------------------------
# eval
# -----------------------------------------------------------------------------


def _eval_one(index, latent_path, prompt_path, cfg, scorer):
    latent = _read_latent(Path(latent_path), cfg.task.d_audio)
    spec = prompt_spec_from_json(Path(prompt_path).read_text(encoding="utf-8"))
    T = latent.shape[0]
    windows = windows_from_segments(spec.segments, cfg.task.frame_rate, T)
    sample = {
        "index": index,
        "latent": str(latent_path),
        "prompt": str(prompt_path),
        "global_alignment": global_alignment_score(latent, spec.global_text, scorer),
    }
    scorable = [s for s in spec.segments if s.kind != BOUNDARY]
    if scorable and len(windows) == len(spec.segments):
        per, mean = segment_alignment_score(latent, spec, windows, scorer)
        sample["segment_alignment"] = {"per_segment": per, "mean": mean}
    else:
        sample["segment_alignment"] = {"per_segment": [], "mean": None}
    return sample


def cmd_eval(args) -> int:
    cfg, out_dir = _prepare(args)
    if len(args.latent) != len(args.prompt):
        raise ValidationError(
            f"{len(args.latent)} latent files but {len(args.prompt)} prompt files"
        )
    if len(args.pred_lrc) != len(args.true_lrc):
        raise ValidationError(
            f"{len(args.pred_lrc)} predicted LRC files but {len(args.true_lrc)} references"
        )
    scorer = PatternOracleScorer(cfg.task_spec())
    with ThreadPoolExecutor(max_workers=max(1, args.workers)) as pool:
        samples = list(
            pool.map(
                lambda item: _eval_one(item[0], item[1][0], item[1][1], cfg, scorer),
                enumerate(zip(args.latent, args.prompt)),
            )
        )

    maes = []
    for pred_path, true_path in zip(args.pred_lrc, args.true_lrc):
        pred = parse_lrc(Path(pred_path).read_text(encoding="utf-8"))
        true = parse_lrc(Path(true_path).read_text(encoding="utf-8"))
        maes.append(
            {"predicted": str(pred_path), "reference": str(true_path),
             "duration_mae": duration_mae(pred, true)}
        )

    aggregate: dict = {}
    if samples:
        aggregate["global_alignment_mean"] = sum(s["global_alignment"] for s in samples) / len(samples)
        seg_means = [
            s["segment_alignment"]["mean"]
            for s in samples
            if s["segment_alignment"]["mean"] is not None
        ]
        aggregate["segment_alignment_mean"] = (
            sum(seg_means) / len(seg_means) if seg_means else None
        )
    if maes:
        aggregate["duration_mae_mean"] = sum(m["duration_mae"] for m in maes) / len(maes)

    report = {"samples": samples, "duration": maes, "aggregate": aggregate}
    out = out_dir / "report.json"
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    _write_run_manifest(out_dir, "eval", [out.name])
    print(f"eval: {len(samples)} samples, {len(maes)} LRC pairs -> {out}")
    return EXIT_OK


# -----------------------------------------------------------------------------
# predict-durations
# -----------------------------------------------------------------------------


def cmd_predict_durations(args) -> int:
    _, out_dir = _prepare(args)
    lines = Path(args.lyrics).read_text(encoding="utf-8").splitlines()
    doc = predict_durations(
        lines,
        global_prompt=args.global_prompt,
        segment_prompts=args.segment_prompts,
        total_duration_hint=args.duration_hint,
    )
    out = out_dir / "predicted.lrc"
    out.write_text(serialize_lrc(doc), encoding="utf-8")
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericAbort as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (
        ParseError,
        ValidationError,
        ContractError,
        json.JSONDecodeError,
        UnicodeDecodeError,
        OSError,
        KeyError,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
