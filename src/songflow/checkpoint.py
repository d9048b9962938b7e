"""Value-exact parameter checkpoints and atomic artifact writes.

Checkpoint format `songflow-params-v2`: one JSON object

    {"format": "songflow-params-v2",
     "params": [{"name": str, "shape": [int, ...], "f64le": str}, ...]}

holding a flat, ordered list of records. `f64le` is the standard padded
base64 of the parameter's values as little-endian float64 in row-major
order, so save -> load reproduces every parameter bit for bit (signed
zeros, subnormals and the largest doubles included). The loader decodes
with `validate=True` and checks that the payload holds exactly
8 * prod(shape) bytes; any mismatch is a `ValidationError`.

Version 1 (values written as JSON float reprs) is not read: a v1 file is
rejected with a `ValidationError` that names its format.

Every artifact the CLI writes, except the per-step `train_log.jsonl` that
training streams, goes through `write_bytes_atomic`: a reader sees the old
file or the new one, never a partial one. JSON artifacts are strict
(`allow_nan=False`), so any JSON parser can read them.
"""

from __future__ import annotations

import base64
import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import NumericAbort, ValidationError
from .schema import check_object, read_json
from .tensor import Tensor

FORMAT = "songflow-params-v2"

__all__ = [
    "FORMAT",
    "write_bytes_atomic",
    "write_text_atomic",
    "write_json_atomic",
    "write_jsonl_atomic",
    "save_params",
    "load_params",
    "load_into",
]


def write_bytes_atomic(path, data: bytes) -> None:
    """Write `data` to a temp file in the same directory, then rename it
    over `path`: a reader sees the old file or the new one, never a partial
    one. A failed write removes the temp file and leaves `path` as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path, text: str) -> None:
    write_bytes_atomic(path, text.encode("utf-8"))


def _strict_dumps(payload, **dump_kw) -> str:
    """JSON without the bare NaN/Infinity tokens no JSON parser accepts; a
    non-finite value in an artifact is a numeric abort (exit code 3)."""
    try:
        return json.dumps(payload, allow_nan=False, **dump_kw)
    except ValueError as exc:
        raise NumericAbort(f"artifact holds a non-finite value: {exc}") from exc


def write_json_atomic(path, payload, **dump_kw) -> None:
    write_text_atomic(path, _strict_dumps(payload, **dump_kw))


def write_jsonl_atomic(path, rows) -> None:
    write_text_atomic(path, "".join(_strict_dumps(row) + "\n" for row in rows))


def save_params(named: list[tuple[str, Tensor]], path) -> None:
    records = [
        {
            "name": name,
            "shape": list(t.data.shape),
            "f64le": base64.b64encode(t.data.astype("<f8", copy=False).tobytes()).decode("ascii"),
        }
        for name, t in named
    ]
    write_json_atomic(path, {"format": FORMAT, "params": records}, separators=(",", ":"))


_RECORD_TYPES = {"name": str, "shape": list[int], "f64le": str}


def _decode_record(index: int, rec) -> tuple[str, np.ndarray]:
    check_object(rec, _RECORD_TYPES, f"checkpoint.params[{index}]", required=tuple(_RECORD_TYPES))
    if min(rec["shape"], default=0) < 0:
        raise ValidationError(f"checkpoint.params[{index}].shape has a negative size: {rec['shape']}")
    name, shape = rec["name"], tuple(rec["shape"])
    try:
        raw = base64.b64decode(rec["f64le"], validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise ValidationError(f"checkpoint parameter {name!r}: bad base64: {exc}") from exc
    if len(raw) != 8 * math.prod(shape):
        raise ValidationError(
            f"checkpoint parameter {name!r}: {len(raw)} bytes for shape {shape}, "
            f"expected {8 * math.prod(shape)}"
        )
    return name, np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def load_params(path) -> list[tuple[str, np.ndarray]]:
    payload = read_json(path, "checkpoint")
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt != FORMAT:
        raise ValidationError(f"checkpoint format {fmt!r} is not read; expected {FORMAT!r}")
    check_object(payload, {"format": str, "params": list}, "checkpoint", required=("params",))
    return [_decode_record(i, rec) for i, rec in enumerate(payload["params"])]


def load_into(named: list[tuple[str, Tensor]], path) -> None:
    """Load a checkpoint into existing parameters; names and shapes must match in order."""
    loaded = load_params(path)
    if len(loaded) != len(named):
        raise ValidationError(f"checkpoint has {len(loaded)} params, model has {len(named)}")
    for (name, tensor), (ck_name, arr) in zip(named, loaded):
        if name != ck_name:
            raise ValidationError(f"parameter order mismatch: {name!r} vs {ck_name!r}")
        if tensor.data.shape != arr.shape:
            raise ValidationError(
                f"shape mismatch for {name!r}: {tensor.data.shape} vs {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValidationError(f"checkpoint parameter {name!r} contains non-finite values")
        tensor.data[...] = arr
