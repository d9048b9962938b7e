"""Value-exact parameter checkpoints.

The container is JSON holding a flat, ordered list of (name, shape, values)
records. Python serializes floats via repr, which round-trips IEEE-754
doubles exactly, so save -> load reproduces every parameter bit for bit.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .tensor import Tensor

FORMAT = "songflow-params-v1"

__all__ = ["FORMAT", "write_text_atomic", "save_params", "load_params", "load_into"]


def write_text_atomic(path, text: str) -> None:
    """Write UTF-8 text to a temp file in the same directory, then rename it
    over `path`: a reader sees the old file or the new one, never a partial
    one. A failed write removes the temp file and leaves `path` as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_params(named: list[tuple[str, Tensor]], path) -> None:
    records = [
        {"name": name, "shape": list(t.data.shape), "values": t.data.reshape(-1).tolist()}
        for name, t in named
    ]
    payload = {"format": FORMAT, "params": records}
    write_text_atomic(path, json.dumps(payload, separators=(",", ":")))


def load_params(path) -> list[tuple[str, np.ndarray]]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != FORMAT:
        raise ValidationError(f"unknown checkpoint format: {payload.get('format')!r}")
    out = []
    for rec in payload["params"]:
        shape = tuple(int(s) for s in rec["shape"])
        arr = np.asarray(rec["values"], dtype=np.float64).reshape(shape)
        out.append((rec["name"], arr))
    return out


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
