"""The rules for input from outside the program: config sections, prompts,
latents, checkpoint records, manifest lines, score rows, LRC and lyric files.

Every input file is read as UTF-8 by `read_text`, or by `read_json` for a
file that holds one JSON value; a file that cannot be decoded is a
ValidationError that names its path. All JSON input is decoded by `loads`,
which gives `json.loads`'s value or error and turns nesting past the
recursion limit into a ValidationError.

Text breaks into lines only at "\n", "\r\n" and "\r" (`split_lines`): the
breaks universal newlines reads and an LRC line's text may not hold. The
other breaks of `str.splitlines` (\x0b, \x0c, \x1c-\x1e, U+0085, U+2028,
U+2029) may sit raw inside a JSON string or an LRC line's text, so they
stay inside their line.

A value fits a type hint (a class, `list[X]` of a class, or a union such as
`float | None`) when it is an instance of it, with two rules: an int or
float is a number only when `is_number` holds, and a float hint also takes
an int; a str is text only when it holds no surrogate code point, which a
JSON escape can spell but UTF-8 cannot encode. `check_object` checks a
whole object against the hints of its known keys. Manifest records and
score rows, read once per line on every pipeline pass, keep their own plain
loops and share only `loads` and `is_number`.
"""

from __future__ import annotations

import json
import math
import re
import sys
import typing
from pathlib import Path

from .errors import ValidationError

__all__ = ["read_text", "read_json", "split_lines", "loads", "is_number", "fits", "check_object"]

_FLOAT_MAX = sys.float_info.max
_SURROGATE = re.compile("[\ud800-\udfff]")
# The C scanner json.loads runs, with its defaults; it keeps nothing between
# calls (its key memo is cleared after each scan).
_scan_once = json.JSONDecoder().scan_once


def read_text(path, what: str) -> str:
    """The text of the input file `path`, read as UTF-8 with universal
    newlines; `what` names the file's role in the error of a file that is
    not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {what} is not UTF-8: {exc}") from exc


def read_json(path, what: str):
    """The JSON value of the input file `path`. A file that is not UTF-8, not
    JSON or nested too deeply is a ValidationError `<path>: <what> is not
    JSON: <error>`."""
    try:
        return loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, ValidationError) as exc:
        raise ValidationError(f"{path}: {what} is not JSON: {exc}") from exc


def split_lines(text: str) -> list[str]:
    """`text.splitlines()` with breaks only at "\n", "\r\n" and "\r"."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:  # like splitlines: no line after a final break, none in ""
        lines.pop()
    return lines


def loads(text: str):
    """`json.loads(text)`: the same value, or the same JSONDecodeError. Most
    input is one value with no surrounding whitespace, which the scanner
    decodes without json.loads's Python wrappers (~2 us of a ~9 us manifest
    line); anything else (leading or trailing whitespace, extra data, a BOM,
    no value) goes to json.loads itself. A scan error at index 0 is
    json.loads's own. JSON nested past the recursion limit is a
    ValidationError instead of a RecursionError."""
    try:
        try:
            value, end = _scan_once(text, 0)
        except StopIteration:
            return json.loads(text)
        return value if end == len(text) else json.loads(text)
    except RecursionError:
        raise ValidationError("JSON nests too deeply") from None


def is_number(value) -> bool:
    """An int or a finite float; not a bool, and not an int beyond the
    largest float. A NaN score would pass every quality gate, since it
    compares false against any cutoff; a NaN or infinite time has no frame;
    and float() of a 400-digit JSON integer raises OverflowError."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def _check_for(kind):
    """A one-argument check for a class hint."""
    if kind is float:
        return is_number
    if kind is int:
        return lambda value: isinstance(value, int) and is_number(value)
    if kind is str:
        return lambda value: isinstance(value, str) and not _SURROGATE.search(value)
    return lambda value: isinstance(value, kind)


def fits(value, hint) -> bool:
    """Whether a JSON value fits `hint`."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(map(_check_for(args[0]), value))
    if args:
        return any(fits(value, kind) for kind in args)
    return _check_for(hint)(value)


def _shown(value) -> str:
    """A value as a message shows it: a container by its type only."""
    return type(value).__name__ if isinstance(value, (dict, list)) else repr(value)


def check_object(data, types: dict, name: str, required=()) -> dict:
    """`data`, once it is checked to be a JSON object whose keys are all in
    `types`, that has every key in `required`, and whose values fit their
    hints. `name` is the object's path in messages, e.g. "train" or
    "prompt.segments[0]"."""
    if not isinstance(data, dict):
        raise ValidationError(f"{name} must be an object, got {_shown(data)}")
    unknown = [key for key in data if key not in types]
    if unknown:
        raise ValidationError(f"{name} has unknown keys {unknown}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValidationError(f"{name} is missing keys {missing}")
    for key, value in data.items():
        hint = types[key]
        if not fits(value, hint):
            kind = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ValidationError(f"{name}.{key} must be {kind}, got {_shown(value)}")
    return data
