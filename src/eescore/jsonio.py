"""Deterministic JSON writers, and the file reads and writes around them.

Canonical JSONL lines (sorted keys, no extra whitespace) make
serialize(parse(x)) byte-identical for canonical input, and give the
trigger-store fingerprints a stable byte stream to hash. Report files
use an indented writer that renders every real with exactly six decimal
places so that repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import re
import threading
from pathlib import Path
from typing import Any, Callable


def canonical_line(obj: Any, default=None, check_circular: bool = True) -> str:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, default=default, check_circular=check_circular
    )


def dump_jsonl(objs) -> bytes:
    return "".join(canonical_line(o) + "\n" for o in objs).encode("utf-8")


def _format_value(value: Any, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return _encode_scalar(value)
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{inner}{_encode_scalar(str(k))}: {_format_value(v, indent + 2)}"
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if type(value) in (list, tuple):  # not a record: records are tuple subclasses
        if not value:
            return "[]"
        parts = [f"{inner}{_format_value(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def format_report(obj: Any) -> str:
    """Indented JSON with sorted keys and 6-decimal reals; ends with newline."""
    return _format_value(obj, 0) + "\n"


def write_atomic(path, data: bytes | Callable[[Any], object]) -> None:
    """Writes `data` (bytes, or a function that writes to the open file) to
    `path` through a temporary file in the same directory that is renamed
    into place, so a reader sees the old or the new bytes, never a torn file.
    The temporary name is unique per process and thread: two concurrent
    writers never share one, and a failed write removes it. An OSError
    names `path`, not the temporary file."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as f:
            data(f) if callable(data) else f.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def unique_keys(pairs: list) -> dict:
    """`object_pairs_hook` for `json.loads`: an object that repeats a key
    raises ValueError naming it, instead of keeping the last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


# one decoder for every read and one encoder for every report scalar: json.loads(s, **hooks) and
# json.dumps(value, **options) build a new one per call
DECODER = json.JSONDecoder(object_pairs_hook=unique_keys)
_encode_scalar = json.JSONEncoder(ensure_ascii=False).encode
# a string of a valid JSON text: outside its strings, JSON has no quote or backslash
_STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


def read_json(path) -> Any:
    """The JSON value in a file. Raises ValueError saying what is wrong when the
    file is not UTF-8 or JSON, repeats a key, holds an unpaired surrogate or is
    nested too deeply to parse; a bad byte or surrogate is located by its line,
    a JSON syntax error by its line and column (lines end at "\n")."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
        obj = DECODER.decode(text)
        # a surrogate may be escaped, but so is a valid pair: encoding tells ("\\" is found by memchr)
        if "\\" in text and ("\\ud" in text or "\\uD" in text):
            for string in _STRING_RE.finditer(text):  # no JSON string spans a line
                DECODER.decode(string[0]).encode("utf-8")
        return obj
    except UnicodeEncodeError:  # `string` holds the surrogate
        line = text.count("\n", 0, string.start()) + 1
        raise ValueError(f"line {line}: a string holds an unpaired surrogate, which UTF-8 cannot encode") from None
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"line {line}: not valid UTF-8") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {exc.lineno} column {exc.colno}: invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise ValueError("nested too deeply") from None
