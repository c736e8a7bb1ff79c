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
import threading
from pathlib import Path
from typing import Any


def canonical_line(obj: Any, default=None) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, default=default)


def dump_jsonl(objs) -> bytes:
    return "".join(canonical_line(o) + "\n" for o in objs).encode("utf-8")


def _format_value(value: Any, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k), ensure_ascii=False)}: {_format_value(v, indent + 2)}"
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


def write_atomic(path, data: bytes) -> None:
    """Writes `data` to `path` through a temporary file in the same directory
    that is renamed into place, so a reader sees the old or the new bytes,
    never a torn file. The temporary name is unique per process and thread:
    two concurrent writers never share one, and a failed write removes it.
    An OSError names `path`, not the temporary file."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_bytes(data)
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


# one decoder for every read: json.loads(s, **hooks) builds a new one per call
DECODER = json.JSONDecoder(object_pairs_hook=unique_keys)


def read_json(path) -> Any:
    """The JSON value in a file. Raises ValueError saying what is wrong when
    the file is not UTF-8, not JSON, repeats a key in an object, or is
    nested too deeply to parse."""
    try:
        return DECODER.decode(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError:
        raise ValueError("not valid UTF-8") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise ValueError("nested too deeply") from None
