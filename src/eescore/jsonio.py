"""Deterministic JSON writers, the one reader of input text and JSON
(`decode`, `lines`, `loads`: each refuses with a ParseError at the line at
fault), and the file reads and writes around them.

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
import sys
import threading
from contextlib import suppress
from pathlib import Path
from typing import Any, Callable, Iterator

from .errors import ParseError


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


def _unique_keys(pairs: list) -> dict:
    """`object_pairs_hook` for the decoder: an object that repeats a key
    is refused, naming the key, instead of keeping the last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


# one decoder for every read and one encoder for every report scalar: json.loads(s, **hooks) and
# json.dumps(value, **options) build a new one per call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)
_encode_scalar = json.JSONEncoder(ensure_ascii=False).encode
# a string of a valid JSON text: outside its strings, JSON has no quote or backslash
_STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')
# a string, an integer (its digits in group 1) or another number, which the third choice skips whole
_NUMBER_RE = re.compile(_STRING_RE.pattern + r'|-?(\d+)(?![\d.eE])|[\d.eE+-]+')


def decode(data: bytes) -> str:
    """`data` as UTF-8 text; a byte that is not UTF-8 is a ParseError at its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("not valid UTF-8", data.count(b"\n", 0, exc.start) + 1) from None


def lines(text: str) -> Iterator[tuple[int, str]]:
    """Yields (line number, line) for every non-blank line of `text`.

    Lines end at "\n" only (a "\r" before it is dropped): JSON strings may
    hold U+2028, U+0085, "\f" and the other characters `str.splitlines`
    also breaks on, and the canonical writer emits them raw.
    """
    # one line at a time: the text is held once, not again as a list of lines
    start, i = 0, 1
    while start <= len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        raw = text[start:end].removesuffix("\r")
        if raw.strip():
            yield i, raw
        start, i = end + 1, i + 1


def _key_line(text: str) -> int | None:
    """The line of the `{` of the object that repeats a key in the JSON file `text`, or None if nested too deeply."""
    refused, decoder = [], json.JSONDecoder(object_pairs_hook=_unique_keys)
    def parse_object(s_and_end, *args):  # the pure-Python scanner's JSONObject, told where its `{` is
        try:
            return json.decoder.JSONObject(s_and_end, *args)
        except ParseError:  # the innermost object refused comes first
            refused.append(s_and_end[1] - 1)
            raise
    decoder.parse_object = parse_object
    decoder.scan_once = json.scanner.py_make_scanner(decoder)
    with suppress(ParseError, RecursionError):
        decoder.decode(text)
    return text.count("\n", 0, refused[0]) + 1 if refused else None


def loads(text: str, line: int | None = None) -> Any:
    """The JSON value of `text`: line `line` of its file, or the whole file when `line` is None. Text that is not
    JSON, repeats a key, holds an unpaired surrogate or an overlong integer, or is nested too deeply is a ParseError
    at its line; in a whole file, a syntax error is located by its line and column, a repeated key by its object's."""
    try:
        obj = _DECODER.decode(text)
        # a surrogate may be escaped, but so is a valid pair: encoding tells ("\\" is found by memchr)
        if "\\" in text and ("\\ud" in text or "\\uD" in text):
            for string in _STRING_RE.finditer(text):  # no JSON string spans a line
                _DECODER.decode(string[0]).encode("utf-8")
        return obj
    except UnicodeEncodeError:  # `string` holds the surrogate
        at = (line or 1) + text.count("\n", 0, string.start())
        raise ParseError("a string holds an unpaired surrogate, which UTF-8 cannot encode", at) from None
    except json.JSONDecodeError as exc:
        if line is None:
            raise ParseError(f"invalid JSON ({exc.msg}) at column {exc.colno}", exc.lineno) from None
        raise ParseError(f"invalid JSON ({exc.msg})", line) from None
    except RecursionError:
        raise ParseError("invalid JSON (nested too deeply)", line) from None
    except ParseError as exc:  # a repeated key
        raise ParseError(str(exc), line or _key_line(text)) from None
    except ValueError:  # an integer too long to convert, which json does not locate
        limit = sys.get_int_max_str_digits()
        if line is None:
            at = next(m.start() for m in _NUMBER_RE.finditer(text) if m[1] and len(m[1]) > limit)
            line = text.count("\n", 0, at) + 1
        raise ParseError(f"invalid JSON (an integer of more than {limit} digits)", line) from None


def read_json(path) -> Any:
    """The JSON value in a file, as `loads` reads a whole file."""
    return loads(decode(Path(path).read_bytes()))
