"""The readers that test_parser_differential does not cover are total too:
the variant config, the trigger-store manifest and the score report that
`compare` reads. Whatever bytes they hold, each reader returns a result or
raises a ToolkitError.

The JSON files are also fed JSON-aware mutants of valid files, with three
values beyond the differential test's: a 400-digit integer, NaN and 1e999,
which a JSON decoder accepts but no score may be.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from eescore import cli
from eescore.errors import ParseError, ToolkitError
from eescore.pipeline import TriggerStore
from eescore.protocol import Protocol
from eescore.variants import VariantConfig, load_variant_config, parse_variant_config

from test_cli_totality import MANIFEST, REPORT, _valid_files
from test_parser_differential import _mutate

INFINITY = "@1e999@"  # written as the JSON text 1e999, which json.dumps cannot emit
NUMBERS = (int("9" * 400), float("nan"), INFINITY)

CONFIG_PARTS = (
    "include_value", "include_time", "multi_token_triggers", "entity_mention_mode", "multi_token_policy",
    "tokenizer", "=", " = ", "true", "false", "True", "maybe", "head", "full", "#", " ", "\t", "\n", "\r", "\r\n",
    "\u2028", "\x85", "\f", "\0", "é",
)


def _json_bytes(value) -> bytes:
    return json.dumps(value).encode("utf-8").replace(f'"{INFINITY}"'.encode(), b"1e999")


def _outcome(read, *args):
    try:
        return read(*args)
    except ToolkitError as exc:
        return exc


def _check_config_text(text: str) -> None:
    """A result, or a ParseError naming the first line that is wrong."""
    got = _outcome(parse_variant_config, text)
    if isinstance(got, VariantConfig):
        return
    assert isinstance(got, ParseError), got
    match = re.match(r"line (\d+): ", str(got))
    assert match, str(got)
    lines = text.split("\n")
    n = int(match.group(1))
    assert 1 <= n <= len(lines)
    assert isinstance(parse_variant_config("\n".join(lines[: n - 1])), VariantConfig)
    assert str(_outcome(parse_variant_config, "\n".join(lines[:n]))) == str(got)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(CONFIG_PARTS) | st.text(max_size=3), max_size=16))
def test_variant_config_is_total_and_names_the_faulty_line(parts):
    _check_config_text("".join(parts))


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=40))
def test_variant_config_file_is_total_on_arbitrary_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "variant.cfg"
        path.write_bytes(data)
        got = _outcome(load_variant_config, path)
    assert isinstance(got, (VariantConfig, ParseError)), got
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        assert str(got) == f"line {line}: not valid UTF-8"
    else:
        _check_config_text(text)


def _read_manifest(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / TriggerStore.MANIFEST).write_bytes(data)
        return _outcome(TriggerStore(tmp).entries)


def _read_report(data: bytes):
    """The report reader's outcome, and `compare`'s exit codes for the
    report against a valid one, both ways round."""
    with tempfile.TemporaryDirectory() as tmp:
        good, bad = Path(tmp) / "good.json", Path(tmp) / "bad.json"
        good.write_bytes(_valid_files()[REPORT])
        bad.write_bytes(data)
        got = _outcome(cli._load_report, bad)
        codes = {_quiet_main(["compare", str(good), str(bad)]), _quiet_main(["compare", str(bad), str(good)])}
    return got, codes


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _is_score(value) -> bool:
    return type(value) in (int, float) and 0 <= value <= 1


def _check_manifest(data: bytes) -> None:
    """A list of entries whose ED F1 is a score, or a ToolkitError."""
    got = _read_manifest(data)
    assert isinstance(got, (list, ToolkitError)), got
    if isinstance(got, list):
        assert all(_is_score(entry.ed_f1) for entry in got)


def _check_report(data: bytes) -> None:
    """A report whose scores are scores, with its protocol, or a
    ToolkitError; `compare` exits 0 or 2, and 2 for a report the reader
    rejects."""
    got, codes = _read_report(data)
    assert isinstance(got, (tuple, ToolkitError)), got
    if isinstance(got, tuple):
        got, protocol = got
        assert isinstance(got, dict) and isinstance(protocol, Protocol)
        scores = [got[task] for task in ("ed", "eae") if got.get(task) is not None]
        assert all(_is_score(s[m]) for s in scores for m in ("precision", "recall", "f1"))
    assert codes <= {0, 2}
    if isinstance(got, ToolkitError):
        assert codes == {2}


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=40))
def test_manifest_and_report_readers_are_total_on_arbitrary_bytes(data):
    _check_manifest(data)
    _check_report(data)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_manifest_reader_is_total_on_json_mutants(data):
    rows = json.loads(_valid_files()[MANIFEST])
    _check_manifest(_json_bytes(_mutate(data, rows + rows, NUMBERS)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_report_reader_is_total_on_json_mutants(data):
    mutated = _mutate(data, [json.loads(_valid_files()[REPORT])], NUMBERS)
    _check_report(_json_bytes(mutated[0] if len(mutated) == 1 else mutated))
