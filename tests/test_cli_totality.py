"""The CLI is total: whatever bytes its input files hold, `cli.main`
returns exit code 0, 1 or 2 and no exception escapes it.

Each example starts from valid inputs for every file the CLI reads: the
corpus, a variant config, predictions of all four paradigms, a
predicted-trigger file, a trigger-store manifest and a score report. It
mutates one of them in one to three places and runs every command that
reads that file.
"""

import contextlib
import functools
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from eescore import cli
from eescore.ingest import serialize_corpus
from eescore.jsonio import dump_jsonl

from corpora import resignation_corpus

DOC = "doc-resignation"
EP_ANCHOR = {"trigger": [8, 9], "event_type": "End-Position"}
TAGS = ["O"] * 8 + ["B-End-Position"] + ["O"] * 8 + ["B-Meet", "I-Meet"] + ["O"] * 2

INPUTS = {
    "corpus.jsonl": serialize_corpus(resignation_corpus(second_event=True)),
    "variant.cfg": b"include_value = false  # drops Chief Executive\nmulti_token_triggers = true\n",
    "ed_cls.jsonl": dump_jsonl([{"doc_id": DOC, "task": "trigger", "assignments": [
        {"candidate_id": "t:8:9", "label": "End-Position", "confidence": 0.9},
        {"candidate_id": "t:17:18", "label": "Meet", "confidence": 0.5},
    ]}]),
    "ed_sl.jsonl": dump_jsonl([{"doc_id": DOC, "task": "trigger", "tags": TAGS}]),
    "eae_sp.jsonl": dump_jsonl([{"doc_id": DOC, "task": "argument", "anchor": EP_ANCHOR, "spans": [
        {"span": [0, 2], "label": "Person"}, {"span": [14, 16], "label": "Entity"},
    ]}]),
    "eae_cg.jsonl": dump_jsonl([{"doc_id": DOC, "task": "argument", "anchor": EP_ANCHOR, "items": [
        {"mention": ["Twitter"], "label": "Entity"}, {"mention": ["Elon", "Musk"], "label": "Person"},
    ]}]),
    "triggers.jsonl": dump_jsonl([{"doc_id": DOC, "triggers": [
        {"span": [8, 9], "event_type": "End-Position"}, {"span": [17, 18], "event_type": "Meet"},
    ]}]),
}
MANIFEST = "store/manifest.json"
REPORT = "report.json"

# Each command names the files it reads; "store" stands for the manifest.
PUT = ["trigger-store", "put", "--store", "store", "--corpus", "corpus.jsonl", "--variant", "variant.cfg",
       "--predictions", "ed_cls.jsonl", "--paradigm", "CLS", "--producer", "p1"]
SCORE = ["score", "--corpus", "corpus.jsonl", "--variant", "variant.cfg", "--ed-predictions", "ed_cls.jsonl",
         "--ed-paradigm", "CLS", "--eae-predictions", "eae_sp.jsonl", "--eae-paradigm", "SP"]
COMMANDS = [
    PUT,
    SCORE + ["--output", "out/r.json", "--dump-discards", "out/discards.jsonl"],
    ["stats", "--corpus", "corpus.jsonl", "--variant", "variant.cfg", "--output", "out/stats.json"],
    ["score", "--corpus", "corpus.jsonl", "--ed-predictions", "ed_sl.jsonl", "--ed-paradigm", "SL",
     "--eae-predictions", "eae_cg.jsonl", "--eae-paradigm", "CG", "--mode", "pipeline", "--convention", "legacy",
     "--trigger-policy", "every_span_up_to_k", "--k", "2", "--output", "out/r.json"],
    ["score", "--corpus", "corpus.jsonl", "--eae-predictions", "eae_sp.jsonl", "--eae-paradigm", "SP",
     "--mode", "pipeline", "--triggers", "triggers.jsonl", "--no-standardize", "--output", "out/r.json"],
    ["score", "--corpus", "corpus.jsonl", "--variant", "variant.cfg", "--eae-predictions", "eae_cg.jsonl",
     "--eae-paradigm", "CG", "--mode", "pipeline", "--store", "store", "--output", "out/r.json"],
    ["standardize", "--corpus", "corpus.jsonl", "--predictions", "ed_sl.jsonl", "--paradigm", "SL",
     "--output", "out/std.jsonl"],
    ["trigger-store", "get", "--store", "store", "--corpus", "corpus.jsonl", "--variant", "variant.cfg",
     "--output", "out/t.jsonl"],
    ["trigger-store", "list", "--store", "store"],
    ["compare", "good.json", REPORT],
]
TARGETS = sorted(INPUTS) + [MANIFEST, REPORT]
PATHS = set(INPUTS) | {"store", REPORT, "good.json"}

# JSON tokens and the separators of the line and config formats
FRAGMENTS = (
    b'"', b"[", b"]", b"{", b"}", b",", b":", b"=", b"#", b"\n", b"\r", b"\\", b"null", b"true", b"0", b"-1",
    b"1.5", b"1e999", b"[]", b"{}", b'""', b'"x"', b'"O"', b"\\u0000", b"\xff", b"\xc3", b"NaN", b"9" * 400,
)


def _main(root: Path, argv: list) -> int:
    args = [str(root / a) if a in PATHS or a.startswith("out/") else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(args)


@functools.cache
def _valid_files() -> dict:
    """INPUTS plus the manifest a put writes and the report a score writes."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, data in INPUTS.items():
            (root / name).write_bytes(data)
        assert _main(root, PUT) == 0 and _main(root, SCORE + ["--output", REPORT]) == 0
        store = {f"store/{p.name}": p.read_bytes() for p in (root / "store").iterdir() if p.suffix != ".lock"}
        return {**INPUTS, **store, REPORT: (root / REPORT).read_bytes(), "good.json": (root / REPORT).read_bytes()}


def _write(root: Path, files: dict) -> None:
    (root / "store").mkdir()
    (root / "out").mkdir()
    for name, content in files.items():
        (root / name).write_bytes(content)


def test_every_command_accepts_the_valid_inputs(tmp_path):
    _write(tmp_path, _valid_files())
    assert [_main(tmp_path, argv) for argv in COMMANDS] == [0] * len(COMMANDS)


@st.composite
def mutants(draw, data: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 8)))
        data = data[:start] + draw(st.sampled_from(FRAGMENTS) | st.binary(max_size=4)) + data[end:]
    return data


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_inputs_never_escape_main(data):
    files = _valid_files()
    target = data.draw(st.sampled_from(TARGETS))
    mutant = data.draw(mutants(files[target]))
    reader = "store" if target == MANIFEST else target
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write(root, {**files, target: mutant})
        for argv in COMMANDS:
            if reader in argv:
                assert _main(root, argv) in (0, 1, 2), argv
