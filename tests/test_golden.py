"""Byte-for-byte golden outputs of the CLI on the resignation fixture.

Each case runs `cli.main` in a fresh working directory with relative
paths, because a report records its paths as given. Its transcript holds,
for every command, the exit code, stdout, stderr and the bytes of every
file the command wrote or changed; it must equal `tests/golden/<case>.txt`.
A difference means an output changed. If the change is meant, replace the
golden file with the new transcript and say why in the change.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from eescore import cli
from eescore.ingest import serialize_corpus
from eescore.jsonio import dump_jsonl

from corpora import resignation_corpus

GOLDEN = Path(__file__).resolve().parent / "golden"

EP = {"trigger": [8, 9], "event_type": "End-Position"}
MEET = {"trigger": [17, 18], "event_type": "Meet"}


def _tags(**at):
    tags = ["O"] * 21
    for i, tag in at.items():
        tags[int(i[1:])] = tag
    return tags


INPUTS = {
    "corpus.jsonl": serialize_corpus(resignation_corpus(second_event=True)),
    "variant.cfg": b"include_value = false\n",
    # ED: both gold triggers and an Attack that is no gold trigger
    "ed_cls.jsonl": dump_jsonl([{"doc_id": "doc-resignation", "task": "trigger", "assignments": [
        {"candidate_id": "t:8:9", "label": "End-Position"}, {"candidate_id": "t:17:18", "label": "Meet"},
        {"candidate_id": "t:3:4", "label": "Attack"}]}]),
    # ED: one span twice with two labels, and a two-token span
    "ed_sp.jsonl": dump_jsonl([{"doc_id": "doc-resignation", "task": "trigger", "spans": [
        {"span": [8, 9], "label": "End-Position", "confidence": 0.9},
        {"span": [8, 9], "label": "Meet", "confidence": 0.4},
        {"span": [3, 5], "label": "Attack", "confidence": 0.7}]}]),
    # ED without confidences: one span twice, so the later prediction loses
    "ed_sp_unscored.jsonl": dump_jsonl([{"doc_id": "doc-resignation", "task": "trigger", "spans": [
        {"span": [8, 9], "label": "End-Position"}, {"span": [8, 9], "label": "Meet"}]}]),
    # ED: a candidate id past the last token
    "ed_cls_unknown.jsonl": dump_jsonl([{"doc_id": "doc-resignation", "task": "trigger", "assignments": [
        {"candidate_id": "t:99:100", "label": "Attack"}, {"candidate_id": "t:8:9", "label": "End-Position"}]}]),
    # EAE: a hit, a span overlapping a mention, a stray I tag, a wrong role
    "eae_sl.jsonl": dump_jsonl([
        {"doc_id": "doc-resignation", "task": "argument", "anchor": EP,
         "tags": _tags(t0="B-Person", t1="I-Person", t9="B-Position", t10="I-Position", t11="I-Position",
                       t12="I-Position", t18="I-Place")},
        {"doc_id": "doc-resignation", "task": "argument", "anchor": MEET,
         "tags": _tags(t0="B-Place", t1="I-Place")},
    ]),
    # EAE: a unique mention, one that occurs twice, one that is not in the text
    "eae_cg.jsonl": dump_jsonl([{"doc_id": "doc-resignation", "task": "argument", "anchor": EP, "items": [
        {"mention": ["Elon", "Musk"], "label": "Person"}, {"mention": ["Twitter"], "label": "Place"},
        {"mention": ["Nobody"], "label": "Entity"}]}]),
}

SCORE = ["score", "--corpus", "corpus.jsonl"]
ED_CLS = ["--ed-predictions", "ed_cls.jsonl", "--ed-paradigm", "CLS"]
ED_SP = ["--ed-predictions", "ed_sp.jsonl", "--ed-paradigm", "SP"]
EAE_SL = ["--eae-predictions", "eae_sl.jsonl", "--eae-paradigm", "SL"]
SPANS = ["--trigger-policy", "every_span_up_to_k", "--k", "2"]
PUT = ["trigger-store", "put", "--store", "store", "--corpus", "corpus.jsonl"]

CASES = {
    "score_gold_trigger": [SCORE + ED_CLS + EAE_SL + ["--output", "report.json"]],
    "score_pipeline_legacy": [
        SCORE + ["--variant", "variant.cfg", *SPANS, *ED_SP, "--eae-predictions", "eae_cg.jsonl",
                 "--eae-paradigm", "CG", "--mode", "pipeline", "--convention", "legacy",
                 "--table", "table.txt", "--dump-discards", "discards.jsonl", "--output", "report.json"],
    ],
    "score_no_standardize": [SCORE + ED_SP + EAE_SL + ["--no-standardize", "--output", "report.json"]],
    "standardize": [
        ["standardize", "--corpus", "corpus.jsonl", *SPANS, "--predictions", "ed_sp.jsonl", "--paradigm", "SP",
         "--output", "ed.std.jsonl"],
        ["standardize", "--corpus", "corpus.jsonl", "--stray_i", "discard", "--predictions", "eae_sl.jsonl",
         "--paradigm", "SL", "--output", "eae.std.jsonl"],
        ["standardize", "--corpus", "corpus.jsonl", "--predictions", "ed_sp_unscored.jsonl", "--paradigm", "SP",
         "--output", "ed_unscored.std.jsonl"],
        ["standardize", "--corpus", "corpus.jsonl", "--predictions", "ed_cls_unknown.jsonl", "--paradigm", "CLS",
         "--output", "ed_unknown.std.jsonl"],
    ],
    "stats": [
        ["stats", "--corpus", "corpus.jsonl"],
        ["stats", "--corpus", "corpus.jsonl", "--variant", "variant.cfg", *SPANS, "--output", "stats.json"],
    ],
    "compare": [
        SCORE + ED_CLS + EAE_SL + ["--output", "a.json"],
        SCORE + ED_SP + EAE_SL + ["--output", "b.json"],
        ["compare", "a.json", "b.json", "--output", "delta.txt"],
        SCORE + ED_SP + EAE_SL + ["--no-standardize", "--output", "c.json"],
        ["compare", "b.json", "c.json"],
    ],
    "trigger_store": [
        PUT + ["--predictions", "ed_sp.jsonl", "--paradigm", "SP", "--producer", "model-x"],
        PUT + ["--predictions", "ed_sp.jsonl", "--paradigm", "SP", "--producer", "model-x"],
        PUT + ["--predictions", "ed_cls.jsonl", "--paradigm", "CLS", "--producer", "model-y"],
        ["trigger-store", "list", "--store", "store"],
        ["trigger-store", "get", "--store", "store", "--corpus", "corpus.jsonl", "--producer", "model-y",
         "--output", "got.jsonl"],
        # model-x's triggers lack the Meet event that eae_sl.jsonl answers
        SCORE + EAE_SL + ["--mode", "pipeline", "--store", "store", "--producer", "model-x",
                          "--output", "report.json"],
        SCORE + EAE_SL + ["--mode", "pipeline", "--store", "store", "--producer", "model-y",
                          "--output", "report.json"],
        # nothing was put under the variant: both readers of the store give one message and exit 1
        ["trigger-store", "get", "--store", "store", "--corpus", "corpus.jsonl", "--variant", "variant.cfg",
         "--output", "missing.jsonl"],
        SCORE + ["--variant", "variant.cfg", *EAE_SL, "--mode", "pipeline", "--store", "store",
                 "--output", "missing.json"],
        # the store holds this corpus and variant, but nothing by this producer
        ["trigger-store", "get", "--store", "store", "--corpus", "corpus.jsonl", "--producer", "nobody",
         "--output", "missing.jsonl"],
    ],
}


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _section(name: str, data: bytes) -> bytes:
    return f"--- {name} ({len(data)} bytes)\n".encode() + data + (b"" if data.endswith(b"\n") or not data else b"\n")


def transcript(case: str, root: Path) -> bytes:
    """Runs the case's commands in `root`, which must be empty."""
    for name, data in INPUTS.items():
        (root / name).write_bytes(data)
    out = []
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in CASES[case]:
            before = _files(root)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            out.append(f"$ eescore {' '.join(argv)}\nexit {code}\n".encode())
            out.append(_section("stdout", stdout.getvalue().encode("utf-8")))
            out.append(_section("stderr", stderr.getvalue().encode("utf-8")))
            out += [_section(name, data) for name, data in _files(root).items() if before.get(name) != data]
    finally:
        os.chdir(cwd)
    return b"".join(out)


@pytest.mark.parametrize("case", CASES)
def test_golden_transcript(tmp_path, case):
    assert transcript(case, tmp_path).decode("utf-8") == (GOLDEN / f"{case}.txt").read_bytes().decode("utf-8")
