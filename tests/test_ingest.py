import json
import random
import re
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eescore.core import Span
from eescore.errors import ParseError, ToolkitError, ValidationError
from eescore.ingest import parse_corpus, parse_predictions, parse_trigger_file, serialize_corpus
from eescore.jsonio import dump_jsonl, lines
from eescore.protocol import PARADIGMS

from corpora import resignation_corpus, resignation_document
from gen import gold_anchor_table, random_argument_predictions, random_corpus, random_trigger_predictions
from oracles import serialize_predictions

RESIGNATION_OBJ = {
    "id": "doc-resignation",
    "tokens": list(resignation_document().tokens),
    "sentences": [[0, 21]],
    "entities": [
        {"id": "e1", "span": [0, 2], "head_span": [1, 2], "kind": "entity"},
        {"id": "e2", "span": [10, 12], "head_span": [11, 12], "kind": "value"},
        {"id": "e3", "span": [14, 15], "head_span": [14, 15], "kind": "entity"},
        {"id": "e4", "span": [18, 19], "head_span": [18, 19], "kind": "entity"},
    ],
    "events": [
        {
            "id": "ev1",
            "type": "End-Position",
            "trigger": [8, 9],
            "arguments": [
                {"entity_id": "e1", "role": "Person"},
                {"entity_id": "e2", "role": "Position"},
                {"entity_id": "e3", "role": "Entity"},
                {"entity_id": "e4", "role": "Place"},
            ],
        }
    ],
}


def test_parse_single_document_corpus():
    corpus = parse_corpus(dump_jsonl([RESIGNATION_OBJ]))
    assert len(corpus) == 1
    assert corpus.documents[0] == resignation_document()


def test_parse_empty_file():
    assert len(parse_corpus(b"")) == 0
    assert len(parse_corpus(b"\n\n")) == 0


def test_duplicate_doc_id_cites_line():
    data = dump_jsonl(
        [
            {"id": "d1", "tokens": ["a"], "sentences": [[0, 1]], "entities": [], "events": []},
            {"id": "d1", "tokens": ["b"], "sentences": [[0, 1]], "entities": [], "events": []},
        ]
    )
    with pytest.raises(ParseError, match="line 2.*duplicate"):
        parse_corpus(data)


def test_malformed_json_cites_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_corpus(b"{nope}\n")


def test_invalid_document_names_id_and_rule():
    obj = {
        "id": "bad",
        "tokens": ["a", "b"],
        "sentences": [[0, 2]],
        "entities": [],
        "events": [{"id": "ev", "type": "A", "trigger": [1, 1], "arguments": []}],
    }
    with pytest.raises(ValidationError, match="'bad'.*start < end"):
        parse_corpus(dump_jsonl([obj]))


def test_unknown_field_rejected():
    obj = dict(RESIGNATION_OBJ)
    obj["surprise"] = 1
    with pytest.raises(ParseError, match="surprise"):
        parse_corpus(dump_jsonl([obj]))


def test_corpus_roundtrip_is_byte_identical():
    data = dump_jsonl([RESIGNATION_OBJ])
    assert serialize_corpus(parse_corpus(data)) == data


# characters `str.splitlines` breaks on besides "\n" and "\r"
LINE_BREAKS_INSIDE_JSON_STRINGS = "\u2028\u2029\u0085\v\f\x1c\x1d\x1e"


@pytest.mark.parametrize("char", LINE_BREAKS_INSIDE_JSON_STRINGS)
def test_corpus_roundtrip_with_line_break_character_in_token(char):
    obj = {"id": "d", "tokens": [f"a{char}b", "c"], "sentences": [[0, 2]], "entities": [], "events": []}
    second = dict(obj, id="d2")
    data = dump_jsonl([obj, second])
    # JSON escapes control characters; the canonical writer leaves the rest raw
    assert (char.encode("utf-8") in data) == (char >= "\x20")
    corpus = parse_corpus(data)
    assert [d.tokens[0] for d in corpus] == [f"a{char}b"] * 2
    assert serialize_corpus(corpus) == data


def test_crlf_lines_keep_their_numbers():
    first = dump_jsonl([{"id": "d1", "tokens": ["a"], "sentences": [[0, 1]], "entities": [], "events": []}])
    data = first.replace(b"\n", b"\r\n") + b"\r\n{nope}\r\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_corpus(data)
    assert len(parse_corpus(first.replace(b"\n", b"\r\n"))) == 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["\n", "\r\n", "\r", " ", "\t", "\f", "\u2028", "\x85", "a", "{}", "é"]), max_size=30))
@example(["a", "\r\n", "\r\n", "\u2028", "\n", "\f", "\n", "a"])
def test_iter_lines_splits_on_newline_only(parts):
    text = "".join(parts)
    want = [(i, l.removesuffix("\r")) for i, l in enumerate(text.split("\n"), 1) if l.removesuffix("\r").strip()]
    assert list(lines(text)) == want


def _parsers():
    """Every parser of an input file, each taking the bytes alone."""
    corpus = resignation_corpus()
    yield parse_corpus
    for paradigm in PARADIGMS:
        yield lambda data, paradigm=paradigm: parse_predictions(data, paradigm, corpus)
    yield lambda data: parse_trigger_file(data, corpus, source="t")


# valid lines of each input kind, for mixing with noise
VALID_LINES = [
    serialize_corpus(resignation_corpus()).rstrip(b"\n"),
    b'{"doc_id":"doc-resignation","task":"trigger","assignments":[{"candidate_id":"t:8:9","label":"A"}]}',
    b'{"doc_id":"doc-resignation","task":"trigger","tags":["O"]}',
    b'{"doc_id":"doc-resignation","task":"trigger","spans":[{"span":[8,9],"label":"A"}]}',
    b'{"doc_id":"doc-resignation","task":"argument","anchor":{"trigger":[8,9],"event_type":"A"},'
    b'"items":[{"mention":["Musk"],"label":"P"}]}',
    b'{"doc_id":"doc-resignation","triggers":[{"span":[8,9],"event_type":"A"}]}',
]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.binary(max_size=40), st.sampled_from(VALID_LINES)), max_size=4))
def test_every_parser_is_total_on_arbitrary_bytes(lines):
    data = b"\n".join(lines)
    for parse in _parsers():
        try:
            parse(data)
        except ToolkitError:
            pass


@pytest.mark.parametrize("nested", [b"[" * 100000, b'{"a":' * 100000], ids=["arrays", "objects"])
def test_deep_nesting_is_a_parse_error(nested):
    with pytest.raises(ParseError, match="line 2.*nested too deeply"):
        parse_corpus(b"\n" + nested + b"\n")
    with pytest.raises(ParseError, match="line 1.*nested too deeply"):
        parse_predictions(nested, "SL", resignation_corpus())


def test_generated_corpus_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        corpus = random_corpus(rng)
        data = serialize_corpus(corpus)
        assert serialize_corpus(parse_corpus(data)) == data


def test_prediction_roundtrip_all_paradigms():
    rng = random.Random(11)
    for paradigm in ("CLS", "SL", "SP", "CG"):
        for _ in range(10):
            corpus = random_corpus(rng)
            preds = random_trigger_predictions(rng, corpus, paradigm)
            data = serialize_predictions(preds)
            assert serialize_predictions(parse_predictions(data, paradigm, corpus)) == data


def test_unknown_paradigm_is_a_value_error():
    with pytest.raises(ValueError, match=r"^unknown paradigm 'XX'; expected one of \('CLS', 'SL', 'SP', 'CG'\)$"):
        parse_predictions(b"", "XX", resignation_corpus())


def _kept_values(value, out: list) -> list:
    """Every string and span a parse result holds."""
    if type(value) is str or type(value) is Span:
        out.append(value)
    elif isinstance(value, tuple):
        for item in value:
            _kept_values(item, out)
    elif isinstance(value, dict):
        for key, item in value.items():
            _kept_values(key, out)
            _kept_values(item, out)
    elif is_dataclass(value):
        for f in fields(value):
            _kept_values(getattr(value, f.name), out)
    return out


def _assert_one_object_per_value(result) -> None:
    values = _kept_values(result, [])
    assert len({id(v) for v in values}) == len(set(values))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_each_parse_keeps_one_object_per_distinct_value(seed):
    """Equal tokens, ids, labels, tags and spans within one parsed file are
    one object (the values themselves are checked by the round-trip,
    differential and golden tests)."""
    rng = random.Random(seed)
    corpus = parse_corpus(serialize_corpus(random_corpus(rng, require_event_with_argument=True)))
    _assert_one_object_per_value(corpus)
    anchors = gold_anchor_table(corpus)
    for paradigm in PARADIGMS:
        for predictions in (
            random_trigger_predictions(rng, corpus, paradigm),
            random_argument_predictions(rng, corpus, paradigm, anchors),
        ):
            parsed = parse_predictions(serialize_predictions(predictions), paradigm, corpus)
            _assert_one_object_per_value(parsed.records)
    triggers = dump_jsonl(
        {"doc_id": d.id, "triggers": [{"span": e.trigger.as_pair(), "event_type": e.event_type} for e in d.events]}
        for d in corpus
    )
    _assert_one_object_per_value(parse_trigger_file(triggers, corpus, source="t").triggers)


def test_sl_tag_length_mismatch():
    corpus = parse_corpus(
        dump_jsonl([{"id": "d", "tokens": ["a"] * 9, "sentences": [[0, 9]], "entities": [], "events": []}])
    )
    record = {"doc_id": "d", "task": "trigger", "tags": ["O"] * 10}
    with pytest.raises(ParseError, match="10 entries for a 9-token"):
        parse_predictions(dump_jsonl([record]), "SL", corpus)


def test_sl_malformed_tag():
    corpus = parse_corpus(
        dump_jsonl([{"id": "d", "tokens": ["a", "b"], "sentences": [[0, 2]], "entities": [], "events": []}])
    )
    record = {"doc_id": "d", "task": "trigger", "tags": ["O", "X-Thing"]}
    with pytest.raises(ParseError, match="malformed tag"):
        parse_predictions(dump_jsonl([record]), "SL", corpus)


def test_sp_record_accepted_in_bounds():
    corpus = parse_corpus(
        dump_jsonl([{"id": "d", "tokens": ["a"] * 8, "sentences": [[0, 8]], "entities": [], "events": []}])
    )
    record = {"doc_id": "d", "task": "trigger",
              "spans": [{"span": [4, 6], "label": "Position", "confidence": 0.8}]}
    preds = parse_predictions(dump_jsonl([record]), "SP", corpus)
    assert preds.records[0].payload[0].confidence == 0.8


def test_sp_out_of_bounds_span():
    corpus = parse_corpus(
        dump_jsonl([{"id": "d", "tokens": ["a"] * 4, "sentences": [[0, 4]], "entities": [], "events": []}])
    )
    record = {"doc_id": "d", "task": "trigger", "spans": [{"span": [2, 5], "label": "A"}]}
    with pytest.raises(ParseError, match="out of bounds"):
        parse_predictions(dump_jsonl([record]), "SP", corpus)


def test_cg_preserves_generation_order():
    corpus = resignation_corpus()
    record = {
        "doc_id": "doc-resignation",
        "task": "argument",
        "anchor": {"trigger": [8, 9], "event_type": "End-Position"},
        "items": [
            {"mention": ["Twitter"], "label": "Company"},
            {"mention": ["Twitter"], "label": "Company"},
        ],
    }
    preds = parse_predictions(dump_jsonl([record]), "CG", corpus)
    items = preds.records[0].payload
    assert [it.mention for it in items] == [("Twitter",), ("Twitter",)]


def test_unknown_doc_id_rejected():
    corpus = resignation_corpus()
    record = {"doc_id": "elsewhere", "task": "trigger", "tags": ["O"] * 21}
    with pytest.raises(ParseError, match="unknown doc_id"):
        parse_predictions(dump_jsonl([record]), "SL", corpus)


def test_anchor_required_for_argument_task():
    corpus = resignation_corpus()
    record = {"doc_id": "doc-resignation", "task": "argument", "tags": ["O"] * 21}
    with pytest.raises(ParseError, match="anchor"):
        parse_predictions(dump_jsonl([record]), "SL", corpus)


def test_anchor_forbidden_for_trigger_task():
    corpus = resignation_corpus()
    record = {
        "doc_id": "doc-resignation",
        "task": "trigger",
        "anchor": {"trigger": [8, 9], "event_type": "End-Position"},
        "tags": ["O"] * 21,
    }
    with pytest.raises(ParseError, match="anchor"):
        parse_predictions(dump_jsonl([record]), "SL", corpus)


def test_mixed_confidence_rejected():
    corpus = resignation_corpus()
    record = {
        "doc_id": "doc-resignation",
        "task": "trigger",
        "spans": [
            {"span": [0, 1], "label": "A", "confidence": 0.5},
            {"span": [1, 2], "label": "B"},
        ],
    }
    with pytest.raises(ParseError, match="mixes scored and unscored"):
        parse_predictions(dump_jsonl([record]), "SP", corpus)


DOC = {"id": "d", "tokens": [], "sentences": [], "entities": [], "events": []}
TRIGGER = {"doc_id": "doc-resignation", "task": "trigger"}
ANCHOR = {"trigger": [8, 9], "event_type": "End-Position"}

# (prediction paradigm, or None for a corpus; the input; the refusal it earns on line 1)
LITERAL_REFUSALS = [
    (None, b"[]", "record must be a JSON object"),
    (None, b"[" * 100000, "invalid JSON (nested too deeply)"),
    (None, dump_jsonl([dict(DOC, tokens="abc")]), "tokens must be an array of strings"),
    (None, dump_jsonl([dict(DOC, sentences={})]), "sentences must be an array"),
    ("SP", dump_jsonl([dict(TRIGGER, spans=[{"span": [0, 1], "label": "A", "confidence": "0.5"}])]),
     "confidence must be a number"),
    ("SP", dump_jsonl([dict(TRIGGER, spans=[{"span": [0, 1], "label": "A", "confidence": 0.5},
                                           {"span": [1, 2], "label": "B"}])]),
     "record mixes scored and unscored predictions"),
    ("SL", dump_jsonl([{"doc_id": "doc-resignation", "task": "argument", "anchor": [8, 9], "tags": ["O"] * 21}]),
     "anchor must be an object"),
    ("SL", dump_jsonl([dict(TRIGGER, tags="O" * 21)]), "tags must be an array of strings"),
    ("SL", dump_jsonl([dict(TRIGGER, anchor=ANCHOR, tags=["O"] * 21)]),
     "anchor is only allowed when task is 'argument'"),
]


@pytest.mark.parametrize("paradigm, data, message", LITERAL_REFUSALS, ids=[m for *_, m in LITERAL_REFUSALS])
def test_each_literal_refusal_is_raised_with_its_line(paradigm, data, message):
    with pytest.raises(ParseError) as exc:
        if paradigm is None:
            parse_corpus(data)
        else:
            parse_predictions(data, paradigm, resignation_corpus())
    assert str(exc.value) == f"line 1: {message}"


def test_duplicate_record_per_anchor_rejected():
    corpus = resignation_corpus()
    record = {"doc_id": "doc-resignation", "task": "trigger", "tags": ["O"] * 21}
    with pytest.raises(ParseError, match="line 2.*duplicate record"):
        parse_predictions(dump_jsonl([record, record]), "SL", corpus)


def test_duplicate_cls_assignment_rejected():
    corpus = resignation_corpus()
    record = {
        "doc_id": "doc-resignation",
        "task": "trigger",
        "assignments": [
            {"candidate_id": "t:8:9", "label": "A"},
            {"candidate_id": "t:8:9", "label": "B"},
        ],
    }
    with pytest.raises(ParseError, match="multiple assignments"):
        parse_predictions(dump_jsonl([record]), "CLS", corpus)


def test_unknown_label_accepted_at_parse_time():
    corpus = resignation_corpus()
    record = {"doc_id": "doc-resignation", "task": "trigger",
              "spans": [{"span": [8, 9], "label": "Never-Seen-Label"}]}
    preds = parse_predictions(dump_jsonl([record]), "SP", corpus)
    assert preds.records[0].payload[0].label == "Never-Seen-Label"


def test_confidence_out_of_range_rejected():
    corpus = resignation_corpus()
    record = {"doc_id": "doc-resignation", "task": "trigger",
              "spans": [{"span": [8, 9], "label": "A", "confidence": 1.5}]}
    with pytest.raises(ParseError, match="confidence"):
        parse_predictions(dump_jsonl([record]), "SP", corpus)


def test_parse_never_crashes_on_noise():
    corpus = resignation_corpus()
    rng = random.Random(3)
    junk = [b"]", b"{}", b'{"doc_id": 3}', b'{"doc_id": "doc-resignation"}', bytes([0xFF, 0xFE])]
    for blob in junk:
        with pytest.raises((ParseError, ValidationError)):
            parse_predictions(blob, "SL", corpus)
    for _ in range(50):
        line = json.dumps({k: rng.random() for k in ("a", "b")}).encode()
        with pytest.raises((ParseError, ValidationError)):
            parse_corpus(line)


@pytest.mark.parametrize("tag", ["O\n", "B-X\n", "I-X\n"])
def test_sl_tag_with_a_trailing_newline_is_malformed(tag):
    corpus = parse_corpus(
        dump_jsonl([{"id": "d", "tokens": ["a", "b"], "sentences": [[0, 2]], "entities": [], "events": []}])
    )
    record = {"doc_id": "d", "task": "trigger", "tags": ["O", tag]}
    with pytest.raises(ParseError, match=re.escape(f"line 1: malformed tag {tag!r} at position 1")):
        parse_predictions(dump_jsonl([record]), "SL", corpus)


def test_sl_first_malformed_tag_is_reported():
    corpus = resignation_corpus()
    tags = ["O"] * 21
    tags[4], tags[9], tags[12] = "B-A", "X-Thing", "O\n"
    record = {"doc_id": "doc-resignation", "task": "trigger", "tags": tags}
    with pytest.raises(ParseError, match=re.escape("malformed tag 'X-Thing' at position 9")):
        parse_predictions(dump_jsonl([record]), "SL", corpus)


@pytest.mark.parametrize(
    "raw",
    [
        b'{"id": "d", "id": "e", "tokens": [], "sentences": [], "entities": [], "events": []}',
        b'{"id": "d", "tokens": ["a"], "sentences": [[0, 1]], "events": [], '
        b'"entities": [{"id": "m", "kind": "entity", "span": [0, 1], "head_span": [0, 1], "kind": "value"}]}',
        b'{"entities":[],"events":[],"id":"d","id":"e","sentences":[],"tokens":[]}',
        b'{"entities":[{"head_span":[0,1],"id":"m","kind":"entity","kind":"value","span":[0,1]}],'
        b'"events":[],"id":"d","sentences":[[0,1]],"tokens":["a"]}',
    ],
    ids=["document", "entity", "document-otherwise-canonical", "entity-otherwise-canonical"],
)
def test_corpus_repeated_key_is_a_parse_error(raw):
    good = dump_jsonl([{"id": "c", "tokens": [], "sentences": [], "entities": [], "events": []}])
    with pytest.raises(ParseError, match=r"^line 2: duplicate key '(id|kind)'$"):
        parse_corpus(good + raw)


UNPAIRED_SURROGATE = "a string holds an unpaired surrogate, which UTF-8 cannot encode"


def _ascii_line(obj, canonical: bool = True) -> bytes:
    """One JSONL line whose strings are escaped to ASCII: a lone surrogate as `\\udXXX`."""
    if canonical:
        return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")
    return (json.dumps(obj) + "\n").encode("ascii")


GOOD_DOC = {"id": "c", "tokens": ["a"], "sentences": [[0, 1]], "entities": [], "events": []}


@pytest.mark.parametrize(
    "reader, data, line",
    [
        ("corpus", _ascii_line(GOOD_DOC) + _ascii_line(dict(GOOD_DOC, id="d", tokens=["\ud800"])), 2),
        ("corpus", _ascii_line(dict(GOOD_DOC, tokens=["a\udfff"]), canonical=False), 1),
        ("corpus", _ascii_line({"\udc00": 1, **GOOD_DOC}), 1),
        ("corpus", _ascii_line(dict(GOOD_DOC, tokens=["\ude00\ud83d"])), 1),  # a pair in the wrong order
        ("SP", _ascii_line(dict(TRIGGER, spans=[{"span": [8, 9], "label": "\udc00"}])), 1),
        ("CLS", _ascii_line(dict(TRIGGER, assignments=[{"candidate_id": "t:8:9", "label": "A\udbff"}]))
         .replace(b"\\udbff", b"\\uDBFF"), 1),  # JSON escapes are case-blind
        ("CG", _ascii_line(dict(TRIGGER, items=[{"mention": ["\ud800"], "label": "A"}])), 1),
        ("SL", _ascii_line(dict(TRIGGER, tags=["O"] * 20 + ["B-\ud800"]), canonical=False), 1),
        ("triggers", _ascii_line({"doc_id": "doc-resignation", "triggers": [{"span": [8, 9], "event_type": "\ud800"}]}), 1),
    ],
    ids=["corpus-canonical", "corpus", "corpus-key", "corpus-reversed-pair", "SP", "CLS", "CG", "SL", "triggers"],
)
def test_an_unpaired_surrogate_is_refused_with_its_line(reader, data, line):
    """JSON may escape a lone UTF-16 surrogate, which decodes to a string
    that no UTF-8 file can hold: every reader refuses it."""
    with pytest.raises(ParseError) as exc:
        if reader == "corpus":
            parse_corpus(data)
        elif reader == "triggers":
            parse_trigger_file(data, resignation_corpus(), source="file")
        else:
            parse_predictions(data, reader, resignation_corpus())
    assert str(exc.value) == f"line {line}: {UNPAIRED_SURROGATE}"


def test_an_escaped_surrogate_pair_is_one_character():
    data = _ascii_line(dict(GOOD_DOC, tokens=["\U0001F600"]))
    assert b"\\ud83d\\ude00" in data
    assert parse_corpus(data).get("c").tokens == ("\U0001F600",)
    preds = parse_predictions(_ascii_line(dict(TRIGGER, spans=[{"span": [8, 9], "label": "\U0001F600"}])), "SP",
                              resignation_corpus())
    assert preds.records[0].payload[0].label == "\U0001F600"


def test_prediction_repeated_key_is_a_parse_error():
    corpus = resignation_corpus()
    raw = (
        b'{"doc_id": "doc-resignation", "task": "trigger", '
        b'"spans": [{"span": [8, 9], "label": "A", "label": "End-Position"}]}'
    )
    with pytest.raises(ParseError, match=r"^line 1: duplicate key 'label'$"):
        parse_predictions(raw, "SP", corpus)


def test_integer_too_long_to_convert_is_a_parse_error():
    with pytest.raises(ParseError, match="^line 1: "):
        parse_corpus(b'{"id": ' + b"1" * 5000 + b"}")
