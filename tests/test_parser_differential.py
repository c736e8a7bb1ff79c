"""The parsers against the field-by-field reference parsers in oracles.py.

Each example takes valid records (a corpus, CLS/SL/SP/CG prediction
records for both tasks, a predicted-trigger file), mutates one to three
places in them and parses the result with both. Both must accept it with
equal results, or both must reject it with the same exception type and
message: the order in which fields are checked, and so which error a
record with several faults reports, is part of the contract.
"""

import copy
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eescore.errors import ToolkitError
from eescore.ingest import (
    parse_corpus,
    parse_predictions,
    parse_trigger_file,
    serialize_corpus,
)
from eescore.jsonio import dump_jsonl

from gen import gold_anchor_table, random_argument_predictions, random_corpus, random_trigger_predictions
from oracles import (
    reference_parse_corpus,
    reference_parse_predictions,
    reference_parse_trigger_file,
    serialize_predictions,
)

# values a mutation puts in place of another, by the type of the value
# they replace: spans of the wrong length or out of bounds, non-string
# tokens, malformed tags, confidences outside [0, 1] or of the wrong type
SAME_TYPE = {
    str: ("", "x", "A", "O", "B-A", "I-A", "O\n", "B-A\n", "X-A", "B-", "o", "t:0:1", "e1", "argument", "d0"),
    int: (0, 1, 2, -1, 10**6, True, False, 1.0),
    float: (0.0, 0.5, 1.0, 1.5, -0.5, float("nan"), 0, 1, True),
    list: ([], [0], [0, 1], [0, 1, 2], [1, 0], [1, 1], [-1, 1], [0, 10**6], [0, True], [0.0, 1], ["a"], ["a", 1], [None]),
    dict: ({}, {"span": [0, 1]}, {"trigger": [0, 1], "event_type": "A"}),
}
REPLACEMENTS = (None,) + tuple(v for values in SAME_TYPE.values() for v in values)
ADDED_KEYS = (
    "surprise", "id", "doc_id", "task", "anchor", "span", "label", "confidence", "tags", "spans",
    "items", "assignments", "mention", "entity_id", "kind", "triggers",
)


def _lines(data: bytes) -> list:
    return [json.loads(line) for line in data.decode("utf-8").splitlines()]


def _paths(value, path=()):
    """Every position inside `value`, as a tuple of keys and indexes."""
    if path:
        yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _draw_path(data, records: list) -> tuple:
    """A position inside `records`. The field is drawn first (its path with
    every index as "*"), then one of its positions: a field such as
    `events[*].arguments[*].role` is as likely as `tokens[*]`, however many
    tokens there are."""
    by_field: dict = {}
    for path in _paths(records):
        by_field.setdefault(tuple("*" if type(k) is int else k for k in path), []).append(path)
    field = data.draw(st.sampled_from(sorted(by_field, key=repr)))
    return data.draw(st.sampled_from(by_field[field]))


def _replacement(data, old, extra: tuple = ()):
    """A value of the same JSON type as `old` half of the time, else any:
    one of `extra` half of the rest of the time, when there are any."""
    if type(old) in SAME_TYPE and data.draw(st.booleans()):
        return copy.deepcopy(data.draw(st.sampled_from(SAME_TYPE[type(old)])))
    if extra and data.draw(st.booleans()):
        return copy.deepcopy(data.draw(st.sampled_from(extra)))
    return copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS)))


def _at(records: list, path) -> object:
    value = records
    for key in path:
        value = value[key]
    return value


def _edit(records: list, path: tuple, op: str, value=None) -> list:
    """A copy of `records` with the value at `path` replaced by `value`,
    dropped, repeated (a list element), or given the key `value` (an object)."""
    records = copy.deepcopy(records)
    *parent_path, last = path
    parent = _at(records, parent_path)
    if op == "replace":
        parent[last] = copy.deepcopy(value)
    elif op == "drop":
        del parent[last]
    elif op == "repeat" and isinstance(parent, list):
        parent.insert(last, copy.deepcopy(parent[last]))
    elif op == "add" and isinstance(parent[last], dict):
        parent[last][value] = 1
    return records


def _replace_run(records: list, path: tuple, values) -> list:
    """A copy of `records` with the list elements from `path` on replaced by
    `values`, as far as the list goes: several faulty elements in one list,
    of which the first must be reported."""
    *parent_path, first = path
    for i, value in zip(range(first, len(_at(records, parent_path))), values):
        records = _edit(records, (*parent_path, i), "replace", value)
    return records


def _mutate(data, records: list, extra: tuple = ()) -> list:
    for _ in range(data.draw(st.integers(1, 3))):
        if not records:
            break
        op = data.draw(st.sampled_from(("replace", "replace", "replace_run", "drop", "add", "repeat")))
        *parent_path, last = path = _draw_path(data, records)
        if op == "replace_run" and type(last) is int:
            siblings = _at(records, parent_path)[last : last + data.draw(st.integers(2, 4))]
            records = _replace_run(records, path, [_replacement(data, old, extra) for old in siblings])
        elif op == "add":
            records = _edit(records, path, op, data.draw(st.sampled_from(ADDED_KEYS)))
        else:
            records = _edit(records, path, op.removesuffix("_run"), _replacement(data, _at(records, path), extra))
    return records


def _single_edits(records: list):
    """Every record list that differs from `records` in one place, at the
    first position of each field: each replacement value, a drop, a
    repeat, and each added key; and in two or three places: a run of list
    elements replaced by one value, and two added keys."""
    fields = set()
    for path in _paths(records):
        field = tuple("*" if type(k) is int else k for k in path)
        if field in fields:
            continue
        fields.add(field)
        yield from (_edit(records, path, "replace", value) for value in REPLACEMENTS)
        yield _edit(records, path, "drop")
        yield _edit(records, path, "repeat")
        yield from (_edit(records, path, "add", key) for key in ADDED_KEYS)
        yield from (_edit(_edit(records, path, "add", "surprise"), path, "add", key) for key in ADDED_KEYS)
        if type(path[-1]) is int:
            yield from (_replace_run(records, path, [value] * 3) for value in REPLACEMENTS)


def _outcome(parse, *args):
    try:
        return parse(*args)
    except Exception as exc:  # the type and message are the result compared
        return type(exc), str(exc)


def _same_outcome(parse, reference, *args) -> None:
    got = _outcome(parse, *args)
    expected = _outcome(reference, *args)
    assert got == expected
    if type(got) is tuple:  # (exception type, message); a parse result is a tuple subclass
        assert issubclass(got[0], ToolkitError), got


def _base(seed: int, kind: str):
    """(corpus, records of `kind`), all valid."""
    rng = random.Random(seed)
    corpus = random_corpus(rng, require_event_with_argument=True)
    if kind == "corpus":
        return corpus, _lines(serialize_corpus(corpus))
    if kind == "triggers":
        return corpus, [
            {
                "doc_id": doc.id,
                "triggers": [
                    {"span": e.trigger.as_pair(), "event_type": e.event_type, "confidence": 0.5} for e in doc.events
                ],
            }
            for doc in corpus
        ]
    paradigm, task = kind.split("-")
    if task == "trigger":
        predictions = random_trigger_predictions(rng, corpus, paradigm)
    else:
        predictions = random_argument_predictions(rng, corpus, paradigm, gold_anchor_table(corpus))
    return corpus, _lines(serialize_predictions(predictions))


KINDS = ("corpus", "triggers") + tuple(f"{p}-{t}" for p in ("CLS", "SL", "SP", "CG") for t in ("trigger", "argument"))


def _check(kind: str, corpus, records: list) -> None:
    """Both parsers accept `records` with equal results, or both reject
    them with the same exception type and message."""
    data = dump_jsonl(records)
    if kind == "corpus":
        args = (parse_corpus, reference_parse_corpus, data)
    elif kind == "triggers":
        args = (parse_trigger_file, reference_parse_trigger_file, data, corpus, "file")
    else:
        args = (parse_predictions, reference_parse_predictions, data, kind.split("-")[0], corpus)
    _same_outcome(*args)


@pytest.mark.parametrize("kind", KINDS)
def test_valid_records_parse_like_the_reference(kind):
    for seed in range(20):
        corpus, records = _base(seed, kind)
        _check(kind, corpus, records)


@pytest.mark.parametrize("kind", KINDS)
def test_every_single_edit_parses_like_the_reference(kind):
    corpus, records = _base(0, kind)
    for mutant in _single_edits(records):
        _check(kind, corpus, mutant)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), data=st.data())
def test_mutants_parse_like_the_reference(kind, seed, data):
    corpus, records = _base(seed, kind)
    _check(kind, corpus, _mutate(data, records))
