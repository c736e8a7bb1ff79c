"""Parsing and validation of the corpus file, the four paradigm
prediction file formats (classification, sequence labeling, span
prediction, conditional generation) and the predicted-trigger file.

All formats are JSONL: one record per line, UTF-8, each line read by
`jsonio.loads`. Parsing is total over the error channel: malformed input
raises ParseError/ValidationError with a locator, never an uncontrolled
exception. Fields are checked in a fixed order and the first fault is reported.
A canonically formatted corpus (sorted keys, no extra whitespace)
round-trips byte-identically through serialize_corpus. The corpus parser
makes the one pass over each line: it decodes and checks the line, builds
its records and feeds the canonical form of the decoded line to the
corpus's SHA-256, however the line itself is formatted.
"""

from __future__ import annotations

import os
import re
import sys
from contextlib import suppress
from functools import partial
from pathlib import Path
from typing import Iterator, NamedTuple

from .core import (
    TASK_ARGUMENT,
    TASKS,
    Anchor,
    Argument,
    Corpus,
    Document,
    EntityMention,
    EventAnnotation,
    PredictedTrigger,
    Span,
    TriggerContext,
    plain,
    task_of,
    validate_document,
)
from .errors import ParseError, ValidationError
from .jsonio import canonical_line, decode, dump_jsonl, lines, loads, write_atomic
from .protocol import PARADIGM_CG, PARADIGM_CLS, PARADIGM_SL, PARADIGM_SP, PARADIGMS

try:  # pickle's C core, without the pure-Python pickler that `import pickle` also loads
    from _pickle import Pickler, Unpickler
except ImportError:
    from pickle import Pickler, Unpickler

# the interpreter's built-in SHA-256 gives hashlib's digest without loading OpenSSL
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

# matched against the whole tag: "O\n" is malformed
_TAG_RE = re.compile(r"O|[BI]-.+")
_STR_TYPE = frozenset((str,))
# each record built from its field values without a Python-level __new__
_new_span = partial(tuple.__new__, Span)
_new_entity = partial(tuple.__new__, EntityMention)
_new_argument = partial(tuple.__new__, Argument)
_new_event = partial(tuple.__new__, EventAnnotation)
_new_anchor = partial(tuple.__new__, Anchor)

# the objects whose keys are not the fields of one record type
_DOCUMENT_FIELDS = frozenset(("id", "tokens", "sentences", "entities", "events"))
_EVENT_FIELDS = frozenset(("id", "type", "trigger", "arguments"))
_RECORD_FIELDS = frozenset(("doc_id", "task", "anchor"))  # plus the paradigm's payload field
_TRIGGER_FILE_FIELDS = frozenset(("doc_id", "triggers"))


class ClsAssignment(NamedTuple):
    candidate_id: str
    label: str
    confidence: float | None = None


class SpanPrediction(NamedTuple):
    span: Span
    label: str
    confidence: float | None = None


class CgItem(NamedTuple):
    mention: tuple[str, ...]
    label: str
    confidence: float | None = None


class PredictionRecord(NamedTuple):
    """One prediction record for one (document, anchor) pair, its task read off its anchor. Its file's paradigm
    types its payload: `ClsAssignment`s (CLS), tags (SL), `SpanPrediction`s (SP) or `CgItem`s (CG)."""

    doc_id: str
    anchor: Anchor | None
    payload: tuple
    line: int = 0  # source line, for locators; ignored in comparisons by tests

    task = property(task_of)


class ParadigmPredictions(NamedTuple):
    paradigm: str  # the one statement of its records' paradigm, which types each payload
    records: tuple[PredictionRecord, ...]


class _Parsed(ParadigmPredictions):
    """What `parse_predictions` returns: `checked` holds the (task or None, corpus) it checked the records for."""

    _make = ParadigmPredictions._make  # so a `_replace` copy, whose records no parse checked, is not a _Parsed


# the objects whose keys are the fields of a record type
_ENTITY_FIELDS = frozenset(EntityMention._fields)
_ARGUMENT_FIELDS = frozenset(Argument._fields)
_ANCHOR_FIELDS = frozenset(Anchor._fields)
_TRIGGER_FIELDS = frozenset(PredictedTrigger._fields)
_ASSIGNMENT_FIELDS = frozenset(ClsAssignment._fields)
_PREDICTION_FIELDS = frozenset(SpanPrediction._fields)
_ITEM_FIELDS = frozenset(CgItem._fields)
_new_prediction = partial(tuple.__new__, SpanPrediction)


def _load_object(raw: str, line: int) -> dict:
    obj = loads(raw, line)
    if type(obj) is not dict:
        raise ParseError("record must be a JSON object", line)
    return obj


# The field checks below run once per JSON value, so they are kept cheap:
# JSON yields exact list/int/str/dict, so `type(x) is` admits exactly what
# `isinstance` admits (bool is not int); a locator such as "spans[{}].span"
# is filled in with its index only when the check raises.
#
# The decoder makes a new object for every string and pair it reads, and one
# file repeats a few ids, labels, tokens and spans many times. Each parse
# keeps one copy of each value that has passed its checks: `share =
# {}.setdefault` lives for the call, and `share(v, v)` is the first value
# equal to v. The values are immutable, so sharing them is safe.


def _reject_extras(obj: dict, allowed: frozenset, line: int) -> None:
    if not obj.keys() <= allowed:
        extras = sorted(obj.keys() - allowed)
        raise ParseError(f"unknown field(s) {', '.join(map(repr, extras))}", line)


def _objects(raw, what: str, fields: frozenset, line: int, index: int = 0) -> Iterator[tuple[int, dict]]:
    """Yields (i, raw[i]) for a JSON array of objects, each checked to
    carry no key outside `fields` just before it is yielded, so the first
    fault is the one reported. `what` names the array; a template such as
    "events[{}].arguments" is filled in with `index`."""
    if type(raw) is not list:
        raise ParseError(f"{what.format(index)} must be an array", line)
    for i, obj in enumerate(raw):
        if type(obj) is not dict:
            raise ParseError(f"{what.format(index)}[{i}] must be an object", line)
        _reject_extras(obj, fields, line)
        yield i, obj


def _require(obj: dict, key: str, line: int):
    try:
        return obj[key]
    except KeyError:
        raise ParseError(f"missing field {key!r}", line) from None


def _text(obj: dict, key: str, line: int, share, what: str | None = None, index: int = 0) -> str:
    """obj[key], which must be a string; `what` (default: the key) names it."""
    value = _require(obj, key, line)
    if type(value) is not str:
        raise ParseError(f"{(what or key).format(index)} must be a string", line)
    return share(value, value)


def _strings(value) -> bool:
    """True when `value` is a list of strings, checked in one C-level pass."""
    return type(value) is list and set(map(type, value)) <= _STR_TYPE


def _decode_span(value, what: str, line: int, share, index: int = 0, n_tokens: int = -1) -> Span:
    """A [start, end] integer pair; with `n_tokens` >= 0 it must also lie
    inside a document of that many tokens."""
    if type(value) is not list or len(value) != 2 or type(value[0]) is not int or type(value[1]) is not int:
        raise ParseError(f"{what.format(index)} must be a [start, end] integer pair", line)
    if n_tokens >= 0 and not 0 <= value[0] < value[1] <= n_tokens:
        raise ParseError(
            f"{what.format(index)} [{value[0]}, {value[1]}] out of bounds for {n_tokens} tokens", line
        )
    span = _new_span(value)
    return share(span, span)


def _confidence(obj: dict, line: int) -> float | None:
    if "confidence" not in obj:
        return None
    c = obj["confidence"]
    if type(c) is not float and type(c) is not int:
        raise ParseError("confidence must be a number", line)
    if not (0 <= c <= 1):
        raise ParseError(f"confidence {c} outside [0, 1]", line)
    return c


def _check_uniform_confidence(predictions: list, line: int) -> None:
    # all-or-none per record: duplicate resolution branches on presence
    unscored = [p.confidence for p in predictions].count(None)
    if 0 < unscored < len(predictions):
        raise ParseError("record mixes scored and unscored predictions", line)


# ---------------------------------------------------------------------------
# corpus


def parse_corpus(data: bytes, shared: dict | None = None) -> Corpus:
    """Parses a JSONL corpus, validating every document invariant and hashing it as it goes."""
    docs: list[Document] = []
    seen: dict[str, int] = {}
    share = ({} if shared is None else shared).setdefault  # a caller's `shared` keeps each shared value
    hash_state = sha256()
    rows, data = lines(decode(data)), None  # the bytes go once decoded: the lines hold the text
    for line, raw in rows:
        obj = _load_object(raw, line)
        # a value just decoded from JSON holds no reference cycle: its encoding need not look for one
        hash_state.update((canonical_line(obj, check_circular=False) + "\n").encode("utf-8"))
        _reject_extras(obj, _DOCUMENT_FIELDS, line)
        doc_id = _text(obj, "id", line, share)
        if doc_id in seen:
            raise ParseError(
                f"duplicate document id {doc_id!r} (first seen at line {seen[doc_id]})", line
            )
        seen[doc_id] = line

        tokens = _require(obj, "tokens", line)
        if not _strings(tokens):
            raise ParseError("tokens must be an array of strings", line)

        sentences = _require(obj, "sentences", line)
        if type(sentences) is not list:
            raise ParseError("sentences must be an array", line)
        sentence_spans = tuple([_decode_span(s, "sentences[{}]", line, share, i) for i, s in enumerate(sentences)])

        entities = tuple([
            _new_entity((
                _text(e, "id", line, share, "entities[{}].id", i),
                _decode_span(_require(e, "span", line), "entities[{}].span", line, share, i),
                _decode_span(_require(e, "head_span", line), "entities[{}].head_span", line, share, i),
                _text(e, "kind", line, share, "entities[{}].kind", i),
            ))
            for i, e in _objects(_require(obj, "entities", line), "entities", _ENTITY_FIELDS, line)
        ])

        events = []
        for i, ev in _objects(_require(obj, "events", line), "events", _EVENT_FIELDS, line):
            raw_args = _require(ev, "arguments", line)
            args = tuple([
                _new_argument((_text(a, "entity_id", line, share), _text(a, "role", line, share)))
                for _, a in _objects(raw_args, "events[{}].arguments", _ARGUMENT_FIELDS, line, i)
            ])
            events.append(_new_event((
                _text(ev, "id", line, share, "events[{}].id", i),
                _text(ev, "type", line, share, "events[{}].type", i),
                _decode_span(_require(ev, "trigger", line), "events[{}].trigger", line, share, i),
                args,
            )))

        doc = Document(
            id=doc_id,
            tokens=tuple(map(share, tokens, tokens)),
            sentences=sentence_spans,
            entities=entities,
            events=tuple(events),
        )
        violations = validate_document(doc)
        if violations:
            raise ValidationError(f"document {doc_id!r}: " + "; ".join(violations), line)
        docs.append(doc)
    corpus = Corpus(documents=tuple(docs))
    object.__setattr__(corpus, "hash_state", hash_state)
    return corpus


def _document_to_obj(doc: Document) -> dict:
    return {
        "id": doc.id,
        "tokens": list(doc.tokens),
        "sentences": plain(doc.sentences),
        "entities": plain(doc.entities),
        "events": [  # a file spells an event's `event_type` as "type"
            {"id": e.id, "type": e.event_type, "trigger": plain(e.trigger), "arguments": plain(e.arguments)}
            for e in doc.events
        ],
    }


def serialize_corpus(corpus: Corpus) -> bytes:
    return dump_jsonl(_document_to_obj(d) for d in corpus)


def corpus_hash(corpus: Corpus):
    """A SHA-256 fed `serialize_corpus(corpus)`: for a parsed corpus, a copy of the one fed each checked
    line's canonical form (just what `_document_to_obj` renders of it); else a new one."""
    return sha256(serialize_corpus(corpus)) if corpus.hash_state is None else corpus.hash_state.copy()


# ---------------------------------------------------------------------------
# predictions


def _parse_anchor(obj, n_tokens: int, line: int, share) -> Anchor:
    if type(obj) is not dict:
        raise ParseError("anchor must be an object", line)
    _reject_extras(obj, _ANCHOR_FIELDS, line)
    trigger = _decode_span(_require(obj, "trigger", line), "anchor.trigger", line, share, n_tokens=n_tokens)
    return _new_anchor((trigger, _text(obj, "event_type", line, share, "anchor.event_type")))


def _parse_assignments(raw, n_tokens: int, line: int, share) -> tuple[ClsAssignment, ...]:
    out = []
    seen: set[str] = set()
    for _, a in _objects(raw, "assignments", _ASSIGNMENT_FIELDS, line):
        cid = _text(a, "candidate_id", line, share)
        if cid in seen:
            raise ParseError(f"multiple assignments for candidate_id {cid!r}", line)
        seen.add(cid)
        label = _text(a, "label", line, share)
        out.append(ClsAssignment(candidate_id=cid, label=label, confidence=_confidence(a, line)))
    _check_uniform_confidence(out, line)
    return tuple(out)


def _parse_tags(raw, n_tokens: int, line: int, share) -> tuple[str, ...]:
    try:  # each distinct tag once, for its type and its pattern
        distinct = set(raw) if type(raw) is list else {None}
    except TypeError:  # an unhashable element is no string
        distinct = {None}
    if not set(map(type, distinct)) <= _STR_TYPE:
        raise ParseError("tags must be an array of strings", line)
    if len(raw) != n_tokens:
        raise ParseError(f"tag list has {len(raw)} entries for a {n_tokens}-token document", line)
    if not all(map(_TAG_RE.fullmatch, distinct)):
        i, t = next((i, t) for i, t in enumerate(raw) if not _TAG_RE.fullmatch(t))
        raise ParseError(f"malformed tag {t!r} at position {i}", line)
    return tuple(map(share, raw, raw))


def _parse_spans(raw, n_tokens: int, line: int, share) -> tuple[SpanPrediction, ...]:
    out = [
        _new_prediction((
            _decode_span(_require(s, "span", line), "spans[{}].span", line, share, i, n_tokens),
            _text(s, "label", line, share),
            _confidence(s, line),
        ))
        for i, s in _objects(raw, "spans", _PREDICTION_FIELDS, line)
    ]
    _check_uniform_confidence(out, line)
    return tuple(out)


def _parse_items(raw, n_tokens: int, line: int, share) -> tuple[CgItem, ...]:
    out = []
    for i, it in _objects(raw, "items", _ITEM_FIELDS, line):
        mention = _require(it, "mention", line)
        if not mention or not _strings(mention):
            raise ParseError(f"items[{i}].mention must be a non-empty array of strings", line)
        label = _text(it, "label", line, share)
        out.append(CgItem(mention=tuple(map(share, mention, mention)), label=label, confidence=_confidence(it, line)))
    _check_uniform_confidence(out, line)
    return tuple(out)


# paradigm -> (its record's one payload field, that payload's parser(payload, token count, line, share))
_PAYLOADS = {
    PARADIGM_CLS: ("assignments", _parse_assignments),
    PARADIGM_SL: ("tags", _parse_tags),
    PARADIGM_SP: ("spans", _parse_spans),
    PARADIGM_CG: ("items", _parse_items),
}


def parse_predictions(data: bytes, paradigm: str, corpus: Corpus, task: str | None = None) -> ParadigmPredictions:
    """Parses one paradigm's prediction file, cross-validated against the corpus.

    Generation-order of CG items is preserved exactly. Labels outside the
    corpus schema are accepted; they simply never match at scoring time.
    With `task`, the first record of another task is a ValidationError at
    its line. The result's type says what was checked (`checked_predictions`).
    """
    if paradigm not in PARADIGMS:
        raise ValueError(f"unknown paradigm {paradigm!r}; expected one of {PARADIGMS}")
    payload_field, parse_payload = _PAYLOADS[paradigm]
    allowed = _RECORD_FIELDS | {payload_field}
    records: list[PredictionRecord] = []
    seen: dict[tuple, int] = {}
    share = {}.setdefault
    rows, data = lines(decode(data)), None  # the bytes go once decoded: the lines hold the text
    for line, raw in rows:
        obj = _load_object(raw, line)
        _reject_extras(obj, allowed, line)

        doc_id = _text(obj, "doc_id", line, share)
        if doc_id not in corpus:
            raise ParseError(f"unknown doc_id {doc_id!r}", line)
        n = len(corpus.get(doc_id).tokens)

        kind = _text(obj, "task", line, share)
        if kind not in TASKS:
            raise ParseError(f"task must be one of {TASKS}, got {kind!r}", line)

        anchor = None
        if kind == TASK_ARGUMENT:
            anchor = _parse_anchor(_require(obj, "anchor", line), n, line, share)
        elif "anchor" in obj:
            raise ParseError("anchor is only allowed when task is 'argument'", line)

        key = (doc_id, anchor)
        if key in seen:
            raise ParseError(f"duplicate record for doc {doc_id!r} and anchor (first seen at line {seen[key]})", line)
        seen[key] = line

        payload = parse_payload(_require(obj, payload_field, line), n, line, share)
        records.append(PredictionRecord(doc_id, anchor, payload, line))
    for record in records if task else ():  # after the parse, so a fault of the file comes first
        if record.task != task:
            raise ValidationError(
                f"record for doc {record.doc_id!r} has task {record.task!r}; expected {task!r}", record.line
            )
    parsed = _Parsed(paradigm, tuple(records))
    parsed.checked = (task, corpus)
    return parsed


def checked_predictions(predictions: ParadigmPredictions, corpus: Corpus, task: str) -> ParadigmPredictions:
    """`predictions` as `parse_predictions` checks them for `task` against `corpus`: what it returned for both
    passes unchanged, and any other value is written as its file and parsed, each record on its `line` when
    that comes after the line before (blank lines fill the gap), else on the next: lines of 0 go on 1, 2, ..."""
    if type(predictions) is _Parsed and predictions.checked[0] == task and predictions.checked[1] is corpus:
        return predictions
    payload_field, text, end = _PAYLOADS[predictions.paradigm][0], [], 0
    for record in predictions.records:
        doc_id, anchor, payload, line = record  # spelled as it is: `standardize._decode` alone reads a payload
        line = line if type(line) is int and line > end else end + 1
        obj = plain({"doc_id": doc_id, "task": record.task, "anchor": anchor}) | {payload_field: plain(payload)}
        text += "\n" * (line - end - 1), canonical_line(obj, default=repr), "\n"
        end = line
    return parse_predictions("".join(text).encode("utf-8", "surrogatepass"), predictions.paradigm, corpus, task)


# ---------------------------------------------------------------------------
# predicted triggers


def parse_trigger_file(data: bytes, corpus: Corpus, source: str) -> TriggerContext:
    """Parses a predicted-trigger file (one line per document) into a trigger context."""
    table: dict = {}
    seen: dict[str, int] = {}
    share = {}.setdefault
    rows, data = lines(decode(data)), None  # the bytes go once decoded: the lines hold the text
    for line, raw in rows:
        obj = _load_object(raw, line)
        _reject_extras(obj, _TRIGGER_FILE_FIELDS, line)
        doc_id = _text(obj, "doc_id", line, share)
        if doc_id not in corpus:
            raise ParseError(f"unknown doc_id {doc_id!r}", line)
        if doc_id in seen:
            raise ParseError(f"duplicate doc_id {doc_id!r} (first seen at line {seen[doc_id]})", line)
        seen[doc_id] = line
        n = len(corpus.get(doc_id).tokens)
        table[doc_id] = tuple([
            PredictedTrigger(
                span=_decode_span(_require(t, "span", line), "triggers[{}].span", line, share, i, n),
                event_type=_text(t, "event_type", line, share),
                confidence=_confidence(t, line),
            )
            for i, t in _objects(_require(obj, "triggers", line), "triggers", _TRIGGER_FIELDS, line)
        ])
    return TriggerContext(source=source, triggers=table)


def serialize_trigger_context(context: TriggerContext) -> bytes:
    """The predicted-trigger file of a context: one line per document that
    has triggers, in doc_id order."""
    return dump_jsonl(
        {"doc_id": doc_id, "triggers": plain(triggers)} for doc_id, triggers in sorted(context.triggers.items())
        if triggers
    )


# ---------------------------------------------------------------------------
# file helpers


class _Entry(Unpickler):
    # what a cache entry may name: the corpus's record types, and no other class or function
    types = {(t.__module__, t.__name__): t for t in (Span, EntityMention, Argument, EventAnnotation, Document)}
    def find_class(self, module, name):
        return self.types[module, name]  # a KeyError on any other: the entry is read as a miss


def _cache_entry(raw) -> Path:
    """The entry for the bytes `raw` hashed: "<their digest>-<digest of this package and Python>"."""
    code = sha256(str(sys.implementation.cache_tag).encode())
    for source in sorted(Path(__file__).parent.glob("*.py")):
        code.update(source.name.encode() + b"\0" + sha256(source.read_bytes()).digest())
    home = os.environ.get("XDG_CACHE_HOME", "")
    home = Path(home) if os.path.isabs(home) else Path.home() / ".cache"
    return home / "eescore" / f"{raw.hexdigest()}-{code.hexdigest()}"


def _dump(name: str, raw, corpus: Corpus, shared: tuple, f) -> None:
    """A header with the shared values, then 16 documents a pickle, each pickled from the header's memo."""
    head, body = Pickler(f, 2), Pickler(f, 2)  # protocol 2 names the memo index of each value it keeps
    head.dump((name, corpus.hash_state.digest() == raw.digest(), len(corpus), shared))  # was it canonical?
    for start in range(0, len(corpus), 16):
        body.memo = head.memo
        body.dump(corpus.documents[start:start + 16])


def load_corpus(path) -> Corpus:
    """`parse_corpus` of a file's bytes, parsed once per content: each parse is kept in
    ${XDG_CACHE_HOME:-~/.cache}/eescore, and any fault of that cache reads as a miss. A hit on
    a file that was canonical hashes its bytes as `parse_corpus` would have."""
    with open(path, "rb") as f:
        box = [f.read()]  # a parse gets the only reference to the bytes, and drops them once decoded
    raw, entry = sha256(box[0]), None
    with suppress(Exception):  # no home, or an unreadable, truncated, foreign or garbage entry
        entry = _cache_entry(raw)
        with open(entry, "rb") as f:
            head, body, documents = _Entry(f), _Entry(f), []
            name, canonical, count, _ = head.load()
            while name == entry.name and len(documents) < count:
                body.memo = head.memo  # the shared values, at the indices the writer gave them
                documents += body.load()
        if name == entry.name:
            corpus = Corpus(documents=tuple(documents))
            object.__setattr__(corpus, "hash_state", raw if canonical else None)
            return corpus
    corpus = parse_corpus(box.pop(), shared := {})
    shared = tuple(shared)  # the values alone: the dict goes before the entry is written
    with suppress(OSError):
        if entry is not None:
            entry.parent.mkdir(parents=True, exist_ok=True)
            write_atomic(entry, partial(_dump, entry.name, raw, corpus, shared))
            code, stale = entry.name.partition("-")[2], entry.stat().st_mtime - 86400
            for other in entry.parent.iterdir():  # a day old: an entry of other code, or a killed write's
                if other.name.partition("-")[2] != code and other.stat().st_mtime < stale:
                    other.unlink(missing_ok=True)
    return corpus


def load_predictions(path, paradigm: str, corpus: Corpus, task: str | None = None) -> ParadigmPredictions:
    """`parse_predictions` of a file."""
    with open(path, "rb") as f:
        return parse_predictions(f.read(), paradigm, corpus, task)


def load_trigger_file(path, corpus: Corpus) -> TriggerContext:
    with open(path, "rb") as f:
        return parse_trigger_file(f.read(), corpus, source=str(path))
