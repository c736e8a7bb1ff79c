"""Parsing and validation of the corpus file, the four paradigm
prediction file formats (classification, sequence labeling, span
prediction, conditional generation) and the predicted-trigger file.

All formats are JSONL: one record per line, UTF-8. Parsing is total over
the error channel: malformed input raises ParseError/ValidationError with
a locator, never an uncontrolled exception. Canonically formatted input
(sorted keys, no extra whitespace) round-trips byte-identically through
serialize_corpus / serialize_predictions.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple, Union

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
    validate_document,
)
from .errors import ParseError, ValidationError
from .jsonio import dump_jsonl

PARADIGM_CLS = "CLS"
PARADIGM_SL = "SL"
PARADIGM_SP = "SP"
PARADIGM_CG = "CG"
PARADIGMS = (PARADIGM_CLS, PARADIGM_SL, PARADIGM_SP, PARADIGM_CG)

# payload field per paradigm; exactly one must be present per record
PAYLOAD_FIELD = {
    PARADIGM_CLS: "assignments",
    PARADIGM_SL: "tags",
    PARADIGM_SP: "spans",
    PARADIGM_CG: "items",
}

_TAG_RE = re.compile(r"^(O|[BI]-.+)$")

Stream = Union[bytes, str, IO]


def _with_confidence(obj: dict, confidence: float | None) -> dict:
    if confidence is not None:
        obj["confidence"] = confidence
    return obj


class ClsAssignment(NamedTuple):
    candidate_id: str
    label: str
    confidence: float | None = None

    def as_dict(self) -> dict:
        return _with_confidence({"candidate_id": self.candidate_id, "label": self.label}, self.confidence)


class SpanPrediction(NamedTuple):
    span: Span
    label: str
    confidence: float | None = None

    def as_dict(self) -> dict:
        return _with_confidence({"span": self.span.as_pair(), "label": self.label}, self.confidence)


class CgItem(NamedTuple):
    mention: tuple[str, ...]
    label: str
    confidence: float | None = None

    def as_dict(self) -> dict:
        return _with_confidence({"mention": list(self.mention), "label": self.label}, self.confidence)


class PredictionRecord(NamedTuple):
    """One prediction record for one (document, anchor) pair."""

    doc_id: str
    task: str
    anchor: Anchor | None
    assignments: tuple[ClsAssignment, ...] | None = None
    tags: tuple[str, ...] | None = None
    spans: tuple[SpanPrediction, ...] | None = None
    items: tuple[CgItem, ...] | None = None
    line: int = 0  # source line, for locators; ignored in comparisons by tests


@dataclass(frozen=True)
class ParadigmPredictions:
    paradigm: str
    records: tuple[PredictionRecord, ...]

    def __iter__(self) -> Iterator[PredictionRecord]:
        return iter(self.records)


def _iter_lines(stream: Stream) -> Iterator[tuple[int, str]]:
    """Yields (line number, line) for every non-blank line.

    Lines end at "\n" only (a "\r" before it is dropped): JSON strings may
    hold U+2028, U+0085, "\f" and the other characters `str.splitlines`
    also breaks on, and the canonical writer emits them raw.
    """
    if hasattr(stream, "read"):
        data = stream.read()
    else:
        data = stream
    if isinstance(data, (bytes, bytearray)):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from None
    else:
        text = data
    for i, raw in enumerate(text.split("\n"), start=1):
        raw = raw.removesuffix("\r")
        if raw.strip():
            yield i, raw


def _load_object(raw: str, line: int) -> dict:
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", line) from None
    except RecursionError:
        raise ParseError("invalid JSON (nested too deeply)", line) from None
    if not isinstance(obj, dict):
        raise ParseError("record must be a JSON object", line)
    return obj


def _require(obj: dict, key: str, line: int):
    if key not in obj:
        raise ParseError(f"missing field {key!r}", line)
    return obj[key]


def _reject_extras(obj: dict, allowed: Iterable[str], line: int) -> None:
    extras = sorted(set(obj) - set(allowed))
    if extras:
        raise ParseError(f"unknown field(s) {', '.join(map(repr, extras))}", line)


def _string(value, what: str, line: int) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{what} must be a string", line)
    return value


def _decode_span(value, what: str, line: int) -> Span:
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    ):
        raise ParseError(f"{what} must be a [start, end] integer pair", line)
    return Span(value[0], value[1])


def _check_bounds(span: Span, n_tokens: int, what: str, line: int) -> Span:
    if not (0 <= span.start < span.end <= n_tokens):
        raise ParseError(
            f"{what} [{span.start}, {span.end}] out of bounds for {n_tokens} tokens", line
        )
    return span


def _confidence(obj: dict, line: int) -> float | None:
    if "confidence" not in obj:
        return None
    c = obj["confidence"]
    if isinstance(c, bool) or not isinstance(c, (int, float)):
        raise ParseError("confidence must be a number", line)
    if not (0 <= c <= 1):
        raise ParseError(f"confidence {c} outside [0, 1]", line)
    return c


def _check_uniform_confidence(confidences: list, line: int) -> None:
    # all-or-none per record: duplicate resolution branches on presence
    has = [c is not None for c in confidences]
    if any(has) and not all(has):
        raise ParseError("record mixes scored and unscored predictions", line)


# ---------------------------------------------------------------------------
# corpus


def parse_corpus(stream: Stream) -> Corpus:
    """Parses a JSONL corpus, validating every document invariant."""
    docs: list[Document] = []
    seen: dict[str, int] = {}
    for line, raw in _iter_lines(stream):
        obj = _load_object(raw, line)
        _reject_extras(obj, ("id", "tokens", "sentences", "entities", "events"), line)
        doc_id = _string(_require(obj, "id", line), "id", line)
        if doc_id in seen:
            raise ParseError(
                f"duplicate document id {doc_id!r} (first seen at line {seen[doc_id]})", line
            )
        seen[doc_id] = line

        tokens = _require(obj, "tokens", line)
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise ParseError("tokens must be an array of strings", line)

        sentences = _require(obj, "sentences", line)
        if not isinstance(sentences, list):
            raise ParseError("sentences must be an array", line)
        sentence_spans = tuple(
            _decode_span(s, f"sentences[{i}]", line) for i, s in enumerate(sentences)
        )

        raw_entities = _require(obj, "entities", line)
        if not isinstance(raw_entities, list):
            raise ParseError("entities must be an array", line)
        entities = []
        for i, e in enumerate(raw_entities):
            if not isinstance(e, dict):
                raise ParseError(f"entities[{i}] must be an object", line)
            _reject_extras(e, ("id", "span", "head_span", "kind"), line)
            entities.append(
                EntityMention(
                    id=_string(_require(e, "id", line), f"entities[{i}].id", line),
                    span=_decode_span(_require(e, "span", line), f"entities[{i}].span", line),
                    head_span=_decode_span(
                        _require(e, "head_span", line), f"entities[{i}].head_span", line
                    ),
                    kind=_string(_require(e, "kind", line), f"entities[{i}].kind", line),
                )
            )

        raw_events = _require(obj, "events", line)
        if not isinstance(raw_events, list):
            raise ParseError("events must be an array", line)
        events = []
        for i, ev in enumerate(raw_events):
            if not isinstance(ev, dict):
                raise ParseError(f"events[{i}] must be an object", line)
            _reject_extras(ev, ("id", "type", "trigger", "arguments"), line)
            raw_args = _require(ev, "arguments", line)
            if not isinstance(raw_args, list):
                raise ParseError(f"events[{i}].arguments must be an array", line)
            args = []
            for j, a in enumerate(raw_args):
                if not isinstance(a, dict):
                    raise ParseError(f"events[{i}].arguments[{j}] must be an object", line)
                _reject_extras(a, ("entity_id", "role"), line)
                args.append(
                    Argument(
                        entity_id=_string(_require(a, "entity_id", line), "entity_id", line),
                        role=_string(_require(a, "role", line), "role", line),
                    )
                )
            events.append(
                EventAnnotation(
                    id=_string(_require(ev, "id", line), f"events[{i}].id", line),
                    event_type=_string(_require(ev, "type", line), f"events[{i}].type", line),
                    trigger=_decode_span(
                        _require(ev, "trigger", line), f"events[{i}].trigger", line
                    ),
                    arguments=tuple(args),
                )
            )

        doc = Document(
            id=doc_id,
            tokens=tuple(tokens),
            sentences=sentence_spans,
            entities=tuple(entities),
            events=tuple(events),
        )
        violations = validate_document(doc)
        if violations:
            raise ValidationError(f"document {doc_id!r}: " + "; ".join(violations))
        docs.append(doc)
    return Corpus(documents=tuple(docs))


def _document_to_obj(doc: Document) -> dict:
    return {
        "id": doc.id,
        "tokens": list(doc.tokens),
        "sentences": [s.as_pair() for s in doc.sentences],
        "entities": [
            {"id": m.id, "span": m.span.as_pair(), "head_span": m.head_span.as_pair(), "kind": m.kind}
            for m in doc.entities
        ],
        "events": [
            {
                "id": e.id,
                "type": e.event_type,
                "trigger": e.trigger.as_pair(),
                "arguments": [{"entity_id": a.entity_id, "role": a.role} for a in e.arguments],
            }
            for e in doc.events
        ],
    }


def serialize_corpus(corpus: Corpus) -> bytes:
    return dump_jsonl(_document_to_obj(d) for d in corpus)


# ---------------------------------------------------------------------------
# predictions


def _parse_anchor(obj: dict, n_tokens: int, line: int) -> Anchor:
    if not isinstance(obj, dict):
        raise ParseError("anchor must be an object", line)
    _reject_extras(obj, ("trigger", "event_type"), line)
    trigger = _check_bounds(
        _decode_span(_require(obj, "trigger", line), "anchor.trigger", line),
        n_tokens,
        "anchor.trigger",
        line,
    )
    return Anchor(trigger=trigger, event_type=_string(_require(obj, "event_type", line), "anchor.event_type", line))


def _parse_assignments(raw, line: int) -> tuple[ClsAssignment, ...]:
    if not isinstance(raw, list):
        raise ParseError("assignments must be an array", line)
    out = []
    seen: set[str] = set()
    for i, a in enumerate(raw):
        if not isinstance(a, dict):
            raise ParseError(f"assignments[{i}] must be an object", line)
        _reject_extras(a, ("candidate_id", "label", "confidence"), line)
        cid = _string(_require(a, "candidate_id", line), "candidate_id", line)
        if cid in seen:
            raise ParseError(f"multiple assignments for candidate_id {cid!r}", line)
        seen.add(cid)
        out.append(
            ClsAssignment(
                candidate_id=cid,
                label=_string(_require(a, "label", line), "label", line),
                confidence=_confidence(a, line),
            )
        )
    _check_uniform_confidence([a.confidence for a in out], line)
    return tuple(out)


def _parse_tags(raw, n_tokens: int, line: int) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(t, str) for t in raw):
        raise ParseError("tags must be an array of strings", line)
    if len(raw) != n_tokens:
        raise ParseError(f"tag list has {len(raw)} entries for a {n_tokens}-token document", line)
    for i, t in enumerate(raw):
        if not _TAG_RE.match(t):
            raise ParseError(f"malformed tag {t!r} at position {i}", line)
    return tuple(raw)


def _parse_spans(raw, n_tokens: int, line: int) -> tuple[SpanPrediction, ...]:
    if not isinstance(raw, list):
        raise ParseError("spans must be an array", line)
    out = []
    for i, s in enumerate(raw):
        if not isinstance(s, dict):
            raise ParseError(f"spans[{i}] must be an object", line)
        _reject_extras(s, ("span", "label", "confidence"), line)
        out.append(
            SpanPrediction(
                span=_check_bounds(
                    _decode_span(_require(s, "span", line), f"spans[{i}].span", line),
                    n_tokens,
                    f"spans[{i}].span",
                    line,
                ),
                label=_string(_require(s, "label", line), "label", line),
                confidence=_confidence(s, line),
            )
        )
    _check_uniform_confidence([s.confidence for s in out], line)
    return tuple(out)


def _parse_items(raw, line: int) -> tuple[CgItem, ...]:
    if not isinstance(raw, list):
        raise ParseError("items must be an array", line)
    out = []
    for i, it in enumerate(raw):
        if not isinstance(it, dict):
            raise ParseError(f"items[{i}] must be an object", line)
        _reject_extras(it, ("mention", "label", "confidence"), line)
        mention = _require(it, "mention", line)
        if (
            not isinstance(mention, list)
            or not mention
            or not all(isinstance(t, str) for t in mention)
        ):
            raise ParseError(f"items[{i}].mention must be a non-empty array of strings", line)
        out.append(
            CgItem(
                mention=tuple(mention),
                label=_string(_require(it, "label", line), "label", line),
                confidence=_confidence(it, line),
            )
        )
    _check_uniform_confidence([it.confidence for it in out], line)
    return tuple(out)


def parse_predictions(stream: Stream, paradigm: str, corpus: Corpus) -> ParadigmPredictions:
    """Parses one paradigm's prediction file, cross-validated against the corpus.

    Generation-order of CG items is preserved exactly. Labels outside the
    corpus schema are accepted; they simply never match at scoring time.
    """
    if paradigm not in PARADIGMS:
        raise ValueError(f"unknown paradigm {paradigm!r}; expected one of {PARADIGMS}")
    payload_field = PAYLOAD_FIELD[paradigm]
    records: list[PredictionRecord] = []
    seen: dict[tuple, int] = {}
    for line, raw in _iter_lines(stream):
        obj = _load_object(raw, line)
        _reject_extras(obj, ("doc_id", "task", "anchor", payload_field), line)

        doc_id = _string(_require(obj, "doc_id", line), "doc_id", line)
        if doc_id not in corpus:
            raise ParseError(f"unknown doc_id {doc_id!r}", line)
        doc = corpus.get(doc_id)
        n = len(doc.tokens)

        task = _string(_require(obj, "task", line), "task", line)
        if task not in TASKS:
            raise ParseError(f"task must be one of {TASKS}, got {task!r}", line)

        anchor = None
        if task == TASK_ARGUMENT:
            anchor = _parse_anchor(_require(obj, "anchor", line), n, line)
        elif "anchor" in obj:
            raise ParseError("anchor is only allowed when task is 'argument'", line)

        key = (doc_id, task, anchor)
        if key in seen:
            raise ParseError(
                f"duplicate record for doc {doc_id!r} and anchor (first seen at line {seen[key]})",
                line,
            )
        seen[key] = line

        payload = _require(obj, payload_field, line)
        if paradigm == PARADIGM_CLS:
            record = PredictionRecord(
                doc_id, task, anchor, assignments=_parse_assignments(payload, line), line=line
            )
        elif paradigm == PARADIGM_SL:
            record = PredictionRecord(
                doc_id, task, anchor, tags=_parse_tags(payload, n, line), line=line
            )
        elif paradigm == PARADIGM_SP:
            record = PredictionRecord(
                doc_id, task, anchor, spans=_parse_spans(payload, n, line), line=line
            )
        else:
            record = PredictionRecord(
                doc_id, task, anchor, items=_parse_items(payload, line), line=line
            )
        records.append(record)
    return ParadigmPredictions(paradigm=paradigm, records=tuple(records))


def _record_to_obj(record: PredictionRecord) -> dict:
    obj: dict = {"doc_id": record.doc_id, "task": record.task}
    if record.anchor is not None:
        obj["anchor"] = record.anchor.as_dict()
    for field in PAYLOAD_FIELD.values():
        payload = getattr(record, field)
        if payload is not None:
            obj[field] = [p if isinstance(p, str) else p.as_dict() for p in payload]
    return obj


def serialize_predictions(predictions: ParadigmPredictions) -> bytes:
    return dump_jsonl(_record_to_obj(r) for r in predictions.records)


# ---------------------------------------------------------------------------
# predicted triggers


def parse_trigger_file(stream: Stream, corpus: Corpus, source: str) -> TriggerContext:
    """Parses a predicted-trigger file (one line per document) into a trigger context."""
    table: dict = {}
    seen: dict[str, int] = {}
    for line, raw in _iter_lines(stream):
        obj = _load_object(raw, line)
        _reject_extras(obj, ("doc_id", "triggers"), line)
        doc_id = _string(_require(obj, "doc_id", line), "doc_id", line)
        if doc_id not in corpus:
            raise ParseError(f"unknown doc_id {doc_id!r}", line)
        if doc_id in seen:
            raise ParseError(f"duplicate doc_id {doc_id!r} (first seen at line {seen[doc_id]})", line)
        seen[doc_id] = line
        n = len(corpus.get(doc_id).tokens)
        raw_triggers = _require(obj, "triggers", line)
        if not isinstance(raw_triggers, list):
            raise ParseError("triggers must be an array", line)
        preds = []
        for i, t in enumerate(raw_triggers):
            if not isinstance(t, dict):
                raise ParseError(f"triggers[{i}] must be an object", line)
            _reject_extras(t, ("span", "event_type", "confidence"), line)
            span = _check_bounds(
                _decode_span(_require(t, "span", line), f"triggers[{i}].span", line),
                n,
                f"triggers[{i}].span",
                line,
            )
            preds.append(
                PredictedTrigger(
                    span=span,
                    event_type=_string(_require(t, "event_type", line), "event_type", line),
                    confidence=_confidence(t, line),
                )
            )
        table[doc_id] = tuple(preds)
    return TriggerContext(source=source, triggers=table)


# ---------------------------------------------------------------------------
# file helpers


def load_corpus(path) -> Corpus:
    with open(path, "rb") as f:
        return parse_corpus(f)


def load_predictions(path, paradigm: str, corpus: Corpus) -> ParadigmPredictions:
    with open(path, "rb") as f:
        return parse_predictions(f, paradigm, corpus)


def load_trigger_file(path, corpus: Corpus) -> TriggerContext:
    with open(path, "rb") as f:
        return parse_trigger_file(f, corpus, source=str(path))
