"""Shared data model: spans, documents, events, trigger contexts.

All types are immutable after construction; they can be shared freely
across threads. The per-item records are `typing.NamedTuple`s: they
compare equal to plain tuples, `len()` is their field count (use
`Span.length`), and `._replace` copies one with a field changed. The
types that cache derived tables (`Document`, `Corpus`, `TriggerContext`)
are frozen dataclasses. Invariant checking is data, not control flow: invalid structures can
be built, and `validate_document` reports what is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

# Reserved label meaning "no event / no role". Compared byte-exactly,
# like every other label.
NIL_LABEL = "NA"

ENTITY_KINDS = ("entity", "value", "time", "pronoun")

TASK_TRIGGER = "trigger"
TASK_ARGUMENT = "argument"
TASKS = (TASK_TRIGGER, TASK_ARGUMENT)

SOURCE_GOLD = "gold"  # trigger-context source of the corpus's own triggers


class Span(NamedTuple):
    """Half-open token-index interval [start, end), 0-based."""

    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start

    def as_pair(self) -> list[int]:
        return [self.start, self.end]


def span_contains(outer: Span, inner: Span) -> bool:
    return outer.start <= inner.start and inner.end <= outer.end


class EntityMention(NamedTuple):
    """A candidate-bearing mention: entity, value, time expression or pronoun."""

    id: str
    span: Span
    head_span: Span
    kind: str  # one of ENTITY_KINDS


class Argument(NamedTuple):
    entity_id: str
    role: str


class EventAnnotation(NamedTuple):
    id: str
    event_type: str
    trigger: Span
    arguments: tuple[Argument, ...]


class Anchor(NamedTuple):
    """Identifies the event an argument prediction record answers for."""

    trigger: Span
    event_type: str


def plain(value):
    """A value as a prediction or trigger file spells it in JSON: a span as its [start, end] pair, any other record
    or a dict as the object of its fields that are set (not None), a tuple or a list as an array.

    >>> plain((Anchor(Span(3, 4), "Attack"), {"label": "A", "confidence": None}))
    [{'trigger': [3, 4], 'event_type': 'Attack'}, {'label': 'A'}]
    """
    kind = type(value)
    if kind is Span:
        return [value.start, value.end]
    if kind is tuple or kind is list:
        return [v if type(v) is str else plain(v) for v in value]
    if kind is not dict and not issubclass(kind, tuple):
        return value
    obj = {}  # a loop: on Python 3.11 a comprehension makes a function object per call
    for name, v in value.items() if kind is dict else zip(kind._fields, value):
        if v is not None:
            obj[name] = v if type(v) is str else plain(v)
    return obj


def task_of(record) -> str:
    """The task of a prediction or standardized record: trigger exactly when it has no anchor."""
    return TASK_TRIGGER if record.anchor is None else TASK_ARGUMENT


@dataclass(frozen=True)
class Document:
    id: str
    tokens: tuple[str, ...]
    sentences: tuple[Span, ...]
    entities: tuple[EntityMention, ...]
    events: tuple[EventAnnotation, ...]

    @cached_property
    def entities_by_id(self) -> dict[str, EntityMention]:
        return {m.id: m for m in self.entities}

    @cached_property
    def token_positions(self) -> dict[str, list[int]]:
        """Maps each token to the positions it occurs at, ascending."""
        table: dict[str, list[int]] = {}
        for i, token in enumerate(self.tokens):
            table.setdefault(token, []).append(i)
        return table


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
    # what the parser fed a SHA-256 of these documents; no __init__ argument, so `replace` drops it
    hash_state: object = field(init=False, compare=False, repr=False, default=None)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    @cached_property
    def _by_id(self) -> dict[str, Document]:
        return {d.id: d for d in self.documents}

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    def get(self, doc_id: str) -> Document:
        return self._by_id[doc_id]


class PredictedTrigger(NamedTuple):
    span: Span
    event_type: str
    confidence: float | None = None


@dataclass(frozen=True)
class TriggerContext:
    """The triggers an EAE stage is allowed to answer for."""

    source: str  # SOURCE_GOLD or an identifier of the predicted-trigger source
    triggers: dict  # doc_id -> tuple[PredictedTrigger, ...]

    @staticmethod
    def from_gold(corpus: Corpus) -> "TriggerContext":
        table = {
            d.id: tuple(PredictedTrigger(e.trigger, e.event_type) for e in d.events)
            for d in corpus
            if d.events
        }
        return TriggerContext(source=SOURCE_GOLD, triggers=table)

    @staticmethod
    def from_items(items, source: str) -> "TriggerContext":
        """The context of scoreable trigger items (doc_id, span, label)."""
        table: dict = {}
        for it in items:
            table.setdefault(it.doc_id, []).append(PredictedTrigger(it.span, it.label))
        return TriggerContext(source=source, triggers={k: tuple(v) for k, v in table.items()})

    @cached_property
    def keys(self) -> frozenset:
        """Every (doc_id, trigger span, event_type) in the context."""
        return frozenset(
            (doc_id, t.span, t.event_type) for doc_id, triggers in self.triggers.items() for t in triggers
        )

    def contains(self, doc_id: str, anchor: Anchor) -> bool:
        return (doc_id, anchor.trigger, anchor.event_type) in self.keys


def _check_span(span: Span, n_tokens: int, where: str, index: int, out: list[str]) -> bool:
    """Appends violations for one span; returns True when the span is usable.
    `where` is a locator such as "entities[{}].span", filled with `index`
    only when the span is not."""
    start, end = span
    if 0 <= start < end <= n_tokens:
        return True
    where = where.format(index)
    if start >= end:
        out.append(f"Span: start < end violated at {where}")
    if start < 0:
        out.append(f"Span: start >= 0 violated at {where}")
    if end > n_tokens:
        out.append(f"Span: end <= token count violated at {where}")
    return False


def validate_document(doc: Document) -> list[str]:
    """Returns all invariant violations, in a stable order; [] iff valid."""
    out: list[str] = []
    n = len(doc.tokens)

    # sentences: valid spans partitioning [0, n)
    cursor = 0
    partition_ok = True
    for i, s in enumerate(doc.sentences):
        if not _check_span(s, n, "sentences[{}]", i, out):
            partition_ok = False
            continue
        if s.start != cursor:
            partition_ok = False
        cursor = s.end
    if cursor != n:
        partition_ok = False
    if not partition_ok:
        out.append("sentences do not partition [0, token count): must be contiguous, ordered, covering")

    seen_entity_ids: set[str] = set()
    for i, m in enumerate(doc.entities):
        if m.kind not in ENTITY_KINDS:
            out.append(f"unknown entity kind {m.kind!r} at entities[{i}]")
        span_ok = _check_span(m.span, n, "entities[{}].span", i, out)
        head_ok = _check_span(m.head_span, n, "entities[{}].head_span", i, out)
        if span_ok and head_ok and not span_contains(m.span, m.head_span):
            out.append(f"head_span not contained in span at entities[{i}]")
        if m.id in seen_entity_ids:
            out.append(f"duplicate entity id {m.id} at entities[{i}]")
        seen_entity_ids.add(m.id)

    seen_event_ids: set[str] = set()
    for i, ev in enumerate(doc.events):
        if ev.id in seen_event_ids:
            out.append(f"duplicate event id {ev.id} at events[{i}]")
        seen_event_ids.add(ev.id)
        if _check_span(ev.trigger, n, "events[{}].trigger", i, out):
            if doc.sentences and not any(span_contains(s, ev.trigger) for s in doc.sentences):
                out.append(f"trigger span crosses sentence boundary at events[{i}].trigger")
        seen_args: set[tuple[str, str]] = set()
        for j, arg in enumerate(ev.arguments):
            if arg.entity_id not in doc.entities_by_id:
                out.append(f"unresolved entity_id {arg.entity_id} at events[{i}].arguments[{j}]")
            if arg in seen_args:
                out.append(f"duplicate (entity_id, role) {tuple(arg)} at events[{i}].arguments[{j}]")
            seen_args.add(arg)

    return out
