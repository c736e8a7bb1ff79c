"""Confusion counts and micro precision/recall/F1 for ED and EAE.

Matching is exact: a predicted trigger is correct iff its span and event
type both equal a gold trigger's; a predicted argument is correct iff its
span and role equal a gold argument's under the anchored event type. Each
gold item is consumed at most once (multiset matching), nil-labeled
predictions count as no prediction, and 0/0 ratios are defined as 0 so
empty runs score zero instead of erroring.

Two argument-scoring conventions are supported: `modern` keeps every gold
argument in the recall base; `legacy` drops gold arguments whose event
trigger was not predicted, which inflates recall on imperfect triggers.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple

from .core import NIL_LABEL, TASK_ARGUMENT, TASK_TRIGGER, Corpus, Span
from .errors import ValidationError
from .protocol import CONVENTION_LEGACY, CONVENTION_MODERN, EAE_MATCH_BY_TRIGGER, EAE_MATCH_BY_TYPE, MODE_GOLD_TRIGGER
from .protocol import MODE_PIPELINE  # noqa: F401 (bench/traced.py imports it from here)

TASK_ED = "ED"
TASK_EAE = "EAE"


class ConfusionCounts(NamedTuple):
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def as_dict(self) -> dict:
        return self._asdict()


def prf(counts: ConfusionCounts) -> tuple[float, float, float]:
    """Micro precision/recall/F1 with the 0/0 -> 0 convention."""
    p = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    r = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def _scores(counts: ConfusionCounts) -> dict:
    p, r, f1 = prf(counts)
    return {"counts": counts.as_dict(), "precision": p, "recall": r, "f1": f1}


class EvalReport(NamedTuple):
    """Counts of one task; precision, recall and F1 are computed from them."""

    task: str  # TASK_ED | TASK_EAE
    mode: str  # MODE_GOLD_TRIGGER | MODE_PIPELINE
    convention: str  # CONVENTION_MODERN | CONVENTION_LEGACY
    counts: ConfusionCounts
    per_label: dict  # label -> ConfusionCounts
    identification: ConfusionCounts  # span match only, label ignored

    @property
    def precision(self) -> float:
        return prf(self.counts)[0]

    @property
    def recall(self) -> float:
        return prf(self.counts)[1]

    @property
    def f1(self) -> float:
        return prf(self.counts)[2]

    def as_dict(self) -> dict:
        return {
            "task": self.task,
            "mode": self.mode,
            "convention": self.convention,
            **_scores(self.counts),
            "per_label": {label: c.as_dict() for label, c in sorted(self.per_label.items())},
            "identification": _scores(self.identification),
        }


class TriggerItem(NamedTuple):
    doc_id: str
    span: Span
    label: str


class ArgumentItem(NamedTuple):
    doc_id: str
    trigger: Span  # anchoring trigger span
    event_type: str  # anchoring event type
    span: Span
    role: str


def _counted(corpus: Corpus, keys: Iterable[tuple]) -> Counter:
    """How often each predicted key occurs, counted in one pass; a key's
    first element is its document's id, which `corpus` must hold."""
    counts = Counter(keys)
    for doc_id in {key[0] for key in counts}:
        if doc_id not in corpus:
            raise ValidationError(f"predictions refer to unknown document {doc_id!r}")
    return counts


def _match(pred: Counter, gold: Counter) -> tuple[ConfusionCounts, dict, ConfusionCounts]:
    """Multiset matching: each gold consumed at most once, no double credit.

    A key's label is its last element and the rest is what identification
    matches. One pass over the distinct keys: a key seen p times predicted
    and g times in gold contributes min(p, g) true positives to its label,
    and a label-free key min(p, g) to identification, with p and g summed
    over its labels. Returns the total, per-label and identification counts.
    """
    rows: dict[str, list[int]] = {}  # label -> [tp, fp, fn]
    unlabeled: dict[tuple, list[int]] = {}  # key without label -> [predicted, gold]
    for key, p in pred.items():
        tp = min(p, gold.get(key, 0))
        row = rows.setdefault(key[-1], [0, 0, 0])
        row[0] += tp
        row[1] += p - tp
        unlabeled.setdefault(key[:-1], [0, 0])[0] += p
    for key, g in gold.items():
        row = rows.setdefault(key[-1], [0, 0, 0])
        row[2] += g - min(g, pred.get(key, 0))
        unlabeled.setdefault(key[:-1], [0, 0])[1] += g
    per_label = {label: ConfusionCounts(*rows[label]) for label in sorted(rows)}
    total = ConfusionCounts(*(sum(row[i] for row in rows.values()) for i in range(3)))
    found = sum(min(p, g) for p, g in unlabeled.values())
    identification = ConfusionCounts(found, total.tp + total.fp - found, total.tp + total.fn - found)
    return total, per_label, identification


def score_trigger_items(
    corpus: Corpus,
    items: Iterable[TriggerItem],
    mode: str = MODE_GOLD_TRIGGER,
    convention: str = CONVENTION_MODERN,
) -> EvalReport:
    """Scores trigger predictions given as bare (doc, span, label) items, each its own match key."""
    gold = ((d.id, e.trigger, e.event_type) for d in corpus for e in d.events)
    return EvalReport(TASK_ED, mode, convention, *_match(_counted(corpus, items), Counter(gold)))


def score_argument_items(
    corpus: Corpus,
    items: Iterable[ArgumentItem],
    trigger_context,
    convention: str = CONVENTION_MODERN,
    mode: str = MODE_GOLD_TRIGGER,
    eae_match: str = EAE_MATCH_BY_TYPE,
) -> EvalReport:
    """Scores argument predictions given as bare anchored items.

    Under `by_event_type` a prediction matches any gold argument of an
    event with the anchored type; `by_trigger_span` additionally requires
    the anchoring trigger span to equal the gold event's trigger. Legacy
    convention drops gold arguments of events whose (trigger, type) is
    absent from the trigger context. The items are read once, so an
    iterator that holds the only reference to them lets them go once
    they are counted.
    """
    scope = trigger_context.keys if convention == CONVENTION_LEGACY else None
    gold = (
        (doc.id, ev.trigger, ev.event_type, doc.entities_by_id[arg.entity_id].span, arg.role)
        for doc in corpus
        for ev in doc.events
        if scope is None or (doc.id, ev.trigger, ev.event_type) in scope
        for arg in ev.arguments
    )
    if eae_match != EAE_MATCH_BY_TRIGGER:  # items and gold match without their trigger
        items = ((d, t, s, r) for d, _, t, s, r in items)
        gold = ((d, t, s, r) for d, _, t, s, r in gold)
    return EvalReport(TASK_EAE, mode, convention, *_match(_counted(corpus, items), Counter(gold)))


def trigger_items_from(standardized: Iterable) -> list[TriggerItem]:
    """Non-nil trigger assignments of standardized (or native) records as
    scoreable items."""
    return [
        TriggerItem(r.doc_id, a.span, a.label)
        for r in standardized
        if r.task == TASK_TRIGGER
        for a in r.assignments
        if a.label != NIL_LABEL
    ]


def argument_items_from(standardized: Iterable) -> list[ArgumentItem]:
    """Non-nil argument assignments of standardized (or native) records as
    scoreable items, under the anchor every argument record carries."""
    return [
        ArgumentItem(r.doc_id, r.anchor.trigger, r.anchor.event_type, a.span, a.label)
        for r in standardized
        if r.task == TASK_ARGUMENT
        for a in r.assignments
        if a.label != NIL_LABEL
    ]
