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
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from .core import NIL_LABEL, TASK_ARGUMENT, TASK_TRIGGER, Corpus, Span
from .errors import ValidationError
from .standardize import StandardizedPredictionSet

TASK_ED = "ED"
TASK_EAE = "EAE"

MODE_GOLD_TRIGGER = "gold_trigger"
MODE_PIPELINE = "pipeline"
MODES = (MODE_GOLD_TRIGGER, MODE_PIPELINE)

CONVENTION_MODERN = "modern"
CONVENTION_LEGACY = "legacy"
CONVENTIONS = (CONVENTION_MODERN, CONVENTION_LEGACY)

EAE_MATCH_BY_TYPE = "by_event_type"
EAE_MATCH_BY_TRIGGER = "by_trigger_span"
EAE_MATCH_MODES = (EAE_MATCH_BY_TYPE, EAE_MATCH_BY_TRIGGER)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def as_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn}


def prf(counts: ConfusionCounts) -> tuple[float, float, float]:
    """Micro precision/recall/F1 with the 0/0 -> 0 convention."""
    p = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    r = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


@dataclass(frozen=True)
class SubReport:
    counts: ConfusionCounts
    precision: float
    recall: float
    f1: float

    @staticmethod
    def from_counts(counts: ConfusionCounts) -> "SubReport":
        p, r, f1 = prf(counts)
        return SubReport(counts=counts, precision=p, recall=r, f1=f1)

    def as_dict(self) -> dict:
        return {
            "counts": self.counts.as_dict(),
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


@dataclass(frozen=True)
class EvalReport:
    task: str  # TASK_ED | TASK_EAE
    mode: str  # MODE_GOLD_TRIGGER | MODE_PIPELINE
    convention: str  # CONVENTION_MODERN | CONVENTION_LEGACY
    counts: ConfusionCounts
    precision: float
    recall: float
    f1: float
    per_label: dict  # label -> ConfusionCounts
    identification: SubReport  # span match only, label ignored

    def as_dict(self) -> dict:
        return {
            "task": self.task,
            "mode": self.mode,
            "convention": self.convention,
            "counts": self.counts.as_dict(),
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "per_label": {label: c.as_dict() for label, c in sorted(self.per_label.items())},
            "identification": self.identification.as_dict(),
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


def _match(
    pred_keys: Sequence[Hashable],
    gold_keys: Sequence[Hashable],
    label_of: Callable[[Hashable], str],
) -> tuple[ConfusionCounts, dict]:
    """Multiset matching: each gold consumed at most once, no double credit.

    One pass over the distinct keys: a key seen p times predicted and g
    times in gold contributes min(p, g) true positives to its label.
    """
    pred = Counter(pred_keys)
    gold = Counter(gold_keys)
    rows: dict[str, list[int]] = {}  # label -> [tp, fp, fn]
    for key, p in pred.items():
        tp = min(p, gold.get(key, 0))
        row = rows.setdefault(label_of(key), [0, 0, 0])
        row[0] += tp
        row[1] += p - tp
    for key, g in gold.items():
        row = rows.setdefault(label_of(key), [0, 0, 0])
        row[2] += g - min(g, pred.get(key, 0))
    per_label = {label: ConfusionCounts(*rows[label]) for label in sorted(rows)}
    total = ConfusionCounts(*(sum(row[i] for row in rows.values()) for i in range(3)))
    return total, per_label


def _identification(pred_keys, gold_keys) -> SubReport:
    pred = Counter(pred_keys)
    gold = Counter(gold_keys)
    tp = sum((pred & gold).values())
    return SubReport.from_counts(
        ConfusionCounts(tp=tp, fp=sum(pred.values()) - tp, fn=sum(gold.values()) - tp)
    )


def _build_report(task, mode, convention, counts, per_label, identification) -> EvalReport:
    p, r, f1 = prf(counts)
    return EvalReport(
        task=task,
        mode=mode,
        convention=convention,
        counts=counts,
        precision=p,
        recall=r,
        f1=f1,
        per_label=per_label,
        identification=identification,
    )


def _check_docs(corpus: Corpus, doc_ids: Iterable[str]) -> None:
    for doc_id in doc_ids:
        if doc_id not in corpus:
            raise ValidationError(f"predictions refer to unknown document {doc_id!r}")


def score_trigger_items(
    corpus: Corpus,
    items: Sequence[TriggerItem],
    mode: str = MODE_GOLD_TRIGGER,
    convention: str = CONVENTION_MODERN,
) -> EvalReport:
    """Scores trigger predictions given as bare (doc, span, label) items."""
    _check_docs(corpus, {it.doc_id for it in items})
    pred_keys = [(it.doc_id, it.span.start, it.span.end, it.label) for it in items]
    gold_keys = [
        (d.id, e.trigger.start, e.trigger.end, e.event_type) for d in corpus for e in d.events
    ]
    counts, per_label = _match(pred_keys, gold_keys, lambda k: k[3])
    identification = _identification([k[:3] for k in pred_keys], [k[:3] for k in gold_keys])
    return _build_report(TASK_ED, mode, convention, counts, per_label, identification)


def _in_scope(doc_id: str, event, trigger_context) -> bool:
    return (doc_id, event.trigger, event.event_type) in trigger_context.keys


def score_argument_items(
    corpus: Corpus,
    items: Sequence[ArgumentItem],
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
    absent from the trigger context.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    if eae_match not in EAE_MATCH_MODES:
        raise ValueError(f"unknown matching mode {eae_match!r}")
    _check_docs(corpus, {it.doc_id for it in items})

    def pred_key(it: ArgumentItem):
        if eae_match == EAE_MATCH_BY_TRIGGER:
            return (it.doc_id, it.trigger.start, it.trigger.end, it.event_type,
                    it.span.start, it.span.end, it.role)
        return (it.doc_id, it.event_type, it.span.start, it.span.end, it.role)

    gold_keys = []
    for doc in corpus:
        for ev in doc.events:
            if convention == CONVENTION_LEGACY and not _in_scope(doc.id, ev, trigger_context):
                continue
            for arg in ev.arguments:
                span = doc.entities_by_id[arg.entity_id].span
                if eae_match == EAE_MATCH_BY_TRIGGER:
                    gold_keys.append((doc.id, ev.trigger.start, ev.trigger.end, ev.event_type,
                                      span.start, span.end, arg.role))
                else:
                    gold_keys.append((doc.id, ev.event_type, span.start, span.end, arg.role))

    pred_keys = [pred_key(it) for it in items]
    counts, per_label = _match(pred_keys, gold_keys, lambda k: k[-1])
    identification = _identification([k[:-1] for k in pred_keys], [k[:-1] for k in gold_keys])
    return _build_report(TASK_EAE, mode, convention, counts, per_label, identification)


def trigger_items_from(standardized: StandardizedPredictionSet) -> list[TriggerItem]:
    """Non-nil trigger assignments as scoreable items."""
    items = []
    for record in standardized.task_records(TASK_TRIGGER):
        for a in record.assignments:
            if a.label != NIL_LABEL:
                items.append(TriggerItem(doc_id=record.doc_id, span=a.span, label=a.label))
    return items


def argument_items_from(standardized: StandardizedPredictionSet) -> list[ArgumentItem]:
    """Non-nil argument assignments as scoreable items."""
    items = []
    for record in standardized.task_records(TASK_ARGUMENT):
        anchor = record.anchor
        if anchor is None:
            raise ValidationError(f"argument record for doc {record.doc_id!r} lacks an anchor")
        for a in record.assignments:
            if a.label != NIL_LABEL:
                items.append(
                    ArgumentItem(
                        doc_id=record.doc_id,
                        trigger=anchor.trigger,
                        event_type=anchor.event_type,
                        span=a.span,
                        role=a.label,
                    )
                )
    return items

