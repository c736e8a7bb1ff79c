"""Composition of ED and EAE evaluation, and the predicted-trigger store.

Gold-trigger evaluation scores EAE against oracle triggers; pipeline
evaluation scores it against triggers predicted by an ED stage, so ED
errors propagate: arguments answered for hallucinated triggers are false
positives and gold arguments of missed triggers stay false negatives
(modern convention). The trigger store is a directory of immutable,
fingerprint-keyed trigger files so different EAE systems can be compared
against the same predicted triggers.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .core import NIL_LABEL, TASK_ARGUMENT, TASK_TRIGGER, Anchor, Corpus, Span
from .errors import ConfigError, ContextError, ParseError, StoreError, ValidationError
from .ingest import (
    ParadigmPredictions,
    Stream,
    _check_bounds,
    _confidence,
    _decode_span,
    _iter_lines,
    _load_object,
    _reject_extras,
    _require,
    _string,
    serialize_corpus,
)
from .jsonio import canonical_line, dump_jsonl, format_report
from .metrics import (
    CONVENTION_MODERN,
    CONVENTIONS,
    EAE_MATCH_BY_TYPE,
    MODE_GOLD_TRIGGER,
    MODES,
    ArgumentItem,
    EvalReport,
    TriggerItem,
    argument_items_from,
    score_argument_items,
    score_trigger_items,
    trigger_items_from,
)
from .standardize import (
    CandidatePolicy,
    StandardizedPredictionSet,
    StandardizeOptions,
    TriggerCandidates,
    decode_bio,
    standardize_predictions,
)
from .variants import VariantConfig

SOURCE_GOLD = "gold"


@dataclass(frozen=True)
class PredictedTrigger:
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
        table: dict = {}
        for it in items:
            table.setdefault(it.doc_id, []).append(
                PredictedTrigger(it.span, it.label, getattr(it, "confidence", None))
            )
        return TriggerContext(source=source, triggers={k: tuple(v) for k, v in table.items()})

    @staticmethod
    def from_standardized(standardized: StandardizedPredictionSet, source: str = "ed_predictions") -> "TriggerContext":
        table: dict = {}
        for record in standardized.task_records(TASK_TRIGGER):
            preds = [
                PredictedTrigger(a.span, a.label, a.confidence)
                for a in record.assignments
                if a.label != NIL_LABEL
            ]
            if preds:
                table.setdefault(record.doc_id, []).extend(preds)
        return TriggerContext(source=source, triggers={k: tuple(v) for k, v in table.items()})

    @cached_property
    def keys(self) -> frozenset:
        """Every (doc_id, trigger span, event_type) in the context."""
        return frozenset(
            (doc_id, t.span, t.event_type) for doc_id, triggers in self.triggers.items() for t in triggers
        )

    def contains(self, doc_id: str, anchor: Anchor) -> bool:
        return (doc_id, anchor.trigger, anchor.event_type) in self.keys


def parse_trigger_file(stream: Stream, corpus: Corpus, source: str) -> TriggerContext:
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


def serialize_trigger_context(context: TriggerContext) -> bytes:
    objs = []
    for doc_id in sorted(context.triggers):
        triggers = context.triggers[doc_id]
        if not triggers:
            continue
        objs.append(
            {
                "doc_id": doc_id,
                "triggers": [
                    {"span": t.span.as_pair(), "event_type": t.event_type}
                    | ({"confidence": t.confidence} if t.confidence is not None else {})
                    for t in triggers
                ],
            }
        )
    return dump_jsonl(objs)


def load_trigger_file(path, corpus: Corpus) -> TriggerContext:
    with open(path, "rb") as f:
        return parse_trigger_file(f, corpus, source=str(path))


# ---------------------------------------------------------------------------
# composed evaluation


@dataclass
class EvaluationResult:
    ed_report: EvalReport | None
    eae_report: EvalReport | None
    ed_standardized: StandardizedPredictionSet | None
    eae_standardized: StandardizedPredictionSet | None
    trigger_context: TriggerContext | None


def _require_task(predictions: ParadigmPredictions, task: str, what: str) -> None:
    for record in predictions.records:
        if record.task != task:
            raise ValidationError(
                f"{what} contains a {record.task!r} record for doc {record.doc_id!r}"
                f" (line {record.line}); expected task {task!r}"
            )


def raw_trigger_items(
    predictions: ParadigmPredictions,
    corpus: Corpus,
    policy: CandidatePolicy,
    options: StandardizeOptions,
) -> list[TriggerItem]:
    """Trigger predictions scored in their native output space (no candidate
    filtering, no duplicate resolution). Not defined for generation output,
    which has no positions without standardization."""
    items: list[TriggerItem] = []
    for record in predictions.records:
        if record.items is not None:
            raise ConfigError("generation predictions cannot be scored without standardization")
        if record.tags is not None:
            decoded = decode_bio(record.tags, options.stray_i)
            for span, label in decoded:
                if label != NIL_LABEL:
                    items.append(TriggerItem(record.doc_id, span, label))
        elif record.spans is not None:
            for sp in record.spans:
                if sp.label != NIL_LABEL:
                    items.append(TriggerItem(record.doc_id, sp.span, sp.label))
        elif record.assignments is not None:
            candidates = TriggerCandidates(corpus.get(record.doc_id), policy)
            for a in record.assignments:
                span = candidates.span_of(a.candidate_id)
                if span is not None and a.label != NIL_LABEL:
                    items.append(TriggerItem(record.doc_id, span, a.label))
    return items


def raw_argument_items(
    predictions: ParadigmPredictions,
    corpus: Corpus,
    options: StandardizeOptions,
) -> list[ArgumentItem]:
    """Argument predictions scored in their native output space."""
    items: list[ArgumentItem] = []
    for record in predictions.records:
        anchor = record.anchor
        if record.items is not None:
            raise ConfigError("generation predictions cannot be scored without standardization")
        if record.tags is not None:
            for span, label in decode_bio(record.tags, options.stray_i):
                if label != NIL_LABEL:
                    items.append(
                        ArgumentItem(record.doc_id, anchor.trigger, anchor.event_type, span, label)
                    )
        elif record.spans is not None:
            for sp in record.spans:
                if sp.label != NIL_LABEL:
                    items.append(
                        ArgumentItem(record.doc_id, anchor.trigger, anchor.event_type, sp.span, sp.label)
                    )
        elif record.assignments is not None:
            doc = corpus.get(record.doc_id)
            for a in record.assignments:
                mention = doc.entities_by_id.get(a.candidate_id)
                if mention is not None and a.label != NIL_LABEL:
                    items.append(
                        ArgumentItem(
                            record.doc_id, anchor.trigger, anchor.event_type, mention.span, a.label
                        )
                    )
    return items


def _check_anchors(predictions: ParadigmPredictions, context: TriggerContext) -> None:
    for record in predictions.records:
        if record.anchor is None:
            continue
        if not context.contains(record.doc_id, record.anchor):
            trig = record.anchor.trigger
            raise ContextError(
                f"line {record.line}: record for doc {record.doc_id!r} is anchored to "
                f"([{trig.start}, {trig.end}], {record.anchor.event_type!r}), which is not in the "
                f"trigger context ({context.source}); the predictions answer a trigger that was never given"
            )


def evaluate(
    corpus: Corpus,
    eae_pred: ParadigmPredictions | None = None,
    *,
    mode: str = MODE_GOLD_TRIGGER,
    convention: str = CONVENTION_MODERN,
    ed_pred=None,  # ParadigmPredictions | StandardizedPredictionSet | None
    trigger_context: TriggerContext | None = None,
    policy: CandidatePolicy = CandidatePolicy(),
    options: StandardizeOptions = StandardizeOptions(),
    eae_match: str = EAE_MATCH_BY_TYPE,
    standardize: bool = True,
    jobs: int = 1,
) -> EvaluationResult:
    """Runs ED and/or EAE scoring under one trigger context.

    gold_trigger mode scores EAE against the corpus's own triggers;
    pipeline mode requires predicted triggers (from ed_pred or an explicit
    trigger_context). EAE records anchored outside the context are
    rejected: they indicate the experiment answered triggers it was never
    given.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    if convention not in CONVENTIONS:
        raise ConfigError(f"unknown convention {convention!r}")

    ed_report = None
    ed_std = None
    ed_items = None
    if isinstance(ed_pred, StandardizedPredictionSet):
        ed_std = ed_pred
        ed_items = trigger_items_from(ed_std)
    elif isinstance(ed_pred, ParadigmPredictions):
        _require_task(ed_pred, TASK_TRIGGER, "ED prediction file")
        if standardize:
            ed_std = standardize_predictions(ed_pred, corpus, policy, options, jobs=jobs)
            ed_items = trigger_items_from(ed_std)
        else:
            ed_items = raw_trigger_items(ed_pred, corpus, policy, options)
    elif ed_pred is not None:
        raise TypeError(f"unsupported ED prediction type {type(ed_pred).__name__}")
    if ed_items is not None:
        ed_report = score_trigger_items(corpus, ed_items, mode=mode, convention=convention)

    if mode == MODE_GOLD_TRIGGER:
        context = TriggerContext.from_gold(corpus)
    else:
        if trigger_context is not None:
            context = trigger_context
        elif ed_items is not None:
            context = TriggerContext.from_items(ed_items, source="ed_predictions")
        else:
            raise ConfigError(
                "pipeline mode requires ED predictions or a predicted-trigger file/store entry"
            )

    eae_report = None
    eae_std = None
    if eae_pred is not None:
        _require_task(eae_pred, TASK_ARGUMENT, "EAE prediction file")
        _check_anchors(eae_pred, context)
        if standardize:
            eae_std = standardize_predictions(eae_pred, corpus, policy, options, jobs=jobs)
            eae_items = argument_items_from(eae_std)
        else:
            eae_items = raw_argument_items(eae_pred, corpus, options)
        eae_report = score_argument_items(
            corpus, eae_items, context, convention=convention, mode=mode, eae_match=eae_match
        )

    return EvaluationResult(
        ed_report=ed_report,
        eae_report=eae_report,
        ed_standardized=ed_std,
        eae_standardized=eae_std,
        trigger_context=context,
    )


# ---------------------------------------------------------------------------
# fingerprints and the trigger store


def corpus_fingerprint(corpus: Corpus, cfg: VariantConfig) -> str:
    """Binds a corpus's content to a preprocessing-variant configuration."""
    h = hashlib.sha256()
    h.update(serialize_corpus(corpus))
    h.update(canonical_line(cfg.as_dict()).encode("utf-8"))
    return h.hexdigest()


_PRODUCER_RE = re.compile(r"^[A-Za-z0-9._-]+$")


@dataclass(frozen=True)
class TriggerStoreEntry:
    corpus_id: str
    fingerprint: str
    producer: str
    file: str  # trigger file name inside the store directory
    ed_f1: float

    def manifest_row(self) -> dict:
        return {
            "corpus_id": self.corpus_id,
            "fingerprint": self.fingerprint,
            "producer": self.producer,
            "file": self.file,
            "ed_f1": self.ed_f1,
        }


# manifest row key -> accepted JSON value types
_MANIFEST_FIELDS = {
    "corpus_id": str,
    "fingerprint": str,
    "producer": str,
    "file": str,
    "ed_f1": (int, float),
}


def _manifest_entry(row, where: str) -> TriggerStoreEntry:
    if not isinstance(row, dict):
        raise StoreError(f"{where} is not an object")
    for key, types in _MANIFEST_FIELDS.items():
        if key not in row:
            raise StoreError(f"{where} lacks {key!r}")
        if not isinstance(row[key], types) or isinstance(row[key], bool):
            raise StoreError(f"{where} has a {type(row[key]).__name__} {key!r}")
    name = row["file"]
    if name in ("", ".", "..") or os.path.basename(name) != name or "\0" in name:
        raise StoreError(f"{where} names {name!r}, which is not a file name inside the store")
    return TriggerStoreEntry(**{key: row[key] for key in _MANIFEST_FIELDS})


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.parent / (path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class TriggerStore:
    """A directory of immutable predicted-trigger files plus a manifest.

    Writes go to a temporary file and are renamed into place, so a
    concurrent reader sees either the old or the new manifest, never a
    torn one.
    """

    MANIFEST = "manifest.json"

    def __init__(self, root):
        self.root = Path(root)

    def _manifest_path(self) -> Path:
        return self.root / self.MANIFEST

    def entries(self) -> list[TriggerStoreEntry]:
        """The manifest's entries in the order they were put. A manifest
        that is not a list of complete rows, or that names a file outside
        the store directory, raises StoreError."""
        path = self._manifest_path()
        if not path.exists():
            return []
        try:
            rows = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt manifest {path}: {exc.msg}") from None
        except UnicodeDecodeError:
            raise StoreError(f"corrupt manifest {path}: not valid UTF-8") from None
        except RecursionError:
            raise StoreError(f"corrupt manifest {path}: nested too deeply") from None
        if not isinstance(rows, list):
            raise StoreError(f"corrupt manifest {path}: not a list of entries")
        return [_manifest_entry(row, f"corrupt manifest {path}: entry {i}") for i, row in enumerate(rows)]

    def put(
        self,
        corpus_id: str,
        fingerprint: str,
        producer: str,
        trigger_bytes: bytes,
        ed_report: EvalReport,
    ) -> TriggerStoreEntry:
        """Adds an entry; entries are immutable once written. Re-putting
        identical content is a no-op; differing content is an integrity error."""
        if not _PRODUCER_RE.match(producer):
            raise ConfigError(
                f"producer {producer!r} must match {_PRODUCER_RE.pattern} (it names files)"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        rows = self.entries()
        for row in rows:
            if row.fingerprint == fingerprint and row.corpus_id != corpus_id:
                raise StoreError(
                    f"fingerprint {fingerprint[:12]}... already stored for corpus "
                    f"{row.corpus_id!r}, refusing to attach it to {corpus_id!r}"
                )
            if row.fingerprint == fingerprint and row.producer == producer:
                existing = (self.root / row.file).read_bytes()
                if existing == trigger_bytes:
                    return row
                raise StoreError(
                    f"store already holds different triggers for producer {producer!r} "
                    f"and fingerprint {fingerprint[:12]}...; entries are immutable"
                )
        filename = f"{fingerprint[:16]}__{producer}.jsonl"
        entry = TriggerStoreEntry(
            corpus_id=corpus_id,
            fingerprint=fingerprint,
            producer=producer,
            file=filename,
            # manifest precision, so the entry round-trips through the file
            ed_f1=round(ed_report.f1, 6),
        )
        _write_atomic(self.root / filename, trigger_bytes)
        _write_atomic(
            self.root / (filename + ".report.json"),
            format_report(ed_report.as_dict()).encode("utf-8"),
        )
        rows.append(entry)
        _write_atomic(
            self._manifest_path(),
            format_report([r.manifest_row() for r in rows]).encode("utf-8"),
        )
        return entry

    def get(
        self, corpus_id: str, fingerprint: str, producer: str | None = None
    ) -> tuple[TriggerStoreEntry, bytes] | None:
        """Returns (entry, trigger file bytes), or None when no entry matches."""
        for row in self.entries():
            if row.fingerprint != fingerprint or row.corpus_id != corpus_id:
                continue
            if producer is not None and row.producer != producer:
                continue
            path = self.root / row.file
            if not path.exists():
                raise StoreError(f"manifest references missing trigger file {row.file!r}")
            return row, path.read_bytes()
        return None
