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

import os
import re
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

from .core import TASK_ARGUMENT, TASK_TRIGGER, Corpus, TriggerContext
from .errors import ConfigError, ContextError, StoreError, ToolkitError, naming
from .ingest import ParadigmPredictions, checked_predictions, corpus_hash
from .ingest import parse_trigger_file, serialize_trigger_context  # noqa: F401 (bench/traced.py imports them from here)
from .jsonio import canonical_line, format_report, read_json, write_atomic
from .metrics import EvalReport, argument_items_from, score_argument_items, score_trigger_items, trigger_items_from
from .protocol import MODE_GOLD_TRIGGER, Protocol, is_score
from .standardize import StandardizedRecord, native_predictions, standardize_predictions
from .variants import VariantConfig


# ---------------------------------------------------------------------------
# composed evaluation


class EvaluationResult(NamedTuple):
    ed_report: EvalReport | None = None
    eae_report: EvalReport | None = None
    # of each task, the standardized records that discarded a prediction, in record order: the discard ledger
    # (`serialize_discards`) is their only reader; none without standardization, None for a task not given
    ed_with_discards: tuple[StandardizedRecord, ...] | None = None
    eae_with_discards: tuple[StandardizedRecord, ...] | None = None
    trigger_context: TriggerContext | None = None


def _check_anchors(predictions: ParadigmPredictions, context: TriggerContext) -> None:
    for record in predictions.records:
        if not context.contains(record.doc_id, record.anchor):
            trig = record.anchor.trigger
            raise ContextError(
                f"record for doc {record.doc_id!r} is anchored to "
                f"([{trig.start}, {trig.end}], {record.anchor.event_type!r}), which is not in the "
                f"trigger context ({context.source}); the predictions answer a trigger that was never given",
                record.line,
            )


def evaluate(
    corpus: Corpus,
    protocol: Protocol,
    *,
    ed_pred: ParadigmPredictions | None = None,
    eae_pred: ParadigmPredictions | None = None,
    trigger_context: TriggerContext | None = None,
) -> EvaluationResult:
    """Runs ED and/or EAE scoring under one trigger context, which is chosen here alone.

    gold_trigger mode scores EAE against the corpus's own triggers and
    refuses a given trigger_context; pipeline mode uses trigger_context,
    else ED's triggers, and refuses EAE without either. A context is built
    only when read, so a gold-mode call without EAE returns none. EAE
    records anchored outside it are rejected: the experiment answered
    triggers it was never given. Without standardization, predictions are
    scored in their native output space (`native_predictions`), which has
    no discard ledger; each file's paradigm is bound into the protocol,
    which refuses generation output there. Predictions are checked for
    their task against `corpus` as a file of them is (`checked_predictions`).
    Only the standardized records that discarded something are kept, for
    the ledger. A prediction file that its caller does not name goes once
    it is standardized; scoring ED first, then EAE under ED's
    `trigger_context`, never holds the two files at once.
    """
    protocol = replace(protocol, ed_paradigm=ed_pred and ed_pred.paradigm, eae_paradigm=eae_pred and eae_pred.paradigm)
    mode, convention, policy, options = protocol.mode, protocol.convention, protocol.policy, protocol.options
    output_space = standardize_predictions if protocol.standardize else native_predictions

    ed_report = ed_kept = ed_items = None
    if ed_pred is not None:
        ed_space = output_space(checked_predictions(ed_pred, corpus, TASK_TRIGGER), corpus, policy, options)
        ed_pred = None  # the parsed records go once standardized
        ed_kept, ed_items, ed_space = tuple(r for r in ed_space if r.discarded), trigger_items_from(ed_space), None
        ed_report = score_trigger_items(corpus, ed_items, mode=mode, convention=convention)

    context = trigger_context
    if mode == MODE_GOLD_TRIGGER:
        if context is not None:
            raise ConfigError("a trigger context only applies to pipeline mode: gold_trigger mode scores EAE "
                              "against the corpus's own triggers")
        context = TriggerContext.from_gold(corpus) if eae_pred is not None else None
    elif context is None and ed_items is not None:
        context = TriggerContext.from_items(ed_items, source="ed_predictions")
    elif context is None and eae_pred is not None:
        raise ConfigError("pipeline mode requires ED predictions or a predicted-trigger file/store entry")

    eae_report = eae_kept = None
    if eae_pred is not None:
        eae_pred = checked_predictions(eae_pred, corpus, TASK_ARGUMENT)
        _check_anchors(eae_pred, context)
        eae_space, eae_pred = output_space(eae_pred, corpus, policy, options), None  # as ED's above
        # the items go once counted: their iterator holds the only reference to them
        eae_kept, eae_items, eae_space = (
            tuple(r for r in eae_space if r.discarded), iter(argument_items_from(eae_space)), None
        )
        eae_report = score_argument_items(
            corpus, eae_items, context, convention=convention, mode=mode, eae_match=protocol.eae_match,
        )

    return EvaluationResult(ed_report, eae_report, ed_kept, eae_kept, context)


# ---------------------------------------------------------------------------
# fingerprints and the trigger store


def corpus_fingerprint(corpus: Corpus, cfg: VariantConfig) -> str:
    """Binds a corpus's content to a preprocessing-variant configuration
    (a parsed corpus was hashed as it was read: see `corpus_hash`)."""
    h = corpus_hash(corpus)
    h.update(canonical_line(cfg.as_dict()).encode("utf-8"))
    return h.hexdigest()


# matched with fullmatch: `$` alone also matches before a final "\n"
_PRODUCER_RE = re.compile(r"^[A-Za-z0-9._-]+$")


class TriggerStoreEntry(NamedTuple):
    corpus_id: str
    fingerprint: str
    producer: str
    file: str  # trigger file name inside the store directory
    ed_f1: float


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
    if not is_score(row["ed_f1"]):
        raise StoreError(f"{where} has an 'ed_f1' that is not a number in [0, 1]")
    if not _PRODUCER_RE.fullmatch(row["producer"]):
        raise StoreError(f"{where} has producer {row['producer']!r}, which does not match {_PRODUCER_RE.pattern}")
    name = row["file"]
    if name in ("", ".", "..") or os.path.basename(name) != name or "\0" in name:
        raise StoreError(f"{where} names {name!r}, which is not a file name inside the store")
    return TriggerStoreEntry(**{key: row[key] for key in _MANIFEST_FIELDS})


class TriggerStore:
    """A directory of immutable predicted-trigger files plus a manifest.

    Writes go to a temporary file and are renamed into place, so a
    concurrent reader sees either the old or the new manifest, never a
    torn one. Concurrent `put`s are serialized by an exclusive lock on
    `LOCK`, so none of them loses another's manifest row.
    """

    MANIFEST = "manifest.json"
    LOCK = "manifest.lock"

    def __init__(self, root):
        self.root = Path(root)

    def _read(self, entry: TriggerStoreEntry) -> bytes:
        """The bytes of an entry's trigger file; one that the store lacks or cannot read is a StoreError,
        whichever command reads it."""
        path = self.root / entry.file
        with naming("trigger store entry", path, OSError, StoreError):
            return path.read_bytes()

    def entries(self) -> list[TriggerStoreEntry]:
        """The manifest's entries in the order they were put. A manifest
        that cannot be read, is not a list of complete rows, or names a
        file outside the store directory raises StoreError."""
        path = self.root / self.MANIFEST
        with naming("trigger store manifest", path, (ToolkitError, OSError), StoreError):
            rows = read_json(path) if path.exists() else []
            if not isinstance(rows, list):
                raise StoreError("not a list of entries")
            return [_manifest_entry(row, f"entry {i}") for i, row in enumerate(rows)]

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
        if not _PRODUCER_RE.fullmatch(producer):
            raise ConfigError(
                f"producer {producer!r} must match {_PRODUCER_RE.pattern} (it names files)"
            )
        import fcntl  # here, so that a command that puts nothing does not load it

        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / self.LOCK, "wb") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
            for orphan in self.root.glob("*.tmp"):  # every write is made under the lock: a killed put left it
                orphan.unlink(missing_ok=True)
            rows = self.entries()
            for row in rows:
                if row.fingerprint == fingerprint and row.corpus_id != corpus_id:
                    raise StoreError(
                        f"fingerprint {fingerprint[:12]}... already stored for corpus "
                        f"{row.corpus_id!r}, refusing to attach it to {corpus_id!r}"
                    )
                if row.fingerprint == fingerprint and row.producer == producer:
                    if self._read(row) == trigger_bytes:
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
            write_atomic(self.root / filename, trigger_bytes)
            write_atomic(
                self.root / (filename + ".report.json"),
                format_report(ed_report.as_dict()).encode("utf-8"),
            )
            rows.append(entry)
            write_atomic(self.root / self.MANIFEST, format_report([r._asdict() for r in rows]).encode("utf-8"))
            return entry

    def get(self, corpus_id: str, fingerprint: str, producer: str | None = None) -> tuple[TriggerStoreEntry, bytes]:
        """Returns (entry, trigger file bytes). Without a producer, entries by more than one producer are a
        ConfigError; no entry that matches is a StoreError."""
        rows = [row for row in self.entries() if (row.corpus_id, row.fingerprint) == (corpus_id, fingerprint)
                and producer in (None, row.producer)]
        producers = list(dict.fromkeys(row.producer for row in rows))
        if len(producers) > 1:
            raise ConfigError(
                f"producers {', '.join(map(repr, producers))} all hold triggers for corpus {corpus_id!r} "
                f"and fingerprint {fingerprint[:12]}...; choose one with --producer"
            )
        if not rows:
            by = "" if producer is None else f" by producer {producer!r}"
            raise StoreError(f"no trigger-store entry{by} for corpus {corpus_id!r} and the current variant "
                             f"fingerprint {fingerprint[:12]}... (stale or missing entry)")
        return rows[0], self._read(rows[0])
