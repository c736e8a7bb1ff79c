"""Projection of heterogeneous model outputs onto candidate-set space.

Predictions from all four paradigms are standardized onto the candidate
sets of the classification paradigm under strict boundary matching:
a projected span either equals a candidate span exactly or is discarded.
Duplicate predictions for one candidate are resolved deterministically
(highest confidence, then first appearance), and position-free generated
mentions are placed by generation order against occurrence order. Every
discard carries a machine-readable reason so the whole projection is
auditable. The same decoding without matching and duplicate resolution
gives the predictions in their native output space.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterator, NamedTuple, Sequence

from .core import TASK_TRIGGER, Anchor, Corpus, Document, Span
from .ingest import CgItem, ParadigmPredictions, PredictionRecord, SpanPrediction
from .jsonio import dump_jsonl

TRIGGER_POLICY_EVERY_TOKEN = "every_token"
TRIGGER_POLICY_SPANS_UP_TO_K = "every_span_up_to_k"

STRAY_I_OPEN = "open_span"
STRAY_I_DISCARD = "discard"

# provenance of a standardized assignment
PROV_NATIVE = "native"
PROV_PROJECTED = "projected"
PROV_POSITIONED = "positioned"
PROV_RESOLVED_DUPLICATE = "resolved_duplicate"

# discard reasons
DISCARD_OVERLAP = "overlap_mismatch"
DISCARD_DUP_CONFIDENCE = "duplicate_lower_confidence"
DISCARD_DUP_ARRIVAL = "duplicate_later_arrival"
DISCARD_UNPLACEABLE = "unplaceable_mention"
DISCARD_UNKNOWN_CANDIDATE = "unknown_candidate"
DISCARD_STRAY_I = "stray_inside_tag"


class CandidatePolicy(NamedTuple):
    """How trigger candidates are enumerated. Argument candidates are always
    the entity mentions of the (variant-filtered) document. Built from a
    checked protocol by `Protocol.policy`."""

    trigger_policy: str = TRIGGER_POLICY_EVERY_TOKEN
    k: int = 1


class StandardizeOptions(NamedTuple):
    """How predictions are decoded. Built from a checked protocol by
    `Protocol.options`."""

    stray_i: str = STRAY_I_OPEN


class Assignment(NamedTuple):
    candidate_id: str | None  # None only in native output, for a span that is no candidate
    span: Span
    label: str
    provenance: str
    confidence: float | None = None


class Discard(NamedTuple):
    reason: str
    original: dict  # JSON-ready description of the discarded prediction


class StandardizedRecord(NamedTuple):
    doc_id: str
    task: str
    anchor: Anchor | None
    assignments: tuple[Assignment, ...]  # canonical candidate order, one per candidate (native: arrival order)
    discarded: tuple[Discard, ...]
    line: int = 0


def trigger_candidate_id(span: Span) -> str:
    return f"t:{span.start}:{span.end}"


class TriggerCandidates:
    """The trigger candidates of one document, derived instead of enumerated:
    a span is a candidate iff it lies inside one sentence and is at most k
    tokens long, with k = 1 for `every_token`. Its id is `t:<start>:<end>`.
    """

    def __init__(self, doc: Document, policy: CandidatePolicy):
        self._k = 1 if policy.trigger_policy == TRIGGER_POLICY_EVERY_TOKEN else policy.k
        self._starts = [s.start for s in doc.sentences]
        self._ends = [s.end for s in doc.sentences]

    def __len__(self) -> int:
        """The number of candidates: a sentence of n tokens holds
        min(k, j) spans ending at its j-th token."""
        k = self._k
        total = 0
        for start, end in zip(self._starts, self._ends):
            n = end - start
            total += n * (n + 1) // 2 if n <= k else k * (k + 1) // 2 + (n - k) * k
        return total

    def id_of(self, span: Span) -> str | None:
        """The candidate id of a span, or None when the policy admits no such span."""
        i = bisect_right(self._starts, span.start) - 1
        if i < 0 or not span.start < span.end <= min(span.start + self._k, self._ends[i]):
            return None
        return trigger_candidate_id(span)

    def span_of(self, candidate_id: str) -> Span | None:
        """The span of a candidate id, or None when the id is not a candidate.

        Only the exact spelling `id_of` produces is known: `int` also reads
        "01", "+1", "1_0" and non-ASCII digits, which no candidate id has.
        """
        parts = candidate_id.split(":")
        if len(parts) != 3 or parts[0] != "t":
            return None
        try:
            span = Span(int(parts[1]), int(parts[2]))
        except ValueError:
            return None
        return span if self.id_of(span) == candidate_id else None


class ArgumentCandidates:
    """The argument candidates of one document: its entity mentions, each
    under its own id. Mentions that share a span give that span the
    smallest of their ids."""

    def __init__(self, doc: Document):
        self._mentions = doc.entities_by_id
        self._ids: dict[Span, str] = {}
        for m in doc.entities:
            known = self._ids.get(m.span)
            if known is None or m.id < known:
                self._ids[m.span] = m.id

    def id_of(self, span: Span) -> str | None:
        """The smallest id of a mention with exactly this span, or None."""
        return self._ids.get(span)

    def span_of(self, candidate_id: str) -> Span | None:
        """The span of the mention with this id, or None when there is none."""
        mention = self._mentions.get(candidate_id)
        return None if mention is None else mention.span


def decode_bio(tags: Sequence[str], stray_i: str = STRAY_I_OPEN) -> list[tuple[Span, str]]:
    """Decodes a BIO tag sequence into labeled spans.

    Maximal B-led runs become spans; a label change inside a run closes
    the previous span. A stray I tag (no same-label B/I immediately
    before it) either opens a new span (`open_span`, the default) or is
    dropped (`discard`).

    >>> decode_bio(["B-Person", "I-Person", "O"])
    [(Span(start=0, end=2), 'Person')]
    """
    spans: list[tuple[Span, str]] = []
    start = label = None  # the open span
    for i, tag in enumerate([*tags, "O"]):  # the last O closes the last span
        if tag == "O":
            if start is not None:
                spans.append((Span(start, i), label))
                start = label = None
            continue
        prefix, tag_label = tag.split("-", 1)
        if prefix == "I" and tag_label == label:
            continue
        if start is not None:
            spans.append((Span(start, i), label))
        start, label = (i, tag_label) if prefix == "B" or stray_i == STRAY_I_OPEN else (None, None)
    return spans


def position_cg(
    items: Sequence[CgItem], doc: Document
) -> tuple[list[tuple[Span, CgItem, int]], list[tuple[CgItem, int]]]:
    """Assigns positions to generated items by appearance order.

    Occurrences of each (non-empty) mention are found by exact,
    case-sensitive token sequence matching, left to right, starting only
    at the positions of its first token; the k-th generated item carrying
    a given mention is placed on its k-th occurrence. Returns (placed,
    unplaceable), both carrying the item's arrival index.
    """
    unused: dict[tuple[str, ...], Iterator[Span]] = {}  # mention -> its occurrences not yet placed
    placed: list[tuple[Span, CgItem, int]] = []
    unplaceable: list[tuple[CgItem, int]] = []
    tokens = doc.tokens
    for idx, item in enumerate(items):
        mention = item.mention
        if mention not in unused:
            width = len(mention)
            unused[mention] = iter([
                Span(s, s + width)
                for s in doc.token_positions.get(mention[0], ())
                if tokens[s : s + width] == mention
            ])
        span = next(unused[mention], None)
        if span is None:
            unplaceable.append((item, idx))
        else:
            placed.append((span, item, idx))
    return placed, unplaceable


def _decode(
    record: PredictionRecord,
    candidates: TriggerCandidates | ArgumentCandidates,
    options: StandardizeOptions,
    doc: Document,
) -> tuple[str, list[Discard], Iterator[tuple]]:
    """The one place that reads a record's paradigm payload.

    Returns the provenance of the record's matches, the discards found
    while decoding, and the positioned predictions in arrival order as
    (span, candidate id, label, confidence, original) tuples, where
    `original()` renders the JSON description of the prediction (only a
    discard needs it) and the candidate id is None when no candidate has
    exactly that span. The discards are a classification id that names no
    candidate, a generated mention with no occurrence left and, under
    `--stray_i discard`, a stray I tag that was dropped.
    """
    if record.assignments is not None:
        located = [(a, candidates.span_of(a.candidate_id)) for a in record.assignments]
        unknown = [Discard(DISCARD_UNKNOWN_CANDIDATE, a.as_dict()) for a, span in located if span is None]
        return PROV_NATIVE, unknown, (
            (span, a.candidate_id, a.label, a.confidence, a.as_dict) for a, span in located if span is not None
        )
    if record.tags is not None:
        decoded = decode_bio(record.tags, options.stray_i)
        strays = []
        if options.stray_i == STRAY_I_DISCARD:  # a non-O tag in no decoded span was dropped
            covered = {t for span, _ in decoded for t in range(span.start, span.end)}
            strays = [
                Discard(DISCARD_STRAY_I, {"tag": tag, "token": t})
                for t, tag in enumerate(record.tags)
                if tag != "O" and t not in covered
            ]
        return PROV_PROJECTED, strays, (
            (span, candidates.id_of(span), label, None, lambda span=span, label=label: SpanPrediction(span, label).as_dict())
            for span, label in decoded
        )
    if record.spans is not None:
        return PROV_PROJECTED, [], (
            (sp.span, candidates.id_of(sp.span), sp.label, sp.confidence, sp.as_dict) for sp in record.spans
        )
    placed, unplaceable = position_cg(record.items or (), doc)
    return PROV_POSITIONED, [Discard(DISCARD_UNPLACEABLE, it.as_dict()) for it, _ in unplaceable], (
        (span, candidates.id_of(span), it.label, it.confidence,
         lambda it=it, span=span: {**it.as_dict(), "span": span.as_pair()})
        for span, it, _ in placed
    )


def _project(
    record: PredictionRecord,
    candidates: TriggerCandidates | ArgumentCandidates,
    options: StandardizeOptions,
    doc: Document,
) -> StandardizedRecord:
    """Projects one prediction record onto its candidates.

    Strict boundary matching: a prediction lands on a candidate only when
    the spans are exactly equal. Generated items are positioned first,
    then matched; duplicates are resolved last, the highest confidence
    winning and ties or unscored records going to the first to arrive.
    Conservation holds per record: every input prediction becomes exactly
    one assignment or one discard.
    """
    provenance, discards, decoded = _decode(record, candidates, options, doc)
    groups: dict[str, list[tuple[Assignment, Callable[[], dict]]]] = {}  # candidate id -> its predictions, in arrival order
    for span, cid, label, confidence, original in decoded:
        if cid is None:
            discards.append(Discard(DISCARD_OVERLAP, original()))
        else:
            groups.setdefault(cid, []).append((Assignment(cid, span, label, provenance, confidence), original))

    assignments = []
    for group in groups.values():
        best = group[0][0]
        if len(group) > 1:
            # a record's predictions are all scored or all unscored; max keeps the first of equal confidences
            best = best if best.confidence is None else max(group, key=lambda p: p[0].confidence)[0]
            for a, original in group:
                if a is not best:
                    reason = DISCARD_DUP_CONFIDENCE if a.confidence != best.confidence else DISCARD_DUP_ARRIVAL
                    discards.append(Discard(reason, original()))
            best = best._replace(provenance=PROV_RESOLVED_DUPLICATE)
        assignments.append(best)
    assignments.sort(key=lambda a: (a.span, a.candidate_id))  # canonical order: (start, end), then id
    return StandardizedRecord(
        doc_id=record.doc_id,
        task=record.task,
        anchor=record.anchor,
        assignments=tuple(assignments),
        discarded=tuple(discards),
        line=record.line,
    )


def _with_candidates(
    predictions: ParadigmPredictions, corpus: Corpus, policy: CandidatePolicy
) -> Iterator[tuple[PredictionRecord, TriggerCandidates | ArgumentCandidates, Document]]:
    """Each record with its candidates and document. Candidates are set up
    once per document and task and shared by its records: the argument
    candidates of a document are the same for every anchor."""
    shared: dict[tuple[str, str], TriggerCandidates | ArgumentCandidates] = {}
    for record in predictions.records:
        doc = corpus.get(record.doc_id)
        candidates = shared.get((record.doc_id, record.task))
        if candidates is None:
            if record.task == TASK_TRIGGER:
                candidates = TriggerCandidates(doc, policy)
            else:
                candidates = ArgumentCandidates(doc)
            shared[(record.doc_id, record.task)] = candidates
        yield record, candidates, doc


def standardize_predictions(
    predictions: ParadigmPredictions,
    corpus: Corpus,
    policy: CandidatePolicy = CandidatePolicy(),
    options: StandardizeOptions = StandardizeOptions(),
    jobs: int = 1,
) -> tuple[StandardizedRecord, ...]:
    """Standardizes every record against its document's candidate set.

    Output order equals input order. `jobs` is accepted and ignored:
    projection is pure-Python work, which threads cannot run in parallel
    and which measured slower in a thread pool.
    """
    return tuple(
        _project(record, candidates, options, doc)
        for record, candidates, doc in _with_candidates(predictions, corpus, policy)
    )


def native_predictions(
    predictions: ParadigmPredictions,
    corpus: Corpus,
    policy: CandidatePolicy = CandidatePolicy(),
    options: StandardizeOptions = StandardizeOptions(),
) -> tuple[StandardizedRecord, ...]:
    """The predictions in their native output space, decoded as
    `standardize_predictions` decodes them but neither matched nor
    resolved: every prediction with a span is kept, in arrival order,
    whether or not a candidate has that span and however often the span
    repeats. Nothing is discarded. Not defined for generation output,
    whose mentions have no positions without standardization: `evaluate`'s
    protocol refuses it.
    """
    records = []
    for record, candidates, doc in _with_candidates(predictions, corpus, policy):
        provenance, _, decoded = _decode(record, candidates, options, doc)
        assignments = tuple(
            Assignment(cid, span, label, provenance, confidence) for span, cid, label, confidence, _ in decoded
        )
        records.append(StandardizedRecord(record.doc_id, record.task, record.anchor, assignments, (), record.line))
    return tuple(records)


def _record_to_obj(record: StandardizedRecord) -> dict:
    obj: dict = {"doc_id": record.doc_id}
    if record.anchor is not None:
        obj["anchor"] = record.anchor.as_dict()
    obj["assignments"] = [
        {"candidate_id": a.candidate_id, "label": a.label, "provenance": a.provenance}
        for a in record.assignments
    ]
    obj["discarded"] = [{"reason": d.reason, "original": d.original} for d in record.discarded]
    return obj


def serialize_standardized(standardized: Sequence[StandardizedRecord]) -> bytes:
    return dump_jsonl(_record_to_obj(r) for r in standardized)
