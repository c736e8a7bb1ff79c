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

from .core import TASK_TRIGGER, Anchor, Corpus, Document, Span, plain, task_of
from .ingest import CgItem, ParadigmPredictions, PredictionRecord
from .jsonio import dump_jsonl
from .protocol import PARADIGM_CLS, PARADIGM_SL, PARADIGM_SP, STRAY_I_DISCARD, STRAY_I_OPEN
from .protocol import CandidatePolicy, StandardizeOptions
from .protocol import TRIGGER_POLICY_SPANS_UP_TO_K  # noqa: F401 (bench/traced.py imports it from here)

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


class Assignment(NamedTuple):
    candidate_id: str | None  # None only in native output, for a span that is no candidate
    span: Span
    label: str
    provenance: str
    confidence: float | None = None


class Discard(NamedTuple):
    reason: str
    original: dict  # JSON-ready description of the discarded prediction


_Decoded = tuple[Assignment, object]  # a decoded prediction, and what a discard of it renders with `plain`


class StandardizedRecord(NamedTuple):
    doc_id: str
    anchor: Anchor | None
    assignments: tuple[Assignment, ...]  # canonical candidate order, one per candidate (native: arrival order)
    discarded: tuple[Discard, ...]

    task = property(task_of)


def trigger_candidate_id(span: Span) -> str:
    return f"t:{span.start}:{span.end}"


class TriggerCandidates:
    """The trigger candidates of one document, derived instead of enumerated:
    a span is a candidate iff it lies inside one sentence and is at most
    `policy.k` tokens long. Its id is `t:<start>:<end>`.
    """

    def __init__(self, doc: Document, policy: CandidatePolicy):
        self._k = policy.k
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


def position_cg(items: Sequence[CgItem], doc: Document) -> tuple[list[tuple[Span, CgItem]], list[CgItem]]:
    """Assigns positions to generated items by appearance order.

    Occurrences of each (non-empty) mention are found by exact,
    case-sensitive token sequence matching, left to right, starting only
    at the positions of its first token; the k-th generated item carrying
    a given mention is placed on its k-th occurrence. Returns (placed,
    unplaceable): (span, item) pairs and items, each in arrival order.
    """
    unused: dict[tuple[str, ...], Iterator[Span]] = {}  # mention -> its occurrences not yet placed
    placed: list[tuple[Span, CgItem]] = []
    unplaceable: list[CgItem] = []
    tokens = doc.tokens
    for item in items:
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
            unplaceable.append(item)
        else:
            placed.append((span, item))
    return placed, unplaceable


def _decode(
    paradigm: str, record: PredictionRecord, candidates: TriggerCandidates | ArgumentCandidates,
    options: StandardizeOptions, doc: Document,
) -> tuple[list[Discard], Iterator[_Decoded]]:
    """The one place that reads a record's payload, which it reads as its file's paradigm says.

    Returns the discards found while decoding, and each positioned prediction in arrival order as an
    (assignment, prediction) pair: the assignment's candidate id is None when no candidate has exactly its
    span, and the prediction is what a discard of it renders. The discards are a classification id that
    names no candidate, a generated mention with no occurrence left and, under `--stray_i discard`, a
    stray I tag that was dropped.
    """
    if paradigm == PARADIGM_CLS:
        located = [(a, candidates.span_of(a.candidate_id)) for a in record.payload]
        unknown = [Discard(DISCARD_UNKNOWN_CANDIDATE, plain(a)) for a, span in located if span is None]
        return unknown, (
            (Assignment(a.candidate_id, span, a.label, PROV_NATIVE, a.confidence), a)
            for a, span in located if span is not None
        )
    if paradigm == PARADIGM_SL:
        decoded = decode_bio(record.payload, options.stray_i)
        strays = []
        if options.stray_i == STRAY_I_DISCARD:  # a non-O tag in no decoded span was dropped
            covered = {t for span, _ in decoded for t in range(span.start, span.end)}
            strays = [
                Discard(DISCARD_STRAY_I, {"tag": tag, "token": t})
                for t, tag in enumerate(record.payload)
                if tag != "O" and t not in covered
            ]
        return strays, (
            (Assignment(candidates.id_of(span), span, label, PROV_PROJECTED), {"span": span, "label": label})
            for span, label in decoded
        )
    if paradigm == PARADIGM_SP:
        return [], (
            (Assignment(candidates.id_of(sp.span), sp.span, sp.label, PROV_PROJECTED, sp.confidence), sp)
            for sp in record.payload
        )
    placed, unplaceable = position_cg(record.payload, doc)
    return [Discard(DISCARD_UNPLACEABLE, plain(it)) for it in unplaceable], (
        (Assignment(candidates.id_of(span), span, it.label, PROV_POSITIONED, it.confidence),
         {"mention": it.mention, "label": it.label, "confidence": it.confidence, "span": span})
        for span, it in placed
    )


def _project(record: PredictionRecord, discards: list[Discard], decoded: Iterator[_Decoded]) -> StandardizedRecord:
    """The matching step: projects one decoded record onto its candidates.

    Strict boundary matching: a prediction lands on a candidate only when
    the spans are exactly equal. Generated items were positioned while
    decoding; duplicates are resolved last, the highest confidence
    winning and ties or unscored records going to the first to arrive.
    Conservation holds per record: every input prediction becomes exactly
    one assignment or one discard.
    """
    groups: dict[str, list[_Decoded]] = {}  # candidate id -> its predictions, in arrival order
    for pair in decoded:
        cid = pair[0].candidate_id
        if cid is None:
            discards.append(Discard(DISCARD_OVERLAP, plain(pair[1])))
        else:
            groups.setdefault(cid, []).append(pair)

    assignments = []
    for group in groups.values():
        best = group[0][0]
        if len(group) > 1:
            # a record's predictions are all scored or all unscored; max keeps the first of equal confidences
            best = best if best.confidence is None else max(group, key=lambda p: p[0].confidence)[0]
            for a, original in group:
                if a is not best:
                    reason = DISCARD_DUP_CONFIDENCE if a.confidence != best.confidence else DISCARD_DUP_ARRIVAL
                    discards.append(Discard(reason, plain(original)))
            best = best._replace(provenance=PROV_RESOLVED_DUPLICATE)
        assignments.append(best)
    assignments.sort(key=lambda a: (a.span, a.candidate_id))  # canonical order: (start, end), then id
    return StandardizedRecord(record.doc_id, record.anchor, tuple(assignments), tuple(discards))


def _each_record(
    step: Callable[..., StandardizedRecord], predictions: ParadigmPredictions, corpus: Corpus, policy: CandidatePolicy,
    options: StandardizeOptions,
) -> Iterator[StandardizedRecord]:
    """The one pass over a prediction file: decodes each record once and
    hands it, with its decoding discards and its (assignment, prediction)
    pairs, to `step`, which makes its output record, in input order.
    Candidates are set up once per document and task and shared by its
    records: the argument candidates of a document are the same for every
    anchor."""
    shared: dict[tuple[str, str], TriggerCandidates | ArgumentCandidates] = {}
    for record in predictions.records:
        doc, key = corpus.get(record.doc_id), (record.doc_id, record.task)
        if key not in shared:
            shared[key] = TriggerCandidates(doc, policy) if key[1] == TASK_TRIGGER else ArgumentCandidates(doc)
        yield step(record, *_decode(predictions.paradigm, record, shared[key], options, doc))


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
    return tuple(_each_record(_project, predictions, corpus, policy, options))


def native_predictions(
    predictions: ParadigmPredictions,
    corpus: Corpus,
    policy: CandidatePolicy = CandidatePolicy(),
    options: StandardizeOptions = StandardizeOptions(),
) -> tuple[StandardizedRecord, ...]:
    """The predictions in their native output space: the decoding of
    `standardize_predictions` without its matching step. Every prediction
    with a span is kept, in arrival order, whether or not a candidate has
    that span and however often the span repeats. Nothing is discarded.
    Not defined for generation output, whose mentions have no positions
    without standardization: `evaluate`'s protocol refuses it.
    """
    def keep(record, _, decoded):  # the native step: every decoded assignment, in arrival order
        return StandardizedRecord(record.doc_id, record.anchor, tuple(a for a, _ in decoded), ())
    return tuple(_each_record(keep, predictions, corpus, policy, options))


def serialize_standardized(standardized: Sequence[StandardizedRecord]) -> bytes:
    return dump_jsonl(plain({"doc_id": r.doc_id, "anchor": r.anchor, "discarded": r.discarded, "assignments": [
        {"candidate_id": a.candidate_id, "label": a.label, "provenance": a.provenance} for a in r.assignments
    ]}) for r in standardized)


def serialize_discards(*standardized: Sequence[StandardizedRecord] | None) -> bytes:
    """The discard ledger: a row per discarded prediction, in record order; a task given as None has none."""
    return dump_jsonl({"doc_id": r.doc_id, "task": r.task, "reason": d.reason, "original": d.original}
                      | ({} if r.anchor is None else {"anchor": plain(r.anchor)})
                      for records in standardized if records is not None for r in records for d in r.discarded)
