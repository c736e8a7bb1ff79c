"""Independent reference implementations used as test oracles.

These deliberately take a different route than the package code: the
matcher enumerates prediction-to-gold pairings instead of counting
multisets, and the BIO decoder normalizes tags in a first pass before
grouping runs in a second. They must never import the implementations
they check beyond the shared data types.

The candidate enumerator lists every candidate of a document where the
package derives them, and the reference projection matches, resolves and
orders predictions against that full list. The helpers after them serve
tests only: the package has no use for them. The reference parsers at the end are the
field-by-field parsers and document validator as they stood before the
field checks were made cheap, kept so that the current ones can be
diffed against them.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from typing import IO, Iterable, Iterator, Union

from eescore.core import (
    ENTITY_KINDS,
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
    span_contains,
)
from eescore.errors import ParseError, ValidationError
from eescore.ingest import CgItem, ClsAssignment, ParadigmPredictions, PredictionRecord, SpanPrediction
from eescore.protocol import PARADIGM_CG, PARADIGM_CLS, PARADIGM_SL, PARADIGM_SP, PARADIGMS
from eescore.standardize import Assignment, Discard, StandardizedRecord

# the JSON field that holds a record's payload, per paradigm
PAYLOAD_FIELDS = {PARADIGM_CLS: "assignments", PARADIGM_SL: "tags", PARADIGM_SP: "spans", PARADIGM_CG: "items"}


def max_matching(pred_keys, gold_keys) -> int:
    """Largest number of prediction-gold pairs with equal keys, each gold
    consumed at most once, found by exhaustive search with pruning."""
    golds = list(gold_keys)
    used = [False] * len(golds)
    best = 0

    def rec(i: int, matched: int) -> None:
        nonlocal best
        if matched > best:
            best = matched
        if i == len(pred_keys) or matched + (len(pred_keys) - i) <= best:
            return
        rec(i + 1, matched)  # leave prediction i unmatched
        for j, g in enumerate(golds):
            if not used[j] and g == pred_keys[i]:
                used[j] = True
                rec(i + 1, matched + 1)
                used[j] = False

    rec(0, 0)
    return best


def brute_force_counts(pred_keys, gold_keys) -> tuple[int, int, int]:
    """(tp, fp, fn) by exhaustive pairing."""
    tp = max_matching(list(pred_keys), list(gold_keys))
    return tp, len(pred_keys) - tp, len(gold_keys) - tp


def brute_force_by_doc(pred_keys, gold_keys) -> tuple[int, int, int]:
    """Same, but partitioned per document (keys start with the doc id);
    matches never cross documents, so this is exact and keeps the
    enumeration small."""
    docs = {k[0] for k in pred_keys} | {k[0] for k in gold_keys}
    tp = fp = fn = 0
    for doc in sorted(docs):
        p = [k for k in pred_keys if k[0] == doc]
        g = [k for k in gold_keys if k[0] == doc]
        dtp, dfp, dfn = brute_force_counts(p, g)
        tp, fp, fn = tp + dtp, fp + dfp, fn + dfn
    return tp, fp, fn


def reference_bio_decode(tags, stray_i: str = "open_span") -> list[tuple[Span, str]]:
    """Two-pass decoder: rewrite each stray I tag as B (`open_span`) or as
    O (`discard`), then group maximal runs."""
    normalized: list[tuple[str, str | None]] = []
    prev_label = None
    for tag in tags:
        if tag == "O":
            normalized.append(("O", None))
            prev_label = None
            continue
        prefix, label = tag.split("-", 1)
        if prefix == "I" and prev_label == label:
            normalized.append(("I", label))
        elif prefix == "I" and stray_i == "discard":
            normalized.append(("O", None))
            label = None
        else:
            normalized.append(("B", label))
        prev_label = label

    spans: list[tuple[Span, str]] = []
    i = 0
    while i < len(normalized):
        prefix, label = normalized[i]
        if prefix != "B":
            i += 1
            continue
        j = i + 1
        while j < len(normalized) and normalized[j] == ("I", label):
            j += 1
        spans.append((Span(i, j), label))
        i = j
    return spans


def per_label_by_rescan(pred_keys, gold_keys, label_of) -> tuple[tuple[int, int, int], dict]:
    """Multiset matching counted label by label, rescanning every key for
    each label: (tp, fp, fn) overall and {label: (tp, fp, fn)}."""
    pred = Counter(pred_keys)
    gold = Counter(gold_keys)
    tp = pred & gold
    total = (
        sum(tp.values()),
        sum(pred.values()) - sum(tp.values()),
        sum(gold.values()) - sum(tp.values()),
    )
    per_label = {}
    for label in sorted({label_of(k) for k in pred} | {label_of(k) for k in gold}):
        ltp = sum(c for k, c in tp.items() if label_of(k) == label)
        lfp = sum(c for k, c in pred.items() if label_of(k) == label) - ltp
        lfn = sum(c for k, c in gold.items() if label_of(k) == label) - ltp
        per_label[label] = (ltp, lfp, lfn)
    return total, per_label


def identification_by_intersection(pred_keys, gold_keys) -> tuple[int, int, int]:
    """Multiset matching of the keys with their last element (the label)
    dropped: (tp, fp, fn), where tp is the size of the multiset intersection."""
    pred = Counter(k[:-1] for k in pred_keys)
    gold = Counter(k[:-1] for k in gold_keys)
    tp = sum((pred & gold).values())
    return tp, sum(pred.values()) - tp, sum(gold.values()) - tp


def occurrences_by_window_scan(tokens, mention) -> list[Span]:
    """Every span whose tokens equal the mention, by sliding a window of
    its width over the whole document, left to right."""
    width = len(mention)
    return [
        Span(s, s + width) for s in range(len(tokens) - width + 1) if tuple(tokens[s : s + width]) == mention
    ]


# ---------------------------------------------------------------------------
# candidates, enumerated


def enumerate_candidates(doc: Document, task: str, policy=None) -> list[tuple[Span, str]]:
    """Every candidate of one document as (span, id), sorted by span, ties
    by id. Trigger candidates follow `policy` (a `CandidatePolicy`):
    one per token, or every span of up to k tokens inside a sentence.
    Argument candidates are the entity mentions under their own ids."""
    if task == TASK_ARGUMENT:
        return sorted((m.span, m.id) for m in doc.entities)
    if policy is None or policy.trigger_policy == "every_token":
        spans = [Span(i, i + 1) for i in range(len(doc.tokens))]
    else:
        spans = [
            Span(start, end)
            for sent in doc.sentences
            for start in range(sent.start, sent.end)
            for end in range(start + 1, min(start + policy.k, sent.end) + 1)
        ]
    return sorted((span, f"t:{span.start}:{span.end}") for span in spans)


# ---------------------------------------------------------------------------
# projection, defined the slow way


def _json_prediction(head: dict, label: str, confidence) -> dict:
    obj = {**head, "label": label}
    if confidence is not None:
        obj["confidence"] = confidence
    return obj


def _reference_record(
    paradigm: str, record: PredictionRecord, doc: Document, candidates, stray_i: str
) -> StandardizedRecord:
    """One record of a `paradigm` file projected: see `reference_project`."""
    id_spans = {cid: span for span, cid in candidates}
    early: list[Discard] = []  # predictions that never reach a span
    spanned: list[tuple] = []  # (span, candidate id or None, label, confidence, JSON original), arrival order
    if paradigm == PARADIGM_CLS:
        provenance = "native"
        for a in record.payload:
            original = _json_prediction({"candidate_id": a.candidate_id}, a.label, a.confidence)
            if a.candidate_id in id_spans:
                spanned.append((id_spans[a.candidate_id], a.candidate_id, a.label, a.confidence, original))
            else:
                early.append(Discard("unknown_candidate", original))
    elif paradigm == PARADIGM_SL:
        provenance = "projected"
        for span, label in reference_bio_decode(record.payload):
            if stray_i == "discard" and record.payload[span.start].startswith("I-"):  # opened by a stray I tag
                early += [Discard("stray_inside_tag", {"tag": record.payload[t], "token": t})
                          for t in range(span.start, span.end)]
            else:
                spanned.append((span, None, label, None, {"span": [span.start, span.end], "label": label}))
    elif paradigm == PARADIGM_SP:
        provenance = "projected"
        for sp in record.payload:
            original = _json_prediction({"span": [sp.span.start, sp.span.end]}, sp.label, sp.confidence)
            spanned.append((sp.span, None, sp.label, sp.confidence, original))
    else:
        provenance = "positioned"
        placed_so_far: Counter = Counter()
        for item in record.payload:
            occurrences = occurrences_by_window_scan(doc.tokens, item.mention)
            original = _json_prediction({"mention": list(item.mention)}, item.label, item.confidence)
            if placed_so_far[item.mention] < len(occurrences):
                span = occurrences[placed_so_far[item.mention]]
                placed_so_far[item.mention] += 1
                spanned.append((span, None, item.label, item.confidence, {**original, "span": [span.start, span.end]}))
            else:
                early.append(Discard("unplaceable_mention", original))

    # strict matching: a span lands on the first candidate (in id order) with exactly that span
    matched = []  # (candidate id, span, label, confidence, original), arrival order
    overlaps = []
    for span, cid, label, confidence, original in spanned:
        if cid is None:
            cid = next((c for s, c in candidates if s == span), None)
        if cid is None:
            overlaps.append(Discard("overlap_mismatch", original))
        else:
            matched.append((cid, span, label, confidence, original))

    winners = {}  # candidate id -> its assignment
    losers = []
    for cid in dict.fromkeys(m[0] for m in matched):  # candidates by first arrival
        group = [m for m in matched if m[0] == cid]
        best = group[0]
        for m in group:
            if m[3] is not None and m[3] > best[3]:
                best = m
        winners[cid] = Assignment(cid, best[1], best[2], "resolved_duplicate" if len(group) > 1 else provenance, best[3])
        for m in group:
            if m is not best:
                late = m[3] is None or m[3] == best[3]
                losers.append(Discard("duplicate_later_arrival" if late else "duplicate_lower_confidence", m[4]))

    assignments = tuple(winners[cid] for _, cid in candidates if cid in winners)  # sorted by span, then id
    return StandardizedRecord(record.doc_id, record.anchor, assignments, tuple(early + overlaps + losers))


def reference_project(predictions: ParadigmPredictions, corpus: Corpus, policy, stray_i: str) -> tuple:
    """`standardize_predictions` by enumeration: every record against the
    full, sorted candidate list of its document. A prediction lands on a
    candidate only when the spans are equal. Per candidate, the
    highest-confidence prediction wins, ties and unscored records going to
    the first to arrive; the assignments follow candidate order (start,
    end, id). The discards come in three runs, each in arrival order:
    predictions that never reach a span (an unknown id, an unplaceable
    mention, a dropped stray I tag), spans that are no candidate, and the
    losing duplicates, candidate by candidate in order of first arrival."""
    return tuple(
        _reference_record(
            predictions.paradigm, r, corpus.get(r.doc_id), enumerate_candidates(corpus.get(r.doc_id), r.task, policy),
            stray_i,
        )
        for r in predictions.records
    )


# ---------------------------------------------------------------------------
# test-side helpers


def validate_corpus(corpus: Corpus) -> list[str]:
    """Per-document violations, each prefixed with the document id."""
    out: list[str] = []
    for doc in corpus:
        out.extend(f"{doc.id}: {v}" for v in reference_validate_document(doc))
    return out


def _payload_obj(p) -> dict:
    """A payload element as the file format spells it, written here apart from the package's encoder."""
    if isinstance(p, ClsAssignment):
        return _json_prediction({"candidate_id": p.candidate_id}, p.label, p.confidence)
    if isinstance(p, SpanPrediction):
        return _json_prediction({"span": [p.span.start, p.span.end]}, p.label, p.confidence)
    return _json_prediction({"mention": list(p.mention)}, p.label, p.confidence)


def _prediction_to_obj(record: PredictionRecord, payload_field: str) -> dict:
    obj: dict = {"doc_id": record.doc_id, "task": record.task}
    if record.anchor is not None:
        trigger = record.anchor.trigger
        obj["anchor"] = {"trigger": [trigger.start, trigger.end], "event_type": record.anchor.event_type}
    obj[payload_field] = [p if isinstance(p, str) else _payload_obj(p) for p in record.payload]
    return obj


def serialize_predictions(predictions: ParadigmPredictions) -> bytes:
    """Canonical JSONL (sorted keys, no extra whitespace), which the parser
    reads back into equal records."""
    field = PAYLOAD_FIELDS[predictions.paradigm]
    return "".join(
        json.dumps(_prediction_to_obj(r, field), sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"
        for r in predictions.records
    ).encode("utf-8")


def to_cls_records(standardized) -> ParadigmPredictions:
    """Re-expresses standardized output as native classification records
    (the output space is the classification space, so this is lossless
    apart from discards)."""
    return ParadigmPredictions(
        paradigm=PARADIGM_CLS,
        records=tuple(
            PredictionRecord(
                r.doc_id, r.anchor, tuple(ClsAssignment(a.candidate_id, a.label, a.confidence) for a in r.assignments)
            )
            for r in standardized
        ),
    )


# ---------------------------------------------------------------------------
# reference parsers: one helper call per field, every locator formatted up
# front. One deliberate difference from their original: a tag must match
# `_TAG_RE` in full, so "O\n" is malformed (`$` also matches before a final
# newline). Objects with repeated keys are not compared: `json.loads` here
# keeps the last value, while the package rejects them.

Stream = Union[bytes, str, IO]

_TAG_RE = re.compile(r"^(O|[BI]-.+)$")


def _check_span(span: Span, n_tokens: int, where: str, out: list[str]) -> bool:
    """Appends violations for one span; returns True when the span is usable."""
    ok = True
    if span.start >= span.end:
        out.append(f"Span: start < end violated at {where}")
        ok = False
    if span.start < 0:
        out.append(f"Span: start >= 0 violated at {where}")
        ok = False
    if span.end > n_tokens:
        out.append(f"Span: end <= token count violated at {where}")
        ok = False
    return ok


def reference_validate_document(doc: Document) -> list[str]:
    """Returns all invariant violations, in a stable order; [] iff valid."""
    out: list[str] = []
    n = len(doc.tokens)

    # sentences: valid spans partitioning [0, n)
    cursor = 0
    partition_ok = True
    for i, s in enumerate(doc.sentences):
        if not _check_span(s, n, f"sentences[{i}]", out):
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
        span_ok = _check_span(m.span, n, f"entities[{i}].span", out)
        head_ok = _check_span(m.head_span, n, f"entities[{i}].head_span", out)
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
        if _check_span(ev.trigger, n, f"events[{i}].trigger", out):
            within = any(span_contains(s, ev.trigger) for s in doc.sentences)
            if doc.sentences and not within:
                out.append(f"trigger span crosses sentence boundary at events[{i}].trigger")
        seen_args: set[tuple[str, str]] = set()
        for j, arg in enumerate(ev.arguments):
            if arg.entity_id not in doc.entities_by_id:
                out.append(f"unresolved entity_id {arg.entity_id} at events[{i}].arguments[{j}]")
            key = (arg.entity_id, arg.role)
            if key in seen_args:
                out.append(f"duplicate (entity_id, role) {key} at events[{i}].arguments[{j}]")
            seen_args.add(key)

    return out


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
        # no UTF-8 sequence holds a "\n" byte: a bad one lies on the first line that does not decode alone
        for i, raw in enumerate(data.split(b"\n"), start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError("not valid UTF-8", i) from None
        text = data.decode("utf-8")
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


def reference_parse_corpus(stream: Stream) -> Corpus:
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
        violations = reference_validate_document(doc)
        if violations:
            raise ValidationError(f"document {doc_id!r}: " + "; ".join(violations), line)
        docs.append(doc)
    return Corpus(documents=tuple(docs))


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
        if not _TAG_RE.fullmatch(t):
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


def reference_parse_predictions(stream: Stream, paradigm: str, corpus: Corpus) -> ParadigmPredictions:
    """Parses one paradigm's prediction file, cross-validated against the corpus.

    Generation-order of CG items is preserved exactly. Labels outside the
    corpus schema are accepted; they simply never match at scoring time.
    """
    if paradigm not in PARADIGMS:
        raise ValueError(f"unknown paradigm {paradigm!r}; expected one of {PARADIGMS}")
    payload_field = PAYLOAD_FIELDS[paradigm]
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
            payload = _parse_assignments(payload, line)
        elif paradigm == PARADIGM_SL:
            payload = _parse_tags(payload, n, line)
        elif paradigm == PARADIGM_SP:
            payload = _parse_spans(payload, n, line)
        else:
            payload = _parse_items(payload, line)
        records.append(PredictionRecord(doc_id, anchor, payload, line))
    return ParadigmPredictions(paradigm=paradigm, records=tuple(records))


def reference_parse_trigger_file(stream: Stream, corpus: Corpus, source: str) -> TriggerContext:
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
