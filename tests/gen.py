"""Seeded random corpora and predictions for property-style tests.

Everything is driven by an explicit random.Random so runs are
reproducible. Generated corpora always satisfy the document invariants;
generated prediction files are always parseable (they go through the real
parser), but their content is deliberately noisy: unknown labels, nil
labels, out-of-candidate spans, duplicate predictions, unseen mentions.
"""

import random

from eescore.core import (
    Argument,
    Corpus,
    Document,
    EntityMention,
    EventAnnotation,
    Span,
)
from eescore.protocol import CandidatePolicy
from eescore.standardize import trigger_candidate_id

from corpora import predictions_from
from oracles import enumerate_candidates, validate_corpus

VOCAB = ("alpha", "bravo", "charlie", "delta", "alpha", "bravo")
TYPES = ("A", "B", "C")
ROLES = ("r1", "r2", "r3")
KINDS = ("entity", "value", "time", "pronoun")
NOISE_LABELS = ("NA", "Zz")  # nil and a label outside the corpus schema


def random_document(
    rng: random.Random,
    doc_id: str,
    max_tokens: int = 8,
    max_events: int = 3,
    cls_expressible: bool = False,
) -> Document:
    n = rng.randint(2, max_tokens)
    tokens = tuple(rng.choice(VOCAB) for _ in range(n))
    n_cuts = rng.randint(0, min(2, n - 1))
    cuts = sorted(rng.sample(range(1, n), n_cuts)) if n_cuts else []
    bounds = [0, *cuts, n]
    sentences = tuple(Span(a, b) for a, b in zip(bounds, bounds[1:]))

    entities = []
    for i in range(rng.randint(0, 4)):
        sent = sentences[rng.randrange(len(sentences))]
        start = rng.randrange(sent.start, sent.end)
        end = rng.randint(start + 1, min(start + 2, sent.end))
        head = rng.randrange(start, end)
        entities.append(
            EntityMention(
                id=f"e{i}",
                span=Span(start, end),
                head_span=Span(head, head + 1),
                kind=rng.choice(KINDS),
            )
        )

    events = []
    used_triggers: set[tuple[int, int]] = set()
    for j in range(rng.randint(0, max_events)):
        sent = sentences[rng.randrange(len(sentences))]
        start = rng.randrange(sent.start, sent.end)
        end = rng.randint(start + 1, min(start + 2, sent.end))
        if cls_expressible and (start, end) in used_triggers:
            continue
        used_triggers.add((start, end))
        args = []
        pool = list(entities)
        rng.shuffle(pool)
        seen_pairs: set[tuple[str, str]] = set()
        seen_entities: set[str] = set()
        for m in pool[: rng.randint(0, len(pool))]:
            role = rng.choice(ROLES)
            if (m.id, role) in seen_pairs:
                continue
            if cls_expressible and m.id in seen_entities:
                continue
            seen_pairs.add((m.id, role))
            seen_entities.add(m.id)
            args.append(Argument(m.id, role))
        events.append(EventAnnotation(f"ev{j}", rng.choice(TYPES), Span(start, end), tuple(args)))

    return Document(
        id=doc_id, tokens=tokens, sentences=sentences, entities=tuple(entities), events=tuple(events)
    )


def random_corpus(
    rng: random.Random,
    max_docs: int = 5,
    max_tokens: int = 8,
    max_events: int = 3,
    cls_expressible: bool = False,
    require_event_with_argument: bool = False,
) -> Corpus:
    for _ in range(50):
        docs = tuple(
            random_document(rng, f"d{i}", max_tokens, max_events, cls_expressible)
            for i in range(rng.randint(1, max_docs))
        )
        corpus = Corpus(documents=docs)
        assert not validate_corpus(corpus)
        if not require_event_with_argument:
            return corpus
        if any(e.arguments for d in corpus for e in d.events):
            return corpus
    raise AssertionError("generator failed to produce a corpus with an argument")


def _label(rng: random.Random) -> str:
    return rng.choice(TYPES + NOISE_LABELS)


def _role(rng: random.Random) -> str:
    return rng.choice(ROLES + NOISE_LABELS)


def _with_confidences(rng: random.Random, entries: list[dict]) -> list[dict]:
    if entries and rng.random() < 0.5:
        for e in entries:
            e["confidence"] = round(rng.random(), 2)
    return entries


def random_trigger_predictions(rng: random.Random, corpus: Corpus, paradigm: str):
    objs = []
    for doc in corpus:
        if rng.random() < 0.15:
            continue  # some documents get no record at all
        n = len(doc.tokens)
        obj = {"doc_id": doc.id, "task": "trigger"}
        if paradigm == "CLS":
            ids = [trigger_candidate_id(Span(i, i + 1)) for i in range(n)]
            rng.shuffle(ids)
            picked = ids[: rng.randint(0, min(4, n))]
            if picked and rng.random() < 0.2:
                picked[0] = "t:99:100"  # not a member of the candidate set
            assignments = [{"candidate_id": c, "label": _label(rng)} for c in picked]
            obj["assignments"] = _with_confidences(rng, assignments)
        elif paradigm == "SL":
            tags = []
            for _ in range(n):
                r = rng.random()
                if r < 0.55:
                    tags.append("O")
                elif r < 0.8:
                    tags.append(f"B-{_label(rng)}")
                else:
                    tags.append(f"I-{_label(rng)}")
            obj["tags"] = tags
        elif paradigm == "SP":
            spans = []
            for _ in range(rng.randint(0, 3)):
                start = rng.randrange(n)
                end = rng.randint(start + 1, min(start + 3, n))
                spans.append({"span": [start, end], "label": _label(rng)})
            obj["spans"] = _with_confidences(rng, spans)
        else:
            items = []
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.8:
                    start = rng.randrange(n)
                    end = rng.randint(start + 1, min(start + 2, n))
                    mention = list(doc.tokens[start:end])
                else:
                    mention = ["zzz"]
                items.append({"mention": mention, "label": _label(rng)})
            obj["items"] = _with_confidences(rng, items)
        objs.append(obj)
    return predictions_from(objs, paradigm, corpus)


def random_argument_predictions(rng: random.Random, corpus: Corpus, paradigm: str, anchors):
    """One record per (doc, anchor) drawn from the given anchor table
    {doc_id: [(Span, event_type), ...]}."""
    objs = []
    for doc in corpus:
        n = len(doc.tokens)
        seen_anchors = set()
        for trigger, event_type in anchors.get(doc.id, ()):
            if (trigger, event_type) in seen_anchors:
                continue  # one record per distinct anchor
            seen_anchors.add((trigger, event_type))
            if rng.random() < 0.2:
                continue
            obj = {
                "doc_id": doc.id,
                "task": "argument",
                "anchor": {"trigger": [trigger.start, trigger.end], "event_type": event_type},
            }
            if paradigm == "CLS":
                ids = [m.id for m in doc.entities]
                rng.shuffle(ids)
                picked = ids[: rng.randint(0, min(2, len(ids)))]
                assignments = [{"candidate_id": c, "label": _role(rng)} for c in picked]
                obj["assignments"] = _with_confidences(rng, assignments)
            elif paradigm == "SL":
                tags = []
                for _ in range(n):
                    r = rng.random()
                    if r < 0.6:
                        tags.append("O")
                    elif r < 0.85:
                        tags.append(f"B-{_role(rng)}")
                    else:
                        tags.append(f"I-{_role(rng)}")
                obj["tags"] = tags
            elif paradigm == "SP":
                spans = []
                for _ in range(rng.randint(0, 2)):
                    start = rng.randrange(n)
                    end = rng.randint(start + 1, min(start + 3, n))
                    spans.append({"span": [start, end], "label": _role(rng)})
                obj["spans"] = _with_confidences(rng, spans)
            else:
                items = []
                for _ in range(rng.randint(0, 2)):
                    if rng.random() < 0.8:
                        start = rng.randrange(n)
                        end = rng.randint(start + 1, min(start + 2, n))
                        mention = list(doc.tokens[start:end])
                    else:
                        mention = ["zzz"]
                    items.append({"mention": mention, "label": _role(rng)})
                obj["items"] = _with_confidences(rng, items)
            objs.append(obj)
    return predictions_from(objs, paradigm, corpus)


def gold_anchor_table(corpus: Corpus) -> dict:
    return {
        d.id: [(e.trigger, e.event_type) for e in d.events] for d in corpus if d.events
    }


def gold_as_cls_predictions(corpus: Corpus, policy: CandidatePolicy):
    """Gold annotations re-expressed as classification records: the
    self-scoring input. Requires a policy whose trigger candidates cover
    every gold trigger span."""
    trigger_objs = []
    argument_objs = []
    for doc in corpus:
        candidates = dict(enumerate_candidates(doc, "trigger", policy))
        if doc.events:
            assignments = []
            for e in doc.events:
                cid = candidates.get(e.trigger)
                assert cid is not None, "policy does not cover a gold trigger span"
                assignments.append({"candidate_id": cid, "label": e.event_type})
            trigger_objs.append(
                {"doc_id": doc.id, "task": "trigger", "assignments": assignments}
            )
        for e in doc.events:
            if not e.arguments:
                continue
            argument_objs.append(
                {
                    "doc_id": doc.id,
                    "task": "argument",
                    "anchor": {
                        "trigger": [e.trigger.start, e.trigger.end],
                        "event_type": e.event_type,
                    },
                    "assignments": [
                        {"candidate_id": a.entity_id, "label": a.role} for a in e.arguments
                    ],
                }
            )
    ed = predictions_from(trigger_objs, "CLS", corpus)
    eae = predictions_from(argument_objs, "CLS", corpus)
    return ed, eae
