import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eescore.core import Corpus, Document, EntityMention, Span
from eescore.ingest import CgItem, ParadigmPredictions
from eescore.pipeline import evaluate
from eescore.protocol import CandidatePolicy, Protocol, StandardizeOptions
from eescore.standardize import (
    DISCARD_DUP_ARRIVAL,
    DISCARD_DUP_CONFIDENCE,
    DISCARD_OVERLAP,
    DISCARD_STRAY_I,
    DISCARD_UNKNOWN_CANDIDATE,
    DISCARD_UNPLACEABLE,
    ArgumentCandidates,
    TriggerCandidates,
    decode_bio,
    native_predictions,
    position_cg,
    serialize_standardized,
    standardize_predictions,
)

from corpora import predictions_from, resignation_corpus, resignation_document, simple_doc
from gen import gold_anchor_table, random_argument_predictions, random_corpus, random_trigger_predictions
from oracles import (
    enumerate_candidates,
    occurrences_by_window_scan,
    reference_bio_decode,
    reference_project,
    to_cls_records,
)

ANCHOR = {"trigger": [8, 9], "event_type": "End-Position"}


# ---------------------------------------------------------------------------
# candidates


def admitted_spans(candidates, n_tokens):
    """Every span over [0, n_tokens) that `candidates` knows, in span order."""
    return [
        Span(start, end)
        for start in range(n_tokens)
        for end in range(start + 1, n_tokens + 1)
        if candidates.id_of(Span(start, end)) is not None
    ]


def test_every_token_candidates():
    cands = TriggerCandidates(simple_doc("d", 9), CandidatePolicy())
    assert len(cands) == 9
    assert admitted_spans(cands, 9) == [Span(i, i + 1) for i in range(9)]
    assert cands.id_of(Span(0, 1)) == "t:0:1" and cands.span_of("t:0:1") == Span(0, 1)


def test_spans_up_to_k_enumeration():
    cands = TriggerCandidates(simple_doc("d", 3), CandidatePolicy("every_span_up_to_k", k=2))
    assert admitted_spans(cands, 3) == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    assert len(cands) == 5


def test_spans_up_to_k_respects_sentence_boundaries():
    doc = simple_doc("d", 4)
    doc = type(doc)(
        id=doc.id, tokens=doc.tokens, sentences=(Span(0, 2), Span(2, 4)),
        entities=doc.entities, events=doc.events,
    )
    cands = TriggerCandidates(doc, CandidatePolicy("every_span_up_to_k", k=2))
    spans = admitted_spans(cands, 4)
    assert (1, 3) not in spans
    assert spans == [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]
    assert len(cands) == 6


# near misses of candidate ids, several of which `int` reads as numbers
MALFORMED_TRIGGER_IDS = (
    "t:01:2", "t:+1:2", "t:1_0:11", "t:\u0663:4", "t:-0:1", "t: 1:2", "t:1:2 ", "t:1:2:",
    "t:1:2:3", "T:1:2", "t:1", "t::", "", "t:1:\u0662", "t:0x1:2", "t:1.0:2",
)


@st.composite
def unannotated_documents(draw):
    n = draw(st.integers(0, 14))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4))) if n > 1 else []
    bounds = [0, *cuts, n]
    return Document(
        id="d",
        tokens=("w",) * n,
        sentences=tuple(Span(a, b) for a, b in zip(bounds, bounds[1:]) if a < b),
        entities=(),
        events=(),
    )


policies = st.one_of(
    st.just(CandidatePolicy()),
    st.builds(CandidatePolicy, st.just("every_span_up_to_k"), st.integers(1, 4)),
)


@given(
    unannotated_documents(),
    policies,
    st.lists(st.text(alphabet="t:0123456789+-_ \u0663", max_size=8), max_size=10),
)
@settings(max_examples=300, deadline=None)
def test_derived_trigger_candidates_agree_with_enumeration(doc, policy, noise_ids):
    derived = TriggerCandidates(doc, policy)
    enumerated = enumerate_candidates(doc, "trigger", policy)
    assert_agrees_with_enumeration(derived, enumerated, len(doc.tokens), (*MALFORMED_TRIGGER_IDS, *noise_ids))
    assert len(derived) == len(enumerated)


def assert_agrees_with_enumeration(derived, enumerated, n_tokens, unknown_ids):
    """`derived` answers what the enumerated (span, id) list says: the first
    id of each span in sorted order and the span of each id."""
    first_id: dict = {}
    for span, cid in enumerated:
        first_id.setdefault(span, cid)
    for start in range(-2, n_tokens + 2):
        for end in range(start - 1, n_tokens + 3):
            assert derived.id_of(Span(start, end)) == first_id.get((start, end))
    span_of = {cid: span for span, cid in enumerated}
    for cid in (*span_of, *unknown_ids):
        assert derived.span_of(cid) == span_of.get(cid), cid


@st.composite
def documents_with_mentions(draw):
    """Mentions over a short document, several of them often on one span."""
    n = draw(st.integers(1, 6))
    spans = st.tuples(st.integers(0, n - 1), st.integers(1, n)).filter(lambda p: p[0] < p[1])
    mentions = draw(st.lists(spans, max_size=8))
    ids = draw(st.lists(st.text(alphabet="e12", min_size=1, max_size=3), min_size=len(mentions),
                        max_size=len(mentions), unique=True))
    return Document(
        id="d",
        tokens=("w",) * n,
        sentences=(Span(0, n),),
        entities=tuple(EntityMention(i, Span(*p), Span(*p), "entity") for i, p in zip(ids, mentions)),
        events=(),
    )


@given(documents_with_mentions(), st.lists(st.text(alphabet="e12", max_size=4), max_size=6))
@settings(max_examples=300, deadline=None)
@example(
    Document(
        "d", ("w", "w"), (Span(0, 2),),
        tuple(EntityMention(i, Span(0, 1), Span(0, 1), "entity") for i in ("e2", "e10", "e1")), (),
    ),
    ["e3"],
)
def test_argument_candidates_agree_with_enumeration(doc, noise_ids):
    derived = ArgumentCandidates(doc)
    enumerated = enumerate_candidates(doc, "argument")
    assert_agrees_with_enumeration(derived, enumerated, len(doc.tokens), noise_ids)
    assert len(enumerated) == len(doc.entities)  # the count `stats` reports
    for span in {m.span for m in doc.entities}:  # a shared span goes to the smallest of its ids
        assert derived.id_of(span) == min(m.id for m in doc.entities if m.span == span)


def test_malformed_trigger_ids_are_unknown_candidates():
    corpus = resignation_corpus()
    objs = [
        {
            "doc_id": "doc-resignation",
            "task": "trigger",
            "assignments": [
                {"candidate_id": cid, "label": "A"} for cid in (*MALFORMED_TRIGGER_IDS, "t:10:11")
            ],
        }
    ]
    for policy in (CandidatePolicy(), CandidatePolicy("every_span_up_to_k", k=2)):
        record = standardize_predictions(predictions_from(objs, "CLS", corpus), corpus, policy)[0]
        assert [a.candidate_id for a in record.assignments] == ["t:10:11"]
        assert [d.reason for d in record.discarded] == [DISCARD_UNKNOWN_CANDIDATE] * len(MALFORMED_TRIGGER_IDS)


@pytest.mark.parametrize("paradigm", ["CLS", "SL", "SP", "CG"])
def test_shared_candidates_equal_per_record_projection(paradigm):
    rng = random.Random(41)
    for policy in (CandidatePolicy(), CandidatePolicy("every_span_up_to_k", k=2)):
        for _ in range(40):
            corpus = random_corpus(rng, max_tokens=10)
            for preds in (
                random_trigger_predictions(rng, corpus, paradigm),
                random_argument_predictions(rng, corpus, paradigm, gold_anchor_table(corpus)),
            ):
                one_record_runs = tuple(
                    standardize_predictions(ParadigmPredictions(preds.paradigm, (r,)), corpus, policy)[0]
                    for r in preds.records
                )
                assert standardize_predictions(preds, corpus, policy) == one_record_runs


def test_argument_candidates_are_mentions():
    doc = resignation_document()
    cands = ArgumentCandidates(doc)
    assert len(doc.entities) == 4
    for m in doc.entities:
        assert cands.id_of(m.span) == m.id and cands.span_of(m.id) == m.span
    assert [cands.id_of(span) for span in sorted(m.span for m in doc.entities)] == ["e1", "e2", "e3", "e4"]


# ---------------------------------------------------------------------------
# BIO decoding


def test_decode_basic_run():
    assert decode_bio(["B-Person", "I-Person", "O"]) == [(Span(0, 2), "Person")]


def test_decode_stray_i_opens_span():
    assert decode_bio(["O", "I-Place", "O"]) == [(Span(1, 2), "Place")]


def test_decode_adjacent_b_tags():
    assert decode_bio(["B-A", "B-A"]) == [(Span(0, 1), "A"), (Span(1, 2), "A")]


def test_decode_label_change_closes_run():
    assert decode_bio(["B-A", "I-B"]) == [(Span(0, 1), "A"), (Span(1, 2), "B")]


def test_decode_stray_i_discard_mode():
    assert decode_bio(["O", "I-Place", "O"], stray_i="discard") == []
    assert decode_bio(["B-A", "I-B", "I-B"], stray_i="discard") == [(Span(0, 1), "A")]


def stray_tokens(tags):
    """The I tags that no same-label B starts a run for, found by walking back."""
    out = []
    for t, tag in enumerate(tags):
        if tag.startswith("I-"):
            s = t
            while s > 0 and tags[s - 1] == tag:
                s -= 1
            if s == 0 or tags[s - 1] != "B-" + tag[2:]:
                out.append(t)
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["O", "B-X", "I-X", "B-Y", "I-Y"]), max_size=12))
@example(["B-A", "I-B", "I-B", "O", "I-C", "B-C", "I-C"])
def test_every_dropped_stray_i_tag_is_one_ledger_row(tags):
    corpus = Corpus(documents=(simple_doc("d", len(tags)),))
    predictions = predictions_from([{"doc_id": "d", "task": "trigger", "tags": tags}], "SL", corpus)
    for mode, want in (("open_span", []), ("discard", stray_tokens(tags))):
        (record,) = standardize_predictions(predictions, corpus, options=StandardizeOptions(mode))
        rows = [d.original for d in record.discarded if d.reason == DISCARD_STRAY_I]
        assert rows == [{"tag": tags[t], "token": t} for t in want]
        # conservation: every decoded span and every dropped tag is one assignment or one discard
        assert len(record.assignments) + len(record.discarded) == len(decode_bio(tags, mode)) + len(want)


def test_decode_matches_reference_on_random_tags():
    rng = random.Random(5)
    labels = ["X", "Y", "Z"]
    for _ in range(500):
        n = rng.randint(0, 12)
        tags = []
        for _ in range(n):
            r = rng.random()
            if r < 0.4:
                tags.append("O")
            elif r < 0.7:
                tags.append(f"B-{rng.choice(labels)}")
            else:
                tags.append(f"I-{rng.choice(labels)}")
        assert decode_bio(tags) == reference_bio_decode(tags)


@st.composite
def mostly_o_tags(draw) -> list[str]:
    """Up to 500 tags, at least 90% of them O: short runs of B and I tags,
    each after an O run at least nine times its length, the last run
    sometimes ending the sequence."""
    tags = []
    for run in draw(st.lists(st.lists(st.sampled_from(["B-X", "I-X", "B-Y", "I-Y"]), min_size=1, max_size=5),
                             max_size=10)):
        tags += ["O"] * draw(st.integers(9 * len(run), 45)) + run
    return tags + ["O"] * draw(st.sampled_from([0, 1, 500 - len(tags)]))


@settings(max_examples=300, deadline=None)
@given(mostly_o_tags(), st.sampled_from(["open_span", "discard"]))
def test_decode_matches_reference_on_long_mostly_o_sequences(tags, stray_i):
    assert len(tags) <= 500 and tags.count("O") >= 0.9 * len(tags)
    assert decode_bio(tags, stray_i) == reference_bio_decode(tags, stray_i)


# ---------------------------------------------------------------------------
# duplicate resolution


def resolve_on_one_span(entries):
    """Standardizes one SP record whose (label, confidence) entries all
    predict the span of mention e1; returns the winning label and the
    discards as (reason, label), in ledger order."""
    corpus = resignation_corpus()
    spans = [{"span": [0, 2], "label": label, **({} if c is None else {"confidence": c})} for label, c in entries]
    objs = [{"doc_id": "doc-resignation", "task": "argument", "anchor": ANCHOR, "spans": spans}]
    (record,) = standardize_predictions(predictions_from(objs, "SP", corpus), corpus)
    (winner,) = record.assignments
    assert winner.candidate_id == "e1"
    assert winner.provenance == ("resolved_duplicate" if len(entries) > 1 else "projected")
    return winner.label, [(d.reason, d.original["label"]) for d in record.discarded]


def test_duplicates_tie_goes_to_first_appearing():
    assert resolve_on_one_span([("A", 0.7), ("B", 0.7)]) == ("A", [(DISCARD_DUP_ARRIVAL, "B")])


def test_duplicates_no_confidence_first_appearing():
    assert resolve_on_one_span([("B", None), ("A", None)]) == ("B", [(DISCARD_DUP_ARRIVAL, "A")])


def test_duplicates_singleton():
    assert resolve_on_one_span([("A", 0.2)]) == ("A", [])


def test_duplicates_exhaustive_orderings():
    # every ordering of 2 and 3 duplicates: with distinct confidences the
    # winner does not depend on the order; a tie, or no confidences at all,
    # goes to the first appearing; the losers stay in arrival order
    for entries in ([("A", 0.9), ("B", 0.5), ("C", 0.7)], [("A", 0.9), ("B", 0.9), ("C", 0.5)],
                    [("A", None), ("B", None), ("C", None)]):
        for k in (2, 3):
            for perm in itertools.permutations(entries[:k]):
                top = max(c or 0 for _, c in perm)
                winner = next(label for label, c in perm if (c or 0) == top)
                losers = [
                    (DISCARD_DUP_CONFIDENCE if (c or 0) < top else DISCARD_DUP_ARRIVAL, label)
                    for label, c in perm
                    if label != winner
                ]
                assert resolve_on_one_span(perm) == (winner, losers), perm


# ---------------------------------------------------------------------------
# generated-item positioning


def test_position_two_identical_mentions_in_order():
    doc = resignation_document()
    items = [CgItem(("Twitter",), "Company"), CgItem(("Twitter",), "Company")]
    placed, unplaceable = position_cg(items, doc)
    assert [(p[0].start, p[0].end) for p in placed] == [(14, 15), (18, 19)]
    assert not unplaceable


def test_position_unseen_mention_unplaceable():
    doc = resignation_document()
    placed, unplaceable = position_cg([CgItem(("Mars",), "Place")], doc)
    assert not placed
    assert unplaceable[0].mention == ("Mars",)


def test_position_unique_multiword_mention():
    doc = resignation_document()
    placed, _ = position_cg([CgItem(("Elon", "Musk"), "Person")], doc)
    assert placed[0][0] == Span(0, 2)


def test_position_exhausts_occurrences():
    doc = resignation_document()
    items = [CgItem(("Twitter",), "X")] * 3
    placed, unplaceable = position_cg(items, doc)
    assert len(placed) == 2 and len(unplaceable) == 1
    assert len({(p[0].start, p[0].end) for p in placed}) == 2  # never the same occurrence twice


@given(
    st.lists(st.sampled_from("abc"), max_size=8),
    st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=10), max_size=8),
)
@example(["a", "b"], [["b"], ["a", "b"], ["b"], ["a", "b", "c"]])  # at the end; longer than the doc
@settings(max_examples=300, deadline=None)
def test_position_cg_matches_window_scan(tokens, mentions):
    doc = Document("d", tuple(tokens), (Span(0, len(tokens)),) if tokens else (), (), ())
    items = [CgItem(tuple(m), "X") for m in mentions]
    used: Counter = Counter()
    expected_placed, expected_unplaceable = [], []
    for item in items:
        occurrences = occurrences_by_window_scan(doc.tokens, item.mention)
        if used[item.mention] < len(occurrences):
            expected_placed.append((occurrences[used[item.mention]], item))
            used[item.mention] += 1
        else:
            expected_unplaceable.append(item)
    assert position_cg(items, doc) == (expected_placed, expected_unplaceable)


def test_position_is_case_sensitive():
    doc = resignation_document()
    placed, unplaceable = position_cg([CgItem(("twitter",), "X")], doc)
    assert not placed and len(unplaceable) == 1


# ---------------------------------------------------------------------------
# projection


def test_sl_overlapping_span_discarded():
    corpus = resignation_corpus()
    tags = ["O"] * 21
    tags[9], tags[10], tags[11], tags[12] = "B-Position", "I-Position", "I-Position", "I-Position"
    preds = predictions_from(
        [{"doc_id": "doc-resignation", "task": "argument", "anchor": ANCHOR, "tags": tags}],
        "SL",
        corpus,
    )
    std = standardize_predictions(preds, corpus)
    record = std[0]
    assert record.assignments == ()
    assert record.discarded[0].reason == DISCARD_OVERLAP
    assert record.discarded[0].original == {"span": [9, 13], "label": "Position"}


def test_cls_passthrough_is_identity():
    corpus = resignation_corpus()
    objs = [
        {
            "doc_id": "doc-resignation",
            "task": "argument",
            "anchor": ANCHOR,
            "assignments": [
                {"candidate_id": "e1", "label": "Person"},
                {"candidate_id": "e2", "label": "NA"},
            ],
        }
    ]
    preds = predictions_from(objs, "CLS", corpus)
    std = standardize_predictions(preds, corpus)
    record = std[0]
    assert [(a.candidate_id, a.label, a.provenance) for a in record.assignments] == [
        ("e1", "Person", "native"),
        ("e2", "NA", "native"),
    ]
    assert record.discarded == ()


def test_sp_duplicate_resolved_by_confidence():
    corpus = resignation_corpus()
    objs = [
        {
            "doc_id": "doc-resignation",
            "task": "argument",
            "anchor": ANCHOR,
            "spans": [
                {"span": [0, 2], "label": "Person", "confidence": 0.9},
                {"span": [0, 2], "label": "Company", "confidence": 0.4},
            ],
        }
    ]
    std = standardize_predictions(predictions_from(objs, "SP", corpus), corpus)
    record = std[0]
    assert len(record.assignments) == 1
    winner = record.assignments[0]
    assert (winner.candidate_id, winner.label) == ("e1", "Person")
    assert winner.provenance == "resolved_duplicate"
    assert record.discarded[0].reason == DISCARD_DUP_CONFIDENCE
    assert record.discarded[0].original["label"] == "Company"


def test_cg_positioned_then_strict_matched():
    corpus = resignation_corpus()
    objs = [
        {
            "doc_id": "doc-resignation",
            "task": "argument",
            "anchor": ANCHOR,
            "items": [
                {"mention": ["Twitter"], "label": "Company"},
                {"mention": ["Twitter"], "label": "Company"},
                {"mention": ["Chief", "Executive", "of"], "label": "Position"},
                {"mention": ["Mars"], "label": "Place"},
            ],
        }
    ]
    std = standardize_predictions(predictions_from(objs, "CG", corpus), corpus)
    record = std[0]
    assert [(a.candidate_id, a.label, a.provenance) for a in record.assignments] == [
        ("e3", "Company", "positioned"),
        ("e4", "Company", "positioned"),
    ]
    reasons = sorted(d.reason for d in record.discarded)
    assert reasons == [DISCARD_OVERLAP, DISCARD_UNPLACEABLE]


def test_unknown_candidate_discarded():
    corpus = resignation_corpus()
    objs = [
        {
            "doc_id": "doc-resignation",
            "task": "argument",
            "anchor": ANCHOR,
            "assignments": [{"candidate_id": "e99", "label": "Person"}],
        }
    ]
    std = standardize_predictions(predictions_from(objs, "CLS", corpus), corpus)
    record = std[0]
    assert record.assignments == ()
    assert record.discarded[0].reason == DISCARD_UNKNOWN_CANDIDATE


def test_cls_fixed_point():
    corpus = resignation_corpus()
    rng = random.Random(17)
    objs = [
        {
            "doc_id": "doc-resignation",
            "task": "trigger",
            "assignments": [
                {"candidate_id": f"t:{i}:{i + 1}", "label": rng.choice(["A", "B", "NA"])}
                for i in rng.sample(range(21), 6)
            ],
        }
    ]
    once = standardize_predictions(predictions_from(objs, "CLS", corpus), corpus)
    twice = standardize_predictions(to_cls_records(once), corpus)
    assert [r.assignments for r in twice] == [r.assignments for r in once]
    assert all(not r.discarded for r in twice)


def test_conservation_and_closure_on_fixture():
    corpus = resignation_corpus()
    objs = [
        {
            "doc_id": "doc-resignation",
            "task": "argument",
            "anchor": ANCHOR,
            "spans": [
                {"span": [0, 2], "label": "Person", "confidence": 0.9},
                {"span": [0, 2], "label": "Company", "confidence": 0.4},
                {"span": [9, 13], "label": "Position", "confidence": 0.8},
                {"span": [18, 19], "label": "Place", "confidence": 0.7},
            ],
        }
    ]
    std = standardize_predictions(predictions_from(objs, "SP", corpus), corpus)
    record = std[0]
    assert len(record.assignments) + len(record.discarded) == 4
    candidates = enumerate_candidates(corpus.documents[0], "argument")
    assert all((a.span, a.candidate_id) in candidates for a in record.assignments)


def test_order_stability_with_distinct_confidences():
    corpus = resignation_corpus()

    def run(spans):
        objs = [{"doc_id": "doc-resignation", "task": "argument", "anchor": ANCHOR, "spans": spans}]
        std = standardize_predictions(predictions_from(objs, "SP", corpus), corpus)
        return [(a.candidate_id, a.label) for a in std[0].assignments]

    spans = [
        {"span": [0, 2], "label": "Person", "confidence": 0.9},
        {"span": [0, 2], "label": "Company", "confidence": 0.4},
        {"span": [10, 12], "label": "Position", "confidence": 0.8},
    ]
    baseline = run(spans)
    for perm in itertools.permutations(spans):
        assert run(list(perm)) == baseline


@given(st.integers(0, 2**32 - 1), st.sampled_from(["CLS", "SL", "SP", "CG"]), policies,
       st.sampled_from(["open_span", "discard"]))
@settings(max_examples=150, deadline=None)
def test_projection_equals_reference(seed, paradigm, policy, stray_i):
    rng = random.Random(seed)
    corpus = random_corpus(rng, max_tokens=10)
    for preds in (
        random_trigger_predictions(rng, corpus, paradigm),
        random_argument_predictions(rng, corpus, paradigm, gold_anchor_table(corpus)),
    ):
        got = standardize_predictions(preds, corpus, policy, StandardizeOptions(stray_i))
        want = reference_project(preds, corpus, policy, stray_i)
        assert got == want
        # an original is rendered only for a discard: a plain object, the bytes the reference renders up front
        assert all(type(d.original) is dict for record in got for d in record.discarded)
        assert serialize_standardized(got) == serialize_standardized(want)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["CLS", "SL", "SP"]), policies,
       st.sampled_from(["open_span", "discard"]))
@settings(max_examples=150, deadline=None)
def test_the_two_output_spaces_differ_only_by_matching(seed, paradigm, policy, stray_i):
    """Per record, native output holds the (span, label) of every
    standardized assignment and of every prediction that matching
    discarded: a span that is no candidate and a losing duplicate. For
    classification, which matching leaves alone, the two reports agree."""
    rng = random.Random(seed)
    corpus = random_corpus(rng, max_tokens=10)
    ed = random_trigger_predictions(rng, corpus, paradigm)
    eae = random_argument_predictions(rng, corpus, paradigm, gold_anchor_table(corpus))
    options = StandardizeOptions(stray_i)
    for preds in (ed, eae):
        native = native_predictions(preds, corpus, policy, options)
        standardized = standardize_predictions(preds, corpus, policy, options)
        for n, s in zip(native, standardized, strict=True):
            doc = corpus.get(s.doc_id)
            candidates = TriggerCandidates(doc, policy) if s.task == "trigger" else ArgumentCandidates(doc)
            matched_away = [
                (Span(*d.original["span"]) if "span" in d.original else candidates.span_of(d.original["candidate_id"]),
                 d.original["label"])
                for d in s.discarded if d.reason in (DISCARD_OVERLAP, DISCARD_DUP_CONFIDENCE, DISCARD_DUP_ARRIVAL)
            ]
            assert (n.doc_id, n.anchor, n.discarded) == (s.doc_id, s.anchor, ())
            assert Counter((a.span, a.label) for a in n.assignments) == Counter(
                [(a.span, a.label) for a in s.assignments] + matched_away
            )
    if paradigm == "CLS":
        reports = [
            evaluate(corpus, Protocol(trigger_policy=policy.trigger_policy, k=policy.k, stray_i=stray_i,
                                      standardize=flag), ed_pred=ed, eae_pred=eae)[:2]
            for flag in (True, False)
        ]
        assert reports[0] == reports[1]


def test_jobs_do_not_change_output():
    corpus = resignation_corpus()
    objs = []
    tags = ["O"] * 21
    tags[8] = "B-End-Position"
    objs.append({"doc_id": "doc-resignation", "task": "trigger", "tags": tags})
    preds = predictions_from(objs, "SL", corpus)
    assert standardize_predictions(preds, corpus, jobs=4) == standardize_predictions(preds, corpus)
