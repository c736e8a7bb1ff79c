import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eescore.core import (
    Argument,
    Corpus,
    EntityMention,
    EventAnnotation,
    PredictedTrigger,
    Span,
    TriggerContext,
)
from eescore.errors import ValidationError
from eescore.metrics import (
    ArgumentItem,
    ConfusionCounts,
    TriggerItem,
    _match,
    argument_items_from,
    prf,
    score_argument_items,
    score_trigger_items,
    trigger_items_from,
)
from eescore.protocol import CandidatePolicy
from eescore.standardize import standardize_predictions

from corpora import resignation_corpus, simple_doc
from gen import (
    gold_anchor_table,
    gold_as_cls_predictions,
    random_argument_predictions,
    random_corpus,
    random_trigger_predictions,
)
from oracles import brute_force_by_doc, identification_by_intersection, per_label_by_rescan


def test_prf_direct_arithmetic():
    p, r, f1 = prf(ConfusionCounts(tp=2, fp=1, fn=2))
    assert (round(p, 4), round(r, 4), round(f1, 4)) == (0.6667, 0.5, 0.5714)


def test_prf_empty_convention():
    assert prf(ConfusionCounts(0, 0, 0)) == (0.0, 0.0, 0.0)


def test_prf_perfect():
    assert prf(ConfusionCounts(5, 0, 0)) == (1.0, 1.0, 1.0)


def two_trigger_doc(doc_id, golds):
    events = tuple(
        EventAnnotation(f"ev{i}", label, Span(s, e), ()) for i, (s, e, label) in enumerate(golds)
    )
    return simple_doc(doc_id, 8, events=events)


def test_ed_perfect_single_trigger():
    corpus = Corpus(documents=(two_trigger_doc("d", [(5, 6, "End-Position")]),))
    report = score_trigger_items(corpus, [TriggerItem("d", Span(5, 6), "End-Position")])
    assert (report.counts.tp, report.counts.fp, report.counts.fn) == (1, 0, 0)
    assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)


def test_ed_wrong_type_is_fp_and_fn_but_identified():
    corpus = Corpus(documents=(two_trigger_doc("d", [(5, 6, "End-Position")]),))
    report = score_trigger_items(corpus, [TriggerItem("d", Span(5, 6), "Attack")])
    assert (report.counts.tp, report.counts.fp, report.counts.fn) == (0, 1, 1)
    assert report.f1 == 0.0
    assert report.identification.tp == 1


def test_ed_three_doc_fixture_frozen_values():
    # 4 gold triggers, 5 predictions, 2 correct
    corpus = Corpus(
        documents=(
            two_trigger_doc("d1", [(0, 1, "A"), (2, 3, "B")]),
            two_trigger_doc("d2", [(1, 2, "C")]),
            two_trigger_doc("d3", [(0, 1, "A")]),
        )
    )
    items = [
        TriggerItem("d1", Span(0, 1), "A"),
        TriggerItem("d1", Span(2, 3), "A"),
        TriggerItem("d1", Span(4, 5), "B"),
        TriggerItem("d2", Span(1, 2), "C"),
        TriggerItem("d3", Span(3, 4), "A"),
    ]
    report = score_trigger_items(corpus, items)
    pred_keys = [(i.doc_id, i.span.start, i.span.end, i.label) for i in items]
    gold_keys = [
        (d.id, e.trigger.start, e.trigger.end, e.event_type) for d in corpus for e in d.events
    ]
    assert brute_force_by_doc(pred_keys, gold_keys) == (2, 3, 2)
    assert (report.counts.tp, report.counts.fp, report.counts.fn) == (2, 3, 2)
    assert round(report.precision, 6) == 0.4
    assert round(report.recall, 6) == 0.5
    assert round(report.f1, 6) == round(4 / 9, 6)


def test_ed_unknown_doc_rejected():
    corpus = Corpus(documents=(two_trigger_doc("d", [(0, 1, "A")]),))
    with pytest.raises(ValidationError, match="unknown document"):
        score_trigger_items(corpus, [TriggerItem("ghost", Span(0, 1), "A")])


def eae_fixture():
    """Two events of distinct types, two arguments each."""
    doc = simple_doc(
        "d",
        8,
        entities=[
            EntityMention("e1", Span(0, 1), Span(0, 1), "entity"),
            EntityMention("e2", Span(1, 2), Span(1, 2), "entity"),
            EntityMention("e3", Span(4, 5), Span(4, 5), "entity"),
            EntityMention("e4", Span(5, 6), Span(5, 6), "entity"),
        ],
        events=[
            EventAnnotation("ev1", "A", Span(2, 3), (Argument("e1", "r1"), Argument("e2", "r2"))),
            EventAnnotation("ev2", "B", Span(6, 7), (Argument("e3", "r1"), Argument("e4", "r3"))),
        ],
    )
    return Corpus(documents=(doc,))


def perfect_items_for(corpus, event_filter=lambda ev: True):
    items = []
    for doc in corpus:
        for ev in doc.events:
            if not event_filter(ev):
                continue
            for arg in ev.arguments:
                span = doc.entities_by_id[arg.entity_id].span
                items.append(ArgumentItem(doc.id, ev.trigger, ev.event_type, span, arg.role))
    return items


def test_eae_perfect_four_arguments():
    corpus = resignation_corpus()
    context = TriggerContext.from_gold(corpus)
    items = perfect_items_for(corpus)
    report = score_argument_items(corpus, items, context)
    assert report.f1 == 1.0
    assert report.counts.tp == 4


def test_eae_modern_vs_legacy_with_missed_event():
    corpus = eae_fixture()
    # ED found only event A; EAE answered perfectly for it
    context = TriggerContext(
        source="ed", triggers={"d": (PredictedTrigger(Span(2, 3), "A"),)}
    )
    items = perfect_items_for(corpus, lambda ev: ev.event_type == "A")
    modern = score_argument_items(corpus, items, context, convention="modern", mode="pipeline")
    legacy = score_argument_items(corpus, items, context, convention="legacy", mode="pipeline")
    assert (modern.counts.tp, modern.counts.fn) == (2, 2)
    assert modern.recall == 0.5
    assert (legacy.counts.tp, legacy.counts.fn) == (2, 0)
    assert legacy.recall == 1.0


def test_eae_wrong_role_costs_fp_and_fn():
    corpus = eae_fixture()
    context = TriggerContext.from_gold(corpus)
    items = perfect_items_for(corpus)
    wrong = [
        ArgumentItem(it.doc_id, it.trigger, it.event_type, it.span, "r9")
        if it.role == "r2" else it
        for it in items
    ]
    report = score_argument_items(corpus, wrong, context)
    assert (report.counts.tp, report.counts.fp, report.counts.fn) == (3, 1, 1)
    # identification ignores the role, so the span still counts
    assert report.identification.tp == 4


def test_eae_match_by_trigger_span_mode():
    corpus = eae_fixture()
    context = TriggerContext.from_gold(corpus)
    # answer event A's arguments but anchored at the wrong trigger span (B's)
    items = [
        ArgumentItem("d", Span(6, 7), "A", Span(0, 1), "r1"),
    ]
    # by_event_type: matches any type-A gold argument
    by_type = score_argument_items(corpus, items, context, eae_match="by_event_type")
    assert by_type.counts.tp == 1
    # by_trigger_span: anchored trigger must equal the gold event's trigger
    by_trigger = score_argument_items(corpus, items, context, eae_match="by_trigger_span")
    assert by_trigger.counts.tp == 0


def test_micro_consistency_per_label_sums_to_aggregate():
    rng = random.Random(41)
    for _ in range(25):
        corpus = random_corpus(rng)
        preds = random_trigger_predictions(rng, corpus, "SP")
        std = standardize_predictions(preds, corpus)
        report = score_trigger_items(corpus, trigger_items_from(std))
        rows = report.per_label.values()
        assert ConfusionCounts(*(sum(getattr(c, f) for c in rows) for f in ("tp", "fp", "fn"))) == report.counts


def test_self_scoring_is_perfect():
    rng = random.Random(43)
    policy = CandidatePolicy("every_span_up_to_k", k=2)
    for _ in range(25):
        corpus = random_corpus(rng, cls_expressible=True, require_event_with_argument=True)
        ed_pred, eae_pred = gold_as_cls_predictions(corpus, policy)
        ed_std = standardize_predictions(ed_pred, corpus, policy)
        eae_std = standardize_predictions(eae_pred, corpus, policy)
        assert score_trigger_items(corpus, trigger_items_from(ed_std)).f1 == 1.0
        context = TriggerContext.from_gold(corpus)
        for convention in ("modern", "legacy"):
            report = score_argument_items(corpus, argument_items_from(eae_std), context, convention=convention)
            assert report.f1 == 1.0


def test_legacy_recall_dominates_modern():
    rng = random.Random(47)
    for _ in range(25):
        corpus = random_corpus(rng, require_event_with_argument=True)
        anchors = gold_anchor_table(corpus)
        # random predicted context: a subset of gold triggers
        context_triggers = {}
        for doc in corpus:
            kept = [e for e in doc.events if rng.random() < 0.6]
            if kept:
                context_triggers[doc.id] = tuple(
                    PredictedTrigger(e.trigger, e.event_type) for e in kept
                )
        context = TriggerContext(source="ed", triggers=context_triggers)
        kept_anchors = {
            doc_id: [(t.span, t.event_type) for t in triggers]
            for doc_id, triggers in context_triggers.items()
        }
        preds = random_argument_predictions(rng, corpus, "SP", kept_anchors)
        std = standardize_predictions(preds, corpus)
        items = argument_items_from(std)
        modern = score_argument_items(corpus, items, context, convention="modern", mode="pipeline")
        legacy = score_argument_items(corpus, items, context, convention="legacy", mode="pipeline")
        assert legacy.recall >= modern.recall


def test_count_conservation():
    rng = random.Random(53)
    for _ in range(25):
        corpus = random_corpus(rng)
        preds = random_trigger_predictions(rng, corpus, "SL")
        std = standardize_predictions(preds, corpus)
        items = trigger_items_from(std)
        report = score_trigger_items(corpus, items)
        n_gold = sum(len(d.events) for d in corpus)
        assert report.counts.tp + report.counts.fn == n_gold
        assert report.counts.tp + report.counts.fp == len(items)


def test_report_serialization_shape():
    corpus = resignation_corpus()
    context = TriggerContext.from_gold(corpus)
    report = score_argument_items(corpus, perfect_items_for(corpus), context)
    d = report.as_dict()
    assert set(d) == {
        "task", "mode", "convention", "counts", "precision", "recall", "f1",
        "per_label", "identification",
    }
    assert d["counts"] == {"tp": 4, "fp": 0, "fn": 0}
    assert set(d["per_label"]) == {"Person", "Position", "Entity", "Place"}


keys = st.lists(st.tuples(st.sampled_from("de"), st.integers(0, 3), st.sampled_from(["A", "B", "NA"])), max_size=30)


@given(keys, keys)
@settings(max_examples=300, deadline=None)
def test_match_equals_per_label_rescan(pred_keys, gold_keys):
    total, per_label, identification = _match(Counter(pred_keys), Counter(gold_keys))
    expected_total, expected_per_label = per_label_by_rescan(pred_keys, gold_keys, lambda k: k[-1])
    assert (total.tp, total.fp, total.fn) == expected_total
    assert {label: (c.tp, c.fp, c.fn) for label, c in per_label.items()} == expected_per_label
    assert list(per_label) == sorted(per_label)
    expected_identification = identification_by_intersection(pred_keys, gold_keys)
    assert (identification.tp, identification.fp, identification.fn) == expected_identification
