"""The record contract: every data-only type is an immutable named tuple
that rebuilds, copies and sorts like a plain tuple, and hashes unless it
holds a dict."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eescore.core import (
    Anchor,
    Argument,
    EntityMention,
    EventAnnotation,
    PredictedTrigger,
    Span,
)
from eescore.ingest import CgItem, ClsAssignment, ParadigmPredictions, PredictionRecord, SpanPrediction
from eescore.jsonio import format_report
from eescore.metrics import ArgumentItem, ConfusionCounts, EvalReport, TriggerItem
from eescore.pipeline import EvaluationResult, TriggerStoreEntry
from eescore.standardize import Assignment, CandidatePolicy, Discard, StandardizedRecord, StandardizeOptions
from eescore.variants import DatasetStats, VariantReport

TRIGGER = Span(3, 4)
ASSIGNMENT = Assignment("t:3:4", TRIGGER, "Attack", "projected", 0.5)
PREDICTION = PredictionRecord("d1", "trigger", None, tags=("O", "B-Attack"), line=3)
STANDARDIZED = StandardizedRecord("d1", "trigger", None, (ASSIGNMENT,), (), 3)
COUNTS = ConfusionCounts(1, 2, 3)
REPORT = EvalReport("ED", "gold_trigger", "modern", COUNTS, {"Attack": COUNTS}, ConfusionCounts(2, 1, 2))

RECORDS = [
    Span(2, 5),
    EntityMention("e1", Span(0, 2), Span(1, 2), "entity"),
    Argument("e1", "Attacker"),
    EventAnnotation("ev1", "Attack", TRIGGER, (Argument("e1", "Attacker"),)),
    Anchor(TRIGGER, "Attack"),
    PredictedTrigger(TRIGGER, "Attack", 0.5),
    ClsAssignment("t:3:4", "Attack", 0.5),
    SpanPrediction(TRIGGER, "Attack"),
    CgItem(("fired",), "Attack"),
    PREDICTION,
    TriggerItem("d1", TRIGGER, "Attack"),
    ArgumentItem("d1", TRIGGER, "Attack", Span(0, 2), "Attacker"),
    ASSIGNMENT,
    Discard("overlap_mismatch", {"span": [3, 5], "label": "Attack"}),
    STANDARDIZED,
    CandidatePolicy(),
    StandardizeOptions(),
    ParadigmPredictions("SL", (PREDICTION,)),
    COUNTS,
    REPORT,
    EvaluationResult(REPORT, None, (STANDARDIZED,), None, None),
    TriggerStoreEntry("corpus.jsonl", "f" * 64, "p1", "ffffffffffffffff__p1.jsonl", 0.5),
    VariantReport(removed_arguments=2, reduced_triggers=1),
    DatasetStats(21, 2, 6, 2, 5, 21, 4),
]
# these hold a dict (a JSON object, or labels to counts), so they have no hash
UNHASHABLE = (Discard, EvalReport, EvaluationResult)

records = pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)


@records
def test_record_rejects_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@records
def test_rebuilt_record_is_equal_and_hash_equal(record):
    rebuilt = type(record)(*record)
    assert rebuilt == record and rebuilt is not record
    if isinstance(record, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(rebuilt) == hash(record)


@records
def test_replace_returns_a_new_record(record):
    field = record._fields[0]
    before = getattr(record, field)
    marker = object()
    changed = record._replace(**{field: marker})
    assert type(changed) is type(record)
    assert getattr(changed, field) is marker
    assert getattr(record, field) is before
    assert changed[1:] == record[1:]


def test_span_is_a_pair_of_ints():
    span = Span(2, 5)
    assert span == (2, 5) and hash(span) == hash((2, 5))
    assert len(span) == 2 and span.length == 3


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=12))
def test_sorted_spans_order_by_start_then_end(pairs):
    spans = [Span(a, b) for a, b in pairs]
    assert sorted(spans) == sorted(spans, key=lambda s: (s.start, s.end))


def test_format_report_refuses_records():
    with pytest.raises(TypeError, match="cannot serialize Span"):
        format_report({"x": Span(0, 1)})
    assert format_report({"x": (0, 1)}) == format_report({"x": [0, 1]})
