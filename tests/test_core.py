from hypothesis import given, settings
from hypothesis import strategies as st

from eescore.core import (
    Argument,
    Document,
    EntityMention,
    EventAnnotation,
    Span,
    span_contains,
    validate_document,
)

from corpora import resignation_document, simple_doc

spans = st.builds(
    lambda s, length: Span(s, s + length),
    st.integers(0, 10),
    st.integers(1, 5),
)


def test_span_contains_basic():
    assert span_contains(Span(2, 6), Span(3, 5))
    assert span_contains(Span(2, 6), Span(2, 6))
    assert not span_contains(Span(2, 6), Span(1, 5))


@given(spans, spans)
@settings(max_examples=200)
def test_equal_implies_contains_and_overlaps(a, b):
    if a == b:
        assert span_contains(a, b) and span_contains(b, a)


@given(spans, spans)
@settings(max_examples=200)
def test_overlap_symmetric_contains_reflexive(a, b):
    assert span_contains(a, a)


@given(spans, spans, spans)
@settings(max_examples=200)
def test_contains_transitive(a, b, c):
    if span_contains(a, b) and span_contains(b, c):
        assert span_contains(a, c)


def test_validate_empty_trigger_span():
    doc = simple_doc(
        "d1",
        7,
        events=[EventAnnotation("ev", "A", Span(5, 5), ())],
    )
    violations = validate_document(doc)
    assert "Span: start < end violated at events[0].trigger" in violations


def test_validate_well_formed_two_sentences():
    doc = Document(
        id="d1",
        tokens=tuple("abcdefg"),
        sentences=(Span(0, 3), Span(3, 7)),
        entities=(EntityMention("e1", Span(1, 3), Span(2, 3), "entity"),),
        events=(EventAnnotation("ev", "A", Span(4, 5), (Argument("e1", "r"),)),),
    )
    assert validate_document(doc) == []


def test_validate_unresolved_entity():
    doc = simple_doc(
        "d1",
        7,
        events=[EventAnnotation("ev", "A", Span(0, 1), (Argument("e9", "r"),))],
    )
    violations = validate_document(doc)
    assert any("unresolved entity_id e9" in v for v in violations)


def test_validate_sentence_partition():
    doc = Document(
        id="d1", tokens=tuple("abcd"), sentences=(Span(0, 2), Span(3, 4)), entities=(), events=()
    )
    assert any("partition" in v for v in validate_document(doc))


def test_validate_head_span_containment():
    doc = simple_doc(
        "d1", 6, entities=[EntityMention("e1", Span(2, 4), Span(4, 5), "entity")]
    )
    assert any("head_span" in v for v in validate_document(doc))


def test_validate_duplicate_entity_ids():
    doc = simple_doc(
        "d1",
        6,
        entities=[
            EntityMention("e1", Span(0, 1), Span(0, 1), "entity"),
            EntityMention("e1", Span(2, 3), Span(2, 3), "entity"),
        ],
    )
    assert any("duplicate entity id e1" in v for v in validate_document(doc))


def test_validate_trigger_across_sentences():
    doc = Document(
        id="d1",
        tokens=tuple("abcdef"),
        sentences=(Span(0, 3), Span(3, 6)),
        entities=(),
        events=(EventAnnotation("ev", "A", Span(2, 4), ()),),
    )
    assert any("crosses sentence boundary" in v for v in validate_document(doc))


def test_validate_duplicate_argument_pair():
    doc = simple_doc(
        "d1",
        6,
        entities=[EntityMention("e1", Span(0, 1), Span(0, 1), "entity")],
        events=[
            EventAnnotation("ev", "A", Span(2, 3), (Argument("e1", "r"), Argument("e1", "r")))
        ],
    )
    assert any("duplicate (entity_id, role)" in v for v in validate_document(doc))


def test_validate_is_pure_and_order_stable():
    doc = simple_doc(
        "d1",
        5,
        events=[EventAnnotation("ev", "A", Span(3, 3), (Argument("ghost", "r"),))],
    )
    assert validate_document(doc) == validate_document(doc)


def test_resignation_fixture_is_valid():
    assert validate_document(resignation_document()) == []
    assert validate_document(resignation_document(second_event=True)) == []

