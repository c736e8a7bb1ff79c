"""One checker for a prediction record: `evaluate` passes what `parse_predictions`
made for the task and corpus unchanged, and parses any other value as the file
that `core.plain` writes of it, so a value built in code gets the refusals of
that file and never a traceback."""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eescore import cli
from eescore.core import Anchor, Argument, Corpus, Document, EntityMention, EventAnnotation, Span, TriggerContext
from eescore.errors import ParseError, ToolkitError, ValidationError
from eescore.ingest import (
    CgItem,
    ClsAssignment,
    ParadigmPredictions,
    PredictionRecord,
    SpanPrediction,
    checked_predictions,
    parse_predictions,
    serialize_corpus,
)
from eescore.pipeline import evaluate
from eescore.protocol import MODE_GOLD_TRIGGER, MODE_PIPELINE, PARADIGM_CG, PARADIGMS, Protocol
from eescore.standardize import serialize_discards

from gen import gold_anchor_table, random_argument_predictions, random_corpus, random_trigger_predictions
from oracles import serialize_predictions

CORPUS = Corpus((
    Document(
        "d1", ("w0", "w1", "w2", "w3", "w4"), (Span(0, 3), Span(3, 5)),
        (EntityMention("e1", Span(0, 1), Span(0, 1), "entity"), EntityMention("e2", Span(3, 5), Span(4, 5), "value")),
        (EventAnnotation("v1", "A", Span(1, 2), (Argument("e1", "r1"),)),),
    ),
    Document("d2", ("w0", "w1"), (Span(0, 2),), (), ()),
))
TINY = Corpus((Document("d", ("a", "b"), (Span(0, 2),), (), ()),))


def _raises(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# each was a traceback before `evaluate` parsed what the parser did not make
@pytest.mark.parametrize("paradigm, record, protocol, message", [
    ("SP", PredictionRecord("d", None, (CgItem(("b",), "T"),)), Protocol(standardize=False),
     "line 1: unknown field(s) 'mention'"),  # was AttributeError in standardize._decode
    ("SL", PredictionRecord("d", None, (1, 2)), Protocol(),
     "line 1: tags must be an array of strings"),  # AttributeError
    ("SP", PredictionRecord("zz", None, ()), Protocol(), "line 1: unknown doc_id 'zz'"),  # KeyError
    ("SP", PredictionRecord("d", None, None), Protocol(), "line 1: spans must be an array"),  # TypeError
])
def test_a_faulty_value_built_in_code_is_refused_as_its_file_would_be(paradigm, record, protocol, message):
    predictions = ParadigmPredictions(paradigm, (record,))
    _raises(lambda: evaluate(TINY, protocol, ed_pred=predictions), ParseError, message)


def test_a_value_that_json_cannot_spell_is_refused_too():
    """A value outside JSON is written as its repr, and text UTF-8 cannot encode as the bytes that say so."""
    for record, message in [
        (PredictionRecord("d", None, ({"b"},)), "line 1: spans[0] must be an object"),
        (PredictionRecord("d", None, (SpanPrediction(Span(0, 1), "\ud800"),)), "line 1: not valid UTF-8"),
    ]:
        _raises(lambda: evaluate(TINY, Protocol(), ed_pred=ParadigmPredictions("SP", (record,))), ParseError, message)


def test_a_parsed_value_is_checked_again_against_another_corpus():
    parsed = parse_predictions(b'{"doc_id": "d", "task": "trigger", "spans": []}\n', "SP", TINY, "trigger")
    assert checked_predictions(parsed, TINY, "trigger") is parsed
    other = Corpus((Document("e", ("a", "b"), (Span(0, 2),), (), ()),))  # was KeyError: 'd'
    _raises(lambda: evaluate(other, Protocol(), ed_pred=parsed), ParseError, "line 1: unknown doc_id 'd'")
    equal = Corpus(TINY.documents)  # an equal corpus is another object: its records are parsed again
    assert checked_predictions(parsed, equal, "trigger") == parsed
    assert checked_predictions(parsed, equal, "trigger") is not parsed


def test_a_record_goes_on_its_line_while_the_lines_ascend():
    first, second, bad = (PredictionRecord(doc_id, None, ()) for doc_id in ("d1", "d2", "zz"))
    for records, line in [
        ((first._replace(line=4), bad._replace(line=9)), 9),  # its own line
        ((first, second, bad), 3),  # lines of 0: index + 1
        ((first._replace(line=5), bad._replace(line=2)), 6),  # a line before the last: the next line
    ]:
        predictions = ParadigmPredictions("SP", records)
        _raises(lambda: checked_predictions(predictions, CORPUS, "trigger"), ParseError,
                f"line {line}: unknown doc_id 'zz'")


def test_a_replace_copy_of_a_parsed_value_is_checked_again():
    data = b'{"doc_id": "d1", "task": "trigger", "spans": []}\n\n{"doc_id": "d2", "task": "trigger", "spans": []}\n'
    parsed = parse_predictions(data, "SP", CORPUS, "trigger")
    assert checked_predictions(parsed, CORPUS, "trigger") is parsed
    swapped = parsed._replace(records=(parsed.records[0], parsed.records[1]._replace(doc_id="zz")))
    assert type(swapped) is ParadigmPredictions
    _raises(lambda: evaluate(CORPUS, Protocol(), ed_pred=swapped), ParseError, "line 3: unknown doc_id 'zz'")
    out_of_range = (parsed.records[0]._replace(payload=(SpanPrediction(Span(4, 9), "A"),)),)
    _raises(lambda: evaluate(CORPUS, Protocol(), ed_pred=parsed._replace(records=out_of_range)), ParseError,
            "line 1: spans[0].span [4, 9] out of bounds for 5 tokens")


spans = st.builds(Span, st.integers(-1, 6), st.integers(-1, 6))  # reversed and out of range too
labels = st.sampled_from(["A", "r1", "NA", ""])
confidences = st.one_of(st.none(), st.floats(-0.5, 1.5), st.just(math.nan))
elements = st.one_of(
    st.builds(ClsAssignment, st.sampled_from(["t:1:2", "t:0:9", "e1", "e2", "x"]), labels, confidences),
    st.builds(SpanPrediction, spans, labels, confidences),
    st.builds(CgItem, st.lists(st.sampled_from(["w0", "w1", "w4", "zz"]), max_size=2).map(tuple), labels, confidences),
    st.sampled_from(["O", "B-A", "I-A", "I-r1", "X"]),
    st.integers(-1, 3),
    st.none(),
)
payloads = st.one_of(st.none(), st.lists(elements, max_size=6).map(tuple))
anchors = st.one_of(st.none(), st.builds(Anchor, spans, labels), st.just(Anchor(Span(1, 2), "A")))
records = st.builds(PredictionRecord, st.sampled_from(["d1", "d2", "zz"]), anchors, payloads, st.integers(0, 4))
values = st.builds(ParadigmPredictions, st.sampled_from(PARADIGMS), st.lists(records, max_size=4).map(tuple))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.none(), values), st.one_of(st.none(), values), st.booleans(), st.booleans(), st.booleans())
def test_no_value_built_in_code_ends_in_a_traceback(ed, eae, standardize, pipeline, given_context):
    protocol = Protocol(standardize=standardize, mode=MODE_PIPELINE if pipeline else MODE_GOLD_TRIGGER)
    context = TriggerContext.from_gold(CORPUS) if pipeline and given_context else None
    try:
        evaluate(CORPUS, protocol, ed_pred=ed, eae_pred=eae, trigger_context=context)
    except ToolkitError:
        pass


# every paradigm under both modes, standardized or not; generation output only standardized
SETTINGS = [(p, m, s) for p in PARADIGMS for m in (MODE_GOLD_TRIGGER, MODE_PIPELINE) for s in (True, False)
            if s or p != PARADIGM_CG]


@pytest.mark.parametrize("paradigm, mode, standardize", SETTINGS)
def test_a_value_built_in_code_scores_as_its_file(paradigm, mode, standardize):
    rng = random.Random(f"{paradigm}{mode}{standardize}")
    protocol = Protocol(mode=mode, standardize=standardize)
    for _ in range(25):
        corpus = random_corpus(rng, require_event_with_argument=True)
        ed = random_trigger_predictions(rng, corpus, paradigm)
        eae = random_argument_predictions(rng, corpus, paradigm, gold_anchor_table(corpus))
        context = TriggerContext.from_gold(corpus) if mode == MODE_PIPELINE else None
        files = (parse_predictions(serialize_predictions(ed), paradigm, corpus, "trigger"),
                 parse_predictions(serialize_predictions(eae), paradigm, corpus, "argument"))
        codes = tuple(ParadigmPredictions(p.paradigm, tuple(p.records)) for p in (ed, eae))
        by_file = evaluate(corpus, protocol, ed_pred=files[0], eae_pred=files[1], trigger_context=context)
        by_code = evaluate(corpus, protocol, ed_pred=codes[0], eae_pred=codes[1], trigger_context=context)
        assert by_code == by_file
        assert serialize_discards(by_code.ed_with_discards, by_code.eae_with_discards) == serialize_discards(
            by_file.ed_with_discards, by_file.eae_with_discards)


def test_score_checks_the_task_of_each_record_once(tmp_path, monkeypatch, capsys):
    """Each record's task is read by the reader's check and by standardization's candidate lookup: `evaluate`
    trusts what the reader parsed for its task and corpus and reads no record again."""
    rng, ed, eae = random.Random(3), None, None
    while not (ed and ed.records and eae.records):
        corpus = random_corpus(rng, max_docs=5, require_event_with_argument=True)
        ed = random_trigger_predictions(rng, corpus, "SP")
        eae = random_argument_predictions(rng, corpus, "SP", gold_anchor_table(corpus))
    (tmp_path / "corpus.jsonl").write_bytes(serialize_corpus(corpus))
    (tmp_path / "ed.jsonl").write_bytes(serialize_predictions(ed))
    (tmp_path / "eae.jsonl").write_bytes(serialize_predictions(eae))
    reads = []
    task = PredictionRecord.task
    monkeypatch.setattr(PredictionRecord, "task", property(lambda record: reads.append(record) or task.fget(record)))
    argv = ["score", "--corpus", "corpus.jsonl", "--ed-predictions", "ed.jsonl", "--ed-paradigm", "SP",
            "--eae-predictions", "eae.jsonl", "--eae-paradigm", "SP", "--output", "report.json"]
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(reads) == 2 * (len(ed.records) + len(eae.records))


def test_a_wrong_task_file_is_refused_after_the_parse():
    """The task is checked once the whole file has parsed, so a later fault of the file comes first."""
    data = (b'{"doc_id": "d", "task": "argument", "anchor": {"trigger": [0, 1], "event_type": "A"}, "spans": []}\n'
            b'{"x": 1}\n')
    _raises(lambda: parse_predictions(data, "SP", TINY, "trigger"), ParseError, "line 2: unknown field(s) 'x'")
    _raises(lambda: parse_predictions(data.split(b"\n")[0], "SP", TINY, "trigger"), ValidationError,
            "line 1: record for doc 'd' has task 'argument'; expected 'trigger'")
