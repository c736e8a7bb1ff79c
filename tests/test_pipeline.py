import dataclasses
import hashlib
import json
import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eescore.core import Argument, Corpus, EntityMention, EventAnnotation, PredictedTrigger, Span
from eescore.errors import ConfigError, ContextError, StoreError
from eescore.ingest import parse_corpus, serialize_corpus
from eescore.jsonio import canonical_line
from eescore.metrics import MODE_GOLD_TRIGGER, MODE_PIPELINE
from eescore.pipeline import (
    Protocol,
    TriggerContext,
    TriggerStore,
    corpus_fingerprint,
    evaluate,
    parse_trigger_file,
    serialize_trigger_context,
)
from eescore.variants import VARIANT_CHOICES, VariantConfig, apply_variant

from corpora import predictions_from, resignation_corpus, simple_doc
from gen import random_corpus


def two_event_corpus():
    """Types A and B, two arguments each."""
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


def cls_trigger_objs(assignments, doc_id="d"):
    return [{"doc_id": doc_id, "task": "trigger", "assignments": assignments}]


def cls_argument_objs(per_anchor, doc_id="d"):
    return [
        {
            "doc_id": doc_id,
            "task": "argument",
            "anchor": {"trigger": [t[0], t[1]], "event_type": t[2]},
            "assignments": [{"candidate_id": c, "label": r} for c, r in assigns],
        }
        for t, assigns in per_anchor
    ]


def test_gold_context_equals_pipeline_with_perfect_ed():
    corpus = two_event_corpus()
    ed = predictions_from(
        cls_trigger_objs(
            [{"candidate_id": "t:2:3", "label": "A"}, {"candidate_id": "t:6:7", "label": "B"}]
        ),
        "CLS",
        corpus,
    )
    eae = predictions_from(
        cls_argument_objs(
            [
                ((2, 3, "A"), [("e1", "r1"), ("e2", "r2")]),
                ((6, 7, "B"), [("e3", "r1"), ("e4", "r3")]),
            ]
        ),
        "CLS",
        corpus,
    )
    gold_run = evaluate(corpus, Protocol(mode=MODE_GOLD_TRIGGER), eae_pred=eae)
    pipe_run = evaluate(corpus, Protocol(mode=MODE_PIPELINE), ed_pred=ed, eae_pred=eae)
    gold_dict = gold_run.eae_report.as_dict()
    pipe_dict = pipe_run.eae_report.as_dict()
    # the mode field records the requested protocol and differs by definition;
    # every other field must be identical
    gold_dict.pop("mode"), pipe_dict.pop("mode")
    assert gold_dict == pipe_dict
    assert gold_run.eae_report.f1 == 1.0


def test_pipeline_fp_trigger_args_are_fp_and_missed_args_are_fn():
    corpus = two_event_corpus()
    # ED: A correct, hallucinates type C at another span, misses B
    ed = predictions_from(
        cls_trigger_objs(
            [{"candidate_id": "t:2:3", "label": "A"}, {"candidate_id": "t:3:4", "label": "C"}]
        ),
        "CLS",
        corpus,
    )
    # EAE answers both given anchors perfectly-for-A and emits 2 args for C
    eae = predictions_from(
        cls_argument_objs(
            [
                ((2, 3, "A"), [("e1", "r1"), ("e2", "r2")]),
                ((3, 4, "C"), [("e3", "r1"), ("e4", "r2")]),
            ]
        ),
        "CLS",
        corpus,
    )
    result = evaluate(corpus, Protocol(mode=MODE_PIPELINE), ed_pred=ed, eae_pred=eae)
    counts = result.eae_report.counts
    assert (counts.tp, counts.fp, counts.fn) == (2, 2, 2)


def test_gold_trigger_mode_perfect_eae():
    corpus = two_event_corpus()
    eae = predictions_from(
        cls_argument_objs(
            [
                ((2, 3, "A"), [("e1", "r1"), ("e2", "r2")]),
                ((6, 7, "B"), [("e3", "r1"), ("e4", "r3")]),
            ]
        ),
        "CLS",
        corpus,
    )
    result = evaluate(corpus, Protocol(mode=MODE_GOLD_TRIGGER), eae_pred=eae)
    assert result.eae_report.f1 == 1.0


def test_anchor_outside_context_is_hard_error():
    corpus = two_event_corpus()
    ed = predictions_from(
        cls_trigger_objs([{"candidate_id": "t:2:3", "label": "A"}]), "CLS", corpus
    )
    eae = predictions_from(
        cls_argument_objs([((6, 7, "B"), [("e3", "r1")])]), "CLS", corpus
    )
    with pytest.raises(ContextError, match="never given"):
        evaluate(corpus, Protocol(mode=MODE_PIPELINE), ed_pred=ed, eae_pred=eae)


def test_gold_mode_rejects_anchor_not_in_gold():
    corpus = two_event_corpus()
    eae = predictions_from(
        cls_argument_objs([((3, 4, "C"), [("e1", "r1")])]), "CLS", corpus
    )
    with pytest.raises(ContextError):
        evaluate(corpus, Protocol(mode=MODE_GOLD_TRIGGER), eae_pred=eae)


@pytest.mark.parametrize(
    "field, value",
    [("mode", "oracle"), ("convention", "modern\n"), ("eae_match", "by_span"), ("trigger_policy", "every_span"),
     ("k", 0), ("k", "2"), ("stray_i", "keep"), ("standardize", 1), ("ed_paradigm", "cls"), ("eae_paradigm", "")],
)
def test_protocol_rejects_each_invalid_field(field, value):
    with pytest.raises(ConfigError):
        Protocol(**{field: value})


@pytest.mark.parametrize(
    "fields, error",
    [({"mode": "NaN"}, 'unknown mode "NaN"'), ({"trigger_policy": "every_span"}, 'unknown trigger_policy "every_span"'),
     ({"stray_i": None}, "unknown stray_i null"), ({"k": float("nan")}, "k an int, not true and NaN"),
     ({"mode": b"x"}, 'unknown mode "b\'x\'"'), ({"k": 0, "trigger_policy": "every_span_up_to_k"}, "k must be >= 1")],
)
def test_protocol_shows_a_refused_value_as_json(fields, error):
    with pytest.raises(ConfigError, match=f"{re.escape(error)}$"):
        Protocol(**fields)


def test_protocol_spells_one_candidate_space_once():
    """Spans up to 1 token are the `every_token` candidates, whose k is 1."""
    assert Protocol(trigger_policy="every_span_up_to_k", k=1) == Protocol()
    assert Protocol(k=3).k == 1
    assert Protocol(trigger_policy="every_span_up_to_k", k=3).k == 3


@pytest.mark.parametrize("paradigm", ["ed_paradigm", "eae_paradigm"])
def test_protocol_rejects_generation_without_standardization(paradigm):
    assert Protocol(**{paradigm: "CG"}).standardize is True
    with pytest.raises(ConfigError, match="^generation predictions cannot be scored without --standardize"):
        Protocol(standardize=False, **{paradigm: "CG"})


def test_generation_predictions_have_no_native_output_space():
    """A protocol that names no paradigm still refuses CG predictions:
    `evaluate` binds each file's paradigm into it."""
    corpus = two_event_corpus()
    ed = [{"doc_id": "d", "task": "trigger", "items": [{"mention": ["w2"], "label": "A"}]}]
    eae = [{"doc_id": "d", "task": "argument", "anchor": {"trigger": [2, 3], "event_type": "A"},
            "items": [{"mention": ["w0"], "label": "r1"}]}]
    for task, records in (("ed_pred", ed), ("eae_pred", eae)):
        with pytest.raises(ConfigError) as exc:
            evaluate(corpus, Protocol(standardize=False), **{task: predictions_from(records, "CG", corpus)})
        assert str(exc.value) == (
            "generation predictions cannot be scored without --standardize (their mentions carry no positions)"
        )


def test_pipeline_without_triggers_is_config_error():
    corpus = two_event_corpus()
    eae = predictions_from(
        cls_argument_objs([((2, 3, "A"), [("e1", "r1")])]), "CLS", corpus
    )
    with pytest.raises(ConfigError) as exc:
        evaluate(corpus, Protocol(mode=MODE_PIPELINE), eae_pred=eae)
    assert str(exc.value) == "pipeline mode requires ED predictions or a predicted-trigger file/store entry"


def test_context_monotonicity_removing_correct_trigger():
    corpus = two_event_corpus()
    eae_full = predictions_from(
        cls_argument_objs(
            [
                ((2, 3, "A"), [("e1", "r1"), ("e2", "r2")]),
                ((6, 7, "B"), [("e3", "r1"), ("e4", "r3")]),
            ]
        ),
        "CLS",
        corpus,
    )
    full_context = TriggerContext.from_gold(corpus)
    reduced_context = TriggerContext(
        source="ed", triggers={"d": (PredictedTrigger(Span(2, 3), "A"),)}
    )
    eae_reduced = predictions_from(
        cls_argument_objs([((2, 3, "A"), [("e1", "r1"), ("e2", "r2")])]), "CLS", corpus
    )
    full = evaluate(corpus, Protocol(mode=MODE_PIPELINE), eae_pred=eae_full, trigger_context=full_context)
    reduced = evaluate(corpus, Protocol(mode=MODE_PIPELINE), eae_pred=eae_reduced, trigger_context=reduced_context)
    assert reduced.eae_report.counts.tp <= full.eae_report.counts.tp
    assert reduced.eae_report.counts.fn >= full.eae_report.counts.fn


def test_mixed_task_prediction_file_rejected():
    corpus = two_event_corpus()
    eae = predictions_from(
        cls_trigger_objs([{"candidate_id": "t:2:3", "label": "A"}]), "CLS", corpus
    )
    with pytest.raises(Exception, match="expected task 'argument'"):
        evaluate(corpus, Protocol(mode=MODE_GOLD_TRIGGER), eae_pred=eae)


def test_trigger_file_roundtrip():
    corpus = two_event_corpus()
    context = TriggerContext.from_gold(corpus)
    data = serialize_trigger_context(context)
    parsed = parse_trigger_file(data, corpus, source="file")
    assert parsed.triggers == context.triggers
    assert serialize_trigger_context(parsed) == data


def test_fingerprint_binds_corpus_and_variant():
    corpus = two_event_corpus()
    base = corpus_fingerprint(corpus, VariantConfig())
    assert base == corpus_fingerprint(two_event_corpus(), VariantConfig())
    assert base == corpus_fingerprint(corpus, VariantConfig(multi_token_policy="drop_event"))  # never applies
    assert base != corpus_fingerprint(corpus, VariantConfig(include_time=False))
    assert base != corpus_fingerprint(resignation_corpus(), VariantConfig())


def _shuffled(value, rng: random.Random):
    """`value` with the keys of every object in a random order."""
    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        return {key: _shuffled(v, rng) for key, v in items}
    return [_shuffled(v, rng) for v in value] if isinstance(value, list) else value


def noncanonical_rendering(corpus: Corpus, rng: random.Random) -> bytes:
    """The corpus as JSONL that no canonical writer emits: keys shuffled,
    spaces after ":" and ",", non-ASCII and "/" escaped, "\r\n" line ends
    and blank lines."""
    lines = []
    for line in serialize_corpus(corpus).decode("utf-8").split("\n")[:-1]:  # a token may hold U+2028
        text = json.dumps(_shuffled(json.loads(line), rng), ensure_ascii=True).replace("/", "\\/")
        lines += [text] + [""] * rng.randint(0, 1)
    return "\r\n".join(lines).encode("utf-8")


def _with_escapable_tokens(corpus: Corpus, rng: random.Random) -> Corpus:
    """The corpus with some tokens that a JSON writer may escape."""
    return Corpus(documents=tuple(
        dataclasses.replace(d, tokens=tuple(rng.choice((t, "é", "a/b", "\u2028", '"')) for t in d.tokens))
        for d in corpus
    ))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    cfg=st.builds(VariantConfig, **{key: st.sampled_from(allowed) for key, allowed in VARIANT_CHOICES.items()}),
)
def test_fingerprint_is_hashlib_sha256_of_corpus_and_variant(seed, cfg):
    """The fingerprint is hashlib's SHA-256 of the canonical corpus and the
    config line, whether the corpus was built in code, parsed from
    canonical bytes (and hashed as it was read), or parsed from a
    rendering whose lines are not canonical."""
    rng = random.Random(seed)
    corpus = _with_escapable_tokens(random_corpus(rng), rng)
    data = serialize_corpus(corpus)
    want = hashlib.sha256(data + canonical_line(cfg.as_dict()).encode("utf-8")).hexdigest()
    for kind in (corpus, parse_corpus(data), parse_corpus(noncanonical_rendering(corpus, rng))):
        assert kind == corpus
        assert corpus_fingerprint(kind, cfg) == want


def test_a_new_corpus_from_a_parsed_one_hashes_its_own_documents():
    """The hash that the parser fed belongs to the parsed documents: a
    corpus made from them by `replace` or by a variant hashes its own."""
    parsed = parse_corpus(serialize_corpus(resignation_corpus()))
    assert parsed.hash_state is not None
    cfg = VariantConfig(include_value=False, entity_mention_mode="head")
    for derived in (dataclasses.replace(parsed, documents=parsed.documents[:0]),
                    dataclasses.replace(parsed, documents=two_event_corpus().documents),
                    apply_variant(parsed, cfg)[0]):
        assert derived.hash_state is None
        data = serialize_corpus(derived) + canonical_line(cfg.as_dict()).encode("utf-8")
        assert corpus_fingerprint(derived, cfg) == hashlib.sha256(data).hexdigest()
    assert corpus_fingerprint(apply_variant(parsed, cfg)[0], cfg) != corpus_fingerprint(parsed, cfg)


def ed_report_for(corpus):
    ed = predictions_from(
        cls_trigger_objs([{"candidate_id": "t:2:3", "label": "A"}]), "CLS", corpus
    )
    return evaluate(corpus, Protocol(mode=MODE_PIPELINE), ed_pred=ed)


def test_store_put_then_get_roundtrip(tmp_path):
    corpus = two_event_corpus()
    result = ed_report_for(corpus)
    fp = corpus_fingerprint(corpus, VariantConfig())
    store = TriggerStore(tmp_path / "store")
    data = serialize_trigger_context(result.trigger_context)
    entry = store.put("corpus.jsonl", fp, "model-x", data, result.ed_report)
    got = store.get("corpus.jsonl", fp)
    assert got is not None
    got_entry, got_bytes = got
    assert got_entry == entry
    assert got_bytes == data


def test_store_get_stale_fingerprint_not_found(tmp_path):
    corpus = two_event_corpus()
    result = ed_report_for(corpus)
    fp = corpus_fingerprint(corpus, VariantConfig())
    store = TriggerStore(tmp_path / "store")
    store.put("corpus.jsonl", fp, "model-x", serialize_trigger_context(result.trigger_context), result.ed_report)
    stale = corpus_fingerprint(corpus, VariantConfig(include_time=False))
    assert store.get("corpus.jsonl", stale) is None


def test_store_integrity_error_on_conflicting_put(tmp_path):
    corpus = two_event_corpus()
    result = ed_report_for(corpus)
    fp = corpus_fingerprint(corpus, VariantConfig())
    store = TriggerStore(tmp_path / "store")
    data = serialize_trigger_context(result.trigger_context)
    store.put("corpus.jsonl", fp, "model-x", data, result.ed_report)
    # identical re-put is a no-op
    store.put("corpus.jsonl", fp, "model-x", data, result.ed_report)
    with pytest.raises(StoreError, match="immutable"):
        store.put("corpus.jsonl", fp, "model-x", data + b'{"doc_id":"d","triggers":[]}\n', result.ed_report)


def test_store_rejects_fingerprint_for_other_corpus(tmp_path):
    corpus = two_event_corpus()
    result = ed_report_for(corpus)
    fp = corpus_fingerprint(corpus, VariantConfig())
    store = TriggerStore(tmp_path / "store")
    data = serialize_trigger_context(result.trigger_context)
    store.put("corpus.jsonl", fp, "model-x", data, result.ed_report)
    with pytest.raises(StoreError, match="refusing"):
        store.put("other.jsonl", fp, "model-y", data, result.ed_report)


def test_store_multiple_producers(tmp_path):
    corpus = two_event_corpus()
    result = ed_report_for(corpus)
    fp = corpus_fingerprint(corpus, VariantConfig())
    store = TriggerStore(tmp_path / "store")
    data = serialize_trigger_context(result.trigger_context)
    store.put("corpus.jsonl", fp, "model-x", data, result.ed_report)
    store.put("corpus.jsonl", fp, "model-y", data, result.ed_report)
    assert len(store.entries()) == 2
    got = store.get("corpus.jsonl", fp, producer="model-y")
    assert got is not None and got[0].producer == "model-y"
    assert store.get("corpus.jsonl", fp, producer="model-x")[0].producer == "model-x"
    # without a producer filter two producers are ambiguous: the lookup names both
    with pytest.raises(ConfigError) as info:
        store.get("corpus.jsonl", fp)
    assert str(info.value) == (
        f"producers 'model-x', 'model-y' all hold triggers for corpus 'corpus.jsonl' "
        f"and fingerprint {fp[:12]}...; choose one with --producer"
    )
    # entries of another corpus or fingerprint do not count
    assert store.get("other.jsonl", fp) is None


GOOD_ROW = {"corpus_id": "c.jsonl", "fingerprint": "f" * 64, "producer": "p", "file": "t.jsonl", "ed_f1": 0.5}


@pytest.mark.parametrize(
    "manifest, problem",
    [
        ({"rows": []}, "not a list"),
        ([GOOD_ROW, 3], "entry 1 is not an object"),
        ([{k: v for k, v in GOOD_ROW.items() if k != "producer"}], "lacks 'producer'"),
        ([dict(GOOD_ROW, ed_f1="0.5")], "str 'ed_f1'"),
        ([dict(GOOD_ROW, ed_f1=True)], "bool 'ed_f1'"),
        ([dict(GOOD_ROW, fingerprint=None)], "NoneType 'fingerprint'"),
        ([dict(GOOD_ROW, file="../t.jsonl")], "not a file name inside the store"),
        ([dict(GOOD_ROW, file="/tmp/t.jsonl")], "not a file name inside the store"),
        ([dict(GOOD_ROW, file="sub/t.jsonl")], "not a file name inside the store"),
        ([dict(GOOD_ROW, file="..")], "not a file name inside the store"),
        ([dict(GOOD_ROW, file="")], "not a file name inside the store"),
        ([dict(GOOD_ROW, file="t\0.jsonl")], "not a file name inside the store"),
        ([dict(GOOD_ROW, producer="p\n")], "producer 'p\\n', which does not match"),
        ([dict(GOOD_ROW, producer="a/b")], "producer 'a/b', which does not match"),
        ([dict(GOOD_ROW, ed_f1=float("nan"))], "an 'ed_f1' that is not a number in [0, 1]"),
        ([dict(GOOD_ROW, ed_f1=10**400)], "an 'ed_f1' that is not a number in [0, 1]"),
        ([dict(GOOD_ROW, ed_f1=float("inf"))], "an 'ed_f1' that is not a number in [0, 1]"),
        ([dict(GOOD_ROW, ed_f1=-0.5)], "an 'ed_f1' that is not a number in [0, 1]"),
    ],
)
def test_corrupt_manifest_is_a_store_error(tmp_path, manifest, problem):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    store = TriggerStore(tmp_path)
    with pytest.raises(StoreError, match=f"corrupt manifest .*{re.escape(problem)}"):
        store.entries()
    with pytest.raises(StoreError):
        store.get("c.jsonl", "f" * 64)


@pytest.mark.parametrize("raw", [b"[" * 100000, b"\xff\xfe[]", b"[{]"], ids=["deep", "not-utf8", "bad-json"])
def test_unreadable_manifest_is_a_store_error(tmp_path, raw):
    (tmp_path / "manifest.json").write_bytes(raw)
    with pytest.raises(StoreError, match="corrupt manifest"):
        TriggerStore(tmp_path).entries()


def test_good_manifest_row_loads(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps([GOOD_ROW, dict(GOOD_ROW, ed_f1=1)]))
    entries = TriggerStore(tmp_path).entries()
    assert [e._asdict() for e in entries] == [GOOD_ROW, dict(GOOD_ROW, ed_f1=1)]


def test_concurrent_puts_keep_every_entry(tmp_path, monkeypatch):
    # Both puts read the manifest before either writes it. Without
    # serialization each writes back only its own row (or they trip over a
    # shared temp file); with it the second put waits for the first, the
    # barrier times out and both rows stay.
    corpus = two_event_corpus()
    result = ed_report_for(corpus)
    fp = corpus_fingerprint(corpus, VariantConfig())
    data = serialize_trigger_context(result.trigger_context)
    barrier = threading.Barrier(2, timeout=1.0)
    read_manifest = TriggerStore.entries

    def entries_then_wait(self):
        rows = read_manifest(self)
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass
        return rows

    monkeypatch.setattr(TriggerStore, "entries", entries_then_wait)
    errors = []

    def put(producer):
        try:
            TriggerStore(tmp_path / "store").put("corpus.jsonl", fp, producer, data, result.ed_report)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=put, args=(p,)) for p in ("model-x", "model-y")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    monkeypatch.setattr(TriggerStore, "entries", read_manifest)
    assert sorted(e.producer for e in TriggerStore(tmp_path / "store").entries()) == ["model-x", "model-y"]


def test_many_concurrent_puts_keep_every_entry(tmp_path):
    corpus = two_event_corpus()
    result = ed_report_for(corpus)
    fp = corpus_fingerprint(corpus, VariantConfig())
    data = serialize_trigger_context(result.trigger_context)
    producers = [f"model-{i}" for i in range(8)]
    errors = []

    def put(producer):
        try:
            TriggerStore(tmp_path / "store").put("corpus.jsonl", fp, producer, data, result.ed_report)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=put, args=(p,)) for p in producers]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sorted(e.producer for e in TriggerStore(tmp_path / "store").entries()) == producers


def test_manifest_with_a_repeated_key_is_a_store_error(tmp_path):
    row = json.dumps(GOOD_ROW)
    (tmp_path / "manifest.json").write_text("[" + row.replace('{"corpus_id"', '{"file": "x.jsonl", "corpus_id"') + "]")
    with pytest.raises(StoreError, match=r"corrupt manifest .*: duplicate key 'file'$"):
        TriggerStore(tmp_path).entries()
