"""Acceptance suite: one test per numbered criterion, each printing a
pass line (visible with -s). Tolerances are exact unless stated."""

import json
import random
import time

import pytest

from eescore import cli
from eescore.core import PredictedTrigger, Span, TriggerContext
from eescore.ingest import serialize_corpus
from eescore.jsonio import dump_jsonl
from eescore.metrics import (
    argument_items_from,
    score_argument_items,
    score_trigger_items,
    trigger_items_from,
)
from eescore.pipeline import evaluate
from eescore.protocol import PARADIGM_SL, PARADIGMS, CandidatePolicy, Protocol
from eescore.standardize import decode_bio, standardize_predictions
from eescore.variants import VariantConfig, apply_variant, compute_stats

from corpora import (
    delta_corpus,
    delta_sl_eae_objs,
    predictions_from,
    resignation_corpus,
)
from gen import (
    gold_anchor_table,
    gold_as_cls_predictions,
    random_argument_predictions,
    random_corpus,
    random_trigger_predictions,
)
from oracles import brute_force_by_doc, enumerate_candidates, reference_bio_decode

N_CORPORA = 1000


def _ok(line: str) -> None:
    print(f"[PASS] {line}")


def _input_count(paradigm, record) -> int:
    """Independent count of a record's predictions (uses the reference
    decoder for tag records)."""
    if paradigm == PARADIGM_SL:
        return len(reference_bio_decode(record.payload))
    return len(record.payload)


def _trigger_keys(items):
    return [(it.doc_id, it.span.start, it.span.end, it.label) for it in items]


def _argument_keys(items, by_trigger=False):
    """Keys under `by_event_type`, or under `by_trigger_span` when
    `by_trigger`, which adds the anchoring trigger span."""
    return [
        (it.doc_id, *(it.trigger if by_trigger else ()), it.event_type, it.span.start, it.span.end, it.role)
        for it in items
    ]


def _gold_trigger_keys(corpus):
    return [
        (d.id, e.trigger.start, e.trigger.end, e.event_type) for d in corpus for e in d.events
    ]


def _gold_argument_keys(corpus, context=None, by_trigger=False):
    keys = []
    for d in corpus:
        for e in d.events:
            if context is not None:
                in_scope = any(
                    t.span == e.trigger and t.event_type == e.event_type
                    for t in context.triggers.get(d.id, ())
                )
                if not in_scope:
                    continue
            for a in e.arguments:
                span = d.entities_by_id[a.entity_id].span
                keys.append((d.id, *(e.trigger if by_trigger else ()), e.event_type, span.start, span.end, a.role))
    return keys


def _check_record(corpus, paradigm, source_record, std_record, failures):
    candidates = {cid for _, cid in enumerate_candidates(corpus.get(std_record.doc_id), std_record.task)}
    if _input_count(paradigm, source_record) != len(std_record.assignments) + len(std_record.discarded):
        failures.append(f"conservation broken for doc {std_record.doc_id}")
    for a in std_record.assignments:
        if a.candidate_id not in candidates:
            failures.append(f"closure broken: {a.candidate_id} not a candidate")


@pytest.fixture(scope="module")
def oracle_population():
    """Runs the shared random population once; criteria 1 and 3 assert on it."""
    rng = random.Random(20240101)
    failures: list[str] = []
    count_mismatches: list[str] = []
    n_records = 0
    match_modes_differ = 0  # pipeline corpora whose two eae_match modes count differently
    displace_rng = random.Random(20240103)
    started = time.perf_counter()

    for i in range(N_CORPORA):
        corpus = random_corpus(rng)
        gold_context = TriggerContext.from_gold(corpus)
        anchors = gold_anchor_table(corpus)
        gold_tri = _gold_trigger_keys(corpus)
        gold_arg = _gold_argument_keys(corpus)
        for paradigm in PARADIGMS:
            ed_pred = random_trigger_predictions(rng, corpus, paradigm)
            ed_std = standardize_predictions(ed_pred, corpus)
            for src, std in zip(ed_pred.records, ed_std):
                _check_record(corpus, paradigm, src, std, failures)
                n_records += 1
            report = score_trigger_items(corpus, trigger_items_from(ed_std))
            keys = _trigger_keys(trigger_items_from(ed_std))
            expect = brute_force_by_doc(keys, gold_tri)
            got = (report.counts.tp, report.counts.fp, report.counts.fn)
            if got != expect:
                count_mismatches.append(f"ED {paradigm} corpus {i}: {got} != {expect}")

            eae_pred = random_argument_predictions(rng, corpus, paradigm, anchors)
            eae_std = standardize_predictions(eae_pred, corpus)
            for src, std in zip(eae_pred.records, eae_std):
                _check_record(corpus, paradigm, src, std, failures)
                n_records += 1
            report = score_argument_items(corpus, argument_items_from(eae_std), gold_context)
            keys = _argument_keys(argument_items_from(eae_std))
            expect = brute_force_by_doc(keys, gold_arg)
            got = (report.counts.tp, report.counts.fp, report.counts.fn)
            if got != expect:
                count_mismatches.append(f"EAE {paradigm} corpus {i}: {got} != {expect}")

        # pipeline-mode scoring against an imperfect predicted-trigger context
        if i % 5 == 0:
            table = {}
            for d in corpus:
                kept = [
                    PredictedTrigger(e.trigger, e.event_type)
                    for e in d.events
                    if rng.random() < 0.7
                ]
                if rng.random() < 0.3 and len(d.tokens) >= 1:
                    s = rng.randrange(len(d.tokens))
                    kept.append(PredictedTrigger(Span(s, s + 1), "Hallucinated"))
                if kept:
                    table[d.id] = tuple(kept)
            ctx_anchors = {
                doc_id: [(t.span, t.event_type) for t in triggers]
                for doc_id, triggers in table.items()
            }
            eae_pred = random_argument_predictions(rng, corpus, "SP", ctx_anchors)
            # displaced anchors: a gold event's type at a shifted trigger span, answered
            # with the event's gold arguments, which match by event type but not by span
            displaced = []
            for d in corpus:
                for e in d.events:
                    if not e.arguments or len(d.tokens) < 2 or displace_rng.random() < 0.5:
                        continue
                    s = (e.trigger.start + displace_rng.randrange(1, len(d.tokens))) % len(d.tokens)
                    anchor = PredictedTrigger(Span(s, s + 1), e.event_type)
                    if anchor in table.get(d.id, ()):
                        continue  # one record per anchor
                    table[d.id] = table.get(d.id, ()) + (anchor,)
                    displaced.append({
                        "doc_id": d.id, "task": "argument",
                        "anchor": {"trigger": [s, s + 1], "event_type": e.event_type},
                        "spans": [{"span": list(d.entities_by_id[a.entity_id].span), "label": a.role}
                                  for a in e.arguments],
                    })
            context = TriggerContext(source="ed", triggers=table)
            items = argument_items_from(standardize_predictions(eae_pred, corpus)) + argument_items_from(
                standardize_predictions(predictions_from(displaced, "SP", corpus), corpus)
            )
            counts = {}
            for convention, scoped in (("modern", None), ("legacy", context)):
                for eae_match, by_trigger in (("by_event_type", False), ("by_trigger_span", True)):
                    report = score_argument_items(
                        corpus, items, context, convention=convention, mode="pipeline", eae_match=eae_match
                    )
                    got = counts[convention, eae_match] = tuple(report.counts)
                    expect = brute_force_by_doc(
                        _argument_keys(items, by_trigger), _gold_argument_keys(corpus, scoped, by_trigger)
                    )
                    if got != expect:
                        count_mismatches.append(f"EAE {convention} {eae_match} pipeline corpus {i}: {got} != {expect}")
            match_modes_differ += counts["modern", "by_event_type"] != counts["modern", "by_trigger_span"]

    elapsed = time.perf_counter() - started
    return {
        "failures": failures,
        "count_mismatches": count_mismatches,
        "n_records": n_records,
        "match_modes_differ": match_modes_differ,
        "elapsed": elapsed,
    }


def test_criterion_01_oracle_equivalence(oracle_population):
    pop = oracle_population
    assert pop["count_mismatches"] == [], pop["count_mismatches"][:5]
    assert pop["match_modes_differ"] > 0, "no pipeline corpus tells the two eae_match modes apart"
    assert pop["elapsed"] < 60, f"runtime budget exceeded: {pop['elapsed']:.1f}s"
    _ok(
        f"criterion 1: ED/EAE counts match the brute-force matcher on {N_CORPORA} corpora "
        f"in {pop['elapsed']:.1f}s"
    )


def test_criterion_02_self_scoring():
    rng = random.Random(20240202)
    policy = CandidatePolicy("every_span_up_to_k", k=2)
    checked = 0
    for _ in range(N_CORPORA):
        corpus = random_corpus(rng, cls_expressible=True, require_event_with_argument=True)
        ed_pred, eae_pred = gold_as_cls_predictions(corpus, policy)
        gold_context = TriggerContext.from_gold(corpus)
        ed_std = standardize_predictions(ed_pred, corpus, policy)
        eae_std = standardize_predictions(eae_pred, corpus, policy)
        for mode, context in (("gold_trigger", gold_context), ("pipeline", None)):
            ed_report = score_trigger_items(corpus, trigger_items_from(ed_std), mode=mode)
            assert ed_report.f1 == 1.0
            ctx = context or TriggerContext.from_items(trigger_items_from(ed_std), source="ed_predictions")
            for convention in ("modern", "legacy"):
                report = score_argument_items(
                    corpus, argument_items_from(eae_std), ctx, convention=convention, mode=mode
                )
                assert report.f1 == 1.0, (mode, convention)
        checked += 1
    _ok(f"criterion 2: gold-as-prediction scores F1=1.000000 on {checked} corpora")


def test_criterion_03_conservation_and_closure(oracle_population):
    pop = oracle_population
    assert pop["failures"] == [], pop["failures"][:5]
    _ok(
        f"criterion 3: conservation and closure hold for {pop['n_records']} standardized records"
    )


def test_criterion_04_worked_example_fixture():
    corpus = resignation_corpus()
    anchor = {"trigger": [8, 9], "event_type": "End-Position"}

    # an overlapping sequence-labeling span is discarded, not credited
    tags = ["O"] * 21
    tags[9], tags[10], tags[11], tags[12] = "B-Position", "I-Position", "I-Position", "I-Position"
    sl = predictions_from(
        [{"doc_id": "doc-resignation", "task": "argument", "anchor": anchor, "tags": tags}],
        "SL",
        corpus,
    )
    record = standardize_predictions(sl, corpus)[0]
    assert record.assignments == ()
    assert [d.reason for d in record.discarded] == ["overlap_mismatch"]
    assert record.discarded[0].original == {"span": [9, 13], "label": "Position"}

    # contradictory span predictions resolve to the higher confidence
    sp = predictions_from(
        [{"doc_id": "doc-resignation", "task": "argument", "anchor": anchor,
          "spans": [{"span": [0, 2], "label": "Person", "confidence": 0.9},
                    {"span": [0, 2], "label": "Company", "confidence": 0.4}]}],
        "SP",
        corpus,
    )
    record = standardize_predictions(sp, corpus)[0]
    assert [(a.candidate_id, a.label) for a in record.assignments] == [("e1", "Person")]
    assert [(d.reason, d.original["label"]) for d in record.discarded] == [
        ("duplicate_lower_confidence", "Company")
    ]

    # two identical generated mentions take the two occurrences in order
    cg = predictions_from(
        [{"doc_id": "doc-resignation", "task": "argument", "anchor": anchor,
          "items": [{"mention": ["Twitter"], "label": "Company"},
                    {"mention": ["Twitter"], "label": "Company"}]}],
        "CG",
        corpus,
    )
    record = standardize_predictions(cg, corpus)[0]
    assert [(a.span.start, a.span.end) for a in record.assignments] == [(14, 15), (18, 19)]
    assert record.discarded == ()
    _ok("criterion 4: worked-example fixture resolves exactly as specified")


def test_criterion_05_standardization_moves_metrics(tmp_path, capsys):
    corpus_path = tmp_path / "delta.jsonl"
    corpus_path.write_bytes(serialize_corpus(delta_corpus()))
    preds_path = tmp_path / "eae_sl.jsonl"
    preds_path.write_bytes(dump_jsonl(delta_sl_eae_objs()))
    out_std, out_raw = tmp_path / "std.json", tmp_path / "raw.json"
    base = ["score", "--corpus", str(corpus_path), "--eae-predictions", str(preds_path),
            "--eae-paradigm", "SL"]
    assert cli.main(base + ["--output", str(out_std)]) == 0
    assert cli.main(base + ["--output", str(out_raw), "--no-standardize"]) == 0
    std = json.loads(out_std.read_text())["eae"]
    raw = json.loads(out_raw.read_text())["eae"]
    # hand computation: 40 gold arguments; standardized keeps 30 exact
    # predictions (P=1, R=3/4, F1=6/7); the native space adds 15 planted
    # false positives (P=2/3, R=3/4, F1=12/17)
    assert std["counts"] == {"tp": 30, "fp": 0, "fn": 10}
    assert raw["counts"] == {"tp": 30, "fp": 15, "fn": 10}
    assert std["precision"] == 1.0 and round(raw["precision"], 6) == round(2 / 3, 6)
    assert round(std["f1"], 6) == round(6 / 7, 6)
    assert round(raw["f1"], 6) == round(12 / 17, 6)

    deltas = [f"{(std[m] - raw[m]) * 100:+.1f}" for m in ("precision", "recall", "f1")]
    assert deltas == ["+33.3", "+0.0", "+15.1"]

    # the two scores come from different output spaces, which compare refuses to set side by side
    capsys.readouterr()
    assert cli.main(["compare", str(out_raw), str(out_std)]) == 2
    assert capsys.readouterr().err == (
        "eescore: error: reports were produced under different protocols: standardize is false vs true\n"
    )
    _ok("criterion 5: standardization changes P/F1 by the hand-computed amounts")


def _two_event_fixture_predictions(corpus, include_second_event=True):
    ed_assignments = [{"candidate_id": "t:8:9", "label": "End-Position"}]
    eae_objs = [
        {
            "doc_id": "doc-resignation",
            "task": "argument",
            "anchor": {"trigger": [8, 9], "event_type": "End-Position"},
            "assignments": [
                {"candidate_id": "e1", "label": "Person"},
                {"candidate_id": "e2", "label": "Position"},
                {"candidate_id": "e3", "label": "Entity"},
                {"candidate_id": "e4", "label": "Place"},
            ],
        }
    ]
    if include_second_event:
        ed_assignments.append({"candidate_id": "t:17:18", "label": "Meet"})
        eae_objs.append(
            {
                "doc_id": "doc-resignation",
                "task": "argument",
                "anchor": {"trigger": [17, 18], "event_type": "Meet"},
                "assignments": [
                    {"candidate_id": "e1", "label": "Entity"},
                    {"candidate_id": "e4", "label": "Place"},
                ],
            }
        )
    ed = predictions_from(
        [{"doc_id": "doc-resignation", "task": "trigger", "assignments": ed_assignments}],
        "CLS",
        corpus,
    )
    eae = predictions_from(eae_objs, "CLS", corpus)
    return ed, eae


def test_criterion_06_pipeline_vs_gold_trigger():
    corpus = resignation_corpus(second_event=True)
    ed, eae = _two_event_fixture_predictions(corpus)
    gold_run = evaluate(corpus, Protocol(mode="gold_trigger"), eae_pred=eae)
    pipe_run = evaluate(corpus, Protocol(mode="pipeline"), ed_pred=ed, eae_pred=eae)
    # byte-identical apart from the mode field, which records the requested
    # protocol and so differs by definition
    a = gold_run.eae_report.as_dict()
    b = pipe_run.eae_report.as_dict()
    assert a.pop("mode") == "gold_trigger" and b.pop("mode") == "pipeline"
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert pipe_run.eae_report.recall == 1.0

    # drop the second event's trigger: 2 of 6 gold arguments leave reach
    ed_miss, eae_miss = _two_event_fixture_predictions(corpus, include_second_event=False)
    degraded = evaluate(corpus, Protocol(mode="pipeline"), ed_pred=ed_miss, eae_pred=eae_miss)
    assert degraded.eae_report.counts.tp == 4
    assert degraded.eae_report.counts.fn == 2
    assert degraded.eae_report.recall == pytest.approx(4 / 6, abs=0)
    assert 1.0 - degraded.eae_report.recall == pytest.approx(2 / 6, abs=1e-12)
    _ok("criterion 6: pipeline equals gold-trigger under perfect ED; recall drops by 2/6")


def test_criterion_07_legacy_convention():
    corpus = resignation_corpus(second_event=True)
    ed_miss, eae_miss = _two_event_fixture_predictions(corpus, include_second_event=False)
    modern = evaluate(corpus, Protocol(mode="pipeline", convention="modern"), ed_pred=ed_miss, eae_pred=eae_miss)
    legacy = evaluate(corpus, Protocol(mode="pipeline", convention="legacy"), ed_pred=ed_miss, eae_pred=eae_miss)
    assert legacy.eae_report.recall == 1.0
    assert modern.eae_report.recall < 1.0
    assert modern.eae_report.recall == pytest.approx(4 / 6, abs=0)
    _ok("criterion 7: legacy recall 1.0 vs modern 0.6667 on the missed-trigger fixture")


def test_criterion_08_variant_monotonicity():
    rng = random.Random(20240808)
    flags = ("include_time", "include_value", "include_pronoun")
    for _ in range(N_CORPORA):
        corpus = random_corpus(rng)
        identity, report = apply_variant(corpus, VariantConfig())
        assert identity == corpus
        assert (report.removed_arguments, report.reduced_triggers) == (0, 0)
        base = compute_stats(corpus)
        for flag in flags:
            cfg = VariantConfig(**{flag: False})
            smaller, _ = apply_variant(corpus, cfg)
            s = compute_stats(smaller)
            assert s.argument_count <= base.argument_count
            assert s.argument_candidate_count <= base.argument_candidate_count
            again, _ = apply_variant(smaller, cfg)
            assert again == smaller
        cfg = VariantConfig(multi_token_triggers=False, entity_mention_mode="head")
        once, _ = apply_variant(corpus, cfg)
        twice, _ = apply_variant(once, cfg)
        assert twice == once
    _ok(f"criterion 8: variant monotonicity, identity and idempotence on {N_CORPORA} corpora")


def test_criterion_09_determinism(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_bytes(serialize_corpus(resignation_corpus(second_event=True)))
    sl_tags = ["O"] * 21
    sl_tags[8] = "B-End-Position"
    sl_tags[17] = "B-Meet"
    ed_path = tmp_path / "ed.jsonl"
    ed_path.write_bytes(
        dump_jsonl([{"doc_id": "doc-resignation", "task": "trigger", "tags": sl_tags}])
    )
    eae_path = tmp_path / "eae.jsonl"
    eae_path.write_bytes(
        dump_jsonl(
            [
                {
                    "doc_id": "doc-resignation",
                    "task": "argument",
                    "anchor": {"trigger": [8, 9], "event_type": "End-Position"},
                    "spans": [
                        {"span": [0, 2], "label": "Person", "confidence": 0.9},
                        {"span": [0, 2], "label": "Company", "confidence": 0.4},
                        {"span": [9, 13], "label": "Position", "confidence": 0.8},
                    ],
                }
            ]
        )
    )
    delta_path = tmp_path / "delta.jsonl"
    delta_path.write_bytes(serialize_corpus(delta_corpus()))
    delta_preds = tmp_path / "delta_eae.jsonl"
    delta_preds.write_bytes(dump_jsonl(delta_sl_eae_objs()))

    runs = {
        "pipeline": ["score", "--corpus", str(corpus_path), "--ed-predictions", str(ed_path),
                     "--ed-paradigm", "SL", "--eae-predictions", str(eae_path),
                     "--eae-paradigm", "SP", "--mode", "pipeline",
                     "--dump-discards", "DISCARDS"],
        "delta": ["score", "--corpus", str(delta_path), "--eae-predictions", str(delta_preds),
                  "--eae-paradigm", "SL"],
    }
    for name, base in runs.items():
        outputs = []
        for run_id, jobs in (("a", 1), ("b", 1), ("c", 4)):
            out = tmp_path / f"{name}_{run_id}.json"
            table = tmp_path / f"{name}_{run_id}.txt"
            discards = tmp_path / f"{name}_{run_id}_discards.jsonl"
            args = [a if a != "DISCARDS" else str(discards) for a in base]
            args += ["--output", str(out), "--table", str(table), "--jobs", str(jobs)]
            assert cli.main(args) == 0
            outputs.append(
                (out.read_bytes(), table.read_bytes(),
                 discards.read_bytes() if discards.exists() else b"")
            )
        assert outputs[0] == outputs[1] == outputs[2], f"{name} run not deterministic"
    _ok("criterion 9: repeated runs and --jobs 1 vs 4 give byte-identical files")


def test_criterion_10_bio_decoder_equivalence():
    rng = random.Random(20241010)
    labels = ["L1", "L2", "L3"]
    for _ in range(10_000):
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
        assert decode_bio(tags, stray_i="open_span") == reference_bio_decode(tags)
    _ok("criterion 10: decoder matches the reference on 10000 random tag sequences")
