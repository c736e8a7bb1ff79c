"""One `eescore score` or `eescore trigger-store put` job, re-composed from
the package's public functions with a timed span around each call.

    PYTHONPATH=src python3 bench/traced.py TRACE_JSON -- score --corpus ... --output R

Takes the same arguments as the CLI job it mirrors, parses them with the
CLI's own parser, and calls the stages in the order `cmd_score` /
`cmd_store_put` calls them. It writes what the CLI writes where the CLI
would write it, except that the report omits the `config` block, and
dumps span totals, counts and the scores it saw to TRACE_JSON. Span
names are `<module>.<what>_s`, after the module whose public function
the span encloses.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from eescore.cli import build_parser
from eescore.ingest import load_corpus, load_predictions
from eescore.jsonio import dump_jsonl, format_report
from eescore.metrics import (
    MODE_GOLD_TRIGGER,
    MODE_PIPELINE,
    argument_items_from,
    score_argument_items,
    score_trigger_items,
    trigger_items_from,
)
from eescore.pipeline import (
    TriggerContext,
    TriggerStore,
    corpus_fingerprint,
    parse_trigger_file,
    serialize_trigger_context,
)
from eescore.standardize import (
    TRIGGER_POLICY_SPANS_UP_TO_K,
    CandidatePolicy,
    StandardizeOptions,
    standardize_predictions,
)
from eescore.variants import VariantConfig, apply_variant, load_variant_config


class Trace:
    def __init__(self):
        self.spans: Counter = Counter()
        self.counts: Counter = Counter()
        self.rss_mb: dict = {}
        self.discards = {"ed": Counter(), "eae": Counter()}
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[name] += time.perf_counter() - start

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def record_rss(self, name: str) -> None:
        """Resident set size now, not the peak."""
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
        self.rss_mb[name] = pages * os.sysconf("SC_PAGE_SIZE") / 2**20

    def standardized(self, task: str, std) -> None:
        for record in std:
            self.counts["standardize.assigned"] += len(record.assignments)
            self.discards[task].update(d.reason for d in record.discarded)


def candidate_policy(args) -> CandidatePolicy:
    if args.trigger_policy == TRIGGER_POLICY_SPANS_UP_TO_K:
        return CandidatePolicy(trigger_policy=args.trigger_policy, k=args.k)
    return CandidatePolicy()


def variant_config(args) -> VariantConfig:
    cfg = load_variant_config(args.variant) if args.variant else VariantConfig()
    if args.multi_token_policy:
        cfg = replace(cfg, multi_token_policy=args.multi_token_policy)
    return cfg


def candidates_enumerated(predictions, corpus, policy: CandidatePolicy) -> int:
    """Size of the candidate set built for each record, summed."""
    total = 0
    for record in predictions.records:
        doc = corpus.get(record.doc_id)
        if record.anchor is not None:
            total += len(doc.entities)
        elif policy.trigger_policy == TRIGGER_POLICY_SPANS_UP_TO_K:
            total += sum(min(policy.k, s.end - i) for s in doc.sentences for i in range(s.start, s.end))
        else:
            total += len(doc.tokens)
    return total


def load(tr: Trace, args, policy: CandidatePolicy):
    """Corpus, fingerprint and variant, as every job starts."""
    cfg = variant_config(args)
    with tr.span("ingest.parse_corpus_s"):
        corpus_raw = load_corpus(args.corpus)
    with tr.span("pipeline.fingerprint_s"):
        fingerprint = corpus_fingerprint(corpus_raw, cfg)
    with tr.span("variants.apply_s"):
        corpus, report = apply_variant(corpus_raw, cfg)
    tr.counts["ingest.docs"] += len(corpus)
    tr.counts["ingest.input_bytes"] += os.path.getsize(args.corpus)
    tr.counts["variants.removed_arguments"] += report.removed_arguments
    tr.counts["variants.reduced_triggers"] += report.reduced_triggers
    return corpus, fingerprint


def parse(tr: Trace, span: str, path, paradigm: str, corpus, policy: CandidatePolicy):
    with tr.span(span):
        predictions = load_predictions(path, paradigm, corpus)
    tr.counts["ingest.input_bytes"] += os.path.getsize(path)
    tr.counts["ingest.records"] += len(predictions.records)
    tr.counts["standardize.candidates_enumerated"] += candidates_enumerated(predictions, corpus, policy)
    return predictions


def score_triggers(tr: Trace, predictions, corpus, policy, options, mode, convention, jobs):
    with tr.span("standardize.ed_s"):
        std = standardize_predictions(predictions, corpus, policy, options, jobs=jobs)
    tr.standardized("ed", std)
    with tr.span("metrics.items_s"):
        items = trigger_items_from(std)
    with tr.span("metrics.score_ed_s"):
        report = score_trigger_items(corpus, items, mode=mode, convention=convention)
    tr.counts["metrics.ed_keys"] += len(items) + report.counts.tp + report.counts.fn
    tr.counts["metrics.ed_labels"] += len(report.per_label)
    return std, items, report


def context_size(tr: Trace, context: TriggerContext) -> None:
    tr.counts["pipeline.context_triggers"] += sum(len(t) for t in context.triggers.values())


def discard_rows(standardized) -> list[dict]:
    rows = []
    for std in standardized:
        if std is None:
            continue
        for record in std:
            for d in record.discarded:
                row = {"doc_id": record.doc_id, "task": record.task}
                if record.anchor is not None:
                    row["anchor"] = {
                        "trigger": record.anchor.trigger.as_pair(),
                        "event_type": record.anchor.event_type,
                    }
                row["reason"] = d.reason
                row["original"] = d.original
                rows.append(row)
    return rows


def run_score(tr: Trace, args) -> dict:
    policy = candidate_policy(args)
    corpus, fingerprint = load(tr, args, policy)
    options = StandardizeOptions(stray_i=args.stray_i)
    ed_pred = eae_pred = None
    if args.ed_predictions:
        ed_pred = parse(tr, "ingest.parse_ed_s", args.ed_predictions, args.ed_paradigm, corpus, policy)
    if args.eae_predictions:
        eae_pred = parse(tr, "ingest.parse_eae_s", args.eae_predictions, args.eae_paradigm, corpus, policy)
    tr.record_rss("ingest.rss_mb")

    context = None
    if args.mode == MODE_PIPELINE and args.store:
        with tr.span("pipeline.store_get_s"):
            entry, payload = TriggerStore(args.store).get(Path(args.corpus).name, fingerprint, args.producer)
        with tr.span("pipeline.context_s"):
            context = parse_trigger_file(payload, corpus, source=f"store:{entry.producer}")

    ed_std = ed_report = None
    if ed_pred is not None:
        ed_std, ed_items, ed_report = score_triggers(
            tr, ed_pred, corpus, policy, options, args.mode, args.convention, args.jobs
        )
    if args.mode == MODE_GOLD_TRIGGER:
        with tr.span("pipeline.context_s"):
            context = TriggerContext.from_gold(corpus)
    elif context is None:
        with tr.span("pipeline.context_s"):
            context = TriggerContext.from_items(ed_items, source="ed_predictions")
    context_size(tr, context)

    eae_std = eae_report = None
    if eae_pred is not None:
        with tr.span("pipeline.anchor_check_s"):
            inside = [context.contains(r.doc_id, r.anchor) for r in eae_pred.records]
        if not all(inside):
            raise SystemExit("traced: an EAE record is anchored outside the trigger context")
        with tr.span("standardize.eae_s"):
            eae_std = standardize_predictions(eae_pred, corpus, policy, options, jobs=args.jobs)
        tr.record_rss("standardize.rss_mb")
        tr.standardized("eae", eae_std)
        with tr.span("metrics.items_s"):
            eae_items = argument_items_from(eae_std)
        with tr.span("metrics.score_eae_s"):
            eae_report = score_argument_items(
                corpus, eae_items, context, convention=args.convention, mode=args.mode,
                eae_match=args.eae_match,
            )
        tr.counts["metrics.eae_keys"] += len(eae_items) + eae_report.counts.tp + eae_report.counts.fn
        tr.counts["metrics.eae_labels"] += len(eae_report.per_label)

    with tr.span("jsonio.format_report_s"):
        text = format_report({
            "fingerprint": fingerprint,
            "ed": ed_report.as_dict() if ed_report else None,
            "eae": eae_report.as_dict() if eae_report else None,
        })
    Path(args.output).write_text(text, encoding="utf-8")
    if args.dump_discards:
        with tr.span("jsonio.dump_discards_s"):
            rows = discard_rows((ed_std, eae_std))
            Path(args.dump_discards).write_bytes(dump_jsonl(rows))
        tr.counts["jsonio.discard_lines"] += len(rows)
    return {
        "ed": ed_report.counts.as_dict() if ed_report else None,
        "eae": eae_report.counts.as_dict() if eae_report else None,
    }


def run_put(tr: Trace, args) -> dict:
    policy = candidate_policy(args)
    corpus, fingerprint = load(tr, args, policy)
    predictions = parse(tr, "ingest.parse_ed_s", args.predictions, args.paradigm, corpus, policy)
    tr.record_rss("ingest.rss_mb")
    _, items, report = score_triggers(
        tr, predictions, corpus, policy, StandardizeOptions(stray_i=args.stray_i), MODE_PIPELINE,
        "modern", args.jobs,
    )
    with tr.span("pipeline.context_s"):
        context = TriggerContext.from_items(items, source="ed_predictions")
    context_size(tr, context)
    with tr.span("pipeline.serialize_triggers_s"):
        trigger_bytes = serialize_trigger_context(context)
    store = TriggerStore(args.store)
    with tr.span("pipeline.store_put_s"):
        store.put(
            corpus_id=Path(args.corpus).name,
            fingerprint=fingerprint,
            producer=args.producer,
            trigger_bytes=trigger_bytes,
            ed_report=report,
        )
    tr.counts["pipeline.manifest_rows"] += len(store.entries())
    return {"ed": report.counts.as_dict(), "eae": None}


def main(argv: list[str]) -> int:
    out, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py TRACE_JSON -- <eescore arguments>")
    args = build_parser().parse_args(cli_args)
    if args.command == "score" and not args.standardize:
        raise SystemExit("traced: only standardized scoring is traced")
    tr = Trace()
    gc.callbacks.append(tr.on_gc)
    try:
        if args.command == "score":
            scores = run_score(tr, args)
        elif args.command == "trigger-store" and args.store_command == "put":
            scores = run_put(tr, args)
        else:
            raise SystemExit(f"traced: cannot trace {args.command!r}")
    finally:
        gc.callbacks.remove(tr.on_gc)
    result = {
        "spans": tr.spans,
        "counts": tr.counts,
        "rss_mb": tr.rss_mb,
        "gc_s": tr.gc_s,
        "gc_collections": tr.gc_collections,
        "discards": tr.discards,
        **scores,
    }
    Path(out).write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
