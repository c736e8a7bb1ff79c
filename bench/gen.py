"""Seeded input generator for the eescore benchmark (stdlib only).

    python3 bench/gen.py --seed 7 --out DIR [--workload NAME]

writes, per workload, into DIR/<workload>/: `corpus.jsonl`,
`variant.cfg`, the ED and EAE prediction files, and `expected.json`. The
last holds the CLI arguments of the workload's jobs and the counts every
report must show (ED/EAE tp/fp/fn, discards by reason, variant effects,
the sha256 of the trigger file a `trigger-store put` must write),
computed by `oracle.py` from the generated data alone.

Shapes are fixed per workload and only the content depends on the seed,
so the amount of work stays nearly the same from seed to seed: document
lengths follow a fixed cycle, and every prediction outcome (kept,
relabelled, missed, off-boundary, duplicated, ...) is dealt to an exact
share of the gold items.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import oracle

NA = oracle.NA


@dataclass(frozen=True)
class Shape:
    docs: int
    tokens: int  # mean document length; lengths cycle through tokens-40 .. tokens+40
    vocab: int
    zipf: float  # vocabulary skew: higher makes words, and so mentions, recur
    types: int
    roles: int
    mentions: int  # per document
    events: int  # per document
    max_args: int
    kinds: tuple  # (kind, weight) of entity mentions
    multi_token_triggers: float  # share of two-token gold triggers


MAVEN = Shape(docs=120, tokens=300, vocab=40000, zipf=0.9, types=168, roles=60, mentions=30,
              events=10, max_args=5, kinds=(("entity", 1.0),), multi_token_triggers=0.05)
ACE_KINDS = (("entity", 0.7), ("pronoun", 0.1), ("time", 0.1), ("value", 0.1))
ACE = Shape(docs=45, tokens=500, vocab=3000, zipf=1.1, types=33, roles=22, mentions=60,
            events=9, max_args=4, kinds=ACE_KINDS, multi_token_triggers=0.15)
ACE_SMALL = Shape(docs=30, tokens=400, vocab=3000, zipf=1.1, types=33, roles=22, mentions=50,
                  events=8, max_args=4, kinds=ACE_KINDS, multi_token_triggers=0.15)

IDENTITY_CFG = "".join(f"{k} = {str(v).lower()}\n" for k, v in oracle.IDENTITY_VARIANT.items())
ACE_CFG = (
    "multi_token_triggers = false\ninclude_time = false\ninclude_value = false\n"
    "entity_mention_mode = head\n"
)
STORE_CFG = "include_pronoun = false\n"

# CLI arguments (after `eescore`) of each workload's jobs; {store} and
# {producer} are filled in per job. Paths are relative to the workload dir.
SCORE_ARGS = {
    "maven_gold": [
        "score", "--corpus", "corpus.jsonl", "--variant", "variant.cfg",
        "--ed-predictions", "ed.jsonl", "--ed-paradigm", "SL",
        "--eae-predictions", "eae.jsonl", "--eae-paradigm", "SP",
        "--jobs", "1", "--output", "report.json",
    ],
    "ace_pipeline": [
        "score", "--corpus", "corpus.jsonl", "--variant", "variant.cfg",
        "--trigger-policy", "every_span_up_to_k", "--k", "3",
        "--ed-predictions", "ed.jsonl", "--ed-paradigm", "CLS",
        "--eae-predictions", "eae.jsonl", "--eae-paradigm", "CG",
        "--mode", "pipeline", "--convention", "legacy", "--eae_match", "by_trigger_span",
        "--dump-discards", "discards.jsonl", "--jobs", "2", "--output", "report.json",
    ],
    "store_sweep": [
        "score", "--corpus", "corpus.jsonl", "--variant", "variant.cfg",
        "--eae-predictions", "eae.jsonl", "--eae-paradigm", "SL",
        "--mode", "pipeline", "--store", "{store}", "--producer", "{producer}",
        "--output", "report.json",
    ],
}
PUT_ARGS = {
    "maven_gold": ["--paradigm", "SL"],
    "ace_pipeline": ["--paradigm", "CLS", "--trigger-policy", "every_span_up_to_k", "--k", "3"],
    "store_sweep": ["--paradigm", "SP"],
}
WORKLOADS = tuple(SCORE_ARGS)


def put_args(workload: str) -> list[str]:
    return [
        "trigger-store", "put", "--store", "{store}", "--corpus", "corpus.jsonl",
        "--variant", "variant.cfg", "--predictions", "ed.jsonl", *PUT_ARGS[workload],
        "--producer", "{producer}",
    ]


# ---------------------------------------------------------------------------
# corpus


def zipf_weights(n: int, s: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (r + 1) ** s for r in range(n)))


def deal(rng: random.Random, n: int, shares: dict) -> list[str]:
    """n outcomes in exact proportions (the first outcome takes the rest), shuffled."""
    out = []
    for name, share in list(shares.items())[1:]:
        out += [name] * int(n * share)
    out += [next(iter(shares))] * (n - len(out))
    rng.shuffle(out)
    return out


class LabelDraw:
    def __init__(self, prefix: str, n: int, s: float = 0.8):
        self.labels = [f"{prefix}{i:03d}" for i in range(n)]
        self.cum = zipf_weights(n, s)

    def __call__(self, rng: random.Random, exclude: str | None = None) -> str:
        while True:
            label = rng.choices(self.labels, cum_weights=self.cum)[0]
            if label != exclude:
                return label


def make_document(rng, shape: Shape, index: int, words, word_cum, types, roles) -> dict:
    n = shape.tokens - 40 + (index * 37) % 81
    tokens = rng.choices(words, cum_weights=word_cum, k=n)
    sentences, cut = [], 0
    while cut < n:
        end = min(n, cut + rng.randint(12, 36))
        if n - end < 6:
            end = n
        sentences.append([cut, end])
        cut = end
    sentence_of = [i for i, (lo, hi) in enumerate(sentences) for _ in range(lo, hi)]
    free = [True] * n

    def place(width: int):
        for _ in range(200):
            start = rng.randrange(n - width + 1)
            end = start + width
            if sentence_of[start] == sentence_of[end - 1] and all(free[start:end]):
                for i in range(start, end):
                    free[i] = False
                return [start, end]
        return None

    triggers = []
    for _ in range(shape.events):
        span = place(2 if rng.random() < shape.multi_token_triggers else 1) or place(1)
        triggers.append(span)
    kind_names = [k for k, _ in shape.kinds]
    kind_weights = [w for _, w in shape.kinds]
    spans = []
    for _ in range(shape.mentions):
        span = place(rng.choices((1, 2, 3, 4), weights=(50, 25, 15, 10))[0]) or place(1)
        if span is not None:
            spans.append(span)
    spans.sort()
    entities = [
        {"id": f"m{j}", "span": sp, "head_span": [sp[1] - 1, sp[1]],
         "kind": rng.choices(kind_names, weights=kind_weights)[0]}
        for j, sp in enumerate(spans)
    ]
    events = []
    for j, trig in enumerate(sorted(triggers)):
        sent = sentence_of[trig[0]]
        near = [m for m in entities if abs(sentence_of[m["span"][0]] - sent) <= 1]
        chosen = rng.sample(near, min(len(near), rng.randint(1, shape.max_args)))
        events.append({
            "id": f"ev{j}", "type": types(rng), "trigger": trig,
            "arguments": [{"entity_id": m["id"], "role": roles(rng)} for m in chosen],
        })
    return {"id": f"d{index:05d}", "tokens": tokens, "sentences": sentences,
            "entities": entities, "events": events}


def make_corpus(rng, shape: Shape) -> tuple[list[dict], LabelDraw, LabelDraw]:
    words = [f"w{i}" for i in range(shape.vocab)]
    word_cum = zipf_weights(shape.vocab, shape.zipf)
    types, roles = LabelDraw("Type", shape.types), LabelDraw("role", shape.roles)
    docs = [make_document(rng, shape, i, words, word_cum, types, roles) for i in range(shape.docs)]
    return docs, types, roles


# ---------------------------------------------------------------------------
# predictions


def confidence(rng) -> float:
    return round(rng.uniform(0.3, 1.0), 3)


def neighbour(span, n: int) -> list[int]:
    """A span one token off the given one: shrunk when possible, else widened."""
    s, e = span
    if e - s > 1:
        return [s, e - 1]
    return [s, e + 1] if e < n else [s - 1, e]


def ed_sl(rng, docs, types) -> list[dict]:
    """One BIO tag record per document, from the gold triggers."""
    tags = {d["id"]: ["O"] * len(d["tokens"]) for d in docs}
    events = [(d, ev) for d in docs for ev in d["events"]]
    outcomes = deal(rng, len(events), {"keep": 0.75, "relabel": 0.08, "miss": 0.10, "wide": 0.07})
    for (doc, ev), outcome in zip(events, outcomes):
        if outcome == "miss":
            continue
        label = types(rng, exclude=ev["type"]) if outcome == "relabel" else ev["type"]
        s, e = ev["trigger"]
        if outcome == "wide":
            s, e = (s, e + 1) if e < len(doc["tokens"]) else (s - 1, e)
        t = tags[doc["id"]]
        t[s] = "B-" + label
        for i in range(s + 1, e):
            t[i] = "I-" + label
    for i, doc in enumerate(docs):
        t = tags[doc["id"]]
        empty = [j for j in range(1, len(t)) if t[j] == "O" and t[j - 1] == "O"]
        spurious, stray = rng.sample(empty, 2)
        t[spurious] = "B-" + types(rng)
        if i % 2:
            t[stray] = "I-" + types(rng)  # a stray I tag opens a span
    return [{"doc_id": d["id"], "task": "trigger", "tags": tags[d["id"]]} for d in docs]


def ed_sp(rng, docs, types) -> list[dict]:
    """Scored trigger spans per document, with duplicates on one token."""
    spans = {d["id"]: [] for d in docs}
    events = [(d, ev) for d in docs for ev in d["events"]]
    outcomes = deal(rng, len(events), {"keep": 0.72, "relabel": 0.07, "miss": 0.08,
                                       "wide": 0.06, "duplicate": 0.07})
    for (doc, ev), outcome in zip(events, outcomes):
        out = spans[doc["id"]]
        if outcome == "miss":
            continue
        if outcome == "wide":
            out.append({"span": neighbour(ev["trigger"], len(doc["tokens"])), "label": ev["type"],
                        "confidence": confidence(rng)})
            continue
        label = types(rng, exclude=ev["type"]) if outcome == "relabel" else ev["type"]
        out.append({"span": ev["trigger"], "label": label, "confidence": confidence(rng)})
        if outcome == "duplicate":
            c = confidence(rng) if rng.random() < 0.5 else out[-1]["confidence"]
            out.insert(rng.randrange(len(out) + 1),
                       {"span": ev["trigger"], "label": types(rng, exclude=ev["type"]), "confidence": c})
    for doc in docs:
        taken = {tuple(ev["trigger"]) for ev in doc["events"]}
        empty = [j for j in range(len(doc["tokens"])) if (j, j + 1) not in taken]
        spurious, nil = rng.sample(empty, 2)
        spans[doc["id"]] += [
            {"span": [spurious, spurious + 1], "label": types(rng), "confidence": confidence(rng)},
            {"span": [nil, nil + 1], "label": NA, "confidence": confidence(rng)},
        ]
    return [{"doc_id": d["id"], "task": "trigger", "spans": spans[d["id"]]} for d in docs]


def ed_cls(rng, docs, variant_docs, types, k: int) -> list[dict]:
    """Scored classification over spans up to k, made against the variant
    data: gold triggers are single tokens there."""
    chosen = {d["id"]: {} for d in docs}
    events = [(raw, ev_raw, ev) for raw, var in zip(docs, variant_docs)
              for ev_raw, ev in zip(raw["events"], var["events"])]
    outcomes = deal(rng, len(events), {"keep": 0.70, "relabel": 0.08, "miss": 0.08,
                                       "nil": 0.05, "long": 0.09})
    for (raw, ev_raw, ev), outcome in zip(events, outcomes):
        s, e = ev["trigger"]
        if outcome == "miss":
            continue
        label = {"relabel": types(rng, exclude=ev["type"]), "nil": NA}.get(outcome, ev["type"])
        if outcome == "long":
            s, e = ev_raw["trigger"]
            if e - s == 1:
                lo, hi = next(sp for sp in raw["sentences"] if sp[0] <= s < sp[1])
                s, e = (s, s + 2) if s + 2 <= hi else (s - 1, e) if s - 1 >= lo else (s, e)
        chosen[raw["id"]][f"t:{s}:{e}"] = label
    for doc in docs:
        picks = chosen[doc["id"]]
        n = len(doc["tokens"])
        free = [j for j in range(n) if f"t:{j}:{j + 1}" not in picks]
        extra = rng.sample(free, 4)
        picks[f"t:{extra[0]}:{extra[0] + 1}"] = types(rng)
        for j in extra[1:]:
            picks[f"t:{j}:{j + 1}"] = NA
        start = rng.randrange(n - k - 1)
        picks[f"t:{start}:{start + k + 1}"] = types(rng)  # longer than k: unknown candidate
    records = []
    for doc in docs:
        assignments = [{"candidate_id": cid, "label": label, "confidence": confidence(rng)}
                       for cid, label in chosen[doc["id"]].items()]
        rng.shuffle(assignments)
        records.append({"doc_id": doc["id"], "task": "trigger", "assignments": assignments})
    return records


def anchors_by_doc(triggers: dict) -> dict:
    return {doc_id: [(list(sp), label) for sp, label in ts] for doc_id, ts in triggers.items()}


def eae_sp(rng, docs, roles) -> list[dict]:
    """Scored spans, one record per gold event (gold-trigger mode)."""
    records, per_event = [], []
    for doc in docs:
        for ev in doc["events"]:
            rec = {"doc_id": doc["id"], "task": "argument",
                   "anchor": {"trigger": ev["trigger"], "event_type": ev["type"]}, "spans": []}
            records.append(rec)
            per_event.append((doc, ev, rec))
    args = [(doc, a, rec) for doc, ev, rec in per_event for a in ev["arguments"]]
    outcomes = deal(rng, len(args), {"keep": 0.70, "relabel": 0.08, "miss": 0.10,
                                     "boundary": 0.07, "duplicate": 0.05})
    for (doc, arg, rec), outcome in zip(args, outcomes):
        span = doc_entity(doc, arg["entity_id"])["span"]
        if outcome == "miss":
            continue
        if outcome == "boundary":
            span = neighbour(span, len(doc["tokens"]))
        role = roles(rng, exclude=arg["role"]) if outcome == "relabel" else arg["role"]
        rec["spans"].append({"span": span, "label": role, "confidence": confidence(rng)})
        if outcome == "duplicate":
            c = confidence(rng) if rng.random() < 0.5 else rec["spans"][-1]["confidence"]
            rec["spans"].append({"span": span, "label": roles(rng, exclude=arg["role"]), "confidence": c})
    for doc, ev, rec in per_event:
        used = {a["entity_id"] for a in ev["arguments"]}
        others = [m for m in doc["entities"] if m["id"] not in used]
        spurious, nil = rng.sample(others, 2)
        rec["spans"].append({"span": spurious["span"], "label": roles(rng), "confidence": confidence(rng)})
        rec["spans"].append({"span": nil["span"], "label": NA, "confidence": confidence(rng)})
        rng.shuffle(rec["spans"])
    return records


def doc_entity(doc: dict, entity_id: str) -> dict:
    return next(m for m in doc["entities"] if m["id"] == entity_id)


def gold_event(doc: dict, span, label: str):
    return next((ev for ev in doc["events"] if ev["trigger"] == list(span) and ev["type"] == label), None)


def eae_cg(rng, docs, variant_docs, anchors, roles) -> list[dict]:
    """Generated mentions, one record per predicted trigger, made against
    the variant data (head words, no time or value mentions)."""
    records, args = [], []
    for raw, doc in zip(docs, variant_docs):
        for span, label in anchors.get(doc["id"], ()):
            rec = {"doc_id": doc["id"], "task": "argument",
                   "anchor": {"trigger": span, "event_type": label}, "items": []}
            records.append(rec)
            ev = gold_event(doc, span, label)
            if ev is None:  # a wrong trigger: the model still answers
                for m in rng.sample(doc["entities"], rng.randint(1, 2)):
                    rec["items"].append((m["span"][0], mention(doc, m["span"]), roles(rng)))
                continue
            for a in ev["arguments"]:
                args.append((raw, doc, a, rec))
            dropped = [m for m in raw["entities"] if m["kind"] in ("time", "value")]
            if dropped and rng.random() < 0.2:
                m = rng.choice(dropped)
                rec["items"].append((m["span"][0], mention(raw, m["span"]), roles(rng)))
    outcomes = deal(rng, len(args), {"keep": 0.68, "relabel": 0.08, "miss": 0.10,
                                     "full": 0.07, "invent": 0.07})
    for (raw, doc, arg, rec), outcome in zip(args, outcomes):
        span = doc_entity(doc, arg["entity_id"])["span"]
        role = roles(rng, exclude=arg["role"]) if outcome == "relabel" else arg["role"]
        if outcome == "miss":
            continue
        if outcome == "full":
            words = mention(raw, doc_entity(raw, arg["entity_id"])["span"])
        elif outcome == "invent":
            words = [f"x{rng.randrange(10**6)}"]
        else:
            words = mention(doc, span)
        rec["items"].append((span[0], words, role))
    for rec in records:
        rec["items"] = [{"mention": words, "label": role} for _, words, role in sorted(rec["items"], key=lambda t: t[0])]
    return records


def mention(doc: dict, span) -> list[str]:
    return doc["tokens"][span[0] : span[1]]


def eae_sl(rng, docs, variant_docs, anchors, roles) -> list[dict]:
    """BIO tags, one record per predicted trigger (pipeline over a store entry)."""
    records, args = [], []
    for raw, doc in zip(docs, variant_docs):
        n = len(doc["tokens"])
        for span, label in anchors.get(doc["id"], ()):
            rec = {"doc_id": doc["id"], "task": "argument",
                   "anchor": {"trigger": span, "event_type": label}, "tags": ["O"] * n}
            records.append(rec)
            ev = gold_event(doc, span, label)
            if ev is None:
                tag_span(rec["tags"], rng.choice(doc["entities"])["span"], roles(rng))
                continue
            for a in ev["arguments"]:
                args.append((doc, a, rec))
            pronouns = [m for m in raw["entities"] if m["kind"] == "pronoun"]
            if pronouns and rng.random() < 0.2:
                tag_span(rec["tags"], rng.choice(pronouns)["span"], roles(rng))
    outcomes = deal(rng, len(args), {"keep": 0.72, "relabel": 0.08, "miss": 0.10, "boundary": 0.10})
    for (doc, arg, rec), outcome in zip(args, outcomes):
        if outcome == "miss":
            continue
        span = doc_entity(doc, arg["entity_id"])["span"]
        if outcome == "boundary":
            span = neighbour(span, len(doc["tokens"]))
        tag_span(rec["tags"], span, roles(rng, exclude=arg["role"]) if outcome == "relabel" else arg["role"])
    for i, rec in enumerate(records):
        t = rec["tags"]
        if i % 3 == 0:
            empty = [j for j in range(1, len(t)) if t[j] == "O" and t[j - 1] == "O"]
            t[rng.choice(empty)] = "I-" + roles(rng)
    return records


def tag_span(tags: list, span, label: str) -> None:
    tags[span[0]] = "B-" + label
    for i in range(span[0] + 1, span[1]):
        tags[i] = "I-" + label


# ---------------------------------------------------------------------------
# expected values


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def trigger_file(triggers: dict) -> bytes:
    """The trigger file a store entry holds: documents in id order, triggers
    in candidate order, no confidences."""
    lines = [
        canonical({"doc_id": doc_id, "triggers": [{"span": list(sp), "event_type": label}
                                                  for sp, label in triggers[doc_id]]})
        for doc_id in sorted(triggers)
    ]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def reasons(counter: Counter) -> dict:
    return {r: counter.get(r, 0) for r in oracle.REASONS}


def generate(workload: str, seed: int) -> dict[str, bytes]:
    """Returns file name -> bytes for one workload."""
    rng = random.Random(f"eescore-bench:{workload}:{seed}")
    shape = {"maven_gold": MAVEN, "ace_pipeline": ACE, "store_sweep": ACE_SMALL}[workload]
    cfg_text = {"maven_gold": IDENTITY_CFG, "ace_pipeline": ACE_CFG, "store_sweep": STORE_CFG}[workload]
    k = 3 if workload == "ace_pipeline" else None
    docs, types, roles = make_corpus(rng, shape)
    cfg = oracle.parse_variant(cfg_text)
    applied = [oracle.apply_variant(d, cfg) for d in docs]
    variant_docs = [a[0] for a in applied]
    by_id = {d["id"]: d for d in variant_docs}

    if workload == "maven_gold":
        ed = ed_sl(rng, docs, types)
    elif workload == "ace_pipeline":
        ed = ed_cls(rng, docs, variant_docs, types, k)
    else:
        ed = ed_sp(rng, docs, types)
    ed_counts, ed_discards, triggers = oracle.score_ed(by_id, ed, k)

    if workload == "maven_gold":
        eae = eae_sp(rng, docs, roles)
        context, legacy, by_trigger = oracle.gold_context(by_id), False, False
    elif workload == "ace_pipeline":
        eae = eae_cg(rng, docs, variant_docs, anchors_by_doc(triggers), roles)
        context, legacy, by_trigger = oracle.predicted_context(triggers), True, True
    else:
        eae = eae_sl(rng, docs, variant_docs, anchors_by_doc(triggers), roles)
        context, legacy, by_trigger = oracle.predicted_context(triggers), False, False
    eae_counts, eae_discards = oracle.score_eae(by_id, eae, context, k, legacy, by_trigger)

    files = {
        "corpus.jsonl": jsonl(docs),
        "variant.cfg": cfg_text.encode("utf-8"),
        "ed.jsonl": jsonl(ed),
        "eae.jsonl": jsonl(eae),
    }
    scores_ed = workload != "store_sweep"
    expected = {
        "workload": workload,
        "seed": seed,
        "score_args": SCORE_ARGS[workload],
        "put_args": put_args(workload),
        "docs": len(docs),
        "variant": {"removed_arguments": sum(a[1] for a in applied),
                    "reduced_triggers": sum(a[2] for a in applied)},
        "ed": ed_counts if scores_ed else None,
        "eae": eae_counts,
        "discards": {"ed": reasons(ed_discards) if scores_ed else reasons(Counter()),
                     "eae": reasons(eae_discards)},
        "put": {"ed": ed_counts, "discards": reasons(ed_discards),
                "triggers_sha256": hashlib.sha256(trigger_file(triggers)).hexdigest()},
    }
    files["expected.json"] = (json.dumps(expected, indent=1, sort_keys=True) + "\n").encode("utf-8")
    return files


def jsonl(objs) -> bytes:
    return "".join(canonical(o) + "\n" for o in objs).encode("utf-8")


def write(workload: str, seed: int, out: Path) -> None:
    target = out / workload
    target.mkdir(parents=True, exist_ok=True)
    for name, data in generate(workload, seed).items():
        (target / name).write_bytes(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all of them")
    args = parser.parse_args(argv)
    for workload in [args.workload] if args.workload else WORKLOADS:
        write(workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
