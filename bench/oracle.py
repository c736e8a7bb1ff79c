"""Expected scores for the benchmark's generated inputs, computed without eescore.

This is a second, deliberately small reading of the scoring rules in the
project README, over plain JSON dicts: apply the preprocessing variant,
project each prediction record onto its candidate set (strict span
equality, occurrence-order placement of generated mentions, duplicate
resolution), then count micro tp/fp/fn with multiset matching. The
generator runs it on the inputs it writes; every benchmark job's report
is checked against the result. It must never import eescore.
"""

from __future__ import annotations

from collections import Counter

NA = "NA"

OVERLAP = "overlap_mismatch"
DUP_CONFIDENCE = "duplicate_lower_confidence"
DUP_ARRIVAL = "duplicate_later_arrival"
UNPLACEABLE = "unplaceable_mention"
UNKNOWN = "unknown_candidate"
REASONS = (OVERLAP, DUP_CONFIDENCE, DUP_ARRIVAL, UNPLACEABLE, UNKNOWN)

IDENTITY_VARIANT = {
    "multi_token_triggers": True,
    "include_time": True,
    "include_value": True,
    "include_pronoun": True,
    "entity_mention_mode": "full",
    "multi_token_policy": "first_token",
}
_KIND_FLAG = {"time": "include_time", "value": "include_value", "pronoun": "include_pronoun"}


def parse_variant(text: str) -> dict:
    """The flat `key = value` config format; missing keys keep the identity."""
    cfg = dict(IDENTITY_VARIANT)
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        cfg[key] = value == "true" if isinstance(IDENTITY_VARIANT[key], bool) else value
    return cfg


def apply_variant(doc: dict, cfg: dict) -> tuple[dict, int, int]:
    """Returns (variant document, removed arguments, reduced triggers)."""
    removed = {m["id"] for m in doc["entities"] if not cfg.get(_KIND_FLAG.get(m["kind"]), True)}
    entities = []
    for m in doc["entities"]:
        if m["id"] in removed:
            continue
        if cfg["entity_mention_mode"] == "head":
            m = dict(m, span=m["head_span"])
        entities.append(m)
    events = []
    removed_args = reduced = 0
    for ev in doc["events"]:
        start, end = ev["trigger"]
        if not cfg["multi_token_triggers"] and end - start > 1:
            reduced += 1
            if cfg["multi_token_policy"] == "drop_event":
                removed_args += len(ev["arguments"])
                continue
            end = start + 1
        args = [a for a in ev["arguments"] if a["entity_id"] not in removed]
        removed_args += len(ev["arguments"]) - len(args)
        events.append(dict(ev, trigger=[start, end], arguments=args))
    return dict(doc, entities=entities, events=events), removed_args, reduced


def trigger_candidates(doc: dict, k: int | None) -> dict:
    """(start, end) -> candidate id; every token, or spans up to k inside sentences."""
    if k is None:
        spans = [(i, i + 1) for i in range(len(doc["tokens"]))]
    else:
        spans = [
            (s, e)
            for lo, hi in doc["sentences"]
            for s in range(lo, hi)
            for e in range(s + 1, min(s + k, hi) + 1)
        ]
    return {sp: f"t:{sp[0]}:{sp[1]}" for sp in spans}


def argument_candidates(doc: dict) -> dict:
    """(start, end) -> the first mention id in (start, end, id) order."""
    table: dict = {}
    for m in sorted(doc["entities"], key=lambda m: (m["span"][0], m["span"][1], m["id"])):
        table.setdefault(tuple(m["span"]), m["id"])
    return table


def decode_bio(tags) -> list[tuple[tuple[int, int], str]]:
    """Stray I tags open a span (the default `open_span` decoding)."""
    spans = []
    start, label = None, None
    for i, tag in enumerate(tags + ["O"]):
        if tag != "O":
            prefix, tag_label = tag.split("-", 1)
            if prefix == "I" and tag_label == label:
                continue
        if start is not None:
            spans.append(((start, i), label))
        start, label = (None, None) if tag == "O" else (i, tag_label)
    return spans


def place_generated(items, tokens) -> list:
    """Span per item, or None: the k-th copy of a mention takes its k-th occurrence."""
    used: Counter = Counter()
    occurrences: dict = {}
    out = []
    for item in items:
        mention = tuple(item["mention"])
        width = len(mention)
        if mention not in occurrences:
            occurrences[mention] = [
                s for s in range(len(tokens) - width + 1) if tuple(tokens[s : s + width]) == mention
            ]
        starts, k = occurrences[mention], used[mention]
        used[mention] += 1
        out.append((starts[k], starts[k] + width) if k < len(starts) else None)
    return out


def standardize(record: dict, doc: dict, k: int | None) -> tuple[list, Counter]:
    """Projects one record: returns ([(span, label)] winners, discards by reason)."""
    task = record["task"]
    by_span = trigger_candidates(doc, k) if task == "trigger" else argument_candidates(doc)
    discards: Counter = Counter()
    matched = []  # (candidate id, span, label, confidence, arrival index)
    if "assignments" in record:
        span_of = {cid: sp for sp, cid in by_span.items()}
        if task == "argument":
            span_of = {m["id"]: tuple(m["span"]) for m in doc["entities"]}
        for idx, a in enumerate(record["assignments"]):
            if a["candidate_id"] not in span_of:
                discards[UNKNOWN] += 1
                continue
            matched.append((a["candidate_id"], span_of[a["candidate_id"]], a["label"], a.get("confidence"), idx))
    else:
        if "tags" in record:
            proposals = [(sp, label, None) for sp, label in decode_bio(list(record["tags"]))]
        elif "spans" in record:
            proposals = [(tuple(s["span"]), s["label"], s.get("confidence")) for s in record["spans"]]
        else:
            proposals = []
            for item, sp in zip(record["items"], place_generated(record["items"], doc["tokens"])):
                if sp is None:
                    discards[UNPLACEABLE] += 1
                else:
                    proposals.append((sp, item["label"], item.get("confidence")))
        for idx, (sp, label, conf) in enumerate(proposals):
            if sp not in by_span:
                discards[OVERLAP] += 1
                continue
            matched.append((by_span[sp], sp, label, conf, idx))

    groups: dict = {}
    for m in matched:
        groups.setdefault(m[0], []).append(m)
    winners = []
    for group in groups.values():
        if group[0][3] is None:
            best = group[0]
        else:
            best = max(group, key=lambda m: (m[3], -m[4]))
        winners.append((best[1], best[0], best[2]))
        for m in group:
            if m is not best:
                scored_lower = m[3] is not None and m[3] < best[3]
                discards[DUP_CONFIDENCE if scored_lower else DUP_ARRIVAL] += 1
    winners.sort(key=lambda w: (w[0], w[1]))
    return [(sp, label) for sp, _, label in winners], discards


def _counts(pred_keys, gold_keys) -> dict:
    pred, gold = Counter(pred_keys), Counter(gold_keys)
    tp = sum((pred & gold).values())
    return {"tp": tp, "fp": sum(pred.values()) - tp, "fn": sum(gold.values()) - tp}


def score_ed(docs: dict, records: list, k: int | None) -> tuple[dict, Counter, dict]:
    """ED counts, discards, and the surviving triggers per document
    ({doc_id: [(span, label)]}, in the order the store serializes them)."""
    discards: Counter = Counter()
    triggers: dict = {}
    for rec in records:
        winners, d = standardize(rec, docs[rec["doc_id"]], k)
        discards.update(d)
        kept = [(sp, label) for sp, label in winners if label != NA]
        if kept:
            triggers.setdefault(rec["doc_id"], []).extend(kept)
    pred = [(doc_id, sp, label) for doc_id, ts in triggers.items() for sp, label in ts]
    gold = [(d["id"], tuple(ev["trigger"]), ev["type"]) for d in docs.values() for ev in d["events"]]
    return _counts(pred, gold), discards, triggers


def score_eae(
    docs: dict, records: list, context: dict, k: int | None, legacy: bool, by_trigger: bool
) -> tuple[dict, Counter]:
    """EAE counts and discards. `context` maps doc id to the (span, type)
    pairs the records may be anchored to; a record outside it is an error."""
    discards: Counter = Counter()
    pred = []
    for rec in records:
        trigger, etype = tuple(rec["anchor"]["trigger"]), rec["anchor"]["event_type"]
        if (trigger, etype) not in context.get(rec["doc_id"], ()):
            raise ValueError(f"record for {rec['doc_id']} anchored outside the trigger context")
        winners, d = standardize(rec, docs[rec["doc_id"]], k)
        discards.update(d)
        for sp, label in winners:
            if label != NA:
                pred.append((rec["doc_id"], trigger if by_trigger else None, etype, sp, label))
    gold = []
    for doc in docs.values():
        spans = {m["id"]: tuple(m["span"]) for m in doc["entities"]}
        for ev in doc["events"]:
            trigger = tuple(ev["trigger"])
            if legacy and (trigger, ev["type"]) not in context.get(doc["id"], ()):
                continue
            for a in ev["arguments"]:
                gold.append((doc["id"], trigger if by_trigger else None, ev["type"], spans[a["entity_id"]], a["role"]))
    return _counts(pred, gold), discards


def gold_context(docs: dict) -> dict:
    return {d["id"]: {(tuple(ev["trigger"]), ev["type"]) for ev in d["events"]} for d in docs.values()}


def predicted_context(triggers: dict) -> dict:
    return {doc_id: set(ts) for doc_id, ts in triggers.items()}
