"""Independent reference implementations used as test oracles.

These deliberately take a different route than the package code: the
matcher enumerates prediction-to-gold pairings instead of counting
multisets, and the BIO decoder normalizes tags in a first pass before
grouping runs in a second. They must never import the implementations
they check beyond the shared data types.
"""

from collections import Counter

from eescore.core import Span


def max_matching(pred_keys, gold_keys) -> int:
    """Largest number of prediction-gold pairs with equal keys, each gold
    consumed at most once, found by exhaustive search with pruning."""
    golds = list(gold_keys)
    used = [False] * len(golds)
    best = 0

    def rec(i: int, matched: int) -> None:
        nonlocal best
        if matched > best:
            best = matched
        if i == len(pred_keys) or matched + (len(pred_keys) - i) <= best:
            return
        rec(i + 1, matched)  # leave prediction i unmatched
        for j, g in enumerate(golds):
            if not used[j] and g == pred_keys[i]:
                used[j] = True
                rec(i + 1, matched + 1)
                used[j] = False

    rec(0, 0)
    return best


def brute_force_counts(pred_keys, gold_keys) -> tuple[int, int, int]:
    """(tp, fp, fn) by exhaustive pairing."""
    tp = max_matching(list(pred_keys), list(gold_keys))
    return tp, len(pred_keys) - tp, len(gold_keys) - tp


def brute_force_by_doc(pred_keys, gold_keys) -> tuple[int, int, int]:
    """Same, but partitioned per document (keys start with the doc id);
    matches never cross documents, so this is exact and keeps the
    enumeration small."""
    docs = {k[0] for k in pred_keys} | {k[0] for k in gold_keys}
    tp = fp = fn = 0
    for doc in sorted(docs):
        p = [k for k in pred_keys if k[0] == doc]
        g = [k for k in gold_keys if k[0] == doc]
        dtp, dfp, dfn = brute_force_counts(p, g)
        tp, fp, fn = tp + dtp, fp + dfp, fn + dfn
    return tp, fp, fn


def reference_bio_decode(tags) -> list[tuple[Span, str]]:
    """Two-pass decoder: rewrite stray I tags as B, then group maximal runs."""
    normalized: list[tuple[str, str | None]] = []
    prev_label = None
    for tag in tags:
        if tag == "O":
            normalized.append(("O", None))
            prev_label = None
            continue
        prefix, label = tag.split("-", 1)
        if prefix == "I" and prev_label == label:
            normalized.append(("I", label))
        else:
            normalized.append(("B", label))
        prev_label = label

    spans: list[tuple[Span, str]] = []
    i = 0
    while i < len(normalized):
        prefix, label = normalized[i]
        if prefix != "B":
            i += 1
            continue
        j = i + 1
        while j < len(normalized) and normalized[j] == ("I", label):
            j += 1
        spans.append((Span(i, j), label))
        i = j
    return spans


def per_label_by_rescan(pred_keys, gold_keys, label_of) -> tuple[tuple[int, int, int], dict]:
    """Multiset matching counted label by label, rescanning every key for
    each label: (tp, fp, fn) overall and {label: (tp, fp, fn)}."""
    pred = Counter(pred_keys)
    gold = Counter(gold_keys)
    tp = pred & gold
    total = (
        sum(tp.values()),
        sum(pred.values()) - sum(tp.values()),
        sum(gold.values()) - sum(tp.values()),
    )
    per_label = {}
    for label in sorted({label_of(k) for k in pred} | {label_of(k) for k in gold}):
        ltp = sum(c for k, c in tp.items() if label_of(k) == label)
        lfp = sum(c for k, c in pred.items() if label_of(k) == label) - ltp
        lfn = sum(c for k, c in gold.items() if label_of(k) == label) - ltp
        per_label[label] = (ltp, lfp, lfn)
    return total, per_label


def occurrences_by_window_scan(tokens, mention) -> list[Span]:
    """Every span whose tokens equal the mention, by sliding a window of
    its width over the whole document, left to right."""
    width = len(mention)
    return [
        Span(s, s + width) for s in range(len(tokens) - width + 1) if tuple(tokens[s : s + width]) == mention
    ]
