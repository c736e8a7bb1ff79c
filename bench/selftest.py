"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

1. The generator is deterministic: the same seed gives the same sha256
   for every file, another seed gives different data files.
2. The expected-count oracle agrees with counts worked out by hand on a
   one-document corpus (see CASES).
3. On that corpus, `traced.py` composes the same results as the CLI:
   same report sections, same discard ledger, same stored trigger file.
4. `run.py` prints exactly the metrics BENCHMARK.json declares.

Exits non-zero on the first failure. Temporary files go under `.bench/`.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import gen
import oracle
from run import END_TO_END, PER_LAYER, ROOT, SRC, WORK, strip_config

DOC = {
    "id": "a",
    "tokens": ["Ann", "met", "Bob", "in", "Paris", "on", "Monday", ".", "Bob", "walked", "out", "."],
    "sentences": [[0, 8], [8, 12]],
    "entities": [
        {"id": "m1", "span": [0, 1], "head_span": [0, 1], "kind": "entity"},
        {"id": "m2", "span": [2, 3], "head_span": [2, 3], "kind": "entity"},
        {"id": "m3", "span": [3, 5], "head_span": [4, 5], "kind": "entity"},
        {"id": "m4", "span": [6, 7], "head_span": [6, 7], "kind": "time"},
        {"id": "m5", "span": [8, 9], "head_span": [8, 9], "kind": "entity"},
    ],
    "events": [
        {"id": "e1", "type": "Meet", "trigger": [1, 2], "arguments": [
            {"entity_id": "m1", "role": "Entity"}, {"entity_id": "m2", "role": "Entity"},
            {"entity_id": "m3", "role": "Place"}, {"entity_id": "m4", "role": "Time"}]},
        {"id": "e2", "type": "Leave", "trigger": [9, 11], "arguments": [
            {"entity_id": "m5", "role": "Person"}]},
    ],
}
MEET = {"trigger": [1, 2], "event_type": "Meet"}


def span(s, e, label, c):
    return {"span": [s, e], "label": label, "confidence": c}


def item(word, label):
    return {"mention": [word], "label": label}


# Gold-trigger scoring, identity variant, every-token triggers.
#   ED: the stray I-Leave at 8 opens [8, 10], which is no candidate
#   (overlap); Meet is found, Leave [9, 11] is missed: tp 1, fn 1.
#   EAE: Meet gets m1 and m2 right (m2's Place at 0.5 loses to Entity at
#   0.8), Paris [4, 5] is no mention span in full mode (overlap), Monday's
#   Time wins over the equally confident, later Place; Leave gets m5 with a
#   wrong role and an NA on m1. tp 3 (m1, m2, m4), fp 1 (m5 Agent), fn 2
#   (m3 Place, m5 Person).
GOLD_CASE = {
    "cfg": "",
    "args": ["--ed-paradigm", "SL", "--eae-paradigm", "SP"],
    "ed": [{"doc_id": "a", "task": "trigger",
            "tags": ["O", "B-Meet", "O", "O", "O", "O", "O", "O", "I-Leave", "I-Leave", "O", "O"]}],
    "eae": [
        {"doc_id": "a", "task": "argument", "anchor": MEET, "spans": [
            span(0, 1, "Entity", 0.9), span(2, 3, "Place", 0.5), span(2, 3, "Entity", 0.8),
            span(4, 5, "Place", 0.7), span(6, 7, "Time", 0.6), span(6, 7, "Place", 0.6)]},
        {"doc_id": "a", "task": "argument", "anchor": {"trigger": [9, 11], "event_type": "Leave"},
         "spans": [span(8, 9, "Agent", 0.4), span(0, 1, "NA", 0.2)]},
    ],
    "expect": {
        "ed": {"tp": 1, "fp": 0, "fn": 1},
        "eae": {"tp": 3, "fp": 1, "fn": 2},
        "discards": {"ed": {"overlap_mismatch": 1},
                     "eae": {"overlap_mismatch": 1, "duplicate_lower_confidence": 1,
                             "duplicate_later_arrival": 1}},
    },
}

# Pipeline scoring, head mentions, no time mentions, multi-token triggers
# cut to their first token, spans up to k = 2, legacy, by trigger span.
#   ED: t:0:3 is longer than k (unknown candidate), t:3:4 is NA; Meet is
#   right, Leave on [9, 11] is wrong against the cut gold [9, 10]: tp 1,
#   fp 1, fn 1.
#   EAE: Bob occurs at 2 and 8. In the Meet record the first Bob lands on
#   m2 (right), the second on m5 (fp), the third has no occurrence left
#   (unplaceable), Paris is m3's head (right), Monday was removed with the
#   time mentions (overlap), Zed does not occur (unplaceable). The Leave
#   record's Bob is its first, so it lands on m2 (fp). Legacy drops Leave's
#   gold arguments (its trigger was not predicted); Meet's Time argument
#   went with the variant. tp 2, fp 2, fn 1 (m1).
PIPELINE_CASE = {
    "cfg": "multi_token_triggers = false\ninclude_time = false\nentity_mention_mode = head\n",
    "args": ["--ed-paradigm", "CLS", "--eae-paradigm", "CG", "--trigger-policy", "every_span_up_to_k",
             "--k", "2", "--mode", "pipeline", "--convention", "legacy",
             "--eae_match", "by_trigger_span"],
    "ed": [{"doc_id": "a", "task": "trigger", "assignments": [
        {"candidate_id": "t:1:2", "label": "Meet", "confidence": 0.9},
        {"candidate_id": "t:9:11", "label": "Leave", "confidence": 0.8},
        {"candidate_id": "t:0:3", "label": "Meet", "confidence": 0.5},
        {"candidate_id": "t:3:4", "label": "NA", "confidence": 0.3}]}],
    "eae": [
        {"doc_id": "a", "task": "argument", "anchor": MEET, "items": [
            item("Bob", "Entity"), item("Bob", "Entity"), item("Paris", "Place"), item("Bob", "Entity"),
            item("Monday", "Time"), item("Zed", "Entity")]},
        {"doc_id": "a", "task": "argument", "anchor": {"trigger": [9, 11], "event_type": "Leave"},
         "items": [item("Bob", "Person")]},
    ],
    "expect": {
        "ed": {"tp": 1, "fp": 1, "fn": 1},
        "eae": {"tp": 2, "fp": 2, "fn": 1},
        "discards": {"ed": {"unknown_candidate": 1},
                     "eae": {"unplaceable_mention": 2, "overlap_mismatch": 1}},
    },
}
CASES = {"gold": GOLD_CASE, "pipeline": PIPELINE_CASE}


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def flag(args: list[str], name: str):
    return args[args.index(name) + 1] if name in args else None


def oracle_scores(case: dict) -> dict:
    args = case["args"]
    cfg = oracle.parse_variant(case["cfg"])
    doc, _, _ = oracle.apply_variant(DOC, cfg)
    docs = {"a": doc}
    k = int(flag(args, "--k")) if "--k" in args else None
    ed, ed_discards, triggers = oracle.score_ed(docs, case["ed"], k)
    pipeline = flag(args, "--mode") == "pipeline"
    context = oracle.predicted_context(triggers) if pipeline else oracle.gold_context(docs)
    eae, eae_discards = oracle.score_eae(
        docs, case["eae"], context, k, flag(args, "--convention") == "legacy",
        flag(args, "--eae_match") == "by_trigger_span",
    )
    return {"ed": ed, "eae": eae,
            "discards": {"ed": dict(+ed_discards), "eae": dict(+eae_discards)}}


def test_generator_determinism(work: Path) -> None:
    def digests(seed: int) -> dict:
        return {(w, name): hashlib.sha256(data).hexdigest()
                for w in gen.WORKLOADS for name, data in gen.generate(w, seed).items()}

    first, other = digests(3), digests(4)
    # again in another process, whose string hashes are salted differently
    run([sys.executable, str(Path(gen.__file__).resolve()), "--seed", "3", "--out", str(work / "gen")], ROOT)
    again = {(p.parent.name, p.name): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in (work / "gen").glob("*/*")}
    check(first == again, "the same seed gave different files")
    for (workload, name), digest in first.items():
        if name != "variant.cfg":  # fixed per workload
            check(other[(workload, name)] != digest, f"seeds 3 and 4 gave the same {workload}/{name}")


def test_oracle_by_hand() -> None:
    for name, case in CASES.items():
        got = oracle_scores(case)
        check(got == case["expect"], f"oracle on the {name} case: {got} != {case['expect']}")


def run(argv: list[str], cwd: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
    check(done.returncode == 0, f"{' '.join(argv[1:4])} exited {done.returncode}: {done.stderr[-300:]}")


def test_traced_matches_cli(work: Path) -> None:
    traced = str(Path(__file__).resolve().parent / "traced.py")
    for name, case in CASES.items():
        d = work / name
        d.mkdir(parents=True)
        (d / "corpus.jsonl").write_bytes(gen.jsonl([DOC]))
        (d / "variant.cfg").write_text(case["cfg"], encoding="utf-8")
        (d / "ed.jsonl").write_bytes(gen.jsonl(case["ed"]))
        (d / "eae.jsonl").write_bytes(gen.jsonl(case["eae"]))
        common = ["--corpus", "corpus.jsonl", "--variant", "variant.cfg", *case["args"]]
        files = ["--ed-predictions", "ed.jsonl", "--eae-predictions", "eae.jsonl"]
        run([sys.executable, "-m", "eescore", "score", *common, *files,
             "--dump-discards", "cli.jsonl", "--output", "cli.json"], d)
        run([sys.executable, traced, "trace.json", "--", "score", *common, *files,
             "--dump-discards", "traced.jsonl", "--output", "traced.json"], d)
        check((d / "traced.json").read_bytes() == strip_config((d / "cli.json").read_bytes()),
              f"{name}: traced report differs from the CLI's")
        check((d / "traced.jsonl").read_bytes() == (d / "cli.jsonl").read_bytes(),
              f"{name}: traced discard ledger differs from the CLI's")
        trace = json.loads((d / "trace.json").read_text(encoding="utf-8"))
        got = {"ed": trace["ed"], "eae": trace["eae"], "discards": trace["discards"]}
        check(got == case["expect"], f"{name}: traced scores {got} != {case['expect']}")

        put = ["trigger-store", "put", "--store", "store", "--predictions", "ed.jsonl",
               "--paradigm", flag(case["args"], "--ed-paradigm"), "--corpus", "corpus.jsonl",
               "--variant", "variant.cfg"]
        if "--k" in case["args"]:
            put += ["--trigger-policy", "every_span_up_to_k", "--k", flag(case["args"], "--k")]
        run([sys.executable, "-m", "eescore", *put, "--producer", "cli"], d)
        run([sys.executable, traced, "put.json", "--", *put, "--producer", "traced"], d)
        stored = {p.name.split("__")[1]: p.read_bytes() for p in (d / "store").glob("*.jsonl")}
        check(stored["cli.jsonl"] == stored["traced.jsonl"], f"{name}: traced put stored other triggers")
        check(json.loads((d / "put.json").read_text(encoding="utf-8"))["counts"]["pipeline.manifest_rows"] == 2,
              f"{name}: the store should hold two entries")


def test_declared_metrics() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, printed in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        got = {m["name"]: m["unit"] for m in declared[key]}
        check(got == printed, f"BENCHMARK.json {key} differs from what run.py prints")


def main() -> int:
    work = WORK / "work" / f"selftest-{os.getpid()}"
    try:
        test_generator_determinism(work)
        test_oracle_by_hand()
        test_traced_matches_cli(work)
        test_declared_metrics()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: generator determinism, oracle by hand, traced vs CLI, declared metrics: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
