import argparse
import gc
import importlib
import json
import os
import re
import signal
import subprocess
import sys
import time
import weakref

from dataclasses import asdict
from pathlib import Path

import pytest

from eescore import cli
from eescore.core import Corpus
from eescore.ingest import serialize_corpus
from eescore.jsonio import canonical_line, dump_jsonl, format_report
from eescore.protocol import Protocol, protocol_keys

from corpora import (
    delta_corpus,
    delta_sl_eae_objs,
    resignation_corpus,
)


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(serialize_corpus(resignation_corpus(second_event=True)))
    return path


@pytest.fixture
def delta_paths(tmp_path):
    corpus = tmp_path / "delta.jsonl"
    corpus.write_bytes(serialize_corpus(delta_corpus()))
    preds = tmp_path / "eae_sl.jsonl"
    preds.write_bytes(dump_jsonl(delta_sl_eae_objs()))
    return corpus, preds


def run(args):
    return cli.main([str(a) for a in args])


def test_stats_to_stdout(corpus_path, capsys):
    assert run(["stats", "--corpus", corpus_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["token_count"] == 21
    assert out["trigger_count"] == 2
    assert out["argument_count"] == 6
    assert out["removed_arguments"] == 0


def test_stats_with_variant_file(corpus_path, tmp_path, capsys):
    cfg = tmp_path / "variant.cfg"
    cfg.write_text("include_value = false\n")
    assert run(["stats", "--corpus", corpus_path, "--variant", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    # the value mention (Chief Executive) and its argument disappear
    assert out["argument_count"] == 5
    assert out["argument_candidate_count"] == 3
    assert out["removed_arguments"] == 1


def test_stats_missing_corpus_exits_2(tmp_path):
    assert run(["stats", "--corpus", tmp_path / "absent.jsonl"]) == 2


def test_stats_output_that_cannot_be_replaced_leaves_no_temporary_file(tmp_path, corpus_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert run(["stats", "--corpus", corpus_path, "--output", out]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "out"]


@pytest.mark.parametrize("output, error", [("out", "[Errno 21] Is a directory"),
                                           ("absent/out", "[Errno 2] No such file or directory")])
def test_write_error_names_the_output_not_the_temporary_file(tmp_path, corpus_path, capsys, monkeypatch,
                                                             output, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    assert run(["stats", "--corpus", corpus_path, "--output", output]) == 2
    assert capsys.readouterr().err == f"eescore: error: {error}: '{output}'\n"


def test_stats_invalid_corpus_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(
        dump_jsonl(
            [
                {
                    "id": "d",
                    "tokens": ["a", "b"],
                    "sentences": [[0, 2]],
                    "entities": [],
                    "events": [{"id": "e", "type": "A", "trigger": [1, 1], "arguments": []}],
                }
            ]
        )
    )
    assert run(["stats", "--corpus", bad]) == 2
    assert "start < end" in capsys.readouterr().err


def test_stats_unknown_variant_key_exits_2(corpus_path, tmp_path):
    cfg = tmp_path / "variant.cfg"
    cfg.write_text("tokenizer = spacy\n")
    assert run(["stats", "--corpus", corpus_path, "--variant", cfg]) == 2


def test_stats_variant_not_utf8_exits_2(corpus_path, tmp_path):
    cfg = tmp_path / "variant.cfg"
    cfg.write_bytes(b"include_time = \xff\n")
    proc = subprocess.run(
        [sys.executable, "-m", "eescore", "stats", "--corpus", str(corpus_path), "--variant", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"eescore: error: variant config {cfg}: line 1: not valid UTF-8\n"


def cls_ed_file(tmp_path, corpus_path):
    path = tmp_path / "ed_cls.jsonl"
    path.write_bytes(
        dump_jsonl(
            [
                {
                    "doc_id": "doc-resignation",
                    "task": "trigger",
                    "assignments": [
                        {"candidate_id": "t:8:9", "label": "End-Position"},
                        {"candidate_id": "t:17:18", "label": "Meet"},
                    ],
                }
            ]
        )
    )
    return path


def test_score_cls_standardize_flag_is_a_no_op(tmp_path, corpus_path):
    preds = cls_ed_file(tmp_path, corpus_path)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert run(["score", "--corpus", corpus_path, "--ed-predictions", preds,
                "--ed-paradigm", "CLS", "--output", out_a]) == 0
    assert run(["score", "--corpus", corpus_path, "--ed-predictions", preds,
                "--ed-paradigm", "CLS", "--output", out_b, "--no-standardize"]) == 0
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    assert a["ed"] == b["ed"]
    assert a["ed"]["f1"] == 1.0


def test_score_sl_eae_with_and_without_standardization(delta_paths, tmp_path, capsys):
    corpus, preds = delta_paths
    out_std = tmp_path / "std.json"
    out_raw = tmp_path / "raw.json"
    base = ["score", "--corpus", corpus, "--eae-predictions", preds, "--eae-paradigm", "SL"]
    assert run(base + ["--output", out_std]) == 0
    assert run(base + ["--output", out_raw, "--no-standardize"]) == 0
    std = json.loads(out_std.read_text())["eae"]
    raw = json.loads(out_raw.read_text())["eae"]
    # frozen hand computation over the 20-document fixture:
    # standardized: 30 predictions survive, all correct; 10 golds missed
    assert std["counts"] == {"tp": 30, "fp": 0, "fn": 10}
    assert std["precision"] == 1.0
    assert std["recall"] == 0.75
    assert round(std["f1"], 6) == round(6 / 7, 6)
    # native space: the 15 planted spans stay and count as false positives
    assert raw["counts"] == {"tp": 30, "fp": 15, "fn": 10}
    assert round(raw["precision"], 6) == round(2 / 3, 6)
    assert raw["recall"] == 0.75
    assert round(raw["f1"], 6) == round(12 / 17, 6)

    # the two reports were scored in different output spaces: compare refuses them
    capsys.readouterr()
    assert run(["compare", out_raw, out_std]) == 2
    assert capsys.readouterr().err == (
        "eescore: error: reports were produced under different protocols: standardize is false vs true\n"
    )


def test_compare_prints_signed_deltas(delta_paths, tmp_path, capsys):
    corpus, preds = delta_paths
    # the same tags without the 15 planted R1 spans of documents 10-19
    exact = tmp_path / "eae_exact.jsonl"
    exact.write_bytes(dump_jsonl([
        dict(obj, tags=[t if t.endswith("R2") else "O" for t in obj["tags"]]) if obj["doc_id"] >= "d10" else obj
        for obj in delta_sl_eae_objs()
    ]))
    out_planted, out_exact = tmp_path / "planted.json", tmp_path / "exact.json"
    base = ["score", "--corpus", corpus, "--eae-paradigm", "SL", "--no-standardize"]
    assert run(base + ["--eae-predictions", preds, "--output", out_planted]) == 0
    assert run(base + ["--eae-predictions", exact, "--output", out_exact]) == 0
    assert json.loads(out_exact.read_text())["eae"]["counts"] == {"tp": 30, "fp": 0, "fn": 10}
    # compare reports the delta in percentage points with explicit signs
    capsys.readouterr()
    assert run(["compare", out_planted, out_exact]) == 0
    assert capsys.readouterr().out.splitlines()[1].split() == ["EAE", "+33.3", "+0.0", "+15.1"]


def test_score_pipeline_without_triggers_exits_2(delta_paths, tmp_path, capsys):
    corpus, preds = delta_paths
    code = run(["score", "--corpus", corpus, "--eae-predictions", preds,
                "--eae-paradigm", "SL", "--mode", "pipeline",
                "--output", tmp_path / "r.json"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--ed-predictions" in err and "--triggers" in err


def cls_eae_file(tmp_path):
    path = tmp_path / "eae_cls.jsonl"
    path.write_bytes(
        dump_jsonl([{"doc_id": "doc-resignation", "task": "argument",
                     "anchor": {"trigger": [8, 9], "event_type": "End-Position"},
                     "assignments": [{"candidate_id": "e1", "label": "Person"}]}])
    )
    return path


# argv (with {corpus}, {ed} and {out} filled in) -> the refusal it earns
FLAG_REFUSALS = [
    (["stats", "--corpus", "{corpus}", "--trigger-policy", "every_span_up_to_k"],
     "--k is required with --trigger-policy every_span_up_to_k"),
    (["stats", "--corpus", "{corpus}", "--k", "2"],
     "--k only applies to --trigger-policy every_span_up_to_k"),
    (["score", "--corpus", "{corpus}", "--output", "{out}"],
     "provide --ed-predictions and/or --eae-predictions"),
    (["score", "--corpus", "{corpus}", "--ed-predictions", "{ed}", "--output", "{out}"],
     "--ed-predictions and --ed-paradigm must be given together"),
    (["score", "--corpus", "{corpus}", "--eae-predictions", "{ed}", "--output", "{out}"],
     "--eae-predictions and --eae-paradigm must be given together"),
    (["score", "--corpus", "{corpus}", "--ed-predictions", "{ed}", "--ed-paradigm", "CLS", "--mode", "pipeline",
      "--triggers", "{ed}", "--store", "{out}", "--output", "{out}"],
     "--triggers and --store are mutually exclusive"),
    (["score", "--corpus", "{corpus}", "--ed-predictions", "{ed}", "--ed-paradigm", "CLS", "--triggers", "{ed}",
      "--output", "{out}"],
     "--triggers/--store only apply to --mode pipeline"),
    (["score", "--corpus", "{corpus}", "--eae-predictions", "{ed}", "--eae-paradigm", "CLS", "--mode", "pipeline",
      "--output", "{out}"],
     "pipeline mode requires predicted triggers: provide --ed-predictions, --triggers or --store"),
]


@pytest.mark.parametrize("argv, message", FLAG_REFUSALS, ids=[m for _, m in FLAG_REFUSALS])
def test_flag_refusal_exits_2(tmp_path, corpus_path, capsys, argv, message):
    paths = {"corpus": corpus_path, "ed": cls_ed_file(tmp_path, corpus_path), "out": tmp_path / "r.json"}
    assert run([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"eescore: error: {message}\n")
    assert not (tmp_path / "r.json").exists()


def test_compare_reports_without_a_shared_task_exits_2(tmp_path, corpus_path, capsys):
    ed, eae = tmp_path / "ed.json", tmp_path / "eae.json"
    assert run(["score", "--corpus", corpus_path, "--ed-predictions", cls_ed_file(tmp_path, corpus_path),
                "--ed-paradigm", "CLS", "--output", ed]) == 0
    assert run(["score", "--corpus", corpus_path, "--eae-predictions", cls_eae_file(tmp_path),
                "--eae-paradigm", "CLS", "--output", eae]) == 0
    capsys.readouterr()
    assert run(["compare", ed, eae]) == 2
    assert capsys.readouterr() == ("", "eescore: error: the two reports share no task to compare\n")


def test_multi_token_policy_flag_overrides_the_variant(tmp_path, corpus_path):
    cfg = tmp_path / "variant.cfg"
    cfg.write_text("multi_token_triggers = false\n")
    preds = cls_ed_file(tmp_path, corpus_path)
    reports = {}
    for policy in (None, "first_token", "drop_event"):
        out = tmp_path / f"{policy}.json"
        flag = [] if policy is None else ["--multi_token_policy", policy]
        assert run(["score", "--corpus", corpus_path, "--variant", cfg, *flag, "--ed-predictions", preds,
                    "--ed-paradigm", "CLS", "--output", out]) == 0
        reports[policy] = json.loads(out.read_text())
    first, drop = reports["first_token"], reports["drop_event"]
    assert reports[None] == first  # the variant's own policy is first_token
    assert first["config"]["variant"]["multi_token_policy"] == "first_token"
    assert drop["config"]["variant"]["multi_token_policy"] == "drop_event"
    assert first["fingerprint"] != drop["fingerprint"]


def test_a_multi_token_policy_that_never_applies_leaves_the_report_unchanged(tmp_path, corpus_path, capsys):
    """With multi-token triggers kept, `drop_event` names the default dataset."""
    preds = cls_ed_file(tmp_path, corpus_path)
    reports = []
    for name, text in (("empty", ""), ("drop", "multi_token_policy = drop_event\n")):
        cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.json"
        cfg.write_text(text)
        assert run(["score", "--corpus", corpus_path, "--variant", cfg, "--ed-predictions", preds,
                    "--ed-paradigm", "CLS", "--output", out]) == 0
        reports.append(out)
    assert reports[0].read_bytes() == reports[1].read_bytes()
    capsys.readouterr()
    assert run(["compare", *reports]) == 0
    assert capsys.readouterr().out.count("+0.0") == 3


def test_a_variant_choice_outside_its_table_names_the_line(corpus_path, tmp_path, capsys):
    cfg = tmp_path / "variant.cfg"
    cfg.write_text("entity_mention_mode = Head\n")
    assert run(["stats", "--corpus", corpus_path, "--variant", cfg]) == 2
    expected = f"eescore: error: variant config {cfg}: line 1: unknown entity_mention_mode 'Head'\n"
    assert capsys.readouterr() == ("", expected)


def test_spans_up_to_1_token_are_the_every_token_protocol(tmp_path, corpus_path, capsys):
    """`every_span_up_to_k` with `--k 1` has the candidates of `every_token`:
    both runs write one report, and `compare` reads them as one protocol."""
    preds = tmp_path / "ed_sp.jsonl"
    preds.write_bytes(dump_jsonl([{"doc_id": "doc-resignation", "task": "trigger", "spans": [
        {"span": [8, 9], "label": "End-Position"}, {"span": [16, 18], "label": "Meet"}]}]))
    reports = []
    for policy in ([], ["--trigger-policy", "every_span_up_to_k", "--k", "1"]):
        out = tmp_path / f"{len(policy)}.json"
        assert run(["score", "--corpus", corpus_path, *policy, "--ed-predictions", preds,
                    "--ed-paradigm", "SP", "--output", out]) == 0
        reports.append(out)
    assert reports[0].read_bytes() == reports[1].read_bytes()
    capsys.readouterr()
    assert run(["compare", *reports]) == 0
    assert capsys.readouterr().out.count("+0.0") == 3


def _parsers(parser, path=()):
    """(subcommand path, parser) for the top parser and every subcommand under it."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, (*path, name))


def test_every_parser_renders_its_help(capsys):
    """argparse formats help text only when asked for it, so a bad
    `choices=` or `help=` shows only at `--help`. An option's line names
    each of its spellings and then its argument, so each choice set once."""
    parsers = list(_parsers(cli.build_parser()))
    assert len(parsers) == 9  # the top parser, 5 subcommands and 3 trigger-store subcommands
    for path, parser in parsers:
        assert run([*path, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(" ".join(("usage: eescore", *path)))
        for action in parser._actions:
            if action.choices and action.option_strings:
                choices = "{" + ",".join(action.choices) + "}"
                start = action.option_strings[0] + (", " if action.option_strings[1:] else " ")
                line = next((line for line in out.splitlines() if line.lstrip().startswith(start)), "")
                assert line.strip() == f"{', '.join(action.option_strings)} {choices}"


def test_every_multi_word_flag_takes_both_spellings():
    """`--a-b` and `--a_b` are option strings of one option, so one dest.
    argparse derives `--no-standardize` itself, in one spelling."""
    missing = []
    for path, parser in _parsers(cli.build_parser()):
        for action in parser._actions:
            for option in action.option_strings:
                if not option.startswith("--") or (
                    isinstance(action, argparse.BooleanOptionalAction) and option.startswith("--no-")
                ):
                    continue
                name = option[2:]
                missing += [f"{' '.join(path)} {other}"
                            for other in ("--" + name.replace("_", "-"), "--" + name.replace("-", "_"))
                            if other not in action.option_strings]
    assert missing == []


def test_score_reads_every_flag_in_either_spelling(tmp_path, corpus_path):
    preds = cls_ed_file(tmp_path, corpus_path)
    flags = ["--corpus", corpus_path, "--multi_token_policy", "first_token", "--ed-predictions", preds,
             "--ed-paradigm", "CLS", "--trigger-policy", "every_span_up_to_k", "--k", "2", "--stray_i", "discard",
             "--convention", "legacy", "--eae_match", "by_trigger_span"]
    swapped = ["--" + a[2:].translate(str.maketrans("-_", "_-")) if str(a).startswith("--") else a for a in flags]
    assert "--trigger_policy" in swapped and "--stray-i" in swapped
    outputs = []
    for i, argv in enumerate((flags, swapped)):
        out, ledger = tmp_path / f"{i}.json", tmp_path / f"{i}.jsonl"
        assert run(["score", *argv, "--dump-discards" if i else "--dump_discards", ledger, "--output", out]) == 0
        outputs.append((out.read_bytes(), ledger.read_bytes()))
    assert outputs[0] == outputs[1]


def test_score_anchor_outside_context_exits_1(tmp_path, corpus_path):
    eae = tmp_path / "eae.jsonl"
    eae.write_bytes(
        dump_jsonl(
            [
                {
                    "doc_id": "doc-resignation",
                    "task": "argument",
                    "anchor": {"trigger": [0, 1], "event_type": "Ghost"},
                    "assignments": [{"candidate_id": "e1", "label": "Person"}],
                }
            ]
        )
    )
    code = run(["score", "--corpus", corpus_path, "--eae-predictions", eae,
                "--eae-paradigm", "CLS", "--output", tmp_path / "r.json"])
    assert code == 1


def test_score_finishes_ed_before_it_reads_the_eae_file(tmp_path, corpus_path, monkeypatch):
    """`score` reads, standardizes and scores ED before it reads the EAE
    file. Where a call takes over its arguments (Python 3.11 on), no
    parsed file outlives its standardization: the ED file's records are
    gone before the EAE file is read, and the EAE file's before its items
    are scored."""
    from eescore import pipeline

    events, parsed = [], {}

    class Token:  # a parsed file holds one, so that a weak reference sees the file go
        pass

    def alive() -> list:
        return sorted(task for task, token in parsed.items() if token() is not None)

    def spy(name, task_of):
        fn = getattr(pipeline, name)
        def call(*args, **kwargs):
            events.append((name, task_of(*args), alive()))
            return fn(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, call)

    def load(path, paradigm, corpus, task):
        events.append(("load_predictions", task, alive()))
        predictions = load_predictions(path, paradigm, corpus, task)
        predictions.token = Token()
        parsed[task] = weakref.ref(predictions.token)
        return predictions

    load_predictions = cli.load_predictions
    monkeypatch.setattr(cli, "load_predictions", load)
    spy("standardize_predictions", lambda predictions, *_: predictions.records[0].task)
    spy("score_trigger_items", lambda *_: "trigger")
    spy("score_argument_items", lambda *_: "argument")
    assert run(["score", "--corpus", corpus_path, "--ed-predictions", cls_ed_file(tmp_path, corpus_path),
                "--ed-paradigm", "CLS", "--eae-predictions", cls_eae_file(tmp_path), "--eae-paradigm", "CLS",
                "--output", tmp_path / "r.json"]) == 0
    steps = [(name, task) for name, task, _ in events]
    assert steps == [
        ("load_predictions", "trigger"), ("standardize_predictions", "trigger"), ("score_trigger_items", "trigger"),
        ("load_predictions", "argument"), ("standardize_predictions", "argument"),
        ("score_argument_items", "argument"),
    ]
    if sys.version_info >= (3, 11):
        assert [held for _, _, held in events] == [[], ["trigger"], [], [], ["argument"], []]


def test_a_gold_score_builds_the_gold_context_once_and_only_for_eae(tmp_path, corpus_path, monkeypatch):
    """`evaluate` alone picks the context that EAE is scored under: a gold-mode `score` builds the corpus's
    triggers once when it scores EAE, and never for ED alone."""
    from eescore.core import TriggerContext

    built, from_gold = [], TriggerContext.from_gold
    monkeypatch.setattr(TriggerContext, "from_gold", staticmethod(lambda corpus: built.append(1) or from_gold(corpus)))
    ed = ["--ed-predictions", cls_ed_file(tmp_path, corpus_path), "--ed-paradigm", "CLS"]
    eae = ["--eae-predictions", cls_eae_file(tmp_path), "--eae-paradigm", "CLS"]
    for flags, times in ((ed, 0), (eae, 1), (ed + eae, 1)):
        built.clear()
        assert run(["score", "--corpus", corpus_path, *flags, "--output", tmp_path / "r.json"]) == 0
        assert len(built) == times, flags


@pytest.mark.parametrize("source", ["triggers", "store"])
def test_score_refuses_faults_in_several_inputs_in_one_order(tmp_path, corpus_path, capsys, source):
    """With faults in the ED file, the EAE file, the trigger file or store
    entry and an EAE anchor, `score` names the ED file; once it is mended
    the EAE file, then the trigger source, then the anchor."""
    good_ed, store = cls_ed_file(tmp_path, corpus_path), tmp_path / "store"
    assert run(["trigger-store", "put", "--store", store, "--corpus", corpus_path, "--predictions", good_ed,
                "--paradigm", "CLS", "--producer", "p"]) == 0
    triggers = tmp_path / "t.jsonl"
    if source == "store":
        triggers = store / json.loads((store / "manifest.json").read_text())[0]["file"]
    ed, eae = tmp_path / "ed.jsonl", tmp_path / "eae.jsonl"
    for path in (ed, eae):
        path.write_bytes(dump_jsonl([{"doc_id": "absent", "task": "trigger", "assignments": []}]))
    triggers.write_bytes(dump_jsonl([{"doc_id": "absent", "triggers": []}]))
    argv = ["score", "--corpus", corpus_path, "--ed-predictions", ed, "--ed-paradigm", "CLS",
            "--eae-predictions", eae, "--eae-paradigm", "CLS", "--mode", "pipeline",
            f"--{source}", triggers if source == "triggers" else store, "--output", tmp_path / "r.json"]
    name = "trigger file" if source == "triggers" else "trigger store entry"
    mends = [
        (ed, good_ed.read_bytes()),
        (eae, dump_jsonl([{"doc_id": "doc-resignation", "task": "argument",
                           "anchor": {"trigger": [0, 1], "event_type": "Ghost"}, "assignments": []}])),
        (triggers, dump_jsonl([{"doc_id": "doc-resignation",
                                "triggers": [{"span": [8, 9], "event_type": "End-Position"}]}])),
    ]
    refusals = [f"ED prediction file {ed}: line 1: unknown doc_id 'absent'",
                f"EAE prediction file {eae}: line 1: unknown doc_id 'absent'",
                f"{name} {triggers}: line 1: unknown doc_id 'absent'"]
    for (path, mended), refusal in zip(mends, refusals):
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().err == f"eescore: error: {refusal}\n"
        path.write_bytes(mended)
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith(
        f"eescore: error: EAE prediction file {eae}: line 1: record for doc 'doc-resignation' is anchored to "
        "([0, 1], 'Ghost'), which is not in the trigger context")


CG_WITHOUT_STANDARDIZE = (
    "eescore: error: generation predictions cannot be scored without --standardize "
    "(their mentions carry no positions)\n"
)


def test_score_no_standardize_rejects_cg(tmp_path, corpus_path, capsys):
    preds = tmp_path / "cg.jsonl"
    preds.write_bytes(
        dump_jsonl([{"doc_id": "doc-resignation", "task": "trigger",
                     "items": [{"mention": ["quitting"], "label": "End-Position"}]}])
    )
    code = run(["score", "--corpus", corpus_path, "--ed-predictions", preds,
                "--ed-paradigm", "CG", "--no-standardize", "--output", tmp_path / "r.json"])
    assert code == 2
    assert capsys.readouterr().err == CG_WITHOUT_STANDARDIZE


def test_score_cg_rule_comes_before_the_k_and_input_checks(tmp_path, capsys):
    code = run(["score", "--corpus", tmp_path / "missing.jsonl", "--ed-predictions", tmp_path / "cg.jsonl",
                "--ed-paradigm", "CG", "--no-standardize", "--trigger-policy", "every_span_up_to_k",
                "--output", tmp_path / "r.json"])
    assert code == 2
    assert capsys.readouterr().err == CG_WITHOUT_STANDARDIZE


def test_score_k_below_1_is_refused_by_the_protocol(tmp_path, corpus_path, capsys):
    preds = cls_ed_file(tmp_path, corpus_path)
    code = run(["score", "--corpus", corpus_path, "--ed-predictions", preds, "--ed-paradigm", "CLS",
                "--trigger-policy", "every_span_up_to_k", "--k", "0", "--output", tmp_path / "r.json"])
    assert code == 2
    assert capsys.readouterr().err == "eescore: error: k must be >= 1\n"


def test_score_table_output(tmp_path, corpus_path, capsys):
    preds = cls_ed_file(tmp_path, corpus_path)
    table_path = tmp_path / "table.txt"
    assert run(["score", "--corpus", corpus_path, "--ed-predictions", preds,
                "--ed-paradigm", "CLS", "--output", tmp_path / "r.json",
                "--table", table_path]) == 0
    printed = capsys.readouterr().out
    assert "Task" in printed and "ED" in printed and "100.0" in printed
    assert table_path.read_text() == printed


def test_dump_discards_ledger(tmp_path, corpus_path):
    eae = tmp_path / "eae.jsonl"
    tags = ["O"] * 21
    tags[9], tags[10], tags[11], tags[12] = "B-Position", "I-Position", "I-Position", "I-Position"
    eae.write_bytes(
        dump_jsonl([{"doc_id": "doc-resignation", "task": "argument",
                     "anchor": {"trigger": [8, 9], "event_type": "End-Position"},
                     "tags": tags}])
    )
    ledger = tmp_path / "discards.jsonl"
    assert run(["score", "--corpus", corpus_path, "--eae-predictions", eae,
                "--eae-paradigm", "SL", "--output", tmp_path / "r.json",
                "--dump-discards", ledger]) == 0
    rows = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert rows == [
        {
            "anchor": {"event_type": "End-Position", "trigger": [8, 9]},
            "doc_id": "doc-resignation",
            "original": {"label": "Position", "span": [9, 13]},
            "reason": "overlap_mismatch",
            "task": "argument",
        }
    ]


def test_compare_reads_a_report_as_its_protocol(tmp_path, corpus_path, capsys):
    """A report that spells the `every_token` candidate space as
    `every_span_up_to_k` with `k` 1, as reports written before `Protocol`
    spelled it once do, compares with the default run's report."""
    preds = tmp_path / "ed_sp.jsonl"
    preds.write_bytes(dump_jsonl([{"doc_id": "doc-resignation", "task": "trigger", "spans": [
        {"span": [8, 9], "label": "End-Position"}, {"span": [16, 18], "label": "Meet"}]}]))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["score", "--corpus", corpus_path, "--ed-predictions", preds, "--ed-paradigm", "SP",
                "--output", out_a]) == 0
    report = json.loads(out_a.read_text())
    assert (report["config"]["trigger_policy"], report["config"]["k"]) == ("every_token", 1)
    out_b.write_text(json.dumps(dict(report, config=dict(report["config"], trigger_policy="every_span_up_to_k"))))
    capsys.readouterr()
    assert run(["compare", out_a, out_b]) == 0
    assert capsys.readouterr() == ("Task        ΔP      ΔR     ΔF1\nED        +0.0    +0.0    +0.0\n", "")


@pytest.mark.parametrize("command, where, code", [
    ("score", "corpus", 2), ("score", "predictions", 1), ("put", "corpus", 2), ("standardize", "predictions", 1),
])
def test_an_unpaired_surrogate_is_refused_not_a_traceback(tmp_path, corpus_path, capsys, command, where, code):
    """A corpus token `"\\ud800"` or a label `"\\udc00"` decodes, but no
    report, store file or ledger could hold it as UTF-8."""
    corpus, preds = tmp_path / "c.jsonl", tmp_path / "sp.jsonl"
    label = "\udc00" if where == "predictions" else "End-Position"
    preds.write_text(json.dumps({"doc_id": "doc-resignation", "task": "trigger",
                                 "spans": [{"span": [8, 9], "label": label}]}) + "\n")
    data = corpus_path.read_bytes()
    assert data.count(b'"Elon"') == 1
    corpus.write_bytes(data.replace(b'"Elon"', b'"\\ud800"') if where == "corpus" else data)
    argv = {
        "score": ["score", "--ed-predictions", preds, "--ed-paradigm", "SP", "--output", tmp_path / "r.json"],
        "put": ["trigger-store", "put", "--store", tmp_path / "store", "--predictions", preds, "--paradigm", "SP",
                "--producer", "p"],
        "standardize": ["standardize", "--predictions", preds, "--paradigm", "SP", "--output", tmp_path / "s.jsonl"],
    }[command]
    assert run([*argv, "--corpus", corpus]) == code
    prefix = {"score": "ED prediction file", "put": "ED prediction file", "standardize": "prediction file"}[command]
    prefix = f"corpus {corpus}: " if where == "corpus" else f"{prefix} {preds}: "
    assert capsys.readouterr() == ("", f"eescore: error: {prefix}line 1: a string holds an unpaired surrogate, "
                                       "which UTF-8 cannot encode\n")


@pytest.mark.parametrize("command", ["score", "put", "compare"])
def test_a_path_that_is_not_utf8_is_refused_before_anything_is_written(tmp_path, corpus_path, command):
    """A path given as bytes that are not UTF-8 reaches Python with a
    surrogate, which no report, ledger or manifest could spell. The error
    names the argument as its usage does."""
    corpus = tmp_path / os.fsdecode(b"c\xff.jsonl")
    corpus.write_bytes(corpus_path.read_bytes())
    preds = cls_ed_file(tmp_path, corpus_path)
    argv, name = {
        "score": (["score", "--corpus", corpus, "--ed-predictions", preds, "--ed-paradigm", "CLS",
                   "--output", tmp_path / "r.json", "--dump-discards", tmp_path / "d.jsonl"], "--corpus"),
        "put": (["trigger-store", "put", "--store", tmp_path / "store", "--corpus", corpus,
                 "--predictions", preds, "--paradigm", "CLS", "--producer", "p"], "--corpus"),
        "compare": (["compare", corpus, preds, "--output", tmp_path / "delta.txt"], "report_a"),
    }[command]
    before = sorted(tmp_path.rglob("*"))
    proc = subprocess.run([sys.executable, "-m", "eescore", *map(os.fsencode, argv)], capture_output=True,
                          env=_console_env(unbuffered=False), timeout=60)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == f"eescore: error: argument {name}: {str(corpus)!r} is not UTF-8 text\n".encode()
    assert sorted(tmp_path.rglob("*")) == before


def test_compare_identical_reports_all_zero(tmp_path, corpus_path, capsys):
    preds = cls_ed_file(tmp_path, corpus_path)
    out = tmp_path / "r.json"
    assert run(["score", "--corpus", corpus_path, "--ed-predictions", preds,
                "--ed-paradigm", "CLS", "--output", out]) == 0
    capsys.readouterr()
    assert run(["compare", out, out]) == 0
    table = capsys.readouterr().out
    assert table.count("+0.0") == 3


def test_compare_fingerprint_mismatch_exits_2(tmp_path, corpus_path, delta_paths):
    other_corpus, delta_preds = delta_paths
    preds = cls_ed_file(tmp_path, corpus_path)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert run(["score", "--corpus", corpus_path, "--ed-predictions", preds,
                "--ed-paradigm", "CLS", "--output", out_a]) == 0
    assert run(["score", "--corpus", other_corpus, "--eae-predictions", delta_preds,
                "--eae-paradigm", "SL", "--output", out_b]) == 0
    assert run(["compare", out_a, out_b]) == 2


# every protocol key, with a value other than the one the native CLS report below has
PROTOCOL_CHANGES = [
    ("mode", "pipeline"),
    ("convention", "legacy"),
    ("eae_match", "by_trigger_span"),
    ("trigger_policy", "every_span_up_to_k"),
    ("k", 2),
    ("stray_i", "discard"),
    ("standardize", True),
    ("ed_paradigm", "SL"),
    ("eae_paradigm", "SP"),
]


def test_protocol_changes_cover_every_protocol_key():
    assert {key for key, _ in PROTOCOL_CHANGES} == set(protocol_keys())


def test_report_config_holds_the_default_protocol(tmp_path, corpus_path):
    preds = cls_ed_file(tmp_path, corpus_path)
    out = tmp_path / "r.json"
    assert run(["score", "--corpus", corpus_path, "--ed-predictions", preds,
                "--ed-paradigm", "CLS", "--output", out]) == 0
    config = json.loads(out.read_text())["config"]
    assert {key: config[key] for key in protocol_keys()} == asdict(Protocol(ed_paradigm="CLS"))


# a candidate space is its trigger policy and k read together (spans up to
# 1 token are `every_token`): what both reports hold to change one of them
SHARED_CONFIG = {"trigger_policy": {"k": 2}, "k": {"trigger_policy": "every_span_up_to_k", "k": 3}}


@pytest.mark.parametrize("key, value", PROTOCOL_CHANGES, ids=[key for key, _ in PROTOCOL_CHANGES])
def test_compare_different_protocol_exits_2(tmp_path, corpus_path, capsys, key, value):
    preds = cls_ed_file(tmp_path, corpus_path)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["score", "--corpus", corpus_path, "--ed-predictions", preds,
                "--ed-paradigm", "CLS", "--no-standardize", "--output", out_a]) == 0
    report = json.loads(out_a.read_text())
    report["config"].update(SHARED_CONFIG.get(key, {}))
    out_a.write_text(json.dumps(report))
    out_b.write_text(json.dumps(dict(report, config=dict(report["config"], **{key: value}))))
    capsys.readouterr()
    assert run(["compare", out_a, out_b]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "eescore: error: reports were produced under different protocols: "
        f"{key} is {json.dumps(report['config'][key])} vs {json.dumps(value)}\n"
    )


def test_compare_ignores_provenance_and_standardized_paradigms(tmp_path, corpus_path, capsys):
    preds = cls_ed_file(tmp_path, corpus_path)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["score", "--corpus", corpus_path, "--ed-predictions", preds,
                "--ed-paradigm", "CLS", "--output", out_a]) == 0
    report = json.loads(out_a.read_text())
    elsewhere = {"corpus": "other.jsonl", "ed_predictions": "other.jsonl", "ed_paradigm": "SL",
                 "eae_paradigm": "SP", "store": "s", "producer": "p"}
    out_b.write_text(json.dumps(dict(report, config=dict(report["config"], **elsewhere))))
    capsys.readouterr()
    assert run(["compare", out_a, out_b]) == 0
    assert capsys.readouterr().out.count("+0.0") == 3


def test_standardize_subcommand_writes_records(tmp_path, corpus_path):
    preds = tmp_path / "sp.jsonl"
    preds.write_bytes(
        dump_jsonl([{"doc_id": "doc-resignation", "task": "argument",
                     "anchor": {"trigger": [8, 9], "event_type": "End-Position"},
                     "spans": [{"span": [0, 2], "label": "Person", "confidence": 0.9},
                                {"span": [0, 2], "label": "Company", "confidence": 0.4}]}])
    )
    out = tmp_path / "std.jsonl"
    assert run(["standardize", "--corpus", corpus_path, "--predictions", preds,
                "--paradigm", "SP", "--output", out]) == 0
    record = json.loads(out.read_text().splitlines()[0])
    assert record["assignments"] == [
        {"candidate_id": "e1", "label": "Person", "provenance": "resolved_duplicate"}
    ]
    assert record["discarded"][0]["reason"] == "duplicate_lower_confidence"


def test_trigger_store_cli_flow(tmp_path, corpus_path, capsys):
    preds = cls_ed_file(tmp_path, corpus_path)
    store = tmp_path / "store"
    assert run(["trigger-store", "put", "--store", store, "--corpus", corpus_path,
                "--predictions", preds, "--paradigm", "CLS", "--producer", "model-x"]) == 0
    assert run(["trigger-store", "list", "--store", store]) == 0
    listing = capsys.readouterr().out
    assert "model-x" in listing and "corpus.jsonl" in listing

    got = tmp_path / "triggers.jsonl"
    assert run(["trigger-store", "get", "--store", store, "--corpus", corpus_path,
                "--output", got]) == 0
    rows = [json.loads(line) for line in got.read_text().splitlines()]
    assert rows[0]["triggers"] == [
        {"span": [8, 9], "event_type": "End-Position"},
        {"span": [17, 18], "event_type": "Meet"},
    ]

    # and the stored triggers drive a pipeline run
    out = tmp_path / "pipe.json"
    assert run(["score", "--corpus", corpus_path, "--eae-predictions", cls_eae_file(tmp_path),
                "--eae-paradigm", "CLS", "--mode", "pipeline", "--store", store,
                "--output", out]) == 0
    report = json.loads(out.read_text())
    assert report["eae"]["counts"]["tp"] == 1


@pytest.mark.parametrize("command", ["get", "score"])
def test_a_store_lookup_that_two_producers_match_exits_2(tmp_path, corpus_path, capsys, command):
    preds = cls_ed_file(tmp_path, corpus_path)
    store = tmp_path / "store"
    for producer in ("model-x", "model-y"):
        assert run(["trigger-store", "put", "--store", store, "--corpus", corpus_path,
                    "--predictions", preds, "--paradigm", "CLS", "--producer", producer]) == 0
    fingerprint = json.loads((store / "manifest.json").read_text())[0]["fingerprint"]
    out = tmp_path / "out"
    argv = (["trigger-store", "get", "--corpus", corpus_path] if command == "get" else
            ["score", "--corpus", corpus_path, "--eae-predictions", cls_eae_file(tmp_path), "--eae-paradigm", "CLS",
             "--mode", "pipeline"]) + ["--store", store, "--output", out]
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr() == ("", (
        "eescore: error: producers 'model-x', 'model-y' all hold triggers for corpus 'corpus.jsonl' "
        f"and fingerprint {fingerprint[:12]}...; choose one with --producer\n"
    ))
    assert not out.exists()
    # naming a producer picks its entry
    assert run(argv + ["--producer", "model-y"]) == 0
    assert out.exists()
    if command == "get":
        assert capsys.readouterr().out.startswith("model-y\t")


@pytest.mark.parametrize(
    "manifest, problem",
    [
        ({"entries": []}, "not a list of entries"),
        ([{"corpus_id": "corpus.jsonl", "fingerprint": "f" * 64, "producer": "p", "file": "t.jsonl"}],
         "entry 0 lacks 'ed_f1'"),
        ([{"corpus_id": "corpus.jsonl", "fingerprint": "f" * 64, "producer": "p", "file": "../t.jsonl",
           "ed_f1": 0.5}], "entry 0 names '../t.jsonl', which is not a file name inside the store"),
        ([{"corpus_id": "corpus.jsonl", "fingerprint": "f" * 64, "producer": "p\n", "file": "t.jsonl",
           "ed_f1": 0.5}], "entry 0 has producer 'p\\n', which does not match ^[A-Za-z0-9._-]+$"),
    ],
    ids=["not-a-list", "missing-key", "file-outside-store", "producer-newline"],
)
def test_trigger_store_list_corrupt_manifest_exits_1(tmp_path, capsys, manifest, problem):
    store = tmp_path / "store"
    store.mkdir()
    (store / "manifest.json").write_text(json.dumps(manifest))
    assert run(["trigger-store", "list", "--store", store]) == 1
    assert capsys.readouterr() == ("", f"eescore: error: trigger store manifest {store / 'manifest.json'}: {problem}\n")


@pytest.mark.parametrize(
    "raw, fault",
    [
        (b'{\n  "fingerprint": "0",\n  "config": {,\n}\n',
         "line 3: invalid JSON (Expecting property name enclosed in double quotes) at column 14"),
        (b'[\n\n  "\xff"\n]\n', "line 3: not valid UTF-8"),
        (b'[\n  {\n    "corpus_id": "c\\ud800",\n    "file": "t.jsonl"\n  }\n]\n',
         "line 3: a string holds an unpaired surrogate, which UTF-8 cannot encode"),
        (b'{\n  "config": {"\\\\ud800": "\\ud83d\\ude00"},\n  "fingerprint": "\\uDC00"\n}\n',
         "line 3: a string holds an unpaired surrogate, which UTF-8 cannot encode"),
        (b'[\n  {"a": 1, "a": 2}\n]\n', "line 2: duplicate key 'a'"),
        (b'{\n  "fingerprint": "0",\n  "config": {\n    "k": 1,\n    "k": 2\n  }\n}\n', "line 3: duplicate key 'k'"),
        (b'{\n  "a": {"k": 1, "j": 2},\n  "a": 3\n}\n', "line 1: duplicate key 'a'"),
    ],
    ids=["syntax", "bad-byte", "surrogate", "surrogate-after-a-pair", "repeated-key", "repeated-key-inside",
         "repeated-key-around"],
)
def test_a_json_fault_in_a_manifest_or_report_is_located(tmp_path, capsys, raw, fault):
    store = tmp_path / "store"
    store.mkdir()
    manifest, report = store / "manifest.json", tmp_path / "bad.json"
    manifest.write_bytes(raw)
    report.write_bytes(raw)
    assert run(["trigger-store", "list", "--store", store]) == 1
    assert capsys.readouterr().err == f"eescore: error: trigger store manifest {manifest}: {fault}\n"
    assert run(["compare", report, report]) == 2
    assert capsys.readouterr().err == f"eescore: error: report {report}: {fault}\n"


def test_trigger_store_missing_trigger_file_exits_1(tmp_path, corpus_path, capsys):
    preds = cls_ed_file(tmp_path, corpus_path)
    store = tmp_path / "store"
    put = ["trigger-store", "put", "--store", store, "--corpus", corpus_path,
           "--predictions", preds, "--paradigm", "CLS", "--producer", "model-x"]
    assert run(put) == 0
    (trigger_file,) = store.glob("*__model-x.jsonl")
    trigger_file.unlink()
    capsys.readouterr()
    missing = f"eescore: error: trigger store entry {trigger_file}: does not exist\n"
    assert run(["trigger-store", "get", "--store", store, "--corpus", corpus_path,
                "--output", tmp_path / "t.jsonl"]) == 1
    assert capsys.readouterr().err == missing
    assert run(put) == 1
    assert capsys.readouterr().err == missing


def test_trigger_store_unreadable_trigger_file_exits_1(tmp_path, corpus_path, capsys):
    preds = cls_ed_file(tmp_path, corpus_path)
    store = tmp_path / "store"
    put = ["trigger-store", "put", "--store", store, "--corpus", corpus_path,
           "--predictions", preds, "--paradigm", "CLS", "--producer", "model-x"]
    assert run(put) == 0
    (trigger_file,) = store.glob("*__model-x.jsonl")
    trigger_file.unlink()
    trigger_file.mkdir()
    capsys.readouterr()
    unreadable = f"eescore: error: trigger store entry {trigger_file}: is not a file\n"
    assert run(["trigger-store", "get", "--store", store, "--corpus", corpus_path,
                "--output", tmp_path / "t.jsonl"]) == 1
    assert capsys.readouterr().err == unreadable
    assert run(put) == 1
    assert capsys.readouterr().err == unreadable


def test_trigger_store_unreadable_manifest_exits_1(tmp_path, capsys):
    manifest = tmp_path / "store" / "manifest.json"
    manifest.mkdir(parents=True)
    assert run(["trigger-store", "list", "--store", tmp_path / "store"]) == 1
    assert capsys.readouterr().err == f"eescore: error: trigger store manifest {manifest}: is not a file\n"


def test_trigger_store_get_stale_variant_exits_1(tmp_path, corpus_path):
    preds = cls_ed_file(tmp_path, corpus_path)
    store = tmp_path / "store"
    assert run(["trigger-store", "put", "--store", store, "--corpus", corpus_path,
                "--predictions", preds, "--paradigm", "CLS", "--producer", "model-x"]) == 0
    cfg = tmp_path / "variant.cfg"
    cfg.write_text("include_value = false\n")
    assert run(["trigger-store", "get", "--store", store, "--corpus", corpus_path,
                "--variant", cfg, "--output", tmp_path / "t.jsonl"]) == 1


def test_report_embeds_config_and_fingerprint(tmp_path, corpus_path):
    preds = cls_ed_file(tmp_path, corpus_path)
    out = tmp_path / "r.json"
    assert run(["score", "--corpus", corpus_path, "--ed-predictions", preds,
                "--ed-paradigm", "CLS", "--output", out]) == 0
    report = json.loads(out.read_text())
    assert len(report["fingerprint"]) == 64
    cfg = report["config"]
    assert cfg["subcommand"] == "score"
    assert cfg["variant"]["entity_mention_mode"] == "full"
    assert cfg["standardize"] is True


def test_console_entry_point_subprocess(tmp_path, corpus_path):
    result = subprocess.run(
        [sys.executable, "-m", "eescore", "stats", "--corpus", str(corpus_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["token_count"] == 21


def test_importing_the_main_module_returns():
    """`python -m eescore` runs the CLI, but an import of `eescore.__main__`
    runs nothing: it returns, where a call of `entry_point` would end this
    process."""
    module = importlib.import_module("eescore.__main__")
    assert module.entry_point is cli.entry_point


def _console_env(unbuffered: bool) -> dict:
    """The environment of a console-script run of this checkout, with
    Python's output buffering as `unbuffered` says."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


def test_console_script_with_buffered_output_matches_main(tmp_path, corpus_path, capsys, monkeypatch):
    """The console script ends its process without teardown, so it must
    flush what `main` printed first: with buffered output, exit codes,
    stdout, stderr and every written file are those of `main` in-process."""
    ed = cls_ed_file(tmp_path, corpus_path)
    eae = tmp_path / "eae.jsonl"
    eae.write_bytes(dump_jsonl([{"doc_id": "doc-resignation", "task": "argument", "anchor": EP_ANCHOR,
                                 "tags": _tags(t9="B-Position", t10="I-Position", t11="I-Position")}]))
    runs = [
        ["score", "--corpus", corpus_path, "--ed-predictions", ed, "--ed-paradigm", "CLS",
         "--eae-predictions", eae, "--eae-paradigm", "SL", "--output", "report.json",
         "--table", "table.txt", "--dump-discards", "discards.jsonl"],
        ["trigger-store", "put", "--store", "store", "--corpus", corpus_path,
         "--predictions", ed, "--paradigm", "CLS", "--producer", "p"],
        ["trigger-store", "put", "--store", "report.json", "--corpus", corpus_path,
         "--predictions", ed, "--paradigm", "CLS", "--producer", "p"],
    ]
    results = {}
    for where in ("console", "main"):
        (tmp_path / where).mkdir()
        monkeypatch.chdir(tmp_path / where)
        if where == "console":
            procs = [subprocess.run([sys.executable, "-m", "eescore", *map(str, argv)], capture_output=True,
                                    env=_console_env(unbuffered=False), timeout=60) for argv in runs]
            outcomes = [(proc.returncode, proc.stdout, proc.stderr) for proc in procs]
        else:
            outcomes = [(run(argv), *(text.encode() for text in capsys.readouterr())) for argv in runs]
        files = {str(p.relative_to(Path.cwd())): p.read_bytes() for p in sorted(Path.cwd().rglob("*")) if p.is_file()}
        results[where] = outcomes, files
    outcomes, files = results["main"]
    assert [code for code, _, _ in outcomes] == [0, 0, 2]
    assert files["table.txt"] == outcomes[0][1] and outcomes[1][1].startswith(b"stored ")
    assert outcomes[2][2] == b"eescore: error: trigger store report.json: is not a directory\n"
    # report, table and ledger; the store's manifest, lock, trigger file and ED report
    assert len(files) == 7 and b"Position" in files["discards.jsonl"]
    assert results["console"] == results["main"]


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, corpus_path):
    """Every output of a run, the order of its discard ledger included, is
    the same under any string hash seed: nothing is written in the order
    of a set. Each seed gets its own empty cache, so both runs parse the
    corpus. Span predictions alone can repeat a candidate, so the SP file
    holds duplicates on many of them."""
    ed, sp, eae, variant = (tmp_path / name for name in ("ed.jsonl", "sp.jsonl", "eae.jsonl", "head.cfg"))
    ed.write_bytes(dump_jsonl([{"doc_id": "doc-resignation", "task": "trigger", "assignments": [
        {"candidate_id": cid, "label": label, "confidence": 0.5}
        for cid, label in [("t:8:9", "End-Position"), ("t:17:18", "Die"), ("t:0:2", "Meet"), ("t:0:5", "Meet")]
    ]}]))
    sp.write_bytes(dump_jsonl([{"doc_id": "doc-resignation", "task": "trigger", "spans": [
        {"span": [start, start + width], "label": label, "confidence": confidence}
        for start in range(0, 18, 2) for width in (1, 3, 5)
        for label, confidence in [("Meet", 0.5), ("Die", 0.5), ("Attack", 0.9 if start % 4 else 0.5)]
    ]}]))
    eae.write_bytes(dump_jsonl([{"doc_id": "doc-resignation", "task": "argument", "anchor": EP_ANCHOR, "items": [
        {"mention": mention, "label": "Place"}
        for mention in [["Musk"], ["Twitter"], ["Twitter"], ["Twitter"], ["Executive"], ["Elon", "Musk"], ["zzz"]]
    ]}]))
    variant.write_bytes(b"entity_mention_mode = head\ninclude_value = false\n")
    common = ["--corpus", corpus_path, "--variant", variant, "--trigger-policy", "every_span_up_to_k", "--k", "3"]
    runs = [
        ["score", *common, "--ed-predictions", ed, "--ed-paradigm", "CLS", "--eae-predictions", eae,
         "--eae-paradigm", "CG", "--mode", "pipeline", "--convention", "legacy", "--eae_match", "by_trigger_span",
         "--dump-discards", "discards.jsonl", "--table", "table.txt", "--output", "report.json"],
        ["standardize", *common, "--predictions", sp, "--paradigm", "SP", "--output", "sp_std.jsonl"],
        ["standardize", *common, "--predictions", eae, "--paradigm", "CG", "--output", "eae_std.jsonl"],
        ["stats", *common],
        ["trigger-store", "put", "--store", "store", *common, "--predictions", ed, "--paradigm", "CLS",
         "--producer", "p"],
        ["trigger-store", "list", "--store", "store"],
    ]
    results = []
    for seed in ("0", "1"):
        (tmp_path / seed).mkdir()
        env = {**_console_env(unbuffered=False), "PYTHONHASHSEED": seed,
               "XDG_CACHE_HOME": str(tmp_path / f"cache{seed}")}
        procs = [subprocess.run([sys.executable, "-m", "eescore", *map(str, argv)], cwd=tmp_path / seed, env=env,
                                capture_output=True, timeout=60) for argv in runs]
        files = {str(f.relative_to(tmp_path / seed)): f.read_bytes()
                 for f in sorted((tmp_path / seed).rglob("*")) if f.is_file()}
        results.append(([(proc.returncode, proc.stdout, proc.stderr) for proc in procs], files))
    (outcomes, files), _ = results
    assert [code for code, _, _ in outcomes] == [0] * len(runs)
    ledger, standardized = files["discards.jsonl"], files["sp_std.jsonl"]
    assert [ledger.count(reason) for reason in (b"unknown_candidate", b"overlap_mismatch", b"unplaceable")] == [1, 2, 2]
    reasons = (b"duplicate_lower_confidence", b"duplicate_later_arrival", b"overlap_mismatch")
    assert [standardized.count(reason) for reason in reasons] == [16, 20, 27]
    assert results[0] == results[1]


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_exits_2(tmp_path, corpus_path, unbuffered):
    """A write to a stdout whose reader is gone fails, whether inside
    `main` (unbuffered) or at the console script's final flush."""
    ed = cls_ed_file(tmp_path, corpus_path)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "eescore", "score", "--corpus", str(corpus_path), "--ed-predictions", str(ed),
             "--ed-paradigm", "CLS", "--output", str(tmp_path / "report.json")],
            stdout=write, stderr=subprocess.PIPE, env=_console_env(unbuffered), timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, b"eescore: error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("fd", [1, 2], ids=["stdout", "stderr"])
def test_console_script_started_without_stdout_or_stderr_exits_0(tmp_path, corpus_path, fd):
    """With file descriptor 1 or 2 closed, Python has no `sys.stdout` or
    `sys.stderr`: what would go there is dropped, and the final flush
    skips it."""
    proc = subprocess.run(
        ["sh", "-c", f'exec "$@" {fd}>&-', "sh", sys.executable, "-m", "eescore", "stats", "--corpus", str(corpus_path)],
        capture_output=True, env=_console_env(unbuffered=False), timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b"" if fd == 1 else json.loads(proc.stdout)["token_count"] == 21


def test_an_error_line_never_goes_to_stdout(tmp_path):
    """Without file descriptor 2, Python has no `sys.stderr`: the error line
    is dropped instead of falling back to stdout, and the exit code stays 2."""
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "eescore", "stats",
         "--corpus", str(tmp_path / "absent")],
        capture_output=True, env=_console_env(unbuffered=False), timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"")


# runs a score and a put in one interpreter; prints the modules of
# hashlib (and so of OpenSSL) that they added to the bare interpreter's
OPENSSL_PROBE = """
import sys
bare = set(sys.modules)
from eescore import cli
corpus, ed, root = sys.argv[1:]
codes = [
    cli.main(["score", "--corpus", corpus, "--ed-predictions", ed, "--ed-paradigm", "CLS",
              "--output", root + "/report.json"]),
    cli.main(["trigger-store", "put", "--store", root + "/store", "--corpus", corpus,
              "--predictions", ed, "--paradigm", "CLS", "--producer", "p"]),
]
print(codes, sorted({"hashlib", "_hashlib"} & (set(sys.modules) - bare)))
"""


def _put_argv(store, corpus_path, preds, producer) -> list:
    return ["trigger-store", "put", "--store", str(store), "--corpus", str(corpus_path), "--predictions", str(preds),
            "--paradigm", "CLS", "--producer", producer]


# runs the CLI on argv[1:] in a process that waits 0.1 s after each read of
# a store's manifest, so concurrent puts all read it before any writes it
SLOW_MANIFEST_READ = """
import sys, time
from eescore import cli, pipeline
read = pipeline.TriggerStore.entries
def read_then_wait(self):
    rows = read(self)
    time.sleep(0.1)
    return rows
pipeline.TriggerStore.entries = read_then_wait
sys.exit(cli.main(sys.argv[1:]))
"""


def test_concurrent_put_processes_keep_every_entry(tmp_path, corpus_path, capsys):
    """The manifest lock serializes `put`s across processes, not only threads."""
    preds = cls_ed_file(tmp_path, corpus_path)
    producers = [f"model-{i}" for i in range(4)]
    procs = [subprocess.Popen([sys.executable, "-c", SLOW_MANIFEST_READ,
                               *_put_argv(tmp_path / "store", corpus_path, preds, p)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_console_env(unbuffered=False))
             for p in producers]
    assert [(proc.communicate(timeout=60)[1], proc.returncode) for proc in procs] == [(b"", 0)] * 4
    assert run(["trigger-store", "list", "--store", tmp_path / "store"]) == 0
    assert sorted(line.split("\t")[2] for line in capsys.readouterr().out.splitlines()) == producers


# runs the CLI on argv[2:] and kills its own process with SIGKILL at the
# argv[1]-th call of os.replace, the step that puts a written file in place
KILLED_AT_A_RENAME = """
import os, signal, sys
from eescore import cli
calls, replace = [], os.replace
def replace_or_die(src, dst):
    if len(calls) == int(sys.argv[1]):
        os.kill(os.getpid(), signal.SIGKILL)
    calls.append(dst)
    replace(src, dst)
os.replace = replace_or_die
cli.main(sys.argv[2:])
"""


@pytest.mark.parametrize("kill", ["0.0s", "0.05s", "rename-0", "rename-1", "rename-2"])
def test_a_killed_put_leaves_a_store_that_works(tmp_path, corpus_path, capsys, kill):
    """A `put` killed with SIGKILL, after a fixed delay or just before its
    trigger file, its ED report or the manifest is renamed into place,
    leaves at most stray files: `list` reads the store, the same `put`
    succeeds again and removes them, and `get` returns what an
    uninterrupted `put` stores."""
    preds = cls_ed_file(tmp_path, corpus_path)
    put = _put_argv(tmp_path / "store", corpus_path, preds, "p")
    get = ["trigger-store", "get", "--corpus", corpus_path, "--producer", "p"]
    assert run(_put_argv(tmp_path / "reference", corpus_path, preds, "p")) == 0
    assert run([*get, "--store", tmp_path / "reference", "--output", tmp_path / "want.jsonl"]) == 0
    env = _console_env(unbuffered=False)
    if kill.endswith("s"):
        proc = subprocess.Popen([sys.executable, "-m", "eescore", *put], stdout=subprocess.DEVNULL, env=env)
        time.sleep(float(kill[:-1]))
        proc.kill()
        proc.wait(timeout=60)
    else:
        proc = subprocess.run([sys.executable, "-c", KILLED_AT_A_RENAME, kill.split("-")[1], *put],
                              capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (-signal.SIGKILL, b"")
        # killed between writing a file and renaming it: the manifest, renamed last, is not there yet
        names = [path.name for path in (tmp_path / "store").iterdir()]
        assert "manifest.json" not in names and [name.endswith(".tmp") for name in names].count(True) == 1
    if (tmp_path / "store").exists():
        assert run(["trigger-store", "list", "--store", tmp_path / "store"]) == 0
    assert run(put) == 0
    assert not list((tmp_path / "store").glob("*.tmp"))  # the next put removes what the killed one left
    assert run([*get, "--store", tmp_path / "store", "--output", tmp_path / "got.jsonl"]) == 0
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    assert len(json.loads((tmp_path / "store" / "manifest.json").read_bytes())) == 1
    capsys.readouterr()


def test_score_and_put_never_load_hashlib(tmp_path, corpus_path):
    ed = tmp_path / "ed.jsonl"
    ed.write_bytes(dump_jsonl([{"doc_id": "doc-resignation", "task": "trigger",
                                "assignments": [{"candidate_id": "t:8:9", "label": "End-Position"}]}]))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", OPENSSL_PROBE, str(corpus_path), str(ed), str(tmp_path)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0] []"
    assert (tmp_path / "report.json").is_file()


# runs `trigger-store list` and `compare` in one interpreter; prints which of the
# parsed-corpus cache's pickle core and the store's lock module they loaded
UNUSED_MODULES_PROBE = """
import sys
from eescore import cli
store, report = sys.argv[1:]
codes = [cli.main(["trigger-store", "list", "--store", store]), cli.main(["compare", report, report])]
print(codes, sorted({"_pickle", "_compat_pickle", "fcntl"} & set(sys.modules)))
"""


def test_list_and_compare_load_no_pickle_and_no_lock(tmp_path, corpus_path):
    """Only a corpus read loads pickle's core, and only a put the lock's
    `fcntl`: commands that do neither map neither."""
    ed, store, report = cls_ed_file(tmp_path, corpus_path), tmp_path / "store", tmp_path / "r.json"
    assert run(["trigger-store", "put", "--store", store, "--corpus", corpus_path, "--predictions", ed,
                "--paradigm", "CLS", "--producer", "p"]) == 0
    assert run(["score", "--corpus", corpus_path, "--ed-predictions", ed, "--ed-paradigm", "CLS",
                "--output", report]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", UNUSED_MODULES_PROBE, str(store), str(report)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0] []"


def _tags(**at):
    tags = ["O"] * 21
    for i, tag in at.items():
        tags[int(i[1:])] = tag
    return tags


EP_ANCHOR = {"trigger": [8, 9], "event_type": "End-Position"}


# Hand-computed (tp, fp, fn) on the two-event resignation corpus, scored in
# the native span space (--no-standardize) and after standardization. Gold
# ED: End-Position (8,9), Meet (17,18). Gold EAE (by event type, six
# arguments): End-Position e1 Person (0,2), e2 Position (10,12), e3 Entity
# (14,15), e4 Place (18,19); Meet e1 Entity, e4 Place.
@pytest.mark.parametrize(
    "paradigm, record, native, standardized",
    [
        # SL ED: two hits, a two-token span that is no every_token
        # candidate (native FP, standardized discard), an NA tag
        (
            "SL",
            {"task": "trigger",
             "tags": _tags(t8="B-End-Position", t17="B-Meet", t3="B-Attack", t4="I-Attack", t6="B-NA")},
            (2, 1, 0),
            (2, 0, 0),
        ),
        # SP ED: the same span twice (native counts both), an NA label
        # (Meet missed either way) and a span that is no candidate
        (
            "SP",
            {"task": "trigger",
             "spans": [{"span": [8, 9], "label": "End-Position"}, {"span": [8, 9], "label": "End-Position"},
                       {"span": [17, 18], "label": "NA"}, {"span": [3, 5], "label": "Attack"}]},
            (1, 2, 1),
            (1, 0, 1),
        ),
        # SP EAE: Person twice, an NA label, (14,16) which is no mention's
        # span, and a correct Place
        (
            "SP",
            {"task": "argument", "anchor": EP_ANCHOR,
             "spans": [{"span": [0, 2], "label": "Person"}, {"span": [0, 2], "label": "Person"},
                       {"span": [10, 12], "label": "NA"}, {"span": [14, 16], "label": "Entity"},
                       {"span": [18, 19], "label": "Place"}]},
            (2, 2, 4),
            (2, 0, 4),
        ),
        # CLS EAE: an unknown mention id is dropped in both spaces; e3 gets
        # a wrong role and e2 an NA label
        (
            "CLS",
            {"task": "argument", "anchor": EP_ANCHOR,
             "assignments": [{"candidate_id": "e1", "label": "Person"}, {"candidate_id": "e9", "label": "Place"},
                             {"candidate_id": "e3", "label": "Place"}, {"candidate_id": "e2", "label": "NA"}]},
            (1, 1, 5),
            (1, 1, 5),
        ),
    ],
    ids=["sl-ed", "sp-ed", "sp-eae", "cls-eae"],
)
def test_score_native_and_standardized_counts(tmp_path, corpus_path, paradigm, record, native, standardized):
    preds = tmp_path / "preds.jsonl"
    preds.write_bytes(dump_jsonl([{"doc_id": "doc-resignation", **record}]))
    flag = "--ed" if record["task"] == "trigger" else "--eae"
    task = "ed" if record["task"] == "trigger" else "eae"
    base = ["score", "--corpus", corpus_path, f"{flag}-predictions", preds, f"{flag}-paradigm", paradigm]
    for extra, expected in ((["--no-standardize"], native), ([], standardized)):
        out = tmp_path / "r.json"
        assert run(base + extra + ["--output", out]) == 0
        counts = json.loads(out.read_text())[task]["counts"]
        assert (counts["tp"], counts["fp"], counts["fn"]) == expected, extra


_NO_SCORES = "'ed' lacks precision, recall, f1 as numbers in [0, 1]"


@pytest.mark.parametrize(
    "make_bad, fault",
    [
        (lambda good: b"[" * 100000 + b"]" * 100000, "invalid JSON (nested too deeply)"),
        (lambda good: b"\xff\xfe{}", "line 1: not valid UTF-8"),
        (lambda good: json.dumps(dict(good, fingerprint=7)).encode(), "not a score report (missing fingerprint)"),
        (lambda good: json.dumps(dict(good, ed=5)).encode(), _NO_SCORES),
        (lambda good: json.dumps(dict(good, ed={k: v for k, v in good["ed"].items() if k != "recall"})).encode(),
         _NO_SCORES),
        (lambda good: json.dumps(dict(good, ed=dict(good["ed"], precision="1.0"))).encode(), _NO_SCORES),
        (lambda good: b'{"fingerprint": "0", ' + json.dumps(good).encode()[1:], "line 1: duplicate key 'fingerprint'"),
        # deeper than a recursive scanner goes: the walk that finds a repeated key's line does not recurse
        (lambda good: b"\n" + b"[" * 600 + b'{"a": 1, "a": 2}' + b"]" * 600, "line 2: duplicate key 'a'"),
        (lambda good: json.dumps({k: v for k, v in good.items() if k != "config"}).encode(),
         "not a score report (missing config)"),
        (lambda good: json.dumps(dict(good, config=[])).encode(), "not a score report (missing config)"),
        (lambda good: json.dumps(dict(good, config={k: v for k, v in good["config"].items() if k != "k"})).encode(),
         "config lacks 'k'"),
    ],
    ids=["deep", "not-utf8", "fingerprint-not-str", "ed-not-object", "ed-without-recall", "precision-not-number",
         "repeated-key", "repeated-key-deep", "no-config", "config-not-object", "config-without-k"],
)
def test_compare_malformed_report_exits_2(tmp_path, corpus_path, capsys, make_bad, fault):
    preds = cls_ed_file(tmp_path, corpus_path)
    good = tmp_path / "good.json"
    assert run(["score", "--corpus", corpus_path, "--ed-predictions", preds,
                "--ed-paradigm", "CLS", "--output", good]) == 0
    bad = tmp_path / "bad.json"
    bad.write_bytes(make_bad(json.loads(good.read_text())))
    capsys.readouterr()
    assert run(["compare", good, bad]) == 2
    assert capsys.readouterr() == ("", f"eescore: error: report {bad}: {fault}\n")


@pytest.mark.parametrize("f1", [b"9" * 400, b"NaN", b"1e999", b"-Infinity", b"1.5", b"-0.0001"],
                         ids=["400-digits", "nan", "1e999", "-inf", "above-1", "below-0"])
def test_compare_score_outside_0_1_exits_2(tmp_path, corpus_path, capsys, f1):
    preds = cls_ed_file(tmp_path, corpus_path)
    good = tmp_path / "good.json"
    assert run(["score", "--corpus", corpus_path, "--ed-predictions", preds,
                "--ed-paradigm", "CLS", "--output", good]) == 0
    report = json.loads(good.read_text())
    bad = tmp_path / "bad.json"
    bad.write_bytes(json.dumps(dict(report, ed=dict(report["ed"], f1="@"))).encode().replace(b'"@"', f1))
    capsys.readouterr()
    for argv in (["compare", good, bad], ["compare", bad, good]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"eescore: error: report {bad}: 'ed' lacks precision, recall, f1 as numbers in [0, 1]\n"
        )


@pytest.mark.parametrize(
    "key, value, error",
    [
        ("k", b"NaN", "standardize must be a bool and k an int, not true and NaN"),
        ("k", b"1e999", "standardize must be a bool and k an int, not true and Infinity"),
        ("k", b"0", "k must be >= 1"),
        ("mode", b'"NaN"', 'unknown mode "NaN"'),
        ("standardize", b'"yes"', 'standardize must be a bool and k an int, not "yes" and 1'),
    ],
    ids=["k-nan", "k-1e999", "k-0", "mode-nan", "standardize-yes"],
)
def test_compare_refuses_a_protocol_that_protocol_rejects(tmp_path, corpus_path, capsys, key, value, error):
    """A report compared with itself shares its protocol, but an invalid
    protocol value is still no protocol a score was made under."""
    preds = cls_ed_file(tmp_path, corpus_path)
    good = tmp_path / "good.json"
    assert run(["score", "--corpus", corpus_path, "--ed-predictions", preds,
                "--ed-paradigm", "CLS", "--output", good]) == 0
    report = json.loads(good.read_text())
    bad = tmp_path / "bad.json"
    bad.write_bytes(json.dumps(dict(report, config=dict(report["config"], **{key: "@"}))).encode()
                    .replace(b'"@"', value))
    capsys.readouterr()
    assert run(["compare", bad, bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"eescore: error: report {bad}: {error}\n"


_SCORE_INTO_OUT = ["score", "--corpus", "{corpus}", "--output", "{out}"]


@pytest.mark.parametrize("argv, what", [
    (["stats", "--corpus", "{path}"], "corpus"),
    (["compare", "{path}", "{path}"], "report"),
    (["stats", "--corpus", "{corpus}", "--variant", "{path}"], "variant config"),
    (_SCORE_INTO_OUT + ["--ed-predictions", "{path}", "--ed-paradigm", "CLS"], "ED prediction file"),
    (_SCORE_INTO_OUT + ["--eae-predictions", "{path}", "--eae-paradigm", "CLS"], "EAE prediction file"),
    (_SCORE_INTO_OUT + ["--eae-predictions", "{eae}", "--eae-paradigm", "CLS", "--mode", "pipeline",
                        "--triggers", "{path}"], "trigger file"),
    (["standardize", "--corpus", "{corpus}", "--predictions", "{path}", "--paradigm", "CLS", "--output", "{out}"],
     "prediction file"),
    (["trigger-store", "put", "--store", "{out}", "--corpus", "{corpus}", "--predictions", "{path}",
      "--paradigm", "CLS", "--producer", "p"], "ED prediction file"),
], ids=["stats", "compare", "variant", "ed-predictions", "eae-predictions", "triggers", "standardize", "put"])
def test_a_directory_given_as_an_input_file_is_not_a_file(tmp_path, corpus_path, capsys, argv, what):
    """Every input file is refused before it is opened, exit 2, when its path names a directory, a FIFO
    or nothing; `put` creates no store for it. A FIFO that were opened would block, so it runs in a
    process of its own."""
    eae = tmp_path / "eae.jsonl"
    eae.write_bytes(dump_jsonl([{"doc_id": "doc-resignation", "task": "argument", "anchor": EP_ANCHOR,
                                 "assignments": [{"candidate_id": "e1", "label": "Person"}]}]))
    fill = {"{corpus}": corpus_path, "{eae}": eae, "{out}": tmp_path / "out"}
    for path, problem in ((tmp_path, "is not a file"), (tmp_path / "absent", "does not exist")):
        assert run([{**fill, "{path}": path}.get(a, a) for a in argv]) == 2
        assert capsys.readouterr() == ("", f"eescore: error: {what} {path}: {problem}\n")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    proc = subprocess.run([sys.executable, "-m", "eescore", *(str({**fill, "{path}": fifo}.get(a, a)) for a in argv)],
                          capture_output=True, env=_console_env(unbuffered=False), timeout=60)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == f"eescore: error: {what} {fifo}: is not a file\n".encode()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["list", "get", "score"])
def test_a_store_that_is_no_directory_is_refused(tmp_path, corpus_path, capsys, command):
    """Only put creates a store; every reader needs an existing directory."""
    eae = tmp_path / "eae.jsonl"
    eae.write_bytes(dump_jsonl([{"doc_id": "doc-resignation", "task": "argument", "anchor": EP_ANCHOR,
                                 "assignments": [{"candidate_id": "e1", "label": "Person"}]}]))
    argv = {
        "list": ["trigger-store", "list"],
        "get": ["trigger-store", "get", "--corpus", corpus_path, "--output", tmp_path / "t.jsonl"],
        "score": ["score", "--corpus", corpus_path, "--eae-predictions", eae, "--eae-paradigm", "CLS",
                  "--mode", "pipeline", "--output", tmp_path / "r.json"],
    }[command]
    before = sorted(tmp_path.iterdir())
    for store, problem in ((tmp_path / "absent", "does not exist"), (corpus_path, "is not a directory")):
        assert run([*argv, "--store", store]) == 2
        assert capsys.readouterr() == ("", f"eescore: error: trigger store {store}: {problem}\n")
    assert sorted(tmp_path.iterdir()) == before


def test_put_refuses_a_store_path_that_a_file_is_in(tmp_path, corpus_path, capsys):
    """put creates a missing store, parents too, but refuses a file or a
    path through one before it reads any input, and creates nothing."""
    argv = ["trigger-store", "put", "--corpus", corpus_path, "--predictions", tmp_path / "absent.jsonl",
            "--paradigm", "CLS", "--producer", "p"]
    before = sorted(tmp_path.iterdir())
    for store in (corpus_path, corpus_path / "sub", corpus_path / "sub" / "store"):
        assert run([*argv, "--store", store]) == 2
        assert capsys.readouterr() == ("", f"eescore: error: trigger store {store}: is not a directory\n")
    assert sorted(tmp_path.iterdir()) == before
    argv[argv.index("--predictions") + 1] = cls_ed_file(tmp_path, corpus_path)
    assert run([*argv, "--store", tmp_path / "new" / "store"]) == 0
    assert (tmp_path / "new" / "store" / "manifest.json").is_file()


@pytest.mark.parametrize("ed_f1", [b"9" * 400, b"NaN", b"1e999", b"1.5"],
                         ids=["400-digits", "nan", "1e999", "above-1"])
def test_manifest_ed_f1_outside_0_1_exits_1(tmp_path, corpus_path, capsys, ed_f1):
    preds = cls_ed_file(tmp_path, corpus_path)
    store = tmp_path / "store"
    put = ["trigger-store", "put", "--store", store, "--corpus", corpus_path,
           "--predictions", preds, "--paradigm", "CLS", "--producer", "model-x"]
    assert run(put) == 0
    manifest = store / "manifest.json"
    manifest.write_bytes(re.sub(rb'"ed_f1": [0-9.]+', b'"ed_f1": ' + ed_f1, manifest.read_bytes()))
    eae = tmp_path / "eae.jsonl"
    eae.write_bytes(dump_jsonl([{"doc_id": "doc-resignation", "task": "argument", "anchor": EP_ANCHOR,
                                 "assignments": [{"candidate_id": "e1", "label": "Person"}]}]))
    commands = [
        ["trigger-store", "list", "--store", store],
        ["trigger-store", "get", "--store", store, "--corpus", corpus_path, "--output", tmp_path / "t.jsonl"],
        put,
        ["score", "--corpus", corpus_path, "--eae-predictions", eae, "--eae-paradigm", "CLS",
         "--mode", "pipeline", "--store", store, "--output", tmp_path / "r.json"],
    ]
    capsys.readouterr()
    for argv in commands:
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"eescore: error: trigger store manifest {manifest}: "
                                "entry 0 has an 'ed_f1' that is not a number in [0, 1]\n")
    assert not (tmp_path / "t.jsonl").exists() and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("tag", ["O\n", "B-End-Position\n"])
def test_score_tag_with_a_trailing_newline_exits_1(tmp_path, corpus_path, capsys, tag):
    preds = tmp_path / "ed_sl.jsonl"
    preds.write_bytes(dump_jsonl([{"doc_id": "doc-resignation", "task": "trigger", "tags": _tags(t8=tag)}]))
    assert run(["score", "--corpus", corpus_path, "--ed-predictions", preds, "--ed-paradigm", "SL",
                "--output", tmp_path / "r.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"eescore: error: ED prediction file {preds}: line 1: malformed tag {tag!r} at position 8"
    ]
    assert not (tmp_path / "r.json").exists()


def test_trigger_store_put_refuses_producer_with_a_newline(tmp_path, corpus_path, capsys):
    preds = cls_ed_file(tmp_path, corpus_path)
    store = tmp_path / "store"
    put = ["trigger-store", "put", "--store", store, "--corpus", corpus_path, "--predictions", preds,
           "--paradigm", "CLS", "--producer"]
    assert run(put + ["model-x"]) == 0
    before = sorted(p.name for p in store.iterdir())
    manifest = (store / "manifest.json").read_bytes()
    capsys.readouterr()
    assert run(put + ["model-y\n"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        r"eescore: error: producer 'model-y\n' must match ^[A-Za-z0-9._-]+$ (it names files)"
    ]
    assert sorted(p.name for p in store.iterdir()) == before
    assert (store / "manifest.json").read_bytes() == manifest
    assert run(["trigger-store", "list", "--store", store]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def _cyclic_garbage(tmp_path, documents) -> list:
    """What the collector finds after one `trigger-store put` and one
    `score` over `documents`, with the collector off as in the console
    script and every unreachable object kept in gc.garbage."""
    tmp_path.mkdir()
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(serialize_corpus(Corpus(documents=tuple(documents))))
    ids = [d.id for d in documents]
    ed = tmp_path / "ed.jsonl"
    ed.write_bytes(dump_jsonl(
        {"doc_id": i, "task": "trigger", "tags": ["B-A"] + ["O"] * 7} for i in ids
    ))
    eae = tmp_path / "eae.jsonl"
    eae.write_bytes(dump_jsonl(o for o in delta_sl_eae_objs() if o["doc_id"] in ids))
    store = tmp_path / "store"
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        assert run(["trigger-store", "put", "--store", store, "--corpus", corpus,
                    "--predictions", ed, "--paradigm", "SL", "--producer", "p"]) == 0
        assert run(["score", "--corpus", corpus, "--ed-predictions", ed, "--ed-paradigm", "SL",
                    "--eae-predictions", eae, "--eae-paradigm", "SL", "--mode", "pipeline",
                    "--store", store, "--dump-discards", tmp_path / "discards.jsonl",
                    "--output", tmp_path / "report.json"]) == 0
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_data_path_leaves_no_cyclic_garbage(tmp_path):
    documents = delta_corpus().documents
    _cyclic_garbage(tmp_path / "warm-up", documents[:1])  # first-call caches
    one = _cyclic_garbage(tmp_path / "one", documents[:1])
    many = _cyclic_garbage(tmp_path / "many", documents)
    # what is left is the argument parser's (its help formatters included), the same at any corpus size
    assert [o for o in one + many
            if type(o).__module__.startswith("eescore") and not isinstance(o, argparse.HelpFormatter)] == []
    assert len(one) == len(many)


# per input, a line that decodes but that its reader refuses, and the refusal
_CONTENT_FAULTS = {
    "corpus": ({"id": "x", "tokens": ["a", "b"], "sentences": [[0, 1]], "entities": [], "events": []},
               "line 3: document 'x': sentences do not partition [0, token count): must be contiguous, ordered, "
               "covering"),
    "variant": ("bogus = 1", "line 3: unknown key 'bogus'"),
    "ed": ({"doc_id": "doc-resignation", "task": "argument", "anchor": EP_ANCHOR, "assignments": []},
           "line 3: record for doc 'doc-resignation' has task 'argument'; expected 'trigger'"),
    "eae": ({"doc_id": "doc-resignation", "task": "trigger", "assignments": []},
            "line 3: record for doc 'doc-resignation' has task 'trigger'; expected 'argument'"),
    "triggers": ({"doc_id": "absent", "triggers": []}, "line 3: unknown doc_id 'absent'"),
}
_CONTENT_FAULTS["ed-put"] = _CONTENT_FAULTS["ed"]
_CONTENT_FAULTS["store-entry"] = _CONTENT_FAULTS["triggers"]


@pytest.mark.parametrize("fault", ["bad-byte", "syntax", "long-integer", "content"])
@pytest.mark.parametrize("target", ["corpus", "variant", "ed", "ed-put", "eae", "triggers", "store-entry", "manifest",
                                    "report"])
def test_a_fault_on_line_3_of_any_input_names_the_input_and_the_line(tmp_path, corpus_path, capsys, target, fault):
    """Every file the CLI reads refuses a byte that is not UTF-8, a JSON
    syntax error, an integer too long to convert, or a line that decodes
    but breaks a rule of its reader, on its line 3 with its documented
    exit code (2 for the corpus, the variant config and a report, else 1),
    naming the input and the line. The variant config is no JSON: its
    syntax error is its own, and so is a line of JSON in it. A report
    or a manifest is one JSON value: what its reader refuses in that value
    is named without a line."""
    ed = cls_ed_file(tmp_path, corpus_path)
    eae, triggers, variant = tmp_path / "eae.jsonl", tmp_path / "t.jsonl", tmp_path / "v.cfg"
    eae.write_bytes(dump_jsonl([{"doc_id": "doc-resignation", "task": "argument", "anchor": EP_ANCHOR,
                                 "assignments": [{"candidate_id": "e1", "label": "Person"}]}]))
    triggers.write_bytes(dump_jsonl([{"doc_id": "doc-resignation",
                                      "triggers": [{"span": [8, 9], "event_type": "End-Position"}]}]))
    variant.write_bytes(b"include_value = false\n")
    store, report = tmp_path / "store", tmp_path / "r.json"
    score = ["score", "--corpus", corpus_path, "--output", report]
    ed_args = ["--ed-predictions", ed, "--ed-paradigm", "CLS"]
    put = ["trigger-store", "put", "--store", store, "--corpus", corpus_path, "--predictions", ed,
           "--paradigm", "CLS", "--producer"]
    assert run(score + ed_args) == 0
    assert run(put + ["p"]) == 0
    entry = store / json.loads((store / "manifest.json").read_text())[0]["file"]
    eae_args = ["--eae-predictions", eae, "--eae-paradigm", "CLS"]
    pipeline = score + eae_args + ["--mode", "pipeline"]
    path, name, code, argv = {
        "corpus": (corpus_path, "corpus", 2, score + eae_args),
        "variant": (variant, "variant config", 2, ["stats", "--corpus", corpus_path, "--variant", variant]),
        "ed": (ed, "ED prediction file", 1, score + ed_args),
        "ed-put": (ed, "ED prediction file", 1, put + ["q"]),
        "eae": (eae, "EAE prediction file", 1, score + eae_args),
        "triggers": (triggers, "trigger file", 1, pipeline + ["--triggers", triggers]),
        "store-entry": (entry, "trigger store entry", 1, pipeline + ["--store", store]),
        "manifest": (store / "manifest.json", "trigger store manifest", 1, ["trigger-store", "list", "--store", store]),
        "report": (report, "report", 2, ["compare", report, report]),
    }[target]
    lines = path.read_bytes().split(b"\n")
    zeros = b"0" * sys.get_int_max_str_digits()  # after a 1, one digit more than an integer may have
    if target in ("manifest", "report") and fault == "content":  # a value that parses, but is no manifest or report
        value = json.loads(path.read_bytes())
        if target == "manifest":
            del value[0]["ed_f1"]
        else:
            del value["config"]
        lines = [format_report(value).encode()]
        problem = "entry 0 lacks 'ed_f1'" if target == "manifest" else "not a score report (missing config)"
    elif target in ("manifest", "report"):  # one JSON value over several lines
        lines[2] = {"bad-byte": b"\xff", "syntax": b",", "long-integer": b'"n": 1' + zeros + b", "}[fault] + lines[2]
        problem = "line 3: invalid JSON (Expecting property name enclosed in double quotes) at column 1"
    elif fault == "content":  # one record or setting a line, after a blank line 2
        line, problem = _CONTENT_FAULTS[target]
        lines[1:] = [b"", (line if target == "variant" else canonical_line(line)).encode(), b""]
    else:
        line = {"bad-byte": b'{"doc_id": "\xff"}', "syntax": b'{"doc_id": }',
                "long-integer": b'{"doc_id": -1' + zeros + b"}"}[fault]
        lines[1:] = [b"", line, b""]
        problem = "line 3: invalid JSON (Expecting value)"
        if target == "variant" and fault in ("syntax", "long-integer"):  # the variant config is no JSON
            problem = "line 3: expected 'key = value'"
    if fault == "long-integer" and target != "variant":
        problem = f"line 3: invalid JSON (an integer of more than {sys.get_int_max_str_digits()} digits)"
    path.write_bytes(b"\n".join(lines))
    expected = f"{name} {path}: {'line 3: not valid UTF-8' if fault == 'bad-byte' else problem}"
    capsys.readouterr()
    assert run(argv) == code
    assert capsys.readouterr() == ("", f"eescore: error: {expected}\n")
