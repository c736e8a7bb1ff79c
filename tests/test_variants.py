import contextlib
import io
import json
import random

import pytest

from eescore.cli import main
from eescore.core import Argument, Corpus, EntityMention, EventAnnotation, Span
from eescore.errors import ConfigError, ParseError
from eescore.ingest import serialize_corpus
from eescore.protocol import CandidatePolicy
from eescore.variants import (
    VARIANT_CHOICES,
    VariantConfig,
    apply_variant,
    compute_stats,
    load_variant_config,
    parse_variant_config,
)

from corpora import resignation_corpus, simple_doc
from gen import random_corpus


def time_argument_corpus() -> Corpus:
    doc = simple_doc(
        "d1",
        8,
        entities=[
            EntityMention("e1", Span(0, 1), Span(0, 1), "entity"),
            EntityMention("t1", Span(5, 6), Span(5, 6), "time"),
        ],
        events=[
            EventAnnotation(
                "ev", "A", Span(2, 3), (Argument("e1", "Agent"), Argument("t1", "Time-Within"))
            )
        ],
    )
    return Corpus(documents=(doc,))


def test_identity_config_is_fixed_point():
    corpus = resignation_corpus(second_event=True)
    out, report = apply_variant(corpus, VariantConfig())
    assert out is corpus  # nothing to rebuild: the documents, and a parsed corpus's hash, stay as they are
    assert report.removed_arguments == 0 and report.reduced_triggers == 0


def test_time_exclusion_drops_argument_keeps_event():
    corpus = time_argument_corpus()
    out, report = apply_variant(corpus, VariantConfig(include_time=False))
    doc = out.documents[0]
    assert [m.id for m in doc.entities] == ["e1"]
    assert len(doc.events) == 1
    assert doc.events[0].arguments == (Argument("e1", "Agent"),)
    assert report.removed_arguments == 1


def test_multi_token_trigger_reduced_to_first_token(tmp_path):
    doc = simple_doc("d1", 8, events=[EventAnnotation("ev", "A", Span(3, 5), ())])
    corpus = Corpus(documents=(doc,))
    out, report = apply_variant(corpus, VariantConfig(multi_token_triggers=False))
    assert out.documents[0].events[0].trigger == Span(3, 4)
    assert report.reduced_triggers == 1

    # independent check: write the corpus file and re-read it with plain json
    path = tmp_path / "out.jsonl"
    path.write_bytes(serialize_corpus(out))
    raw = json.loads(path.read_text().splitlines()[0])
    assert raw["events"][0]["trigger"] == [3, 4]


def test_multi_token_trigger_drop_event_policy():
    doc = simple_doc(
        "d1",
        8,
        entities=[EntityMention("e1", Span(0, 1), Span(0, 1), "entity")],
        events=[EventAnnotation("ev", "A", Span(3, 5), (Argument("e1", "r"),))],
    )
    out, report = apply_variant(
        Corpus(documents=(doc,)),
        VariantConfig(multi_token_triggers=False, multi_token_policy="drop_event"),
    )
    assert out.documents[0].events == ()
    assert report.reduced_triggers == 1
    assert report.removed_arguments == 1


def test_head_mode_shrinks_mention_spans():
    corpus = resignation_corpus()
    out, _ = apply_variant(corpus, VariantConfig(entity_mention_mode="head"))
    for before, after in zip(corpus.documents[0].entities, out.documents[0].entities):
        assert after.span == before.head_span
        assert before.span.start <= after.span.start and after.span.end <= before.span.end


def test_apply_variant_idempotent_random(a_seed=13):
    rng = random.Random(a_seed)
    cfgs = [
        VariantConfig(include_time=False),
        VariantConfig(multi_token_triggers=False),
        VariantConfig(entity_mention_mode="head", include_pronoun=False),
        VariantConfig(multi_token_triggers=False, multi_token_policy="drop_event"),
    ]
    for _ in range(20):
        corpus = random_corpus(rng)
        for cfg in cfgs:
            once, _ = apply_variant(corpus, cfg)
            twice, _ = apply_variant(once, cfg)
            assert twice == once


def test_stats_empty_corpus():
    stats = compute_stats(Corpus(documents=()))
    assert all(v == 0 for v in stats._asdict().values())


def test_stats_small_fixture_counts():
    # 1 doc, 9 tokens, 1 event, 4 arguments, 4 mentions; single-token
    # trigger candidates = one per token
    doc = simple_doc(
        "d1",
        9,
        entities=[
            EntityMention(f"e{i}", Span(i, i + 1), Span(i, i + 1), "entity") for i in range(4)
        ],
        events=[
            EventAnnotation(
                "ev",
                "A",
                Span(5, 6),
                tuple(Argument(f"e{i}", f"r{i % 3}") for i in range(4)),
            )
        ],
    )
    stats = compute_stats(Corpus(documents=(doc,)))
    assert stats.token_count == 9
    assert stats.trigger_count == 1
    assert stats.argument_count == 4
    assert stats.event_type_count == 1
    assert stats.role_count <= 4
    assert stats.trigger_candidate_count == 9
    assert stats.argument_candidate_count == 4


def test_stats_role_count_is_labels_in_use():
    corpus = resignation_corpus(second_event=True)
    stats = compute_stats(corpus)
    # Person, Position, Entity, Place across both events
    assert stats.role_count == 4
    assert stats.event_type_count == 2


def test_monotonicity_of_include_flags():
    rng = random.Random(29)
    for _ in range(30):
        corpus = random_corpus(rng)
        base, _ = apply_variant(corpus, VariantConfig())
        base_stats = compute_stats(base)
        for flag in ("include_time", "include_value", "include_pronoun"):
            smaller, _ = apply_variant(corpus, VariantConfig(**{flag: False}))
            s = compute_stats(smaller)
            assert s.argument_count <= base_stats.argument_count
            assert s.argument_candidate_count <= base_stats.argument_candidate_count


def test_variant_config_parsing():
    cfg = parse_variant_config(
        """
        # exclude time expressions
        multi_token_triggers = false
        include_time = false
        entity_mention_mode = head
        multi_token_policy = drop_event
        """
    )
    assert cfg == VariantConfig(
        multi_token_triggers=False,
        include_time=False,
        entity_mention_mode="head",
        multi_token_policy="drop_event",
    )


@pytest.mark.parametrize("key", ["entity_mention_mode", "multi_token_policy"])
def test_variant_config_refuses_an_unknown_choice(key):
    with pytest.raises(ConfigError, match=f"^unknown {key} 'other'$"):
        VariantConfig(**{key: "other"})


def test_variant_config_file_refuses_a_choice_with_its_line():
    """The parser leaves the choice to `VariantConfig` and adds the line."""
    with pytest.raises(ParseError) as exc:
        parse_variant_config("include_time = false\nmulti_token_policy = drop\n")
    assert str(exc.value) == "line 2: unknown multi_token_policy 'drop'"


def test_multi_token_policy_is_the_default_while_multi_token_triggers_are_kept():
    for policy in VARIANT_CHOICES["multi_token_policy"]:
        assert VariantConfig(multi_token_policy=policy) == VariantConfig()
    assert VariantConfig(multi_token_triggers=False, multi_token_policy="drop_event").multi_token_policy == "drop_event"


def test_variant_config_unknown_key():
    with pytest.raises(ParseError, match="^line 1: unknown key 'tokenizer'$"):
        parse_variant_config("tokenizer = spacy\n")


def test_variant_config_bad_value():
    with pytest.raises(ParseError, match="^line 1: include_time must be true or false, got 'maybe'$"):
        parse_variant_config("include_time = maybe\n")


def test_variant_config_duplicate_key():
    with pytest.raises(ParseError, match="^line 2: duplicate key 'include_time'$"):
        parse_variant_config("include_time = true\ninclude_time = false\n")


def test_variant_config_lines_end_at_newline_only():
    # U+2028 (like "\x0b", "\x1c" or "\x85") is no line break here, so this is one line
    with pytest.raises(ParseError, match="^line 1: include_time must be true or false"):
        parse_variant_config("include_time = false\u2028include_value = maybe\n")
    with pytest.raises(ParseError, match="^line 3: "):
        parse_variant_config("include_time = false\r\n\x85\ninclude_value = maybe\r\n")


@pytest.mark.parametrize("data", [b"include_time = \xff\n", b"\xfe\xff", b"include_time = tru\xc3"])
def test_variant_config_that_is_not_utf8_is_a_config_error(tmp_path, data):
    """The file is refused at the line of its bad byte, and the CLI exits 2 as for every config fault."""
    path = tmp_path / "variant.cfg"
    path.write_bytes(b"# a comment\n\n" + data)
    with pytest.raises(ParseError, match="^line 3: not valid UTF-8$"):
        load_variant_config(path)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(serialize_corpus(resignation_corpus()))
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["stats", "--corpus", str(corpus), "--variant", str(path)]) == 2
    assert err.getvalue() == f"eescore: error: variant config {path}: line 3: not valid UTF-8\n"


def test_stats_candidate_policy_affects_trigger_candidates():
    corpus = resignation_corpus()
    every_token = compute_stats(corpus)
    spans2 = compute_stats(
        corpus, CandidatePolicy(trigger_policy="every_span_up_to_k", k=2)
    )
    assert every_token.trigger_candidate_count == 21
    assert spans2.trigger_candidate_count == 21 + 20  # spans of length 1 and 2
