"""The parsed-corpus cache behind `load_corpus`: a hit gives what the parser
gives, and any fault of the cache is a miss that changes no output."""

import os
import pickle
import random
import sys
import tempfile
import time
import types
from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eescore import cli, ingest
from eescore.core import Corpus
from eescore.ingest import load_corpus, parse_corpus, serialize_corpus
from eescore.jsonio import dump_jsonl
from eescore.pipeline import corpus_fingerprint
from eescore.variants import VARIANT_CHOICES, VariantConfig

from corpora import resignation_corpus
from gen import random_corpus
from test_pipeline import _with_escapable_tokens, noncanonical_rendering


def _distinct(corpus: Corpus) -> tuple[int, int]:
    """How many distinct token and span objects the corpus holds."""
    tokens = {id(t) for d in corpus for t in d.tokens}
    spans = {id(s) for d in corpus for s in (*d.sentences, *(m.span for m in d.entities),
                                              *(e.trigger for e in d.events))}
    return len(tokens), len(spans)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    cfg=st.builds(VariantConfig, **{key: st.sampled_from(allowed) for key, allowed in VARIANT_CHOICES.items()}),
)
def test_a_hit_is_the_parse(seed, cfg):
    """For canonical bytes and for a rendering that is not canonical, the
    first load parses and writes an entry, and the second reads it without
    parsing. Both equal `parse_corpus` in their documents, their serialized
    bytes, their fingerprint and the values they share; a hit hashes the
    file's bytes as the parser did only when they were canonical."""
    rng = random.Random(seed)
    corpus = _with_escapable_tokens(random_corpus(rng, max_docs=40), rng)  # an entry writes 16 documents a chunk
    for canonical, data in ((True, serialize_corpus(corpus)), (False, noncanonical_rendering(corpus, rng))):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setenv("XDG_CACHE_HOME", tmp)
            path = Path(tmp, "corpus.jsonl")
            path.write_bytes(data)
            parsed = parse_corpus(data)
            miss = load_corpus(path)
            assert len(list(Path(tmp, "eescore").iterdir())) == 1
            patch.setattr(ingest, "parse_corpus", None)  # a hit must not parse
            hit = load_corpus(path)
            for got in (miss, hit):
                assert got.documents == parsed.documents == corpus.documents
                assert serialize_corpus(got) == serialize_corpus(parsed)
                assert corpus_fingerprint(got, cfg) == corpus_fingerprint(parsed, cfg)
                assert _distinct(got) == _distinct(parsed)
            assert (hit.hash_state is not None) == canonical


@pytest.fixture
def inputs(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(serialize_corpus(resignation_corpus(second_event=True)))
    ed = tmp_path / "ed.jsonl"
    ed.write_bytes(dump_jsonl([{"doc_id": "doc-resignation", "task": "trigger",
                                "assignments": [{"candidate_id": "t:8:9", "label": "End-Position"}]}]))
    return corpus, ed


def _score(tmp_path, corpus, ed, capsys, monkeypatch) -> tuple:
    """Exit code, stdout, stderr and report of one `score`, and how many
    times it parsed the corpus."""
    parses = []
    monkeypatch.setattr(ingest, "parse_corpus", lambda *args: parses.append(1) or parse_corpus(*args))
    report = tmp_path / "report.json"
    report.unlink(missing_ok=True)
    code = cli.main(["score", "--corpus", str(corpus), "--ed-predictions", str(ed), "--ed-paradigm", "CLS",
                     "--output", str(report)])
    out, err = capsys.readouterr()
    return (code, out, err, report.read_bytes() if report.exists() else None), len(parses)


class _Touch:
    """Unpickles by calling a function that is no record type: it creates `path`."""

    def __init__(self, path: Path):
        self.path = path

    def __reduce__(self):
        return Path.touch, (self.path,)


def _faulty(entry: Path, fault: str, ran: Path) -> None:
    """Puts `fault` in place of a written cache entry."""
    valid = entry.read_bytes()
    if fault == "directory":
        entry.unlink()
        entry.mkdir()
        return
    calls_code = pickle.dumps((entry.name, True, 1, ()), protocol=2) + pickle.dumps([_Touch(ran)], protocol=2)
    entry.write_bytes({"empty": b"", "truncated": valid[: len(valid) // 2], "garbage": bytes(range(256)) * 4,
                       "foreign": pickle.dumps(("another-name", True, 0, ()), protocol=2),
                       "code": calls_code}[fault])


@pytest.mark.parametrize("fault", ["empty", "truncated", "garbage", "foreign", "code", "directory"])
def test_a_faulty_entry_is_a_miss(tmp_path, inputs, capsys, monkeypatch, fault):
    """An entry that is empty, cut short, not a pickle, written for another
    key, naming a function, or a directory is read as a miss: the corpus is
    parsed again, nothing the entry names is run, and the outputs are those
    of a run without it. The miss writes the entry again, where it can."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    want, parses = _score(tmp_path, *inputs, capsys, monkeypatch)
    assert (want[0], parses) == (0, 1)
    entry, = (tmp_path / "cache" / "eescore").iterdir()
    _faulty(entry, fault, tmp_path / "ran")
    assert _score(tmp_path, *inputs, capsys, monkeypatch) == (want, 1)
    assert not (tmp_path / "ran").exists()
    if fault == "directory":
        assert entry.is_dir()
    else:
        assert _score(tmp_path, *inputs, capsys, monkeypatch) == (want, 0)


def _no_home():
    raise RuntimeError("Could not determine home directory.")


@pytest.mark.parametrize("cache", ["a file", "no home", "relative"])
def test_a_cache_that_cannot_be_written_changes_no_output(tmp_path, inputs, capsys, monkeypatch, cache):
    """A cache directory that cannot be made (its parent is a file), or a
    home that cannot be found, leaves every run a miss with the outputs of
    a run that has a cache. A relative XDG_CACHE_HOME is ignored, as the
    XDG specification says."""
    want, _ = _score(tmp_path, *inputs, capsys, monkeypatch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_bytes(b"")
    monkeypatch.setenv("XDG_CACHE_HOME", {"a file": str(tmp_path / "file"), "no home": "", "relative": "rel"}[cache])
    if cache != "a file":
        monkeypatch.setattr(Path, "home", _no_home)
    for _ in range(2):
        assert _score(tmp_path, *inputs, capsys, monkeypatch) == (want, 1)
    assert not (tmp_path / "rel").exists()


def test_an_entry_of_other_code_is_a_miss_and_is_removed_once_a_day_old(tmp_path, inputs, capsys, monkeypatch):
    """The key binds the interpreter's bytecode tag: an entry written under
    another is not read. A write removes the files of other code, and the
    temporary files of killed writes, that were not written for a day; it
    keeps newer ones, which another writer may still be using."""
    cache = tmp_path / "cache" / "eescore"
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    with monkeypatch.context() as patch:
        patch.setattr(sys, "implementation", types.SimpleNamespace(cache_tag="another-interpreter"))
        load_corpus(inputs[0])
    old, = cache.iterdir()
    entry = ingest._cache_entry(sha256(inputs[0].read_bytes()))
    orphan, recent, in_flight = (cache / f"{old.name}.1.2.tmp", cache / f"{old.name.partition('-')[0]}-{'0' * 64}",
                                 cache / f"{entry.name}.3.4.tmp")
    for path in (orphan, recent, in_flight):
        path.write_bytes(b"")
    for path in (old, orphan):
        os.utime(path, (time.time() - 86401,) * 2)
    want, parses = _score(tmp_path, *inputs, capsys, monkeypatch)
    assert (want[0], parses) == (0, 1)
    assert sorted(cache.iterdir()) == sorted([entry, recent, in_flight])
    assert _score(tmp_path, *inputs, capsys, monkeypatch) == (want, 0)


def test_concurrent_misses_each_leave_their_entry(tmp_path, inputs, monkeypatch):
    """A miss that finishes while another is writing its entry leaves the
    other's temporary file alone, so both entries are put in place."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    second = tmp_path / "second.jsonl"
    second.write_bytes(serialize_corpus(resignation_corpus(second_event=False)))
    dump = ingest._dump

    def dump_while_another_misses(*args):
        dump(*args)  # this entry's temporary file is written, not yet renamed
        monkeypatch.setattr(ingest, "_dump", dump)
        load_corpus(second)

    monkeypatch.setattr(ingest, "_dump", dump_while_another_misses)
    load_corpus(inputs[0])
    entries = {ingest._cache_entry(sha256(path.read_bytes())) for path in (inputs[0], second)}
    assert set((tmp_path / "cache" / "eescore").iterdir()) == entries


@pytest.mark.parametrize("corpus", [b'{"id": "d"}\n', b"\xff\n", b'{"id":"d","tokens":["a"],"sentences":[[0,2]],'
                                    b'"entities":[],"events":[]}\n'])
def test_an_invalid_corpus_is_refused_alike_twice_and_never_cached(tmp_path, inputs, capsys, monkeypatch, corpus):
    """Only a corpus that parsed is written: a refused one is parsed, and
    refused with the same message, every time."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    inputs[0].write_bytes(corpus)
    first = _score(tmp_path, *inputs, capsys, monkeypatch)
    assert first[0][0] == 2 and first[0][2].startswith("eescore: error: corpus ")
    assert _score(tmp_path, *inputs, capsys, monkeypatch) == first
    assert not (tmp_path / "cache").exists()
