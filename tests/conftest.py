import pytest


@pytest.fixture(autouse=True, scope="session")
def parsed_corpus_cache(tmp_path_factory):
    """Points the parsed-corpus cache of every test, and of every process a
    test starts, at a directory of this session outside each test's
    `tmp_path`: no test reads or writes the user's own cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield
