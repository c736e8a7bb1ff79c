"""README's API names resolve: a name the documentation gives is one the package has."""

import builtins
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import eescore

README = Path(__file__).resolve().parent.parent / "README.md"


def _spans(text: str) -> list[str]:
    """The backticked spans of markdown text, fenced code blocks left out; a span may wrap a line."""
    return re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))


def _modules() -> list:
    """Every module of the package."""
    return [importlib.import_module(f"eescore.{m.name}") for m in pkgutil.iter_modules(eescore.__path__)]


def test_every_dotted_eescore_name_in_readme_resolves():
    unresolved = []
    spans = _spans(README.read_text(encoding="utf-8"))
    for name in sorted({m for s in spans for m in re.findall(r"\beescore(?:\.\w+)+", s)}):
        parts = name.split(".")
        value = importlib.import_module(".".join(parts[:2]))
        for part in parts[2:]:
            value = getattr(value, part, None)
        if value is None:
            unresolved.append(name)
    assert unresolved == []


def test_every_call_in_the_python_api_section_names_what_the_package_has():
    """Each backticked `name(` under "## Python API" is an attribute of an
    eescore module or of a type one defines, or a builtin."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Python API"):]
    section = section[:section.index("\n## ", 1)]
    calls = {name for s in _spans(section) for name in re.findall(r"(\w+)\(", s)}
    assert {"evaluate", "load_predictions"} <= calls  # the walk finds them
    known = set(dir(builtins))
    for module in _modules():
        known |= set(dir(module))
        known |= {a for _, t in inspect.getmembers(module, inspect.isclass) if t.__module__ == module.__name__
                  for a in dir(t)}
    assert sorted(calls - known) == []
