"""Module boundaries of the package, checked on its source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eescore"


def test_no_module_imports_a_private_name_from_another():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("eescore"):
                continue
            offenders += [
                f"{path.name}: {node.module}.{alias.name}" for alias in node.names if alias.name.startswith("_")
            ]
    assert offenders == []


def test_every_export_has_a_caller_outside_tests():
    """A name the package exports is used by another of its modules or by
    the benchmark, not only by tests."""
    init = SRC / "__init__.py"
    exported = {
        alias.name
        for node in ast.walk(ast.parse(init.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    callers = [p for p in SRC.glob("*.py") if p != init] + sorted((SRC.parents[1] / "bench").glob("*.py"))
    used = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(exported - used) == []


def _name(node) -> str:
    return ast.unparse(node.func if isinstance(node, ast.Call) else node)


def test_every_dataclass_validates_or_caches():
    """A type that only holds data is a NamedTuple. @dataclass is kept for
    a type that checks its fields in __post_init__ or caches a
    cached_property."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef) or "dataclass" not in map(_name, node.decorator_list):
                continue
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
            if not any(
                m.name == "__post_init__" or "cached_property" in map(_name, m.decorator_list) for m in methods
            ):
                offenders.append(f"{path.name}: {node.name}")
    assert offenders == []


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module imports is read somewhere in it. `__init__.py`
    re-exports by design, and an import whose first line is marked
    `# noqa: F401` is a deliberate re-export too."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    offenders.append(f"{path.name}: {bound}")
    assert offenders == []


VOCABULARIES = {"MODES", "CONVENTIONS", "EAE_MATCH_MODES", "TRIGGER_POLICIES", "STRAY_I_MODES"}


def test_protocol_vocabularies_are_checked_only_by_protocol():
    """A protocol value is checked once, by `Protocol.__post_init__`. Past
    its definition and imports, a vocabulary is read only there and as
    an argparse `choices=`."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "Protocol":
                allowed |= {
                    id(n) for m in node.body if getattr(m, "name", None) == "__post_init__" for n in ast.walk(m)
                }
            elif isinstance(node, ast.keyword) and node.arg == "choices":
                allowed |= {id(n) for n in ast.walk(node.value)}
        for node in ast.walk(tree):
            read = (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in VOCABULARIES) or (
                isinstance(node, ast.Attribute) and node.attr in VOCABULARIES
            )
            if read and id(node) not in allowed:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_the_console_script_ends_the_process():
    """`os._exit` ends the process without teardown, so it is called only
    in `cli.entry_point`: no library function may end a process that
    embeds the package."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(n)
            for node in tree.body
            if path.name == "cli.py" and isinstance(node, ast.FunctionDef) and node.name == "entry_point"
            for n in ast.walk(node)
        }
        for node in ast.walk(tree):
            named = (isinstance(node, ast.Attribute) and node.attr == "_exit") or (
                isinstance(node, ast.alias) and node.name == "_exit"
            )
            if named and id(node) not in allowed:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_every_literal_cli_refusal_is_tested_verbatim():
    """Each message that `cli.py` raises as a plain string literal appears
    verbatim in a test or golden transcript, so no refusal goes unrun."""
    here = Path(__file__).resolve()
    tests = [p for p in sorted(here.parent.rglob("*")) if p.suffix in (".py", ".txt") and p != here]
    corpus = "\n".join(p.read_text(encoding="utf-8") for p in tests)
    messages = [
        node.exc.args[0].value
        for node in ast.walk(ast.parse((SRC / "cli.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args
        and isinstance(node.exc.args[0], ast.Constant) and isinstance(node.exc.args[0].value, str)
    ]
    assert messages  # the walk finds them
    assert [m for m in messages if m not in corpus] == []
