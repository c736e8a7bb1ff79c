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


def test_the_package_imports_nothing():
    """Each name has one import path, the module that defines it: the
    package root re-exports nothing."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))] == []


def _defined_names(tree) -> set:
    """The names a module binds at its top level with `def`, `class` or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_every_name_is_imported_from_the_module_that_defines_it():
    """A relative import takes each name from the module that defines it,
    never through another module's imports."""
    defined = {path.stem: _defined_names(ast.parse(path.read_text(encoding="utf-8"))) for path in SRC.glob("*.py")}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                offenders += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names if alias.name not in defined[node.module]
                ]
    assert offenders == []


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
    """Every name a module imports is read somewhere in it. An import
    whose first line is marked `# noqa: F401` is a deliberate re-export."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
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


def test_every_literal_refusal_is_tested_verbatim():
    """Each message that a module raises as a plain string literal appears
    verbatim in a string of a test or in a golden transcript, so no
    refusal goes unrun."""
    here = Path(__file__).resolve()
    strings = [p.read_text(encoding="utf-8") for p in sorted(here.parent.rglob("*.txt"))]
    strings += [
        node.value
        for p in sorted(here.parent.rglob("*.py")) if p != here
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    corpus = "\n".join(strings)
    messages = [
        (path.name, node.exc.args[0].value)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args
        and isinstance(node.exc.args[0], ast.Constant) and isinstance(node.exc.args[0].value, str)
    ]
    assert messages  # the walk finds them
    assert [(name, m) for name, m in messages if m not in corpus] == []
