"""Module boundaries of the package, checked on its source, and the benchmark's use of it."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

from eescore import errors
from eescore.cli import build_parser
from eescore.ingest import PredictionRecord
from eescore.protocol import PROTOCOL_CHOICES
from eescore.standardize import StandardizedRecord

SRC = Path(__file__).resolve().parent.parent / "src" / "eescore"
BENCH = SRC.parent.parent / "bench"


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


# the names that `protocol` alone defines: the protocol's vocabulary and the records built on it
PROTOCOL_NAMES = {
    "MODE_GOLD_TRIGGER", "MODE_PIPELINE", "CONVENTION_MODERN", "CONVENTION_LEGACY",
    "EAE_MATCH_BY_TYPE", "EAE_MATCH_BY_TRIGGER", "TRIGGER_POLICY_EVERY_TOKEN", "TRIGGER_POLICY_SPANS_UP_TO_K",
    "STRAY_I_OPEN", "STRAY_I_DISCARD", "PARADIGM_CLS", "PARADIGM_SL", "PARADIGM_SP", "PARADIGM_CG", "PARADIGMS",
    "CandidatePolicy", "StandardizeOptions", "PROTOCOL_CHOICES", "Protocol", "protocol_keys", "is_score",
}


def test_the_protocol_vocabulary_is_defined_only_in_protocol():
    """What a score measures is stated once: no other module spells a
    protocol value as a string or binds one of `protocol`'s names at its
    top level; each imports them from `protocol`."""
    values = {value for allowed in PROTOCOL_CHOICES.values() for value in allowed if isinstance(value, str)}
    assert PROTOCOL_NAMES <= _defined_names(ast.parse((SRC / "protocol.py").read_text(encoding="utf-8")))
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "protocol.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.name}: {name}" for name in sorted(_defined_names(tree) & PROTOCOL_NAMES)]
        offenders += [
            f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in values
        ]
    assert offenders == []


def test_protocol_loads_only_errors_and_jsonio():
    """A reader of protocols does not load the data path: in a fresh
    interpreter, `eescore.protocol` brings in no other module of the
    package than `errors` and `jsonio`."""
    probe = "import sys, eescore.protocol; print(*sorted(m for m in sys.modules if m.startswith('eescore.')))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["eescore.errors", "eescore.jsonio", "eescore.protocol"]


def _decodes(node) -> bool:
    """Whether `node` turns bytes into text or text into JSON: a `.decode(...)`
    call, `json.loads` or `json.load`, or a JSON decoder named or imported."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "decode":
        return True
    if isinstance(node, ast.Attribute) and ast.unparse(node) in ("json.loads", "json.load"):
        return True
    name = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node))
    return name is not None and "DECODER" in getattr(node, name).upper()


def test_only_jsonio_decodes_input():
    """Input bytes become text and text becomes JSON in `jsonio` alone, and
    every refusal `jsonio` raises is a ParseError: each input file is read
    one way, and its faults are worded one way."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if path.name == "jsonio.py":
                if isinstance(node, ast.Raise) and "ValueError" in ast.unparse(node):
                    offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            elif _decodes(node):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
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


# each settings record's vocabulary table -> the record that owns it
VOCABULARIES = {"PROTOCOL_CHOICES": "Protocol", "VARIANT_CHOICES": "VariantConfig"}


def test_protocol_vocabularies_are_checked_only_by_protocol():
    """A setting's value is checked once, by its record's `__post_init__`.
    Past its definition and imports, a vocabulary table is read only
    there and as an argparse `choices=`."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {name: set() for name in VOCABULARIES}
        for node in ast.walk(tree):
            for name, owner in VOCABULARIES.items():
                if isinstance(node, ast.keyword) and node.arg == "choices":
                    allowed[name] |= {id(n) for n in ast.walk(node.value)}
                elif isinstance(node, ast.ClassDef) and node.name == owner:
                    allowed[name] |= {
                        id(n) for m in node.body if getattr(m, "name", None) == "__post_init__" for n in ast.walk(m)
                    }
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) else (
                node.attr if isinstance(node, ast.Attribute) else None
            )
            if name in VOCABULARIES and id(node) not in allowed[name]:
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


def test_only_decode_reads_a_prediction_payload():
    """A prediction record is decoded one way: `standardize._decode` alone
    reads a `.payload`, as its file's paradigm types it, and both output
    spaces take their predictions from it. `ingest` builds records
    positionally, so it reads none."""
    reads = []  # (where, whether `_decode` reads it)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decode = {
            id(n)
            for node in tree.body
            if path.name == "standardize.py" and isinstance(node, ast.FunctionDef) and node.name == "_decode"
            for n in ast.walk(node)
        }
        reads += [
            (f"{path.name}:{node.lineno}", id(node) in decode)
            for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "payload"
        ]
    assert any(by_decode for _, by_decode in reads)  # the walk finds them
    assert [where for where, by_decode in reads if not by_decode] == []


def test_one_encoder_spells_a_record():
    """A record is spelled as JSON by `core.plain` alone. `as_dict` is kept
    only where a record is not spelled field for field: `EvalReport`
    computes its scores, `ConfusionCounts` (which `bench/traced.py` calls)
    renders inside it, and `VariantConfig` is a dataclass."""
    defining = sorted(
        node.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(m, ast.FunctionDef) and m.name == "as_dict" for m in node.body)
    )
    assert defining == ["ConfusionCounts", "EvalReport", "VariantConfig"]


def test_every_literal_refusal_is_tested_verbatim():
    """Each message that a module raises as a plain string literal appears
    verbatim in a string of a test or in a golden transcript, so no
    refusal goes unrun. The reference parser in `oracles.py` repeats the
    messages it mirrors, so its strings do not count."""
    here = Path(__file__).resolve()
    strings = [p.read_text(encoding="utf-8") for p in sorted(here.parent.rglob("*.txt"))]
    strings += [
        node.value
        for p in sorted(here.parent.rglob("*.py")) if p not in (here, here.parent / "oracles.py")
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


def test_a_refusal_has_one_owner_for_its_line_and_one_for_its_input():
    """A line locator is spelled once, by `ToolkitError(message, line)`: no
    message a module raises outside `errors.py` holds `line ` but in the
    `first seen at line` cross-reference. An input and its path are put
    before a fault by `errors.naming` alone, which also gives the fault its
    exit class: no other function of any module catches a ToolkitError to
    raise another. Two handlers are exempt because they only attach a
    line: `jsonio.loads` re-raises a repeated key at the line it parsed,
    and `variants.parse_variant_config` a `VariantConfig` refusal at its
    setting's line. Why a path is refused is spelled by `naming` alone too:
    no message raised outside `errors.py` says that a path does not exist,
    is not a file or a directory, or cannot be read, nor calls a manifest
    corrupt (a file *name* inside the store is another matter)."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    raised = [(f"{module}.py:{node.lineno}", part.value)
              for module, tree in trees.items() if module != "errors"
              for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc
              for part in ast.walk(node.exc) if isinstance(part, ast.Constant) and isinstance(part.value, str)]
    assert raised  # the walk finds them
    assert [where for where, text in raised if re.search(r"\bline ", text.replace("first seen at line ", ""))] == []
    reasons = r"does not exist|is not a (file|directory)\b(?! name)|corrupt manifest|cannot read"
    assert [(where, text) for where, text in raised if re.search(reasons, text)] == []
    toolkit_errors = {name for name, value in vars(errors).items()
                      if isinstance(value, type) and issubclass(value, errors.ToolkitError)}
    exempt = {"errors.naming", "jsonio.loads", "variants.parse_variant_config"}
    rewrapping = {
        f"{module}.{function.name}"
        for module, tree in trees.items()
        for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        if f"{module}.{function.name}" not in exempt
        for handler in ast.walk(function) if isinstance(handler, ast.ExceptHandler) and handler.type
        if {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)} & toolkit_errors
        and any(isinstance(n, ast.Raise) and n.exc for n in ast.walk(handler))
    }
    assert rewrapping == set()


def _assigns(node, names) -> bool:
    return isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id in names for t in node.targets)


def test_bench_uses_only_what_the_package_has():
    """The benchmark runs the package from its files, so a change that
    breaks it fails here too: every name `bench/` imports from an
    `eescore` module (`run.py`'s set-up probe included) is there, every
    workload's argv parses, every `args.<name>` that `traced.py` reads is
    a dest of the parser, and every attribute it reads on a record
    (`record.<name>`, `r.<name>`) is one that `PredictionRecord` or
    `StandardizedRecord` has. The bench files are read, not imported:
    `tests/gen.py` would shadow `bench/gen.py`."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(BENCH.glob("*.py"))}
    probe = next(node.value for node in trees["run.py"].body if _assigns(node, {"SETUP_PROBE"}))
    trees["run.py SETUP_PROBE"] = ast.parse(ast.literal_eval(probe))
    imported = [
        (where, node.module, alias.name)
        for where, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("eescore.") for alias in node.names
    ]
    assert {"traced.py", "run.py SETUP_PROBE"} <= {where for where, _, _ in imported}
    assert [i for i in imported if not hasattr(importlib.import_module(i[1]), i[2])] == []

    # the workload argv, from the definitions of SCORE_ARGS, PUT_ARGS and put_args alone
    gen = [node for node in trees["gen.py"].body
           if _assigns(node, {"SCORE_ARGS", "PUT_ARGS"}) or getattr(node, "name", None) == "put_args"]
    workloads: dict = {}
    exec(compile(ast.Module(gen, type_ignores=[]), str(BENCH / "gen.py"), "exec"), workloads)
    fill = {"{store}": "store", "{producer}": "p"}
    dests = set()
    for workload, score in workloads["SCORE_ARGS"].items():
        for argv in (score, workloads["put_args"](workload)):
            dests |= vars(build_parser().parse_args([fill.get(a, a) for a in argv])).keys()

    def read(*names) -> set:
        return {node.attr for node in ast.walk(trees["traced.py"])
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in names}

    assert "trigger_policy" in read("args")
    assert read("args") - dests == set()
    on_records = read("record", "r")
    assert {"doc_id", "anchor", "task", "assignments", "discarded"} <= on_records
    assert {a for a in on_records if not hasattr(PredictionRecord, a) and not hasattr(StandardizedRecord, a)} == set()
