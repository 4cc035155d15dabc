"""Static checks on the package source: it parses under the oldest Python
that CI runs (3.10), so syntax that needs a later version fails here on any
interpreter, no module but `__init__` imports a name it does not use,
every private helper is referenced somewhere in the package, every
module-level public function or class is named by some module other
than `__init__`, every exception class it defines is raised somewhere
in it, no module
leans on the private API of `fractions.Fraction`, which changes between
the Python versions CI runs, no module writes JSON but through the
CLI's writer (`cli._json_text`): `json.dumps`, `json.dump` and
`JSONEncoder` are not used, and no module imports `dataclasses`."""

import ast
import builtins
from fractions import Fraction
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ahweyl"
MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_imported_name_is_used(path):
    # `__init__` imports to re-export; elsewhere an unused import is dead code
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_every_private_helper_is_referenced():
    # a private function, class or method that nothing in the package names
    # is dead code; a use is any name or attribute read of it, in any module
    defined, used = {}, set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined[node.name] = f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = {name: where for name, where in defined.items() if name not in used}
    assert not dead, f"private helpers never referenced: {dead}"


def test_every_public_name_is_used_in_the_package():
    # a module-level public function or class that no module but `__init__`
    # names is API the system does not use: only its re-export and the tests
    # reach it; a use is any name or attribute read of it
    defined, used = {}, set()
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {name: where for name, where in defined.items() if name not in used}
    assert not unused, f"public names no module of the package uses: {unused}"


def test_every_exception_class_is_raised():
    # an exception class that nothing in the package raises is dead API; an
    # exception class is one whose bases include a builtin exception or
    # another exception class of the package, and a raise names it directly
    bases, raised = {}, set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = (
                    {b.id for b in node.bases if isinstance(b, ast.Name)},
                    f"{path.name}:{node.lineno}",
                )
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)

    def is_exception(name, seen=()):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type) and issubclass(builtin, BaseException):
            return True
        return name in bases and name not in seen and any(
            is_exception(b, (*seen, name)) for b in bases[name][0]
        )

    never = {
        name: where
        for name, (_, where) in bases.items()
        if is_exception(name) and name not in raised
    }
    assert not never, f"exception classes never raised: {never}"


# `_from_coprime_ints` exists only from 3.12 and the constructor keyword
# `_normalize` only up to 3.11, while CI runs 3.10 and 3.11; the other
# names are the private attributes of Fraction on the running interpreter
FRACTION_PRIVATE = {"_from_coprime_ints", "_normalize", "_numerator", "_denominator"} | {
    name for name in vars(Fraction) if name.startswith("_") and not name.endswith("__")
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_fraction_api(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        f"{node.attr} at line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in FRACTION_PRIVATE
    ] + [
        f"{node.arg}= at line {node.value.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.keyword) and node.arg == "_normalize"
    ]
    assert not found, f"{path.name} uses the private API of Fraction: {found}"


JSON_ROUTES = {"dumps", "dump", "JSONEncoder"}


def _root_name(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_json_route(path):
    # JSON output goes through one writer, which emits the bytes of
    # json.dumps(indent=2, sort_keys=True); reading JSON (json.loads) is
    # free, and so is another module's dumps (marshal.dumps)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    json_names = {
        alias.asname or "json"
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] == "json"
    }
    found = [
        f"{node.attr} at line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in JSON_ROUTES
        and _root_name(node.value) in json_names
    ] + [
        f"import of {alias.name} at line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "json"
        for alias in node.names
        if alias.name in JSON_ROUTES
    ]
    assert not found, f"{path.name} writes JSON outside the CLI's writer: {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    # result records derive from record.Record: every CLI call is a fresh
    # process, and building dataclasses, with the import of dataclasses and
    # inspect, cost it more than the small jobs it runs
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
        )
        or (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "dataclasses"
        )
    ]
    assert not found, f"{path.name} imports dataclasses at lines {found}"
