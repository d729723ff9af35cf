"""Every function and class of the package, and every public method, has a caller.

A name defined at the top level of a module under ``src/verbtensor``,
public or private (leading underscore), must be referenced from ``src/`` or
``perfbench/``, as a bare name or as an attribute, so a helper that only
tests use cannot hide behind an underscore. A public method or property of a
class must be referenced as an attribute (``obj.name``): a local variable
that shares its name does not keep it alive. Imports do not count as
references, so a re-export alone does not keep a name alive. Likewise every
field of a dataclass in the package must be read as an attribute
(``obj.field`` in a load context) somewhere in ``src/`` or ``perfbench/``.
The match is by name, not by binding, so the check can miss a dead name that
shares its spelling with a live one; it never flags a used name. There are
no exemptions: a helper or field that only tests need belongs in ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "verbtensor"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench")

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def checked_definitions(package: Path) -> dict:
    """``module.name`` or ``module.Class.method`` -> (the bare name, whether a method),
    for every top-level function and class and every public method."""
    found = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, DEFINITIONS):
                continue
            found[f"{path.stem}.{node.name}"] = (node.name, False)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFINITIONS) and not item.name.startswith("_"):
                        found[f"{path.stem}.{node.name}.{item.name}"] = (item.name, True)
    return found


def referenced_names(dirs) -> tuple:
    """The bare names and the attribute names referenced under ``dirs``."""
    names, attributes = set(), set()
    for directory in dirs:
        for path in sorted(directory.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
    return names, attributes


def unreferenced(package: Path, dirs) -> list:
    names, attributes = referenced_names(dirs)
    return sorted(
        q for q, (name, method) in checked_definitions(package).items()
        if name not in attributes and (method or name not in names)
    )


def _is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def dataclass_fields(package: Path) -> dict:
    """``module.Class.field`` -> the field name, for every dataclass in the package."""
    found = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(_is_dataclass_decorator(d) for d in node.decorator_list):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    found[f"{path.stem}.{node.name}.{item.target.id}"] = item.target.id
    return found


def loaded_attributes(dirs) -> set:
    names = set()
    for directory in dirs:
        for path in sorted(directory.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
    return names


def unread_fields(package: Path, dirs) -> list:
    read = loaded_attributes(dirs)
    return sorted(q for q, name in dataclass_fields(package).items() if name not in read)


def test_every_public_name_has_a_caller():
    assert unreferenced(PACKAGE, CALLER_DIRS) == []


def test_guard_flags_an_unused_function(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .mod import used, unused\n")
    (package / "mod.py").write_text(
        "def used():\n    total = Box().size()\n    return _helper(total)\n\n\n"
        "def unused():\n    return used()\n\n\n"
        "def _helper(value):\n    return value\n\n\n"
        "def _spare_helper():\n    return 0\n\n\n"
        "class _Hidden:\n    pass\n\n\n"
        "class Box:\n    def size(self):\n        return 1\n\n"
        "    def spare(self):\n        return 2\n\n"
        "    @property\n    def total(self):\n        return 3\n"
    )
    assert unreferenced(package, [tmp_path / "src"]) == [
        "mod.Box.spare", "mod.Box.total", "mod._Hidden", "mod._spare_helper", "mod.unused"
    ]


def test_every_dataclass_field_is_read():
    assert unread_fields(PACKAGE, CALLER_DIRS) == []


def test_guard_flags_an_unread_field(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass Point:\n    x: int\n    y: int\n\n\n"
        "@dataclasses.dataclass\nclass Box:\n    size: int\n    spare: int = 0\n\n\n"
        "class Plain:\n    unread: int = 0\n\n\n"
        "def area(p, box):\n    box.spare = 1\n    return p.x * box.size\n"
    )
    assert unread_fields(package, [tmp_path / "src"]) == ["mod.Box.spare", "mod.Point.y"]
