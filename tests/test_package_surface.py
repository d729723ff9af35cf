"""Every public function, class and method of the package has a caller.

A public name (no leading underscore) defined at the top level of a module
under ``src/verbtensor``, or as a method of such a class, must be referenced
from ``src/`` or ``perfbench/``: as a bare name or as an attribute. Imports
do not count as references, so a re-export alone does not keep a name
alive. The match is by name, not by binding, so the check can miss a dead
name that shares its spelling with a live one; it never flags a used name.
Helpers that only tests need belong in ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "verbtensor"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench")

# Pinned by the finite-difference tests; the training loop uses their parts.
ALLOWED = {"objective", "gradients"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(package: Path) -> dict:
    """``module.name`` or ``module.Class.method`` -> the bare name."""
    found = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, DEFINITIONS) or node.name.startswith("_"):
                continue
            found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFINITIONS) and not item.name.startswith("_"):
                        found[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return found


def referenced_names(dirs) -> set:
    names = set()
    for directory in dirs:
        for path in sorted(directory.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def unreferenced(package: Path, dirs) -> list:
    used = referenced_names(dirs) | ALLOWED
    return sorted(q for q, name in public_definitions(package).items() if name not in used)


def test_every_public_name_has_a_caller():
    assert unreferenced(PACKAGE, CALLER_DIRS) == []


def test_guard_flags_an_unused_function(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .mod import used, unused\n")
    (package / "mod.py").write_text(
        "def used():\n    return Box().size()\n\n\n"
        "def unused():\n    return used()\n\n\n"
        "class Box:\n    def size(self):\n        return 1\n\n"
        "    def spare(self):\n        return 2\n"
    )
    assert unreferenced(package, [tmp_path / "src"]) == ["mod.Box.spare", "mod.unused"]
