"""Each input enters one way: one loader per upstream artifact, one line source per text file.

In ``pipeline.py`` the embeddings and dataset readers are named only inside
``_load_embeddings`` and ``_load_dataset``, so a check added there (against
the manifest of the command that wrote the file) cannot be bypassed. In
``src/`` a file is opened for text reading only by ``util.read_lines``, the
line source of every finite text input, ``corpus.iter_corpus_lines``, the
one streaming reader, and ``config.load_config``, which hands the handle to
``configparser``. Only ``util.read_rows`` splits a row on tabs or reads a
count's digits, so the row rules of the tab-separated readers are written once.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "verbtensor"

LOADERS = {"read_embeddings_tsv": "_load_embeddings", "read_dataset_jsonl": "_load_dataset"}
TEXT_READERS = {"util.read_lines", "corpus.iter_corpus_lines", "config.load_config"}


def enclosing_functions(tree: ast.Module) -> dict:
    """``id(node)`` -> the name of the top-level function holding it, for every node."""
    owner = {}
    for stmt in tree.body:
        name = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            owner[id(node)] = name
    return owner


def test_readers_are_named_only_in_their_loaders():
    tree = ast.parse((PACKAGE / "pipeline.py").read_text(encoding="utf-8"))
    owner = enclosing_functions(tree)
    uses = [(node.attr if isinstance(node, ast.Attribute) else node.id, owner[id(node)])
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in LOADERS
            or isinstance(node, ast.Name) and node.id in LOADERS]
    assert sorted(uses) == sorted(LOADERS.items())


def mode_of(call: ast.Call, default: str):
    """The mode an ``open``-like call passes: ``default`` if none, ``None`` if not a constant."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant(default))
    return mode.value if isinstance(mode, ast.Constant) else None


def nodes_in_package():
    """``(where, node)`` for every AST node in the package, ``where`` being
    ``module.function`` of the top-level function or class around it."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = enclosing_functions(tree)
        for stmt in tree.body:
            for node in ast.walk(stmt):
                yield f"{path.stem}.{owner[id(node)]}", node


def calls_in_package():
    """``(where, name, call)`` for every call in the package."""
    for where, node in nodes_in_package():
        if isinstance(node, ast.Call):
            yield where, getattr(node.func, "attr", getattr(node.func, "id", None)), node


def test_text_files_are_read_in_three_places():
    text_reads, variable_modes, output_modes = set(), set(), []
    for where, name, call in calls_in_package():
        if name == "read_text":
            text_reads.add(where)
        elif name == "open":
            mode = mode_of(call, "r")
            if mode is None:
                variable_modes.add(where)
            elif "b" not in mode and not set(mode) & set("wax+"):
                text_reads.add(where)
        elif name == "open_output":
            output_modes.append(mode_of(call, "w"))
    assert text_reads == TEXT_READERS
    # the one open with a variable mode is the writer's, and its callers all write
    assert variable_modes == {"util.open_output"}
    assert output_modes and set(output_modes) <= {"w", "wb"}


def test_tab_separated_rows_are_split_in_one_place():
    splits_on_tab = {
        where for where, name, call in calls_in_package()
        if name in ("split", "rsplit")
        and any(isinstance(arg, ast.Constant) and arg.value == "\t"
                for arg in [*call.args, *(kw.value for kw in call.keywords)])
    }
    reads_digits = {where for where, node in nodes_in_package()
                    if isinstance(node, ast.Attribute) and node.attr == "isdigit"}
    assert splits_on_tab == reads_digits == {"util.read_rows"}
