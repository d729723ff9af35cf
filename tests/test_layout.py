"""The artifact layout: ``pipeline._LAYOUT`` is the one place output files are named.

Outside that table, no string constant in ``pipeline.py`` names an output
file, and ``config.py`` spells no output subdirectory. The module docstring
lists the table, and one run of every writing command pins the set of paths
under ``--out``, so any change to the layout shows up here.
"""

import ast
import re
from pathlib import Path

from verbtensor import pipeline
from verbtensor.cli import EXIT_OK, main as cli_main

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "verbtensor"

# an output file's name: one of the pipeline's suffixes, or a manifest's name
OUTPUT_NAME = re.compile(r"\.(jsonl|tvbm|csv|tsv|json)\b|^manifest[_.-]")


def module_tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text(encoding="utf-8"))


def string_constants(node) -> list:
    """Every string constant under ``node``, docstrings excepted."""
    docstrings = {id(stmt.value) for stmt in ast.walk(node)
                  if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)}
    return [c.value for c in ast.walk(node)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)
            and id(c) not in docstrings]


def test_only_the_layout_names_output_files():
    tree = module_tree("pipeline.py")
    (layout,) = [stmt for stmt in tree.body if isinstance(stmt, ast.Assign)
                 and [t.id for t in stmt.targets if isinstance(t, ast.Name)] == ["_LAYOUT"]]
    tree.body.remove(layout)
    assert [s for s in string_constants(tree) if OUTPUT_NAME.search(s)] == []
    # the pattern knows every name the table spells
    assert all(OUTPUT_NAME.search(t.split("/")[-1]) for t in pipeline._LAYOUT.values())


def test_config_spells_no_output_subdirectory():
    """``config.py`` knows ``output_dir`` and nothing below it.

    ``vectors`` is also the name of a config section, so it may appear as one.
    """
    tree = module_tree("config.py")
    sections = {call.args[0].value for call in ast.walk(tree)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id in ("_get", "_path")}
    subdirectories = {template.split("/")[0] for template in pipeline._LAYOUT.values()}
    assert subdirectories - sections == {"datasets", "models", "reports"}
    assert set(string_constants(tree)) & (subdirectories - sections) == set()
    joins = [node for node in ast.walk(tree) if isinstance(node, ast.BinOp)
             and isinstance(node.op, ast.Div)
             and any(isinstance(side, ast.Constant) for side in (node.left, node.right))]
    assert joins == []


def test_module_docstring_lists_the_layout():
    listed = [line[2:] for line in pipeline.__doc__.splitlines()
              if line.startswith("- ``") and "``: ``" in line]
    assert listed == [f"``{kind}``: ``{template}``" for kind, template in pipeline._LAYOUT.items()]


def test_every_command_writes_the_pinned_inventory(small_fixture, tmp_path):
    """build-vectors, gen-data, every experiment kind and train leave exactly these files."""
    out = tmp_path / "out"
    for command in (["build-vectors"], ["gen-data"],
                    *(["experiment", "--which", which] for which in pipeline.EXPERIMENT_KINDS),
                    ["train", "--verb", "devour"]):
        assert cli_main(["--config", str(small_fixture), "--out", str(out), *command]) \
            == EXIT_OK, command
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()) == [
        "datasets/assemble.jsonl",
        "datasets/devour.jsonl",
        "datasets/manifest.json",
        "models/devour_k6.tvbm",
        "models/manifest_devour_k6.json",
        "reports/curves.csv",
        "reports/full_cv.csv",
        "reports/full_cv_comparisons.csv",
        "reports/manifest_experiment-curves.json",
        "reports/manifest_experiment-full-cv.json",
        "reports/manifest_experiment-small-cv.json",
        "reports/small_cv.csv",
        "reports/small_cv_comparisons.csv",
        "vectors/embeddings_k10.tsv",
        "vectors/embeddings_k10.tvb",
        "vectors/embeddings_k6.tsv",
        "vectors/embeddings_k6.tvb",
        "vectors/frequencies.tsv",
        "vectors/manifest.json",
    ]
