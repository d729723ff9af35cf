"""The benchmark's tracer still finds what it patches and reads.

``perfbench/tracer.py`` replaces package functions by (module, attribute)
name for a traced run, and reads ``tensor_model.train``'s first three
arguments by position to count SGD steps, so a keyword call would fail the
traced run. The benchmark's own tests run only under ``python3 -m pytest
perfbench``, so these checks keep a rename in the package from breaking the
benchmark unseen. The tracer is loaded by path, as the benchmark is not a
package.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from verbtensor import tensor_model

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = load_tracer()
    hooks = [hook[:2] for hook in tracer.SPAN_HOOKS + tracer.AGGREGATE_HOOKS]
    assert hooks
    missing = [f"{module}.{attribute}" for module, attribute in hooks
               if not callable(getattr(importlib.import_module(module), attribute, None))]
    assert missing == []


def test_train_takes_triples_embeddings_and_config_first():
    parameters = list(inspect.signature(tensor_model.train).parameters)
    assert parameters[:3] == ["triples", "embeddings", "config"]


def test_the_package_passes_train_its_first_three_arguments_by_position():
    calls = [
        node
        for path in sorted((ROOT / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "train"
    ]
    assert calls
    assert [ast.unparse(call) for call in calls if len(call.args) < 3] == []
