"""Self-tests of the benchmark itself: ``python3 -m pytest perfbench``.

Every workload runs at miniature size (``synthetic.small_world_config()``)
through the untraced run and the tracer. A wrapper installed on a name that
its caller never resolves leaves its per-layer counter at zero, which fails
``test_every_layer_metric_is_reached``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import ARTIFACT_METRICS, LAYER_METRICS  # noqa: E402


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    runs = {}
    for name, workload in workloads.WORKLOADS.items():
        session = workloads.Session(workloads.miniature(workload), workloads.DEFAULT_SEED,
                                    tmp_path_factory.mktemp(name))
        untraced = session.measure(seconds=0)
        layer, tracer = session.trace(run_id=name)
        runs[name] = (session, untraced["metrics"], layer, tracer)
    return runs


def test_runs_pass_their_output_checks(runs):
    for name, (session, _, _, _) in runs.items():
        assert session.failures == [], name
        assert session.attempted > 0, name


def test_every_hook_resolves(runs):
    for name, (_, _, _, tracer) in runs.items():
        assert tracer.missing == [], name


def test_every_layer_metric_is_reached(runs):
    for metric in LAYER_METRICS:
        if metric in ARTIFACT_METRICS:
            continue
        assert any(layer[metric] > 0 for _, _, layer, _ in runs.values()), metric


def test_metrics_match_benchmark_json(runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == workloads.END_TO_END_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for _, end_to_end, layer, _ in runs.values():
        assert set(end_to_end) == set(workloads.END_TO_END_METRICS)
        assert set(layer) == set(LAYER_METRICS)
        assert all(value > 0 for value in end_to_end.values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cv-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
