"""Outside-in tracer for the verbtensor benchmark.

Nothing under ``src/`` is instrumented. Instead, :class:`Tracer` replaces
public verbtensor functions with timing wrappers for the length of a traced
run, patching each name in the module where its caller looks it up: for
example ``verbtensor.vectors.truncated_svd`` (how ``reduce_to_embeddings``
reaches the SVD), not ``verbtensor.linalg.truncated_svd``.

Most wrappers record one span per call: name, start, end, parent span and
run id. Per-example calls (``tensor_model.predict``, ``baseline.score``) are
only counted and timed in aggregate, because one span each would cost more
than the call. Spans stay in memory until :meth:`Tracer.write_spans`.
"""

import importlib
import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    run_id: str
    end: float = 0.0
    aggregated_child_s: float = 0.0  # time in aggregated calls made directly inside
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_sha256_bytes(tracer, span, args, kwargs, result):
    tracer.counters["util.sha256_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_svd_cells(tracer, span, args, kwargs, result):
    rows, cols = _arg(args, kwargs, 0, "matrix").shape
    tracer.counters["linalg.svd_cells"] += rows * cols


def _count_triples_rows(tracer, span, args, kwargs, result):
    tracer.counters["data.triples_rows_read"] += len(result)


def _count_confounders(tracer, span, args, kwargs, result):
    tracer.counters["data.confounders_drawn"] += 2 * len(result)  # subject and object


def _note_sgd_steps(tracer, span, args, kwargs, result):
    examples = len(_arg(args, kwargs, 0, "dataset"))
    span.attrs["k"] = _arg(args, kwargs, 1, "embeddings").dim
    span.attrs["steps"] = examples * _arg(args, kwargs, 2, "config").epochs


# (module, attribute, span name, hook run after the call returns)
SPAN_HOOKS = (
    ("verbtensor.pipeline", "build_vectors", "pipeline.build_vectors", None),
    ("verbtensor.pipeline", "gen_data", "pipeline.gen_data", None),
    ("verbtensor.pipeline", "experiment", "pipeline.experiment", None),
    ("verbtensor.pipeline", "train_verb", "pipeline.train", None),
    ("verbtensor.pipeline", "predict_one", "pipeline.predict", None),
    ("verbtensor.pipeline", "sha256_file", "util.sha256_file", _count_sha256_bytes),
    ("verbtensor.corpus", "scan_corpus", "corpus.scan_corpus", None),
    ("verbtensor.vectors", "ttest_weight", "vectors.ttest_weight", None),
    ("verbtensor.vectors", "select_top_n", "vectors.select_top_n", None),
    ("verbtensor.vectors", "reduce_to_embeddings", "vectors.reduce_to_embeddings", None),
    ("verbtensor.vectors", "write_embeddings_tsv", "vectors.write_embeddings_tsv", None),
    ("verbtensor.vectors", "read_embeddings_tsv", "vectors.read_embeddings_tsv", None),
    ("verbtensor.vectors", "truncated_svd", "linalg.truncated_svd", _count_svd_cells),
    ("verbtensor.data", "read_triples_tsv", "data.read_triples_tsv", _count_triples_rows),
    ("verbtensor.data", "load_positives", "data.load_positives", None),
    ("verbtensor.data", "gen_confounders", "data.gen_confounders", _count_confounders),
    ("verbtensor.data", "read_dataset_jsonl", "data.read_dataset_jsonl", None),
    ("verbtensor.tensor_model", "train", "tensor_model.train", _note_sgd_steps),
    ("verbtensor.tensor_model", "save_model", "tensor_model.save_model", None),
    ("verbtensor.tensor_model", "load_model", "tensor_model.load_model", None),
    ("verbtensor.baseline", "train_baseline", "baseline.train_baseline", None),
    ("verbtensor.baseline", "calibrate_cutoff", "baseline.calibrate_cutoff", None),
    ("verbtensor.evaluation", "evaluate_on_splits", "evaluation.evaluate_on_splits", None),
    ("verbtensor.evaluation", "roc_auc", "evaluation.roc_auc", None),
    ("verbtensor.evaluation", "f_test_5x2cv", "evaluation.f_test_5x2cv", None),
)

# (module, attribute, name) of per-example calls timed in aggregate
AGGREGATE_HOOKS = (
    ("verbtensor.tensor_model", "predict", "tensor_model.predict"),
    ("verbtensor.baseline", "score", "baseline.score"),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counters = Counter()
        self.aggregates = {}  # name -> [calls, total seconds]
        self.missing = []  # hooks whose attribute no longer exists
        self._stack = []

    def _span_wrapper(self, fn, name, after):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, time.perf_counter(), parent, self.run_id)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, span, args, kwargs, result)
            return result

        return wrapper

    def _aggregate_wrapper(self, fn, name):
        totals = self.aggregates.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                totals[0] += 1
                totals[1] += elapsed
                if self._stack:
                    self._stack[-1].aggregated_child_s += elapsed

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every hook for the duration of the block, then restore."""
        originals = []
        wrappers = [(m, a, n, after, False) for m, a, n, after in SPAN_HOOKS]
        wrappers += [(m, a, n, None, True) for m, a, n in AGGREGATE_HOOKS]
        try:
            for module_name, attribute, name, after, aggregate in wrappers:
                module = importlib.import_module(module_name)
                fn = getattr(module, attribute, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attribute}")
                    continue
                originals.append((module, attribute, fn))
                wrapper = (self._aggregate_wrapper(fn, name) if aggregate
                           else self._span_wrapper(fn, name, after))
                setattr(module, attribute, wrapper)
            yield self
        finally:
            for module, attribute, fn in reversed(originals):
                setattr(module, attribute, fn)

    def self_times(self) -> dict:
        """Span id -> duration minus the time its child spans and aggregated calls cover."""
        covered = Counter()
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return {
            s.id: s.duration - covered[s.id] - s.aggregated_child_s for s in self.spans
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = asdict(span)
                record["duration"] = span.duration
                handle.write(json.dumps(record, sort_keys=True) + "\n")


# name -> (unit, better). The traced run reports exactly these metrics.
LAYER_METRICS = {
    "corpus.scan_calls": ("count", "lower"),
    "corpus.scan_s": ("s", "lower"),
    "corpus.tokens_per_s": ("1/s", "higher"),
    "vectors.ttest_s": ("s", "lower"),
    "vectors.select_top_n_calls": ("count", "lower"),
    "vectors.select_top_n_s": ("s", "lower"),
    "vectors.reduce_calls": ("count", "lower"),
    "vectors.write_embeddings_s": ("s", "lower"),
    "vectors.read_embeddings_calls": ("count", "lower"),
    "vectors.read_embeddings_s": ("s", "lower"),
    "linalg.svd_calls": ("count", "lower"),
    "linalg.svd_s": ("s", "lower"),
    "linalg.svd_cells": ("count", "lower"),
    "data.triples_rows_read": ("count", "lower"),
    "data.load_positives_s": ("s", "lower"),
    "data.gen_confounders_s": ("s", "lower"),
    "data.confounders_drawn": ("count", "lower"),
    "data.read_dataset_s": ("s", "lower"),
    "data.negatives_attested": ("count", "lower"),
    "data.negatives_duplicate": ("count", "lower"),
    "tensor_model.train_calls": ("count", "lower"),
    "tensor_model.train_s": ("s", "lower"),
    "tensor_model.sgd_steps": ("count", "lower"),
    "tensor_model.step_us_k20": ("us", "lower"),
    "tensor_model.step_us_k40": ("us", "lower"),
    "tensor_model.save_model_s": ("s", "lower"),
    "tensor_model.predict_calls": ("count", "lower"),
    "tensor_model.predict_us": ("us", "lower"),
    "tensor_model.load_model_s": ("s", "lower"),
    "baseline.train_s": ("s", "lower"),
    "baseline.calibrate_s": ("s", "lower"),
    "baseline.score_calls": ("count", "lower"),
    "baseline.score_us": ("us", "lower"),
    "baseline.auc_mean": ("auc", "higher"),
    "evaluation.split_evals": ("count", "lower"),
    "evaluation.roc_auc_calls": ("count", "lower"),
    "evaluation.roc_auc_s": ("s", "lower"),
    "evaluation.f_test_calls": ("count", "lower"),
    "pipeline.build_vectors_self_s": ("s", "lower"),
    "pipeline.gen_data_self_s": ("s", "lower"),
    "pipeline.experiment_self_s": ("s", "lower"),
    "pipeline.train_self_s": ("s", "lower"),
    "pipeline.predict_self_s": ("s", "lower"),
    "pipeline.manifest_mismatches": ("count", "lower"),
    "util.sha256_calls": ("count", "lower"),
    "util.sha256_bytes": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Metrics the benchmark measures from artifacts, not through a hook; a
# fixed program may bring them to zero.
ARTIFACT_METRICS = (
    "data.negatives_attested",
    "data.negatives_duplicate",
    "pipeline.manifest_mismatches",
)


def hook_metrics(tracer: Tracer, corpus_tokens: int) -> dict:
    """Per-layer values derived from the spans and counters of one traced run.

    ``corpus_tokens`` is the token count of the traced fixture's corpus, so
    every scan call is credited with one full pass over it.
    """
    calls = Counter(s.name for s in tracer.spans)
    seconds = Counter()
    for span in tracer.spans:
        seconds[span.name] += span.duration
    self_s = Counter()
    for span_id, value in tracer.self_times().items():
        self_s[tracer.spans[span_id].name] += value

    def per_call_us(name):
        count, total = tracer.aggregates.get(name, (0, 0.0))
        return 1e6 * total / count if count else 0.0

    def step_us(k):
        trains = [s for s in tracer.spans
                  if s.name == "tensor_model.train" and s.attrs.get("k") == k]
        steps = sum(s.attrs["steps"] for s in trains)
        return 1e6 * sum(s.duration for s in trains) / steps if steps else 0.0

    scan_s = seconds["corpus.scan_corpus"]
    return {
        "corpus.scan_calls": calls["corpus.scan_corpus"],
        "corpus.scan_s": scan_s,
        "corpus.tokens_per_s": (calls["corpus.scan_corpus"] * corpus_tokens / scan_s
                                if scan_s else 0.0),
        "vectors.ttest_s": seconds["vectors.ttest_weight"],
        "vectors.select_top_n_calls": calls["vectors.select_top_n"],
        "vectors.select_top_n_s": seconds["vectors.select_top_n"],
        "vectors.reduce_calls": calls["vectors.reduce_to_embeddings"],
        "vectors.write_embeddings_s": seconds["vectors.write_embeddings_tsv"],
        "vectors.read_embeddings_calls": calls["vectors.read_embeddings_tsv"],
        "vectors.read_embeddings_s": seconds["vectors.read_embeddings_tsv"],
        "linalg.svd_calls": calls["linalg.truncated_svd"],
        "linalg.svd_s": seconds["linalg.truncated_svd"],
        "linalg.svd_cells": tracer.counters["linalg.svd_cells"],
        "data.triples_rows_read": tracer.counters["data.triples_rows_read"],
        "data.load_positives_s": seconds["data.load_positives"],
        "data.gen_confounders_s": seconds["data.gen_confounders"],
        "data.confounders_drawn": tracer.counters["data.confounders_drawn"],
        "data.read_dataset_s": seconds["data.read_dataset_jsonl"],
        "tensor_model.train_calls": calls["tensor_model.train"],
        "tensor_model.train_s": seconds["tensor_model.train"],
        "tensor_model.sgd_steps": sum(s.attrs.get("steps", 0) for s in tracer.spans),
        "tensor_model.step_us_k20": step_us(20),
        "tensor_model.step_us_k40": step_us(40),
        "tensor_model.save_model_s": seconds["tensor_model.save_model"],
        "tensor_model.predict_calls": tracer.aggregates.get("tensor_model.predict", (0,))[0],
        "tensor_model.predict_us": per_call_us("tensor_model.predict"),
        "tensor_model.load_model_s": seconds["tensor_model.load_model"],
        "baseline.train_s": seconds["baseline.train_baseline"],
        "baseline.calibrate_s": seconds["baseline.calibrate_cutoff"],
        "baseline.score_calls": tracer.aggregates.get("baseline.score", (0,))[0],
        "baseline.score_us": per_call_us("baseline.score"),
        "evaluation.split_evals": calls["evaluation.evaluate_on_splits"],
        "evaluation.roc_auc_calls": calls["evaluation.roc_auc"],
        "evaluation.roc_auc_s": seconds["evaluation.roc_auc"],
        "evaluation.f_test_calls": calls["evaluation.f_test_5x2cv"],
        "pipeline.build_vectors_self_s": self_s["pipeline.build_vectors"],
        "pipeline.gen_data_self_s": self_s["pipeline.gen_data"],
        "pipeline.experiment_self_s": self_s["pipeline.experiment"],
        "pipeline.train_self_s": self_s["pipeline.train"],
        "pipeline.predict_self_s": self_s["pipeline.predict"],
        "util.sha256_calls": calls["util.sha256_file"],
        "util.sha256_bytes": tracer.counters["util.sha256_bytes"],
    }
