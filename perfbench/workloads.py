"""Workloads of the verbtensor benchmark and the runs that measure them.

Each workload generates a synthetic world with ``synthetic.write_fixture``,
runs the pipeline's prerequisite commands (the set-up), and then repeats a
*pass* through ``cli.main`` in-process, one command after another (a closed
loop with one client): the workload's main command once, then its quick
command several times. The untraced run reports the end-to-end metrics; the
traced run repeats one set-up and one pass under :class:`tracer.Tracer` and
reports the per-layer metrics.
"""

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import threading
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from verbtensor import cli, synthetic
from verbtensor.evaluation import roc_auc
from verbtensor.linalg import read_tvb

from tracer import Tracer, hook_metrics

# The default seed is WorldConfig's own, and with it the CLI keeps the
# fixture config's pipeline seeds: the benchmark then runs the canonical
# default world. Any other seed n runs WorldConfig(seed=n) with --seed n.
DEFAULT_SEED = 7
MIN_PASSES = 2
CV_EPOCHS = 2
# Half the default 100 epochs, so that a run holds four train samples, not two.
TRAIN_EPOCHS = 50
SVD_DIMS = (20, 40)  # write_fixture's default vectors.svd_dims
POSITIVE_CAP = 2000  # write_fixture's default experiment.positive_cap
PREDICT_VERB = "devour"
QUALITY_PAIRS = 1000  # similarity pairs for the Spearman check of vectors-scaled


# name -> (unit, better). The untraced run reports exactly these metrics.
# Times are the main thread's CPU time, rescaled by the Speedometer below to
# one machine speed: see "Timing" in README.md.
END_TO_END_METRICS = {
    "setup_s": ("s", "lower"),
    "main_cpu_s": ("s", "lower"),
    "quick_cpu_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "quality": ("score", "higher"),
    "success_rate": ("ratio", "higher"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    world: synthetic.WorldConfig  # its seed is replaced by the run's seed
    overrides: dict  # pipeline_overrides for write_fixture
    prerequisites: tuple  # commands the set-up runs after writing the fixture
    main: tuple  # timed once per pass -> main_cpu_s
    quick: str  # "gen-data" or "predict", timed quick_repeats times -> quick_cpu_ms
    quick_repeats: int
    traced_quick_repeats: int
    checks: tuple  # output checks run after every pass
    quality: str  # "spearman", "tensor_auc" or "predict_auc"


_PREPARE = (("build-vectors",), ("gen-data",))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="vectors-scaled",
            world=synthetic.WorldConfig(nouns_per_class=400, positives_per_verb=2000),
            overrides={},
            prerequisites=(),
            main=("build-vectors",),
            quick="gen-data",
            quick_repeats=10,
            traced_quick_repeats=1,
            checks=("vectors", "datasets"),
            quality="spearman",
        ),
        Workload(
            name="cv-default",
            world=synthetic.WorldConfig(),
            overrides={"training.epochs": CV_EPOCHS},
            prerequisites=_PREPARE,
            main=("experiment", "--which", "full-cv"),
            quick="gen-data",
            quick_repeats=10,
            traced_quick_repeats=1,
            checks=("vectors", "datasets", "reports"),
            quality="tensor_auc",
        ),
        Workload(
            name="train-predict",
            world=synthetic.WorldConfig(),
            overrides={"training.epochs": TRAIN_EPOCHS},
            prerequisites=_PREPARE,
            main=("train", "--verb", PREDICT_VERB),
            quick="predict",
            quick_repeats=400,
            traced_quick_repeats=100,
            checks=("vectors", "datasets", "model"),
            quality="predict_auc",
        ),
    )
}


def miniature(workload: Workload) -> Workload:
    """The same workload on ``synthetic.small_world_config()``, for self-tests."""
    return replace(
        workload,
        world=synthetic.small_world_config(),
        overrides={**workload.overrides, "training.epochs": 2},
        quick_repeats=min(workload.quick_repeats, 20),
        traced_quick_repeats=min(workload.traced_quick_repeats, 10),
    )


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def tree_digests(directory: Path) -> dict:
    """Relative path -> sha256 of every file under ``directory``."""
    digests = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            digests[path.relative_to(directory).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


def _is_manifest(relpath: str) -> bool:
    return Path(relpath).name.startswith("manifest")


def split_manifests(digests: dict):
    """(artifact digests, manifest digests) of one tree."""
    artifacts = {p: d for p, d in digests.items() if not _is_manifest(p)}
    manifests = {p: d for p, d in digests.items() if _is_manifest(p)}
    return artifacts, manifests


def _data_rows(path: Path) -> list:
    """CSV rows after dropping '#' comment lines and the header."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(line for line in handle if not line.startswith("#")))
    return rows[1:]


def _triples(directory: Path) -> list:
    with open(directory / "triples.tsv", encoding="utf-8") as handle:
        return [line.rstrip("\n").split("\t") for line in handle if line.strip()]


def _read_dataset(path: Path):
    with open(path, encoding="utf-8") as handle:
        header, *records = [json.loads(line) for line in handle if line.strip()]
    return header, records


def negative_overlap(directory: Path, verbs) -> tuple:
    """(negatives that are attested positives, repeated negatives) over all verbs.

    Measured from outside: each dataset's negatives are compared with the
    fixture's ``triples.tsv``.
    """
    attested_pairs = {}
    for subject, verb, obj, _ in _triples(directory):
        attested_pairs.setdefault(verb, set()).add((subject, obj))
    attested = duplicate = 0
    for verb in verbs:
        _, records = _read_dataset(directory / "out" / "datasets" / f"{verb}.jsonl")
        negatives = [(r["subject"], r["object"]) for r in records if r["label"] == "implausible"]
        attested += sum(pair in attested_pairs.get(verb, ()) for pair in negatives)
        duplicate += len(negatives) - len(set(negatives))
    return attested, duplicate


def mean_fold_auc(directory: Path, method: str) -> float:
    rows = _data_rows(directory / "out" / "reports" / "full_cv.csv")
    return statistics.fmean(float(r[4]) for r in rows if r[1] == method and r[3] == "auc")


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_sha(root: Path) -> str:
    """HEAD commit of a git checkout at ``root``, or "unknown" outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def openblas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def provenance(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": openblas_threads(),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _p99_ms(samples):
    """99th percentile in ms, or None with fewer than ten samples beyond it."""
    if len(samples) < 1000:
        return None
    return 1e3 * statistics.quantiles(samples, n=100)[98]


# Timing. Every time is the CPU time of the thread that runs the program (the
# benchmark's main thread; BLAS is held to that thread too, see run.py). On a
# shared host the same command's CPU time still moves by up to 1.8x, in
# steps that last from one to tens of seconds, with the speed the host gives
# this VM's CPU. So a Speedometer thread times a short fixed reference kernel
# every SPEEDOMETER_INTERVAL_S, and each command's CPU time is rescaled by
# REFERENCE_NOMINAL_S / (the mean reference time around the command). The
# reference does the kind of work the program does (splitting and parsing
# text, dict updates, small numpy products in an Adagrad-like loop), so a
# change in the host's speed moves both alike and cancels in the ratio.
SPEEDOMETER_INTERVAL_S = 0.02
SPEEDOMETER_MARGIN_S = 0.25  # reference samples this far outside a command count too
SPEEDOMETER_MIN_SAMPLES = 5
REFERENCE_NOMINAL_S = 0.0012  # the reference's median CPU time on a 2-vCPU Xeon VM
_REF_ROWS = 40
_REF_TSV = "\n".join(
    f"n{i}\t" + "\t".join(f"{(i * 31 + j * 17) % 1000 / 1000:.6f}" for j in range(20))
    for i in range(_REF_ROWS)
)


def _reference_kernel() -> float:
    rows = [line.split("\t") for line in _REF_TSV.splitlines()]
    index = {row[0]: i for i, row in enumerate(rows)}
    vectors = np.array([[float(v) for v in row[1:]] for row in rows])
    tensor, grad_sq = np.zeros((20, 20)), np.full((20, 20), 1e-8)
    for i in range(40):
        subj, obj = vectors[i % _REF_ROWS], vectors[index[f"n{i * 7 % _REF_ROWS}"]]
        score = float(subj @ (tensor @ obj))
        grad = np.outer(subj, obj) * (1.0 / (1.0 + math.exp(-score)) - (i & 1))
        grad_sq += grad * grad
        tensor -= 0.05 * grad / np.sqrt(grad_sq)
    return float(tensor.sum())


class Speedometer:
    """A thread that times the reference kernel every SPEEDOMETER_INTERVAL_S.

    It shares the CPU with the main thread (run.py pins the process to one
    CPU) and takes about 5% of it; it measures its own thread's CPU time, so
    the main thread's CPU times leave it out.
    """

    def __init__(self):
        self.samples = []  # (perf_counter at the kernel's midpoint, its CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speedometer", daemon=True)

    def __enter__(self):
        self._sample()  # so that even the shortest run has a sample
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(SPEEDOMETER_INTERVAL_S):
            self._sample()

    def _sample(self):
        began, cpu = time.perf_counter(), time.thread_time()
        _reference_kernel()
        cpu = time.thread_time() - cpu
        self.samples.append(((began + time.perf_counter()) / 2, cpu))

    def reference(self, start: float, end: float) -> float:
        """Mean reference CPU s from SPEEDOMETER_MARGIN_S before ``start`` to as
        long after ``end``; at least the SPEEDOMETER_MIN_SAMPLES nearest."""
        window = [cpu for t, cpu in self.samples
                  if start - SPEEDOMETER_MARGIN_S <= t <= end + SPEEDOMETER_MARGIN_S]
        if len(window) < SPEEDOMETER_MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            window = [cpu for _, cpu in nearest[:SPEEDOMETER_MIN_SAMPLES]]
        return statistics.fmean(window)


@dataclass(frozen=True)
class Sample:
    """One timed call: main-thread CPU s, wall s, and its perf_counter span."""
    cpu: float
    wall: float
    start: float
    end: float

    def scaled(self, speedometer: Speedometer) -> float:
        """CPU s rescaled to the reference's nominal speed."""
        return self.cpu * REFERENCE_NOMINAL_S / speedometer.reference(self.start, self.end)


def timed(call) -> tuple:
    """(Sample, result) of one call of the no-argument callable ``call``."""
    start, cpu = time.perf_counter(), time.thread_time()
    result = call()
    cpu, end = time.thread_time() - cpu, time.perf_counter()
    return Sample(cpu, end - start, start, end), result


class Session:
    """One benchmark run of one workload with one seed, inside ``work_dir``."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work = Path(work_dir)
        self.world = replace(workload.world, seed=seed)
        self.seed_args = [] if seed == DEFAULT_SEED else ["--seed", str(seed)]
        self.attempted = 0
        self.failures = []
        self.pairs = None  # (subject, object, label) of the predict calls
        # set by measure() for trace(): the untraced directory, first-pass
        # predictions and median rescaled times
        self.base = None
        self.base_predictions = None
        self.main_median = self.quick_median = None

    # -- bookkeeping -------------------------------------------------------

    def record(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; remember it when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def cli(self, directory: Path, *argv):
        """Run one CLI command in-process; its stdout, or None when it failed."""
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["--config", str(directory / "config.ini"), "--jobs", "1",
                             *self.seed_args, *argv])
        if not self.record(code == 0, f"{' '.join(argv)} exited with {code}"):
            return None
        return buffer.getvalue()

    # -- set-up and passes -------------------------------------------------

    def set_up(self, directory: Path) -> Sample:
        """Write the fixture and run the prerequisites."""
        def work():
            synthetic.write_fixture(directory, self.world, self.workload.overrides)
            for argv in self.workload.prerequisites:
                self.cli(directory, *argv)

        return timed(work)[0]

    def _draw_pairs(self, directory: Path) -> None:
        _, records = _read_dataset(directory / "out" / "datasets" / f"{PREDICT_VERB}.jsonl")
        rng = random.Random(self.seed)
        self.pairs = [
            (r["subject"], r["object"], r["label"])
            for r in (rng.choice(records) for _ in range(self.workload.quick_repeats))
        ]

    def _quick(self, directory: Path, index: int):
        if self.workload.quick == "gen-data":
            self.cli(directory, "gen-data")
            return None
        subject, obj, _ = self.pairs[index]
        out = self.cli(directory, "predict", "--verb", PREDICT_VERB,
                       "--subject", subject, "--object", obj)
        if out is None:
            return None
        result = json.loads(out)
        p = result["p_plausible"]
        label = "plausible" if p >= 0.5 else "implausible"
        self.record(0.0 <= p <= 1.0 and result["label"] == label,
                    f"predict {subject} {obj} returned {result}")
        return p

    def run_pass(self, directory: Path, quick_repeats: int):
        """Main command once, then the quick command.

        Returns the main command's :class:`Sample`, one for each quick call,
        and the predictions.
        """
        main, _ = timed(lambda: self.cli(directory, *self.workload.main))
        if self.workload.quick == "predict" and self.pairs is None:
            self._draw_pairs(directory)
        quick, predictions = [], []
        for index in range(quick_repeats):
            sample, prediction = timed(functools.partial(self._quick, directory, index))
            quick.append(sample)
            predictions.append(prediction)
        return main, quick, predictions

    # -- output checks -----------------------------------------------------

    def check_outputs(self, directory: Path) -> dict:
        """Run the workload's invariant checks; return the digests of its outputs."""
        for name in self.workload.checks:
            try:
                getattr(self, f"_check_{name}")(directory)
            except Exception as exc:  # a malformed artifact is a failed check
                self.record(False, f"{name} check raised {type(exc).__name__}: {exc}")
        return tree_digests(directory / "out")

    def _check_vectors(self, directory: Path) -> None:
        triples = _triples(directory)
        nouns = {row[0] for row in triples} | {row[2] for row in triples}
        for k in SVD_DIMS:
            path = directory / "out" / "vectors" / f"embeddings_k{k}.tsv"
            with open(path, encoding="utf-8") as handle:
                rows = [line.rstrip("\n").split("\t") for line in handle if line.strip()]
            values = np.array([[float(v) for v in row[1:]] for row in rows])
            self.record(
                values.shape == (len(nouns), k) and bool(np.isfinite(values).all())
                and {row[0] for row in rows} == nouns,
                f"{path.name}: shape {values.shape}, expected ({len(nouns)}, {k}) finite",
            )

    def _check_datasets(self, directory: Path) -> None:
        rows = _triples(directory)
        for verb in sorted(self.world.verb_preferences):
            expected = min(POSITIVE_CAP, sum(1 for row in rows if row[1] == verb))
            header, records = _read_dataset(directory / "out" / "datasets" / f"{verb}.jsonl")
            labels = [r["label"] for r in records]
            n_pos = labels.count("plausible")
            self.record(
                header["verb"] == verb and n_pos == expected
                and len(labels) - n_pos == expected,
                f"{verb}.jsonl: {n_pos} positives of {len(labels)}, expected {expected} of each",
            )

    def _check_reports(self, directory: Path) -> None:
        reports = directory / "out" / "reports"
        n_verbs = len(self.world.verb_preferences)
        rows = _data_rows(reports / "full_cv.csv")
        values = [float(v) for row in rows for v in row[4:5] + row[6:]]
        self.record(
            len(rows) == n_verbs * len(SVD_DIMS) * 2 * 2
            and all(0.0 <= v <= 1.0 for v in values),
            f"full_cv.csv: {len(rows)} rows or a metric outside [0, 1]",
        )
        comparisons = _data_rows(reports / "full_cv_comparisons.csv")
        self.record(len(comparisons) == n_verbs * len(SVD_DIMS) * 2,
                    f"full_cv_comparisons.csv: {len(comparisons)} rows")
        manifest = json.loads((reports / "manifest_experiment-full-cv.json").read_text())
        self.record(not manifest["parameters"]["failed_verbs"],
                    f"failed verbs: {manifest['parameters']['failed_verbs']}")

    def _check_model(self, directory: Path) -> None:
        k = SVD_DIMS[0]
        with open(directory / "out" / "models" / f"{PREDICT_VERB}_k{k}.tvbm", "rb") as handle:
            tensor, theta = read_tvb(handle), read_tvb(handle)
        self.record(
            tensor.shape == (k, k, 2) and theta.shape == (2, 3)
            and bool(np.isfinite(tensor).all() and np.isfinite(theta).all()),
            f"model shapes {tensor.shape} and {theta.shape}, or non-finite values",
        )

    def quality(self, directory: Path, predictions) -> float:
        """Spearman rho of the embeddings, mean tensor fold AUC, or AUC of predict scores."""
        kind = self.workload.quality
        try:
            if kind == "spearman":
                pairs = directory / "quality_pairs.tsv"
                world = synthetic.build_world(self.world)
                with open(pairs, "w", encoding="utf-8") as handle:
                    for a, b, gold in synthetic.generate_dev_pairs(world, QUALITY_PAIRS):
                        handle.write(f"{a}\t{b}\t{gold}\n")
                out = self.cli(directory, "eval-vectors", "--pairs", str(pairs))
                return json.loads(out)["spearman"] if out is not None else 0.0
            if kind == "tensor_auc":
                return mean_fold_auc(directory, "tensor")
            return roc_auc(predictions, [label for _, _, label in self.pairs])
        except Exception as exc:  # missing or malformed outputs fail the run
            self.record(False, f"{kind} raised {type(exc).__name__}: {exc}")
            return 0.0

    # -- the two kinds of run ----------------------------------------------

    def measure(self, seconds: float) -> dict:
        """The untraced run: set-ups and passes until ``seconds`` have elapsed.

        A set-up runs before the first pass and after each pass, so that the
        set-up samples spread over the run like the others. The passes all
        run in the first set-up's directory; the later set-ups are timed,
        checked against the first and removed.
        """
        setups, setup_digests = [], []

        def set_up_once():
            directory = self.work / f"setup{len(setups)}"
            setups.append(self.set_up(directory))
            setup_digests.append(split_manifests(tree_digests(directory))[0])
            if len(setups) > 1:
                shutil.rmtree(directory)

        passes = []
        reference = None
        with Speedometer() as speed:
            set_up_once()
            self.base = self.work / "setup0"
            start = time.perf_counter()
            while True:
                began = time.perf_counter()
                main, quick, predictions = self.run_pass(self.base, self.workload.quick_repeats)
                artifacts = split_manifests(self.check_outputs(self.base))[0]
                if reference is None:
                    reference = (artifacts, predictions)
                    self.base_predictions = predictions
                else:
                    self.record((artifacts, predictions) == reference,
                                "a pass wrote different artifacts or predictions")
                set_up_once()
                passes.append((main, quick, time.perf_counter() - began))
                elapsed = time.perf_counter() - start
                mean_pass = statistics.fmean(p[2] for p in passes)
                if len(passes) >= MIN_PASSES and elapsed + mean_pass > seconds:
                    break

        self.record(all(d == setup_digests[0] for d in setup_digests),
                    "set-ups from one seed wrote different artifacts")
        mains = [p[0] for p in passes]
        quicks = [q for p in passes for q in p[1]]
        quick_scaled = [q.scaled(speed) for q in quicks]
        self.main_median = statistics.median(m.scaled(speed) for m in mains)
        self.quick_median = statistics.median(quick_scaled)
        quality = self.quality(self.base, self.base_predictions)
        metrics = {
            "setup_s": statistics.median(s.scaled(speed) for s in setups),
            "main_cpu_s": self.main_median,
            "quick_cpu_ms": 1e3 * self.quick_median,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "quality": quality,
            "success_rate": 1.0 - len(self.failures) / self.attempted,
        }
        details = {
            "setup_samples": [{**asdict(s), "scaled": s.scaled(speed)} for s in setups],
            "main_samples": [{**asdict(m), "scaled": m.scaled(speed)} for m in mains],
            "quick_count": len(quicks),
            "quick_cpu_ms_p99": _p99_ms(quick_scaled),
            "quick_raw_cpu_ms_p50": 1e3 * statistics.median(q.cpu for q in quicks),
            "quick_wall_ms_p50": 1e3 * statistics.median(q.wall for q in quicks),
            "quick_wall_ms_p99": _p99_ms([q.wall for q in quicks]),
            "reference_samples": len(speed.samples),
            "reference_ms_p50": 1e3 * statistics.median(cpu for _, cpu in speed.samples),
            "artifacts": tree_digests(self.base / "out"),
        }
        return {"metrics": metrics, "details": details}

    def trace(self, run_id: str):
        """One traced set-up and pass after :meth:`measure`; (metrics, tracer)."""
        directory = self.work / "traced"
        tracer = Tracer(run_id)
        with Speedometer() as speed, tracer.installed():
            self.set_up(directory)
            main, quick, predictions = self.run_pass(
                directory, self.workload.traced_quick_repeats)
        traced_s = main.scaled(speed) + sum(q.scaled(speed) for q in quick)

        traced_artifacts, traced_manifests = split_manifests(self.check_outputs(directory))
        base_artifacts, base_manifests = split_manifests(tree_digests(self.base / "out"))
        self.record(traced_artifacts == base_artifacts,
                    "traced run wrote different artifacts than the untraced run")
        self.record(predictions == self.base_predictions[:len(predictions)],
                    "traced predictions differ from untraced ones")
        mismatches = sum(
            traced_manifests.get(p) != base_manifests.get(p)
            for p in set(traced_manifests) | set(base_manifests)
        )
        with open(directory / "corpus.txt", encoding="utf-8") as handle:
            corpus_tokens = sum(len(line.split()) for line in handle)
        attested, duplicate = negative_overlap(directory, sorted(self.world.verb_preferences))
        untraced_s = self.main_median + self.workload.traced_quick_repeats * self.quick_median

        metrics = hook_metrics(tracer, corpus_tokens)
        metrics.update({
            "data.negatives_attested": attested,
            "data.negatives_duplicate": duplicate,
            "baseline.auc_mean": (mean_fold_auc(directory, "baseline")
                                  if "reports" in self.workload.checks else 0.0),
            "pipeline.manifest_mismatches": mismatches,
            "trace.overhead_ratio": traced_s / untraced_s,
        })
        return metrics, tracer

    def fixture_sizes(self) -> dict:
        with open(self.base / "corpus.txt", encoding="utf-8") as handle:
            sentences = sum(1 for line in handle if line.strip())
        with open(self.base / "out" / "vectors" / f"embeddings_k{SVD_DIMS[0]}.tsv",
                  encoding="utf-8") as handle:
            rows = [line.count("\t") for line in handle if line.strip()]
        return {
            "sentences": sentences,
            "triples_rows": len(_triples(self.base)),
            "embedding_shape": [len(rows), rows[0] if rows else 0],
        }

    def describe(self) -> dict:
        """World config and fixture overrides, for the results file."""
        return {"world": asdict(self.world), "overrides": self.workload.overrides,
                "cli_seed_args": self.seed_args}
