"""Pipeline commands behind the CLI: vectors, datasets, experiments, models.

Every artifact's path is a template under ``config.output_dir`` in one
table, ``_LAYOUT``, which ``artifact_path`` fills in from the verb, the dim
``k`` and the experiment kind ``which`` (``stem`` is ``which`` with ``_``):

- ``frequencies``: ``vectors/frequencies.tsv``
- ``embeddings``: ``vectors/embeddings_k{k}.tsv``
- ``vectors-manifest``: ``vectors/manifest.json``
- ``dataset``: ``datasets/{verb}.jsonl``
- ``datasets-manifest``: ``datasets/manifest.json``
- ``report``: ``reports/{stem}.csv``
- ``comparisons``: ``reports/{stem}_comparisons.csv``
- ``experiment-manifest``: ``reports/manifest_experiment-{which}.json``
- ``model``: ``models/{verb}_k{k}.tvbm``
- ``model-manifest``: ``models/manifest_{verb}_k{k}.json``

Each command creates its manifest's directory, writes its artifacts there,
then the manifest: the parameters it used and sha256 checksums of the
inputs it read and the outputs it wrote. build-vectors' outputs include each
embeddings TSV's sidecar, ``embeddings_k{k}.tvb``, which ``vectors`` names
and reads in place of the text while it matches. A model's manifest holds
the full training settings and the objective after each epoch. gen-data
removes the old dataset of each verb it skips, once it has written one.
The 5x2cv splits are not written: ``data.make_5x2cv_splits(base,
derive_seed(cv_seed, which, verb))`` rebuilds them, ``base`` being the
verb's dataset or, for small-cv, its ``small_cv_size`` subsample.

The embeddings and a verb's dataset enter a command only through
``_load_embeddings`` and ``_load_dataset``, which check that the file exists,
read it and check it against the dim or verb it was looked up by; a check
against the manifest of the command that wrote it belongs there too.
``experiment`` loads each dim's embeddings once, before any verb runs.

Commands are pure functions of (config, input files, seeds),
so for unchanged inputs and seeds every output, manifests included, is
byte-identical whatever ``--out`` and ``--jobs`` are.

Manifests key each file by a path relative to a root, in POSIX form: a file
under the output directory relative to it (``reports/small_cv.csv``), any
other file relative to the config directory (``triples.tsv``), and a file
under neither root by its absolute path. Roots and files are compared after
``Path.resolve()``, so a relative ``--config`` gives the same keys.

``experiment`` goes straight from fold metrics to report rows: each verb's
run returns its formatted CSV rows, one list per report table of the kind
(``_REPORT_TABLES``), and one loop writes every table's note line, header
and rows. A verb that fails is recorded in ``failed_verbs`` by its error
text, with its files under ``--out`` named by manifest key.
"""

import csv
import json
import logging
import statistics
from dataclasses import asdict
from pathlib import Path

from . import corpus as corpus_mod
from . import data as data_mod
from . import evaluation as eval_mod
from . import tensor_model as tm
from . import vectors as vec_mod
from .config import PipelineConfig, require_input_files
from .util import (
    DataError,
    ValidationError,
    VerbTensorError,
    derive_seed,
    ensure_dir,
    open_output,
    sha256_file,
)

log = logging.getLogger(__name__)

SD_NOTE = "# sd columns are sample standard deviations (ddof=1)"

# artifact kind -> its path under config.output_dir (see the module docstring)
_LAYOUT = {
    "frequencies": "vectors/frequencies.tsv",
    "embeddings": "vectors/embeddings_k{k}.tsv",
    "vectors-manifest": "vectors/manifest.json",
    "dataset": "datasets/{verb}.jsonl",
    "datasets-manifest": "datasets/manifest.json",
    "report": "reports/{stem}.csv",
    "comparisons": "reports/{stem}_comparisons.csv",
    "experiment-manifest": "reports/manifest_experiment-{which}.json",
    "model": "models/{verb}_k{k}.tvbm",
    "model-manifest": "models/manifest_{verb}_k{k}.json",
}


def artifact_path(config: PipelineConfig, kind: str, verb: str | None = None,
                  k: int | None = None, which: str | None = None) -> Path:
    """The path of artifact ``kind``, a key of ``_LAYOUT``, under ``config.output_dir``."""
    stem = which and which.replace("-", "_")
    return config.output_dir / _LAYOUT[kind].format(verb=verb, k=k, which=which, stem=stem)


def _manifest_key(path, roots: tuple) -> str:
    """``path`` relative to the first of ``roots`` holding it, else absolute."""
    resolved = Path(path).resolve()
    for root in roots:
        if resolved.is_relative_to(root):
            return resolved.relative_to(root).as_posix()
    return resolved.as_posix()


def _write_manifest(config: PipelineConfig, path: Path, command: str,
                    parameters: dict, inputs, outputs) -> Path:
    """Write the command's manifest to ``path`` with root-relative keys (see module docstring).

    Keys name a file under ``config.output_dir`` relative to it, any other
    file relative to ``config.config_dir`` and a file under neither by its
    absolute path, so no key depends on where ``--out`` or the config lives.
    """
    roots = config.output_dir.resolve(), config.config_dir.resolve()
    manifest = {
        "command": command,
        "parameters": parameters,
        "inputs": {_manifest_key(p, roots): sha256_file(p) for p in inputs},
        "outputs": {_manifest_key(p, roots): sha256_file(p) for p in outputs},
    }
    with open_output(path) as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _load_embeddings(config: PipelineConfig, k: int | None = None) -> tuple:
    """``(k, path, table)``: the embeddings of a configured dim, read and checked.

    ``None`` means ``primary_k``. A ``k`` outside ``svd_dims`` or a missing
    file raises ``ValidationError``; then the reader's ``DataError``, and one
    if the table's width is not ``k``.
    """
    k = config.primary_k if k is None else k
    if k not in config.svd_dims:
        raise ValidationError(f"k={k} is not one of the configured svd_dims {config.svd_dims}")
    path = artifact_path(config, "embeddings", k=k)
    if not path.is_file():
        raise ValidationError(f"missing embeddings for k={k}: {path} (run build-vectors)")
    table = vec_mod.read_embeddings_tsv(path)
    if table.dim != k:
        raise DataError(f"{path}: {table.dim}-dim embeddings in the file for k={k}")
    return k, path, table


def _load_dataset(config: PipelineConfig, verb: str) -> tuple:
    """``(path, dataset)``: ``verb``'s dataset, read and checked.

    A missing file raises ``ValidationError``; then the reader's
    ``DataError``, and one if the header names another verb.
    """
    path = artifact_path(config, "dataset", verb=verb)
    if not path.is_file():
        raise ValidationError(f"missing dataset {path} (run gen-data)")
    dataset = data_mod.read_dataset_jsonl(path)
    if dataset.verb != verb:
        raise DataError(f"{path}: the dataset is for verb {dataset.verb!r}, not {verb!r}")
    return path, dataset


def _reject_zero_rows(path, embeddings, nouns) -> None:
    """Raise ``DataError`` naming ``path`` and the first of ``nouns`` with a zero embedding.

    A cosine with a zero vector is undefined. Nouns without an embedding
    pass; the caller reports those.
    """
    zero = {noun for noun, nonzero in zip(embeddings.nouns.words, embeddings.matrix.any(axis=1))
            if not nonzero}
    noun = next((noun for noun in nouns if noun in zero), None)
    if noun is not None:
        raise DataError(f"{path}: noun {noun!r} has a zero embedding (no cosine)")


def _reject_unknown_nouns(dataset_path, emb_path, embeddings, triples) -> None:
    """Raise ``DataError`` naming both files and the first noun of ``triples``
    without an embedding, the noun ``EmbeddingTable.pairs`` names."""
    try:
        embeddings.pairs(triples)
    except DataError as exc:
        raise DataError(f"{dataset_path}: {exc} in {emb_path}") from None


# ---------------------------------------------------------------------------
# build-vectors
# ---------------------------------------------------------------------------

def build_vectors(config: PipelineConfig) -> dict:
    """Corpus scan, tTest weighting, context selection, SVD, embedding export."""
    require_input_files(config, "corpus", "stopwords", "triples", "dev_pairs")
    manifest_path = artifact_path(config, "vectors-manifest")
    ensure_dir(manifest_path.parent)
    stopwords = corpus_mod.read_stopwords(config.stopwords)
    triple_rows = data_mod.read_triples_tsv(config.triples)
    targets = sorted({r[0] for r in triple_rows} | {r[2] for r in triple_rows})
    if not targets:
        raise ValidationError(f"no triples found in {config.triples}")

    log.info("scanning corpus %s for %d target nouns", config.corpus, len(targets))
    frequencies, cooc = corpus_mod.scan_corpus(
        corpus_mod.iter_corpus_lines(config.corpus), targets
    )
    vocab = corpus_mod.build_context_vocab(frequencies, stopwords, config.context_vocab_size)
    log.info("context vocabulary: %d words", len(vocab))
    cooc = cooc.restrict(vocab)
    if not cooc.counts.nnz:
        raise DataError(f"{config.corpus}: no target noun shares a sentence with a context word")
    weighted = vec_mod.ttest_weight(cooc)
    weighted, dropped = vec_mod.drop_zero_rows(weighted)
    if dropped:
        log.info("dropped %d nouns with no informative co-occurrences", len(dropped))

    if max(config.svd_dims) > min(weighted.weights.shape):
        raise ValidationError(
            f"svd dim {max(config.svd_dims)} exceeds the {weighted.weights.shape} weighted table"
        )
    top_n, sweep_trace, reduced = _choose_top_n(config, weighted)

    freq_path = artifact_path(config, "frequencies")
    corpus_mod.write_frequency_tsv(freq_path, frequencies)
    outputs = [freq_path]

    tsv_paths = {k: artifact_path(config, "embeddings", k=k) for k in config.svd_dims}
    sidecars = vec_mod.write_embeddings_tsv(tsv_paths, reduced)
    for k, tsv_path in tsv_paths.items():
        outputs.append(tsv_path)
        log.info("wrote %d x %d embeddings to %s", reduced.matrix.shape[0], k, tsv_path)

    inputs = [config.corpus, config.stopwords, config.triples]
    if config.dev_pairs is not None:
        inputs.append(config.dev_pairs)
    parameters = {
        "context_vocab_size": config.context_vocab_size,
        "top_n": top_n,
        "top_n_source": "config" if config.top_n else ("sweep" if sweep_trace else "default"),
        "top_n_sweep": sweep_trace,
        "svd_dims": list(config.svd_dims),
        "dropped_nouns": dropped,
        "n_target_nouns": len(targets),
    }
    manifest = _write_manifest(config, manifest_path, "build-vectors", parameters,
                               inputs, outputs + sidecars)
    return {"top_n": top_n, "outputs": [str(p) for p in outputs], "manifest": str(manifest)}


def _choose_top_n(config: PipelineConfig, weighted):
    """Explicit config value, else a dev-pair sweep, else the fixed default.

    Returns the chosen N, the sweep trace and the embeddings of the table
    selected with N at ``max(svd_dims)``, whose leading columns give every
    configured dim. The table's contexts are ranked once for every N, and
    each distinct selected table is decomposed once: an N at or above the
    table's longest row keeps every cell, so all such candidates (and the
    default) share one decomposition, keyed by ``min(N, longest row)``. The
    trace still lists every candidate that scored, and the first candidate
    with the highest Spearman rho of its first ``primary_k`` dims wins.
    """
    ranks = vec_mod.context_ranks(weighted)
    longest_row = int(weighted.weights.getnnz(axis=1).max())
    reduced = {}  # min(N, longest row) -> embeddings at max(svd_dims)

    def decompose(top_n):
        key = min(top_n, longest_row)
        if key not in reduced:
            reduced[key] = vec_mod.reduce_to_embeddings(weighted, max(config.svd_dims),
                                                        top_n, ranks)
        return reduced[key]

    if config.top_n is not None:
        return config.top_n, [], decompose(config.top_n)
    if config.dev_pairs is None:
        return vec_mod.DEFAULT_TOP_N, [], decompose(vec_mod.DEFAULT_TOP_N)
    pairs = vec_mod.read_pairs_tsv(config.dev_pairs)
    trace = []
    best = None
    for candidate in config.top_n_sweep:
        emb = decompose(candidate)
        try:
            rho = vec_mod.spearman_similarity_eval(emb.leading(config.primary_k), pairs)
        except ValueError:
            continue
        trace.append({"top_n": candidate, "spearman": rho})
        if best is None or rho > best[1]:
            best = (candidate, rho, emb)
    if best is None:
        log.warning("top-N sweep produced no usable evaluation; using default %d",
                    vec_mod.DEFAULT_TOP_N)
        return vec_mod.DEFAULT_TOP_N, trace, decompose(vec_mod.DEFAULT_TOP_N)
    log.info("top-N sweep selected N=%d (spearman %.4f)", best[0], best[1])
    return best[0], trace, best[2]


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def gen_data(config: PipelineConfig) -> dict:
    """Per-verb datasets: capped positives plus bucket-confounded negatives.

    Each input is parsed once per call: ``triples.tsv`` is parsed once and
    its rows grouped by verb, and the frequency buckets and each noun's
    confounder options are built once and shared by every verb's draws.
    ``sha256_file`` then reads each input again for the manifest.
    """
    require_input_files(config, "triples")
    _, emb_path, embeddings = _load_embeddings(config)
    freq_path = artifact_path(config, "frequencies")
    if not freq_path.is_file():
        raise ValidationError(f"missing {freq_path} (run build-vectors)")
    rows_by_verb = {}
    for row in data_mod.read_triples_tsv(config.triples):
        rows_by_verb.setdefault(row[1], []).append(row)
    manifest_path = artifact_path(config, "datasets-manifest")
    ensure_dir(manifest_path.parent)
    frequencies = corpus_mod.read_frequency_tsv(freq_path)
    known = set(embeddings.nouns.words)
    buckets = corpus_mod.frequency_buckets(frequencies, known, config.bucket_size)

    options = {}  # noun -> confounder options, filled by the verbs' draws
    outputs = []
    written = []
    failures = {}
    oov_dropped = {}
    for verb in sorted(config.verbs):
        try:
            positives, dropped = data_mod.load_positives(
                rows_by_verb.get(verb, []), verb, config.triples,
                cap=config.positive_cap, known_nouns=known,
            )
            negatives = data_mod.gen_confounders(
                positives, buckets, derive_seed(config.data_seed, "confounders", verb), options
            )
        except DataError as exc:
            log.warning("verb %r skipped: %s", verb, exc)
            failures[verb] = str(exc)
            continue
        path = artifact_path(config, "dataset", verb=verb)
        data_mod.write_dataset_jsonl(path, data_mod.VerbDataset(verb, positives + negatives))
        outputs.append(path)
        written.append(verb)
        oov_dropped[verb] = dropped
        log.info("verb %r: %d positives, %d negatives", verb, len(positives), len(negatives))
    if not written:
        raise VerbTensorError(f"no verb produced a dataset: {failures}")
    for verb in failures:  # an earlier call's dataset would be read as this call's
        stale = artifact_path(config, "dataset", verb=verb)
        try:
            stale.unlink(missing_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot remove {stale}: {exc.strerror}") from None

    parameters = {
        "positive_cap": config.positive_cap,
        "bucket_size": config.bucket_size,
        "data_seed": config.data_seed,
        "verbs_written": written,
        "verbs_skipped": failures,
        "oov_dropped": oov_dropped,
    }
    manifest = _write_manifest(config, manifest_path, "gen-data", parameters,
                               [config.triples, freq_path, emb_path], outputs)
    return {"verbs": written, "skipped": failures, "manifest": str(manifest)}


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

_METHODS = (eval_mod.METHOD_BASELINE, eval_mod.METHOD_TENSOR)
_FOLD_COLUMNS = [f"r{rep}f{fold}" for rep in range(1, 6) for fold in (1, 2)]
_CV_TABLES = (
    ("report", SD_NOTE, ["verb", "method", "k", "metric", "mean", "sd"] + _FOLD_COLUMNS),
    ("comparisons", "# f_statistic compares tensor minus baseline on aligned folds",
     ["verb", "k", "metric", "f_statistic", "significant", "alpha"]),
)
# experiment kind -> its report tables as (artifact kind, note line, header);
# _experiment_verb returns one list of rows per table, in this order
_REPORT_TABLES = {
    "full-cv": _CV_TABLES,
    "small-cv": _CV_TABLES,
    "curves": (("report", SD_NOTE, ["verb", "method", "k", "size", "mean_auc", "sd_auc"]),),
}
EXPERIMENT_KINDS = tuple(_REPORT_TABLES)


def experiment(config: PipelineConfig, which: str, jobs: int = 1) -> dict:
    """Run one of the three experiment protocols and write report CSVs.

    ``which`` is one of ``EXPERIMENT_KINDS``. A verb that fails is recorded
    in ``failed_verbs``; the reports hold the rest.
    """
    if jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {jobs}")
    verb_paths = {v: artifact_path(config, "dataset", verb=v) for v in sorted(config.verbs)}
    available = [v for v, p in verb_paths.items() if p.is_file()]
    if not available:
        datasets_dir = next(iter(verb_paths.values())).parent
        raise ValidationError(f"no datasets under {datasets_dir} (run gen-data)")
    missing = [v for v in verb_paths if v not in available]
    if missing:
        log.warning("verbs without a dataset skipped: %s (run gen-data)",
                    ", ".join(f"{v!r} ({verb_paths[v]})" for v in missing))
    # k -> (path, table), read once for every verb: curves read primary_k only
    dims = (config.primary_k,) if which == "curves" else config.svd_dims
    embeddings = {k: _load_embeddings(config, k)[1:] for k in dims}

    manifest_path = artifact_path(config, "experiment-manifest", which=which)
    ensure_dir(manifest_path.parent)
    tasks = [(config, verb, which, embeddings) for verb in available]
    # the pool starts all its workers at once, so never more than there are verbs
    workers = min(jobs, len(available))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_experiment_verb_safe, tasks))
    else:
        outcomes = map(_experiment_verb_safe, tasks)
    results = {}  # verb -> rows per report table, in verb order
    failures = {}
    for verb, payload, error in outcomes:
        if error is None:
            results[verb] = payload
        else:
            log.error("verb %r failed: %s", verb, error)
            failures[verb] = error
    if not results:
        raise VerbTensorError(f"every verb failed: {failures}")

    outputs = _write_reports(config, which, results)
    inputs = [verb_paths[v] for v in available] + [path for path, _ in embeddings.values()]
    parameters = {
        "which": which,
        "svd_dims": list(config.svd_dims),
        "cv_seed": config.cv_seed,
        "small_cv_size": config.small_cv_size if which == "small-cv" else None,
        "curve_sizes": list(config.curve_sizes) if which == "curves" else None,
        "curve_repeats": config.curve_repeats if which == "curves" else None,
        "train": asdict(config.train),
        "verbs": list(results),
        "failed_verbs": failures,
    }
    manifest = _write_manifest(config, manifest_path, f"experiment-{which}", parameters,
                               inputs, outputs)
    if failures:
        raise VerbTensorError(
            f"{len(failures)} verb(s) failed: {sorted(failures)} (reports written for the rest)"
        )
    return {
        "which": which,
        "verbs": list(results),
        "outputs": [str(p) for p in outputs],
        "manifest": str(manifest),
    }


def _experiment_verb_safe(args):
    """``(verb, payload, None)``, or ``(verb, None, error text)`` naming files by manifest key.

    An error raised from a cause is filed under the cause's class, so a
    fold's error, which ``evaluate_on_splits`` wraps with its method,
    repetition and fold, keeps its own class name.
    """
    config, verb, which, embeddings = args
    try:
        return verb, _experiment_verb(config, verb, which, embeddings), None
    except Exception as exc:  # isolate per-verb failures
        message = f"{type(exc.__cause__ or exc).__name__}: {exc}"
        # a file under the root prints as this prefix and then its manifest key
        prefix = str(config.output_dir / "_")[:-1]
        return verb, None, message.replace(prefix, "")


def _experiment_verb(config: PipelineConfig, verb: str, which: str, embeddings: dict) -> tuple:
    """One verb's formatted rows for each table of ``_REPORT_TABLES[which]``.

    ``embeddings`` maps each dim the experiment reads to its ``(path,
    table)``. A noun of the triples it evaluates with a zero embedding row,
    or with no embedding, raises ``DataError`` naming the noun and the files.
    """
    dataset_path, dataset = _load_dataset(config, verb)
    base = dataset
    if which == "small-cv":
        base = data_mod.VerbDataset(verb, data_mod.subsample(
            dataset.triples, config.small_cv_size, derive_seed(config.cv_seed, "small", verb)
        ))
    nouns = [noun for t in base.triples for noun in (t.subject, t.object)]
    for path, table in embeddings.values():
        _reject_zero_rows(path, table, nouns)
        _reject_unknown_nouns(dataset_path, path, table, base.triples)

    if which == "curves":
        k = config.primary_k
        seed = derive_seed(config.cv_seed, "curves", verb)
        rows = [
            [verb, method, k, size, _fmt(mean), _fmt(sd)]
            for method in _METHODS
            for size, mean, sd in eval_mod.learning_curve(
                method, dataset, config.curve_sizes, embeddings[k][1], config.train, seed,
                repeats=config.curve_repeats,
            )
        ]
        return (rows,)

    splits = data_mod.make_5x2cv_splits(base, derive_seed(config.cv_seed, which, verb))
    rows, comparisons = [], []
    for k, (_, table) in embeddings.items():
        folds = {}  # method -> {metric: fold values in split order}
        for method in _METHODS:
            aucs, f1s = eval_mod.evaluate_on_splits(
                method, base, splits, table, config.train,
                derive_seed(config.cv_seed, which, verb, k),
            )
            folds[method] = {"auc": aucs, "f1": f1s}
            for metric, values in folds[method].items():
                rows.append(
                    [verb, method, k, metric,
                     _fmt(statistics.fmean(values)), _fmt(statistics.stdev(values))]
                    + [_fmt(v) for v in values]
                )
        for metric in ("auc", "f1"):
            f_stat, significant = eval_mod.f_test_5x2cv(
                folds[eval_mod.METHOD_TENSOR][metric], folds[eval_mod.METHOD_BASELINE][metric]
            )
            comparisons.append(
                [verb, k, metric, _fmt(f_stat), str(significant).lower(), eval_mod.F_TEST_ALPHA]
            )
    return rows, comparisons


def _write_reports(config: PipelineConfig, which: str, results: dict) -> list:
    """Write each report table: its note line, its header and every verb's rows."""
    outputs = []
    for i, (kind, note, header) in enumerate(_REPORT_TABLES[which]):
        path = artifact_path(config, kind, which=which)
        with open_output(path, newline="") as handle:
            handle.write(note + "\n")
            writer = csv.writer(handle)
            writer.writerow(header)
            for tables in results.values():
                writer.writerows(tables[i])
        outputs.append(path)
    return outputs


# ---------------------------------------------------------------------------
# train / predict / eval-vectors
# ---------------------------------------------------------------------------

def _require_verb(config: PipelineConfig, verb: str) -> None:
    """Raise ``ValidationError`` unless ``verb`` is one of the config's verbs."""
    if verb not in config.verbs:
        raise ValidationError(f"verb {verb!r} is not in the config's [experiment] verbs")


def train_verb(config: PipelineConfig, verb: str, k: int | None = None) -> dict:
    """Train one verb's tensor model on its full dataset; save it and its manifest."""
    _require_verb(config, verb)
    k, emb_path, embeddings = _load_embeddings(config, k)
    dataset_path, dataset = _load_dataset(config, verb)
    _reject_unknown_nouns(dataset_path, emb_path, embeddings, dataset.triples)
    result = tm.train(dataset.triples, embeddings, config.train)
    model_path = artifact_path(config, "model", verb=verb, k=k)
    ensure_dir(model_path.parent)
    tm.save_model(model_path, result.model)
    parameters = {"verb": verb, "k": k, "train": asdict(config.train),
                  "objective_trace": result.objective_trace}
    manifest = _write_manifest(config, artifact_path(config, "model-manifest", verb=verb, k=k),
                               "train", parameters, [dataset_path, emb_path], [model_path])
    return {
        "verb": verb,
        "k": k,
        "initial_objective": result.objective_trace[0],
        "final_objective": result.objective_trace[-1],
        "model": str(model_path),
        "manifest": str(manifest),
    }


def predict_one(config: PipelineConfig, verb: str, subject: str, obj: str, k: int | None = None) -> dict:
    """Load a trained model and classify one subject-object pair."""
    _require_verb(config, verb)
    k, _, embeddings = _load_embeddings(config, k)
    model_path = artifact_path(config, "model", verb=verb, k=k)
    if not model_path.is_file():
        raise ValidationError(f"no trained model at {model_path} (run train --verb {verb} --k {k})")
    for noun, role in ((subject, "subject"), (obj, "object")):
        if noun not in embeddings:
            raise ValidationError(f"{role} {noun!r} has no embedding")
    model = tm.load_model(model_path)
    if model.k != k:
        raise DataError(f"{model_path}: K={model.k} model in the file for k={k}")
    label, p_plausible = tm.predict(
        model, embeddings.vector(subject), embeddings.vector(obj)
    )
    return {
        "verb": verb,
        "subject": subject,
        "object": obj,
        "label": label,
        "p_plausible": p_plausible,
        "k": k,
    }


def eval_vectors(config: PipelineConfig, pairs_path=None, k: int | None = None) -> dict:
    """Spearman correlation of embedding cosines against a word-pair file.

    A zero embedding row for a noun of a usable pair, fewer than 2 usable
    pairs or a constant ranking raise ``DataError`` naming the file at fault.
    """
    k, emb_path, embeddings = _load_embeddings(config, k)
    pairs_path = Path(pairs_path) if pairs_path else config.dev_pairs
    if pairs_path is None:
        raise ValidationError("no pairs file given and no dev_pairs in the config")
    if not Path(pairs_path).is_file():
        raise ValidationError(f"pairs file not found: {pairs_path}")
    pairs = vec_mod.read_pairs_tsv(pairs_path)
    usable = [p for p in pairs if p.word_a in embeddings and p.word_b in embeddings]
    _reject_zero_rows(emb_path, embeddings, (w for p in usable for w in (p.word_a, p.word_b)))
    try:
        rho = vec_mod.spearman_similarity_eval(embeddings, pairs)
    except ValueError as exc:  # too few usable pairs, or a constant ranking
        raise DataError(f"{pairs_path}: {exc}") from None
    return {
        "k": k,
        "pairs": len(pairs),
        "usable": len(usable),
        "skipped": len(pairs) - len(usable),
        "spearman": rho,
    }
