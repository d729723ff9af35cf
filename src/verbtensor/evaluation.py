"""Metrics and experiment drivers: AUC, F1, 5x2cv, the paired F-test, curves.

AUC is the Mann-Whitney pair-counting statistic (ties count one half).
Method comparison uses the combined 5x2cv F-test with 10 and 5 degrees of
freedom at ``F_TEST_ALPHA``. The drivers return plain values:
``evaluate_on_splits`` gives ``(aucs, f1s)`` in split order,
``learning_curve`` one ``(size, mean_auc, sd_auc)`` tuple per size and
``f_test_5x2cv`` the pair ``(F, significant)``.

A fold hands each method its train triples and the (subjects, objects)
embedding rows of its test half. Every gather from triples to rows is one
``EmbeddingTable.pairs`` call, which also decides which missing noun an
error names: ``evaluate_on_splits`` gathers each fold's test half, and
``learning_curve`` its fixed held-out half once per call.
"""

import math
import random
import statistics
from collections import Counter
from dataclasses import replace
from itertools import compress, repeat
from operator import eq

import numpy as np

from . import baseline as kron
from . import tensor_model as tm
from .data import PLAUSIBLE, VerbDataset, stratified_halves, subsample
from .util import DataError, derive_seed

METHOD_TENSOR = "tensor"
METHOD_BASELINE = "baseline"

# Upper 5% critical value of the F distribution with (10, 5) degrees of
# freedom; the only significance level this test supports.
F_CRITICAL_10_5 = 4.735
F_TEST_ALPHA = 0.05


def roc_auc(scores, labels) -> float:
    """Pair-counting AUC: fraction of positive-negative pairs ranked right.

    Each positive counts the negatives below it and half of those tied with
    it, by binary search over the sorted negatives; the exact half-integer
    count over the Python int ``n_pos * n_neg`` is the one rounding.
    ``scores`` and ``labels`` align, and both classes occur among the labels.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.fromiter(map(eq, labels, repeat(PLAUSIBLE)), dtype=bool, count=len(scores))
    negatives = np.sort(scores[~positive])
    below = np.searchsorted(negatives, scores[positive], side="left")
    not_above = np.searchsorted(negatives, scores[positive], side="right")
    pairs = int(below.sum()) + 0.5 * int((not_above - below).sum())
    return pairs / (len(below) * len(negatives))


def f1_plausible(predicted_labels, gold_labels) -> float:
    """F1 over the plausible class of two aligned label lists; zero when
    precision + recall is zero."""
    # (predicted plausible, gold plausible) -> count
    counts = Counter(zip(map(eq, predicted_labels, repeat(PLAUSIBLE)),
                         map(eq, gold_labels, repeat(PLAUSIBLE))))
    tp, fp, fn = counts[True, True], counts[True, False], counts[False, True]
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return 2.0 * tp / denom


def _fit_and_score(method, train_triples, test_rows, embeddings, train_config, fold_seed):
    """Train ``METHOD_TENSOR``, or else the baseline, on ``train_triples`` and
    score the test half whose ``(subjects, objects)`` rows are ``test_rows``.

    Returns (scores, predicted_labels) aligned with the test rows. Every
    scoring step is one batched call. The tensor ranks by its plausibility
    probability from one forward pass over the test half. The baseline ranks
    by ``cos(s ⊗ o, M) = sᵀ M o / (‖s‖ ‖o‖ ‖M‖_F)``: one ``kron.score`` call
    scores the whole train half, the plausible mask splits it for the
    equal-error cutoff, and one ``predict_baseline`` call labels the test
    half.
    """
    if method == METHOD_TENSOR:
        result = tm.train(train_triples, embeddings, replace(train_config, seed=fold_seed))
        labels, scores = tm.predict_batch(result.model, *test_rows)
        return scores, labels
    positive = np.array([t.label == PLAUSIBLE for t in train_triples], dtype=bool)
    model = kron.train_baseline(list(compress(train_triples, positive)), embeddings)
    train_scores = kron.score(model, *embeddings.pairs(train_triples))
    kron.calibrate_cutoff(model, train_scores[positive], train_scores[~positive])
    labels, scores = kron.predict_baseline(model, *test_rows)
    return scores, labels


def evaluate_on_splits(method, dataset: VerbDataset, splits, embeddings, train_config,
                       seed) -> tuple:
    """Score one method on a fixed list of CV splits: ``(aucs, f1s)`` in split order.

    Per-fold training seeds derive from (seed, repetition, fold), so two
    methods evaluated on the same splits with the same seed are directly
    comparable by the paired F-test. A noun without an embedding fails the
    first fold that holds it.
    """
    triples = dataset.triples
    aucs, f1s = [], []
    for split in splits:
        fold_seed = derive_seed(seed, "fold", split.repetition, split.fold)
        test = [triples[i] for i in split.test]
        try:
            scores, predicted = _fit_and_score(
                method, [triples[i] for i in split.train], embeddings.pairs(test), embeddings,
                train_config, fold_seed,
            )
        except Exception as exc:
            raise RuntimeError(
                f"{method} failed on repetition {split.repetition} fold {split.fold}: {exc}"
            ) from exc
        gold = [t.label for t in test]
        aucs.append(roc_auc(scores, gold))
        f1s.append(f1_plausible(predicted, gold))
    return aucs, f1s


def f_test_5x2cv(metric_a, metric_b) -> tuple:
    """Combined 5x2cv F-test on two aligned lists of 10 fold metrics.

    Returns ``(F, significant)`` at ``F_TEST_ALPHA``. With per-fold
    differences d_ij (repetition i, fold j) and per-repetition variance
    s_i^2 = (d_i1 - mean_i)^2 + (d_i2 - mean_i)^2, the statistic is
    F = sum(d_ij^2) / (2 sum(s_i^2)), compared against the F(10, 5) critical
    value. A zero denominator means the methods move in lockstep: with a zero
    numerator they are identical (not significant, F=0); with a nonzero
    numerator the difference is perfectly consistent (significant, F=inf).
    """
    a = [float(x) for x in metric_a]
    b = [float(x) for x in metric_b]
    diffs = [[a[2 * i + j] - b[2 * i + j] for j in range(2)] for i in range(5)]
    numerator = sum(d * d for row in diffs for d in row)
    denominator = 0.0
    for d1, d2 in diffs:
        mean = (d1 + d2) / 2.0
        denominator += (d1 - mean) ** 2 + (d2 - mean) ** 2
    denominator *= 2.0
    if denominator == 0.0:
        return (0.0, False) if numerator == 0.0 else (math.inf, True)
    f_stat = numerator / denominator
    return f_stat, f_stat > F_CRITICAL_10_5


def learning_curve(
    method,
    dataset: VerbDataset,
    train_sizes,
    embeddings,
    train_config,
    seed,
    repeats: int,
) -> list:
    """AUC on a fixed held-out half as the training sample grows.

    The dataset is halved once (``stratified_halves``, seeded) and the second
    half's embedding rows are gathered once; every point subsamples the first
    half to the requested size, trains, and scores the second. Each size
    repeats with ``repeats`` distinct seeds; the result is one
    ``(size, mean_auc, sd_auc)`` tuple per size, with the sample standard
    deviation (0 for one repeat).
    """
    train_sizes = list(train_sizes)
    triples = dataset.triples
    pool_idx, held_idx = stratified_halves(
        triples, random.Random(derive_seed(seed, "curve-holdout"))
    )
    if max(train_sizes) > len(pool_idx):
        raise DataError(
            f"largest train size {max(train_sizes)} exceeds the training half ({len(pool_idx)})"
        )
    pool = [triples[i] for i in pool_idx]
    held = [triples[i] for i in held_idx]
    held_rows = embeddings.pairs(held)
    held_labels = [t.label for t in held]
    points = []
    for size in train_sizes:
        aucs = []
        for rep in range(repeats):
            sample = subsample(pool, size, derive_seed(seed, "curve", size, rep))
            fold_seed = derive_seed(seed, "curve-train", size, rep)
            scores, _ = _fit_and_score(method, sample, held_rows, embeddings, train_config,
                                       fold_seed)
            aucs.append(roc_auc(scores, held_labels))
        sd = statistics.stdev(aucs) if len(aucs) > 1 else 0.0
        points.append((size, statistics.fmean(aucs), sd))
    return points
