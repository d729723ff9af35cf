import math
import random
import statistics

import numpy as np
import pytest
from conftest import holdout_halves
from scipy import stats

from verbtensor.data import IMPLAUSIBLE, PLAUSIBLE, make_5x2cv_splits
from verbtensor.evaluation import (
    F_CRITICAL_10_5,
    METHOD_BASELINE,
    METHOD_TENSOR,
    _fit_and_score,
    evaluate_on_splits,
    f1_plausible,
    f_test_5x2cv,
    learning_curve,
    roc_auc,
)
from verbtensor.tensor_model import TrainConfig, predict, train
from verbtensor.util import DataError

POS, NEG = PLAUSIBLE, IMPLAUSIBLE
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def run_5x2cv(method, dataset, embeddings, train_config, seed) -> tuple:
    """Five repetitions of stratified 2-fold CV; returns the 10 fold (aucs, f1s)."""
    splits = make_5x2cv_splits(dataset, seed)
    return evaluate_on_splits(method, dataset, splits, embeddings, train_config, seed)


def roc_auc_trapezoidal(scores, labels) -> float:
    """AUC by trapezoidal integration over the full ROC curve.

    Walks every distinct threshold from high to low, collecting (FPR, TPR)
    points, and integrates: the independent cross-check for the package's
    pair-counting ``roc_auc``.
    """
    scores = np.asarray(list(scores), dtype=np.float64)
    is_pos = np.asarray([lab == PLAUSIBLE for lab in labels])
    n_pos, n_neg = int(is_pos.sum()), int((~is_pos).sum())
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_pos = is_pos[order]
    tpr = [0.0]
    fpr = [0.0]
    tp = fp = 0
    i = 0
    n = len(scores)
    while i < n:
        j = i
        while j < n and sorted_scores[j] == sorted_scores[i]:
            j += 1
        tp += int(sorted_pos[i:j].sum())
        fp += (j - i) - int(sorted_pos[i:j].sum())
        tpr.append(tp / n_pos)
        fpr.append(fp / n_neg)
        i = j
    return float(_trapezoid(tpr, fpr))


def labels_for(pos_scores, neg_scores):
    return (
        list(pos_scores) + list(neg_scores),
        [POS] * len(pos_scores) + [NEG] * len(neg_scores),
    )


def naive_pair_auc(scores, labels):
    """Direct positive-negative pair enumeration."""
    pos = [s for s, lab in zip(scores, labels) if lab == POS]
    neg = [s for s, lab in zip(scores, labels) if lab == NEG]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def rank_sum_auc(scores, labels):
    """The Mann-Whitney rank-sum form: positives' average ranks less their minimum sum."""
    ranks = stats.rankdata(np.asarray(scores, dtype=np.float64), method="average")
    n_pos = sum(1 for lab in labels if lab == POS)
    n_neg = len(labels) - n_pos
    pos_rank_sum = float(sum(r for r, lab in zip(ranks, labels) if lab == POS))
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


class TestRocAuc:
    def test_perfect_separation(self):
        scores, labels = labels_for([0.9, 0.8], [0.7, 0.1])
        assert roc_auc(scores, labels) == 1.0

    def test_three_of_four_pairs(self):
        scores, labels = labels_for([0.8, 0.4], [0.6, 0.2])
        assert roc_auc(scores, labels) == 0.75

    def test_all_ties_is_half(self):
        scores, labels = labels_for([0.5, 0.5], [0.5, 0.5])
        assert roc_auc(scores, labels) == 0.5

    def test_matches_naive_pair_enumeration(self):
        # both oracles sum exact half-integers and divide once by a Python int
        rng = random.Random(3)
        checked = 0
        for _ in range(150):
            n = rng.randint(2, 400)
            tied = [rng.random() for _ in range(rng.randint(1, 8))]
            share_tied, share_pos = rng.random(), rng.uniform(0.05, 0.95)
            scores = [rng.choice(tied) if rng.random() < share_tied else rng.random()
                      for _ in range(n)]
            labels = [POS if rng.random() < share_pos else NEG for _ in range(n)]
            if len(set(labels)) < 2:
                continue
            got = roc_auc(scores, labels)
            assert type(got) is float
            assert got == naive_pair_auc(scores, labels)
            rank_sum = rank_sum_auc(scores, labels)
            assert got == rank_sum and type(rank_sum) is float
            checked += 1
        assert checked > 100

    def test_trapezoid_equals_pair_counting(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(2, 100)
            scores = [rng.choice([rng.random(), 0.3, 0.6]) for _ in range(n)]
            labels = [rng.choice([POS, NEG]) for _ in range(n)]
            if len(set(labels)) < 2:
                continue
            assert abs(
                roc_auc(scores, labels) - roc_auc_trapezoidal(scores, labels)
            ) < 1e-12

    def test_monotone_transform_invariance(self):
        scores, labels = labels_for([0.9, 0.3, 0.5], [0.4, 0.2])
        base = roc_auc(scores, labels)
        transformed = [math.exp(4.0 * s) for s in scores]
        assert roc_auc(transformed, labels) == base


class TestF1:
    def test_perfect(self):
        assert f1_plausible([POS, NEG, POS], [POS, NEG, POS]) == 1.0

    def test_confusion_matrix_arithmetic(self):
        # TP=2, FP=1, FN=1
        predicted = [POS, POS, POS, NEG, NEG]
        gold = [POS, POS, NEG, POS, NEG]
        assert f1_plausible(predicted, gold) == pytest.approx(2 / 3)

    def test_no_predicted_positives(self):
        assert f1_plausible([NEG, NEG], [POS, NEG]) == 0.0


class TestFTest:
    def test_identical_metrics_not_significant(self):
        values = [0.8, 0.82, 0.79, 0.81, 0.8, 0.78, 0.83, 0.8, 0.81, 0.79]
        assert f_test_5x2cv(values, values) == (0.0, False)

    def test_constant_difference_is_significant(self):
        a = [0.9] * 10
        b = [0.8] * 10
        assert f_test_5x2cv(a, b) == (math.inf, True)

    def test_matches_direct_recomputation(self):
        rng = random.Random(7)
        for _ in range(100):
            a = [rng.random() for _ in range(10)]
            b = [rng.random() for _ in range(10)]
            f_stat, significant = f_test_5x2cv(a, b)
            diffs = [a[i] - b[i] for i in range(10)]
            numerator = sum(d * d for d in diffs)
            denominator = 0.0
            for i in range(5):
                d1, d2 = diffs[2 * i], diffs[2 * i + 1]
                mean = (d1 + d2) / 2
                denominator += (d1 - mean) ** 2 + (d2 - mean) ** 2
            expected = numerator / (2 * denominator)
            assert f_stat == pytest.approx(expected, abs=1e-10)
            assert significant == (expected > F_CRITICAL_10_5)

    def test_symmetric_in_magnitude(self):
        rng = random.Random(11)
        a = [rng.random() for _ in range(10)]
        b = [rng.random() for _ in range(10)]
        assert f_test_5x2cv(a, b)[0] == pytest.approx(f_test_5x2cv(b, a)[0], abs=1e-12)

    def test_critical_value_against_scipy(self):
        assert F_CRITICAL_10_5 == pytest.approx(stats.f.ppf(0.95, 10, 5), abs=5e-3)


class TestRun5x2cv:
    def test_deterministic(self, planted):
        dataset, embeddings = planted
        config = TrainConfig(epochs=8, seed=3)
        a = run_5x2cv(METHOD_TENSOR, dataset, embeddings, config, seed=5)
        b = run_5x2cv(METHOD_TENSOR, dataset, embeddings, config, seed=5)
        assert a == b

    def test_tensor_separates_synthetic_data(self, planted):
        dataset, embeddings = planted
        config = TrainConfig(epochs=25, seed=3)
        aucs, f1s = run_5x2cv(METHOD_TENSOR, dataset, embeddings, config, seed=5)
        assert len(aucs) == len(f1s) == 10
        assert statistics.fmean(aucs) >= 0.9

    def test_baseline_runs_and_reports(self, planted):
        dataset, embeddings = planted
        config = TrainConfig(epochs=5, seed=3)
        aucs, f1s = run_5x2cv(METHOD_BASELINE, dataset, embeddings, config, seed=5)
        assert 0.0 <= statistics.fmean(aucs) <= 1.0
        assert 0.0 <= statistics.fmean(f1s) <= 1.0

    def test_batched_fold_scores_match_per_triple_predict(self, planted):
        dataset, embeddings = planted
        pool, held = holdout_halves(dataset, seed=5)
        config = TrainConfig(epochs=5)
        scores, labels = _fit_and_score(
            METHOD_TENSOR, pool.triples, held.triples, embeddings, config, fold_seed=77
        )
        model = train(pool.triples, embeddings, TrainConfig(epochs=5, seed=77)).model
        single = [
            predict(model, embeddings.vector(t.subject), embeddings.vector(t.object))
            for t in held.triples
        ]
        assert labels == [label for label, _ in single]
        np.testing.assert_allclose(scores, [p for _, p in single], rtol=0, atol=1e-12)


class TestLearningCurve:
    def test_row_count_and_shape(self, noisy_planted):
        dataset, embeddings = noisy_planted
        config = TrainConfig(epochs=10, seed=3)
        points = learning_curve(
            METHOD_BASELINE, dataset, [10, 30, 80], embeddings, config, seed=4, repeats=3
        )
        assert [size for size, _, _ in points] == [10, 30, 80]
        assert all(0.0 <= mean <= 1.0 for _, mean, _ in points)
        assert all(sd >= 0.0 for _, _, sd in points)

    def test_auc_trends_upward(self, noisy_planted):
        dataset, embeddings = noisy_planted
        config = TrainConfig(epochs=12, seed=3)
        sizes = [10, 40, 160]
        points = learning_curve(
            METHOD_TENSOR, dataset, sizes, embeddings, config, seed=4, repeats=3
        )
        rho = stats.spearmanr([p[0] for p in points], [p[1] for p in points]).statistic
        assert rho > 0

    def test_full_half_matches_direct_run(self, planted):
        dataset, embeddings = planted
        config = TrainConfig(epochs=6, seed=3)
        from verbtensor.data import subsample
        from verbtensor.util import derive_seed

        seed = 77
        pool, held = holdout_halves(dataset, derive_seed(seed, "curve-holdout"))
        size = len(pool)
        points = learning_curve(
            METHOD_TENSOR, dataset, [size], embeddings, config, seed=seed, repeats=1
        )
        sub = subsample(pool, size, derive_seed(seed, "curve", size, 0))
        scores, _ = _fit_and_score(
            METHOD_TENSOR, sub.triples, held.triples, embeddings, config,
            derive_seed(seed, "curve-train", size, 0),
        )
        expected = roc_auc(scores, [t.label for t in held.triples])
        assert points == [(size, pytest.approx(expected, abs=1e-12), 0.0)]

    def test_size_too_large(self, planted):
        dataset, embeddings = planted
        with pytest.raises(DataError, match="exceeds"):
            learning_curve(
                METHOD_BASELINE, dataset, [10_000], embeddings,
                TrainConfig(epochs=1), seed=1, repeats=1,
            )


class TestSplitsCoverage:
    def test_two_folds_cover_dataset(self, planted):
        dataset, _ = planted
        from verbtensor.data import make_5x2cv_splits

        splits = make_5x2cv_splits(dataset, seed=6)
        by_rep = {}
        for split in splits:
            by_rep.setdefault(split.repetition, []).append(split)
        for rep, pair in by_rep.items():
            test_union = set(pair[0].test) | set(pair[1].test)
            assert test_union == set(range(len(dataset)))
            assert set(pair[0].test).isdisjoint(set(pair[1].test))
