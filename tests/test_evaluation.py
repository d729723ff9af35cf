import math
import random
import statistics
from dataclasses import replace

import numpy as np
import pytest
from conftest import holdout_halves, is_plausible
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from verbtensor import baseline as kron
from verbtensor.config import load_config
from verbtensor.data import (
    IMPLAUSIBLE,
    PLAUSIBLE,
    VerbDataset,
    make_5x2cv_splits,
    read_dataset_jsonl,
    subsample,
)
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
from verbtensor.tensor_model import TrainConfig, predict, predict_batch, train
from verbtensor.util import DataError, derive_seed
from verbtensor.vectors import read_embeddings_tsv

POS, NEG = PLAUSIBLE, IMPLAUSIBLE
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def loop_f1(predicted_labels, gold_labels) -> float:
    """F1 over the plausible class, counted one label pair at a time."""
    tp = fp = fn = 0
    for p, g in zip(predicted_labels, gold_labels):
        tp += p == POS and g == POS
        fp += p == POS and g != POS
        fn += p != POS and g == POS
    return 0.0 if 2 * tp + fp + fn == 0 else 2.0 * tp / (2 * tp + fp + fn)


def reference_fit_and_score(method, train_triples, test_triples, embeddings, train_config,
                            fold_seed):
    """One fold that gathers each half's embedding rows one noun at a time."""
    def pair_rows(triples):
        # subjects first, then objects, as ``EmbeddingTable.pairs`` names a missing noun
        for noun in [t.subject for t in triples] + [t.object for t in triples]:
            if noun not in embeddings:
                raise DataError(f"noun {noun!r} has no embedding")
        return (np.array([embeddings.vector(t.subject) for t in triples]),
                np.array([embeddings.vector(t.object) for t in triples]))

    test_rows = pair_rows(test_triples)
    if method == METHOD_TENSOR:
        result = train(train_triples, embeddings, replace(train_config, seed=fold_seed))
        labels, scores = predict_batch(result.model, *test_rows)
        return scores, labels
    model = kron.train_baseline([t for t in train_triples if is_plausible(t)], embeddings)
    train_scores = kron.score(model, *pair_rows(train_triples))
    positive = np.fromiter(map(is_plausible, train_triples), dtype=bool)
    kron.calibrate_cutoff(model, train_scores[positive], train_scores[~positive])
    labels, scores = kron.predict_baseline(model, *test_rows)
    return scores, labels


def reference_evaluate_on_splits(method, dataset, splits, embeddings, train_config, seed):
    """``evaluate_on_splits`` with every fold gathered from its triples."""
    aucs, f1s = [], []
    for split in splits:
        train_triples = [dataset.triples[i] for i in split.train]
        test_triples = [dataset.triples[i] for i in split.test]
        try:
            scores, predicted = reference_fit_and_score(
                method, train_triples, test_triples, embeddings, train_config,
                derive_seed(seed, "fold", split.repetition, split.fold))
        except Exception as exc:
            raise RuntimeError(
                f"{method} failed on repetition {split.repetition} fold {split.fold}: {exc}"
            ) from exc
        gold = [t.label for t in test_triples]
        aucs.append(roc_auc(scores, gold))
        f1s.append(loop_f1(predicted, gold))
    return aucs, f1s


def reference_learning_curve(method, dataset, train_sizes, embeddings, train_config, seed,
                             repeats):
    """``learning_curve`` with every point gathered from its triples."""
    pool, held = holdout_halves(dataset, derive_seed(seed, "curve-holdout"))
    points = []
    for size in train_sizes:
        aucs = []
        for rep in range(repeats):
            sub = subsample(pool.triples, size, derive_seed(seed, "curve", size, rep))
            scores, _ = reference_fit_and_score(
                method, sub, held.triples, embeddings, train_config,
                derive_seed(seed, "curve-train", size, rep))
            aucs.append(roc_auc(scores, [t.label for t in held.triples]))
        sd = statistics.stdev(aucs) if len(aucs) > 1 else 0.0
        points.append((size, statistics.fmean(aucs), sd))
    return points


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

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([POS, NEG]), st.sampled_from([POS, NEG]))))
    def test_matches_loop_reference(self, pairs):
        predicted, gold = [p for p, _ in pairs], [g for _, g in pairs]
        assert f1_plausible(predicted, gold) == loop_f1(predicted, gold)


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
            METHOD_TENSOR, pool.triples, embeddings.pairs(held.triples), embeddings, config,
            fold_seed=77
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

        seed = 77
        pool, held = holdout_halves(dataset, derive_seed(seed, "curve-holdout"))
        size = len(pool)
        points = learning_curve(
            METHOD_TENSOR, dataset, [size], embeddings, config, seed=seed, repeats=1
        )
        sub = subsample(pool.triples, size, derive_seed(seed, "curve", size, 0))
        scores, _ = _fit_and_score(
            METHOD_TENSOR, sub, embeddings.pairs(held.triples), embeddings, config,
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


@pytest.fixture(scope="module")
def small_world(built):
    """The small world's ``devour`` and ``assemble`` datasets and its k=6 embeddings."""
    config = load_config(built)
    embeddings = read_embeddings_tsv(config.output_dir / "vectors" / "embeddings_k6.tsv")
    datasets = [read_dataset_jsonl(config.output_dir / "datasets" / f"{verb}.jsonl")
                for verb in sorted(config.verbs)]
    return datasets, embeddings


class TestPerCallGather:
    """Every fold and point scores exactly as when each half's rows are
    gathered one noun at a time, and fails on the same missing noun."""

    CONFIG = TrainConfig(epochs=3, seed=3)

    @pytest.mark.parametrize("method", [METHOD_BASELINE, METHOD_TENSOR])
    def test_evaluate_on_splits_matches_per_fold_gather(self, small_world, method):
        datasets, embeddings = small_world
        for dataset in datasets:
            splits = make_5x2cv_splits(dataset, seed=9)
            got = evaluate_on_splits(method, dataset, splits, embeddings, self.CONFIG, 4)
            assert got == reference_evaluate_on_splits(method, dataset, splits, embeddings,
                                                        self.CONFIG, 4)

    @pytest.mark.parametrize("method", [METHOD_BASELINE, METHOD_TENSOR])
    def test_learning_curve_matches_per_point_gather(self, small_world, method):
        datasets, embeddings = small_world
        for dataset in datasets:
            args = (method, dataset, [8, 16, 31], embeddings, self.CONFIG, 5)
            assert learning_curve(*args, repeats=2) == reference_learning_curve(*args, repeats=2)

    @pytest.mark.parametrize("method", [METHOD_BASELINE, METHOD_TENSOR])
    @pytest.mark.parametrize("subject_in", [("train", NEG), ("train", POS), ("test", NEG)],
                             ids=["subject-train-neg", "subject-train-pos", "subject-test-neg"])
    @pytest.mark.parametrize("object_in", [("train", POS), ("test", POS), ("train", NEG)],
                             ids=["object-train-pos", "object-test-pos", "object-train-neg"])
    def test_unknown_nouns_fail_as_per_fold_gather(self, small_world, method, subject_in,
                                                   object_in):
        # two unknown nouns, each in a given half of the first fold and class;
        # the splits depend on the labels alone, so breaking nouns keeps them
        dataset, embeddings = small_world[0][0], small_world[1]
        splits = make_5x2cv_splits(dataset, seed=9)
        triples = list(dataset.triples)

        def pick(half, label):
            return next(i for i in getattr(splits[0], half) if triples[i].label == label)

        at = pick(*subject_in)
        triples[at] = triples[at]._replace(subject="zzz_a")
        at = pick(*object_in)
        triples[at] = triples[at]._replace(object="zzz_b")
        broken = VerbDataset(dataset.verb, triples)
        with pytest.raises(RuntimeError) as got:
            evaluate_on_splits(method, broken, splits, embeddings, self.CONFIG, 4)
        with pytest.raises(RuntimeError) as want:
            reference_evaluate_on_splits(method, broken, splits, embeddings, self.CONFIG, 4)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{method} failed on repetition 1 fold 1: noun ")
        assert type(got.value.__cause__) is type(want.value.__cause__) is DataError
        args = (method, broken, [8, 16], embeddings, self.CONFIG, 5)
        with pytest.raises(DataError) as got:
            learning_curve(*args, repeats=2)
        with pytest.raises(DataError) as want:
            reference_learning_curve(*args, repeats=2)
        assert str(got.value) == str(want.value)
