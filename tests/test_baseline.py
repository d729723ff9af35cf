import math

import numpy as np
import pytest
from conftest import dataset_negatives, dataset_positives, holdout_halves, is_plausible
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from verbtensor.baseline import (
    KronBaselineModel,
    calibrate_cutoff,
    predict_baseline,
    score,
    train_baseline,
)
from verbtensor.corpus import Vocabulary
from verbtensor.data import IMPLAUSIBLE, PLAUSIBLE, LabeledTriple, make_5x2cv_splits
from verbtensor.evaluation import METHOD_BASELINE, _fit_and_score, f1_plausible
from verbtensor.linalg import cosine
from verbtensor.util import DataError
from verbtensor.vectors import EmbeddingTable


def kronecker(u, v) -> np.ndarray:
    """Reference outer product ``result[i, j] = u[i] * v[j]`` of two finite vectors.

    The baseline never forms it; the tests score pairs through it to check
    the factored ``sᵀ M o / (‖s‖ ‖o‖ ‖M‖_F)`` form.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("kronecker inputs contain non-finite values")
    return np.outer(u, v)


class TestKronecker:
    def test_basis_vectors(self):
        np.testing.assert_array_equal(kronecker([1, 0], [0, 1]), [[0, 1], [0, 0]])

    def test_scalars(self):
        np.testing.assert_array_equal(kronecker([2], [3]), [[6]])

    def test_direct_arithmetic(self):
        np.testing.assert_array_equal(kronecker([1, 2], [3, 4]), [[3, 4], [6, 8]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            kronecker([1.0, np.nan], [1.0])
        with pytest.raises(ValueError, match="non-finite"):
            kronecker([1.0], [np.inf, 1.0])

    def test_cosine_factorization(self):
        """cos(a x b, c x d) = cos(a, c) * cos(b, d) for nonzero vectors."""
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, c = rng.standard_normal((2, 4))
            b, d = rng.standard_normal((2, 3))
            left = cosine(kronecker(a, b), kronecker(c, d))
            right = cosine(a, c) * cosine(b, d)
            assert abs(left - right) < 1e-10


def embeddings_from(vectors):
    names = list(vectors)
    matrix = np.asarray([vectors[n] for n in names], dtype=float)
    return EmbeddingTable(Vocabulary.from_words(names), matrix)


@pytest.fixture
def simple_embeddings():
    return embeddings_from(
        {
            "s1": [1.0, 0.0, 0.2],
            "s2": [0.8, 0.1, 0.0],
            "s_orth": [0.0, 1.0, 0.0],
            "o1": [0.0, 0.3, 1.0],
            "o2": [0.1, 0.0, 0.9],
        }
    )


def pos(s, o, verb="eat"):
    return LabeledTriple(s, verb, o, PLAUSIBLE)


class TestTrainBaseline:
    def test_single_positive_equals_kronecker(self, simple_embeddings):
        model = train_baseline([pos("s1", "o1")], simple_embeddings)
        expected = kronecker(
            simple_embeddings.vector("s1"), simple_embeddings.vector("o1")
        )
        np.testing.assert_array_equal(model.avg_matrix, expected)
        assert model.cutoff is None

    def test_duplicate_positives_average_to_same(self, simple_embeddings):
        one = train_baseline([pos("s1", "o1")], simple_embeddings)
        two = train_baseline([pos("s1", "o1"), pos("s1", "o1")], simple_embeddings)
        np.testing.assert_allclose(one.avg_matrix, two.avg_matrix, atol=1e-15)

    def test_matches_naive_sum(self, simple_embeddings):
        triples = [pos("s1", "o1"), pos("s2", "o2"), pos("s1", "o2")]
        model = train_baseline(triples, simple_embeddings)
        total = np.zeros((3, 3))
        for t in triples:
            total += np.outer(
                simple_embeddings.vector(t.subject), simple_embeddings.vector(t.object)
            )
        np.testing.assert_allclose(model.avg_matrix, total / 3, atol=1e-12)

    def test_permutation_invariant_exactly(self, simple_embeddings):
        triples = [pos("s1", "o1"), pos("s2", "o2"), pos("s1", "o2"), pos("s2", "o1")]
        a = train_baseline(triples, simple_embeddings)
        b = train_baseline(list(reversed(triples)), simple_embeddings)
        assert np.array_equal(a.avg_matrix, b.avg_matrix)

    def test_no_usable_positives(self, simple_embeddings):
        with pytest.raises(DataError, match="^no positive triples$"):
            train_baseline([], simple_embeddings)
        with pytest.raises(DataError, match="^noun 'ghost' has no embedding$"):
            train_baseline([pos("s1", "o1"), pos("ghost", "o1")], simple_embeddings)


def one(embeddings, noun):
    """A (1, K) row: the one-pair case of the batched baseline calls."""
    return embeddings.vector(noun)[None]


# finite entries, rows kept well away from zero norm below
ENTRY = st.floats(-4.0, 4.0, allow_subnormal=False)


@st.composite
def scoring_cases(draw):
    """An average matrix and (N, K) query rows with repeated pairs."""
    k = draw(st.integers(1, 6))
    n_distinct = draw(st.integers(1, 5))
    distinct_s = draw(hnp.arrays(np.float64, (n_distinct, k), elements=ENTRY))
    distinct_o = draw(hnp.arrays(np.float64, (n_distinct, k), elements=ENTRY))
    avg = draw(hnp.arrays(np.float64, (k, k), elements=ENTRY))
    pick = draw(st.lists(st.integers(0, n_distinct - 1), min_size=1, max_size=12))
    return avg, distinct_s[pick], distinct_o[pick], pick


class TestTrainBaselineOracle:
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12),
           st.randoms(use_true_random=False), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariant_and_naive_sum(self, pairs, shuffler, seed):
        rng = np.random.default_rng(seed)
        emb = embeddings_from({f"{r}{i}": rng.standard_normal(4) for r in "so" for i in range(4)})
        triples = [pos(f"s{i}", f"o{j}") for i, j in pairs]
        shuffled = list(triples)
        shuffler.shuffle(shuffled)
        model = train_baseline(triples, emb)
        assert np.array_equal(model.avg_matrix, train_baseline(shuffled, emb).avg_matrix)
        total = np.zeros((4, 4))
        for t in triples:
            total += kronecker(emb.vector(t.subject), emb.vector(t.object))
        naive = total / len(triples)
        np.testing.assert_allclose(model.avg_matrix, naive, rtol=0, atol=1e-12 * np.abs(naive).max())


class TestScore:
    def test_self_similarity_is_one(self, simple_embeddings):
        model = train_baseline([pos("s1", "o1")], simple_embeddings)
        value = score(
            model, one(simple_embeddings, "s1"), one(simple_embeddings, "o1")
        )
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_subject_scores_zero(self):
        emb = embeddings_from(
            {"s": [1.0, 0.0], "s_orth": [0.0, 1.0], "o": [0.0, 1.0]}
        )
        model = train_baseline([pos("s", "o")], emb)
        value = score(model, one(emb, "s_orth"), one(emb, "o"))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self, simple_embeddings):
        model = train_baseline([pos("s1", "o1"), pos("s2", "o2")], simple_embeddings)
        s = one(simple_embeddings, "s2")
        o = one(simple_embeddings, "o1")
        assert score(model, 2.0 * s, o) == pytest.approx(score(model, s, o), abs=1e-12)

    def test_factorization_identity(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            s_train, s_query = rng.standard_normal((2, 4))
            o_train, o_query = rng.standard_normal((2, 4))
            emb = embeddings_from(
                {"st": s_train, "ot": o_train, "sq": s_query, "oq": o_query}
            )
            model = train_baseline([pos("st", "ot")], emb)
            left = score(model, s_query[None, :], o_query[None, :])
            right = cosine(s_query, s_train) * cosine(o_query, o_train)
            assert abs(left - right) < 1e-10


class TestBatchedScoreOracle:
    @given(scoring_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_pair_cosine_of_kronecker(self, case):
        avg, subjects, objects_, pick = case
        assume(np.linalg.norm(avg) > 1e-3)
        assume((np.linalg.norm(subjects, axis=1) > 1e-3).all())
        assume((np.linalg.norm(objects_, axis=1) > 1e-3).all())
        model = KronBaselineModel(avg_matrix=avg)
        batched = score(model, subjects, objects_)
        oracle = [cosine(kronecker(s, o), avg) for s, o in zip(subjects, objects_)]
        assert batched.shape == (len(pick),)
        # cosines lie in [-1, 1], so 1e-12 absolute is 1e-12 of the score's range
        np.testing.assert_allclose(batched, oracle, rtol=1e-12, atol=1e-12)
        # a repeated pair scores bit-identically, so AUC ties stay ties
        for i, j in enumerate(pick):
            assert batched[i] == batched[pick.index(j)]

    def test_zero_row_raises(self, simple_embeddings):
        model = train_baseline([pos("s1", "o1")], simple_embeddings)
        s, o = simple_embeddings.pairs([pos("s1", "o1"), pos("s2", "o2")])
        for subjects, objects_ in ((s * [[1.0], [0.0]], o), (s, o * [[0.0], [1.0]])):
            with pytest.raises(ValueError, match="zero vector"):
                score(model, subjects, objects_)

    def test_zero_average_raises(self, simple_embeddings):
        model = KronBaselineModel(avg_matrix=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="zero vector"):
            score(model, one(simple_embeddings, "s1"), one(simple_embeddings, "o1"))


def loop_calibrate_cutoff(pos_scores, neg_scores):
    """Reference equal-error search: one threshold at a time, in candidate order."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    distinct = np.unique(np.concatenate([pos, neg]))
    candidates = [-math.inf, math.inf]
    candidates.extend(((distinct[:-1] + distinct[1:]) / 2.0).tolist())
    best_threshold = None
    best_gap = None
    for threshold in candidates:
        fpr = float(np.mean(neg >= threshold))
        fnr = float(np.mean(pos < threshold))
        gap = abs(fpr - fnr)
        if best_gap is None or gap < best_gap or (gap == best_gap and threshold > best_threshold):
            best_gap = gap
            best_threshold = threshold
    return float(best_threshold)


# few distinct values so that ties are common, plus arbitrary floats
SCORE = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.125, 0.5, 0.75, 1.0]),
                  st.floats(-1.0, 1.0))
FEW = st.lists(SCORE, min_size=1, max_size=3)
MANY = st.lists(SCORE, min_size=1, max_size=60)


class TestCalibrateCutoff:
    def make_model(self):
        return KronBaselineModel(avg_matrix=np.eye(2))

    def test_separable_scores_pick_gap_midpoint(self):
        model = self.make_model()
        cutoff = calibrate_cutoff(model, [0.9, 0.8], [0.2, 0.1])
        assert cutoff == pytest.approx(0.5)
        assert model.cutoff == pytest.approx(0.5)

    def test_two_points_midpoint(self):
        cutoff = calibrate_cutoff(self.make_model(), [0.6], [0.4])
        assert cutoff == pytest.approx(0.5)

    def test_identical_distributions_near_half(self):
        values = [i / 10 for i in range(1, 10)]
        model = self.make_model()
        cutoff = calibrate_cutoff(model, values, values)
        fpr = sum(1 for v in values if v >= cutoff) / len(values)
        fnr = sum(1 for v in values if v < cutoff) / len(values)
        assert abs(fpr - fnr) <= 1 / len(values) + 1e-12
        assert 0.3 <= fpr <= 0.7

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            pos_scores = rng.uniform(-1, 1, size=8).tolist()
            neg_scores = rng.uniform(-1, 1, size=6).tolist()
            model = self.make_model()
            cutoff = calibrate_cutoff(model, pos_scores, neg_scores)

            def gap(t):
                fpr = sum(1 for v in neg_scores if v >= t) / len(neg_scores)
                fnr = sum(1 for v in pos_scores if v < t) / len(pos_scores)
                return abs(fpr - fnr)

            distinct = sorted(set(pos_scores + neg_scores))
            candidates = [-math.inf, math.inf] + [
                (a + b) / 2 for a, b in zip(distinct, distinct[1:])
            ]
            best = min(gap(t) for t in candidates)
            assert gap(cutoff) == pytest.approx(best, abs=1e-12)
            # ties resolve toward the higher threshold
            for t in candidates:
                if gap(t) == gap(cutoff):
                    assert cutoff >= t or gap(t) > best

    @given(st.one_of(st.tuples(FEW, MANY), st.tuples(MANY, FEW), st.tuples(MANY, MANY)))
    @settings(max_examples=400, deadline=None)
    def test_matches_loop_reference(self, scores):
        pos_scores, neg_scores = scores
        cutoff = calibrate_cutoff(self.make_model(), pos_scores, neg_scores)
        assert cutoff == loop_calibrate_cutoff(pos_scores, neg_scores)


class TestPredictBaseline:
    def test_rule_and_boundary(self, simple_embeddings):
        model = train_baseline([pos("s1", "o1")], simple_embeddings)
        [value] = score(model, one(simple_embeddings, "s1"), one(simple_embeddings, "o1"))
        model.cutoff = value  # boundary: score == cutoff counts as plausible
        [label], [returned] = predict_baseline(
            model, one(simple_embeddings, "s1"), one(simple_embeddings, "o1")
        )
        assert label == PLAUSIBLE
        assert returned == pytest.approx(value)
        model.cutoff = value + 1e-6
        [label], _ = predict_baseline(
            model, one(simple_embeddings, "s1"), one(simple_embeddings, "o1")
        )
        assert label == IMPLAUSIBLE

    def test_end_to_end_f1_on_separable_data(self, planted):
        dataset, embeddings = planted
        pool, held = holdout_halves(dataset, seed=55)
        model = train_baseline(dataset_positives(pool), embeddings)
        pos_scores = [
            score(model, one(embeddings, t.subject), one(embeddings, t.object))[0]
            for t in dataset_positives(pool)
        ]
        neg_scores = [
            score(model, one(embeddings, t.subject), one(embeddings, t.object))[0]
            for t in dataset_negatives(pool)
        ]
        calibrate_cutoff(model, pos_scores, neg_scores)
        predicted = [
            predict_baseline(
                model, one(embeddings, t.subject), one(embeddings, t.object)
            )[0][0]
            for t in held.triples
        ]
        assert f1_plausible(predicted, [t.label for t in held.triples]) > 0.8


def per_triple_baseline(train_triples, test_triples, embeddings):
    """Reference fold: sum outer products one pair at a time, score one cosine per triple."""
    positives = sorted(
        (t for t in train_triples if is_plausible(t)), key=lambda t: (t.subject, t.object)
    )
    total = np.zeros((embeddings.dim, embeddings.dim))
    for t in positives:
        total += kronecker(embeddings.vector(t.subject), embeddings.vector(t.object))
    avg = total / len(positives)

    def one_score(t):
        return cosine(kronecker(embeddings.vector(t.subject), embeddings.vector(t.object)), avg)

    cutoff = loop_calibrate_cutoff(
        [one_score(t) for t in train_triples if is_plausible(t)],
        [one_score(t) for t in train_triples if not is_plausible(t)],
    )
    scores = [one_score(t) for t in test_triples]
    return scores, [PLAUSIBLE if v >= cutoff else IMPLAUSIBLE for v in scores]


class TestBatchedFold:
    @pytest.mark.parametrize("fixture", ["planted", "noisy_planted"])
    def test_matches_per_triple_path(self, fixture, request):
        dataset, embeddings = request.getfixturevalue(fixture)
        for split in make_5x2cv_splits(dataset, seed=3)[:4]:
            train = [dataset.triples[i] for i in split.train]
            test = [dataset.triples[i] for i in split.test]
            scores, labels = _fit_and_score(METHOD_BASELINE, train, embeddings.pairs(test),
                                            embeddings, None, 0)
            ref_scores, ref_labels = per_triple_baseline(train, test, embeddings)
            assert labels == ref_labels
            np.testing.assert_allclose(scores, ref_scores, rtol=0, atol=1e-12)
