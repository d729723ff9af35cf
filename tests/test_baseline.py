import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verbtensor.baseline import (
    KronBaselineModel,
    calibrate_cutoff,
    load_baseline,
    predict_baseline,
    save_baseline,
    score,
    train_baseline,
)
from verbtensor.corpus import Vocabulary
from verbtensor.data import IMPLAUSIBLE, PLAUSIBLE, LabeledTriple
from verbtensor.evaluation import _holdout_halves, f1_plausible
from verbtensor.linalg import cosine, kronecker
from verbtensor.util import DataError
from verbtensor.vectors import EmbeddingTable


def embeddings_from(vectors):
    names = list(vectors)
    matrix = np.asarray([vectors[n] for n in names], dtype=float)
    return EmbeddingTable(Vocabulary.from_words(names), matrix.shape[1], matrix)


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
        assert model.verb == "eat"
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

    def test_rejects_negatives(self, simple_embeddings):
        with pytest.raises(ValueError, match="positive triples only"):
            train_baseline(
                [pos("s1", "o1"), LabeledTriple("s2", "eat", "o2", IMPLAUSIBLE)],
                simple_embeddings,
            )

    def test_no_usable_positives(self, simple_embeddings):
        with pytest.raises(DataError, match="no positive"):
            train_baseline([pos("ghost", "o1")], simple_embeddings)


class TestScore:
    def test_self_similarity_is_one(self, simple_embeddings):
        model = train_baseline([pos("s1", "o1")], simple_embeddings)
        value = score(
            model, simple_embeddings.vector("s1"), simple_embeddings.vector("o1")
        )
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_subject_scores_zero(self):
        emb = embeddings_from(
            {"s": [1.0, 0.0], "s_orth": [0.0, 1.0], "o": [0.0, 1.0]}
        )
        model = train_baseline([pos("s", "o")], emb)
        value = score(model, emb.vector("s_orth"), emb.vector("o"))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self, simple_embeddings):
        model = train_baseline([pos("s1", "o1"), pos("s2", "o2")], simple_embeddings)
        s = simple_embeddings.vector("s2")
        o = simple_embeddings.vector("o1")
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
            left = score(model, s_query, o_query)
            right = cosine(s_query, s_train) * cosine(o_query, o_train)
            assert abs(left - right) < 1e-10


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
        return KronBaselineModel(verb="eat", avg_matrix=np.eye(2))

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

    def test_empty_lists_rejected(self):
        with pytest.raises(DataError, match="calibration"):
            calibrate_cutoff(self.make_model(), [], [0.1])
        with pytest.raises(DataError, match="calibration"):
            calibrate_cutoff(self.make_model(), [0.1], [])


class TestPredictBaseline:
    def test_rule_and_boundary(self, simple_embeddings):
        model = train_baseline([pos("s1", "o1")], simple_embeddings)
        value = score(model, simple_embeddings.vector("s1"), simple_embeddings.vector("o1"))
        model.cutoff = value  # boundary: score == cutoff counts as plausible
        label, returned = predict_baseline(
            model, simple_embeddings.vector("s1"), simple_embeddings.vector("o1")
        )
        assert label == PLAUSIBLE
        assert returned == pytest.approx(value)
        model.cutoff = value + 1e-6
        label, _ = predict_baseline(
            model, simple_embeddings.vector("s1"), simple_embeddings.vector("o1")
        )
        assert label == IMPLAUSIBLE

    def test_uncalibrated_model_rejected(self, simple_embeddings):
        model = train_baseline([pos("s1", "o1")], simple_embeddings)
        with pytest.raises(ValueError, match="cutoff"):
            predict_baseline(
                model, simple_embeddings.vector("s1"), simple_embeddings.vector("o1")
            )

    def test_end_to_end_f1_on_separable_data(self, planted):
        dataset, embeddings = planted
        pool, held = _holdout_halves(dataset, seed=55)
        model = train_baseline(pool.positives, embeddings)
        pos_scores = [
            score(model, embeddings.vector(t.subject), embeddings.vector(t.object))
            for t in pool.positives
        ]
        neg_scores = [
            score(model, embeddings.vector(t.subject), embeddings.vector(t.object))
            for t in pool.negatives
        ]
        calibrate_cutoff(model, pos_scores, neg_scores)
        predicted = [
            predict_baseline(
                model, embeddings.vector(t.subject), embeddings.vector(t.object)
            )[0]
            for t in held.triples
        ]
        assert f1_plausible(predicted, [t.label for t in held.triples]) > 0.8


class TestBaselineIo:
    def test_round_trip(self, tmp_path, simple_embeddings):
        model = train_baseline([pos("s1", "o1"), pos("s2", "o2")], simple_embeddings)
        calibrate_cutoff(model, [0.9, 0.7], [0.2, 0.4])
        base = tmp_path / "eat_k3"
        save_baseline(base, model, stats={"n_positives": 2})
        loaded = load_baseline(base)
        np.testing.assert_array_equal(loaded.avg_matrix, model.avg_matrix)
        assert loaded.cutoff == model.cutoff
        assert loaded.verb == "eat"

    def test_uncalibrated_round_trip(self, tmp_path, simple_embeddings):
        model = train_baseline([pos("s1", "o1")], simple_embeddings)
        base = tmp_path / "eat_raw"
        save_baseline(base, model)
        assert load_baseline(base).cutoff is None
