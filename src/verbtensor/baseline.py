"""Corpus-driven baseline: average Kronecker product of positive pairs.

The verb is summarized by the mean outer product ``M`` of its positive
subject and object embeddings. A new pair is scored by the cosine between
its own outer product and that average, which factors without forming the
K x K product::

    cos(s ⊗ o, M) = sᵀ M o / (‖s‖ ‖o‖ ‖M‖_F)

Everything works on a leading example axis: training is one ``Sᵀ O`` over
the stacked positive rows, and scoring N pairs is one ``S @ M`` plus a
row-wise dot with ``O``. Labels use a score cutoff placed at the equal-error
point of the training ROC, the threshold where false-positive and
false-negative rates come closest.
"""

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .data import IMPLAUSIBLE, PLAUSIBLE
from .util import DataError


@dataclass
class KronBaselineModel:
    avg_matrix: np.ndarray  # (K, K)
    cutoff: float | None = None


def train_baseline(positives, embeddings) -> KronBaselineModel:
    """Average the Kronecker products of the positive (subject, object) pairs.

    ``positives`` holds the positively labeled training triples only; the
    baseline never sees negatives until cutoff calibration. Pairs are stacked
    in a canonical sorted order, so ``Sᵀ O / n`` is exactly permutation
    invariant. A noun without an embedding raises ``DataError``.
    """
    if not positives:
        raise DataError("no positive triples")
    ordered = sorted(positives, key=itemgetter(0, 2))  # by (subject, object)
    subjects, objects_ = embeddings.pairs(ordered)
    return KronBaselineModel(avg_matrix=subjects.T @ objects_ / len(ordered))


def score(model: KronBaselineModel, subjects, objects_) -> np.ndarray:
    """Cosines between each pair's outer product and the verb average.

    ``subjects`` and ``objects_`` are (N, K) float arrays; one pair is the
    N = 1 case. A zero subject row, object row or average raises
    ``ValueError``, as the cosine of a zero vector is undefined. The pipeline
    rejects zero embedding rows before it scores, so there only a zero
    average can still raise.
    """
    avg = model.avg_matrix
    norms = np.linalg.norm(subjects, axis=1) * np.linalg.norm(objects_, axis=1)
    norms *= np.linalg.norm(avg)
    if not norms.all():
        raise ValueError("cosine undefined for a zero vector")
    return ((subjects @ avg) * objects_).sum(axis=1) / norms


def calibrate_cutoff(model: KronBaselineModel, train_pos_scores, train_neg_scores) -> float:
    """Equal-error threshold over the training scores.

    Candidates are the midpoints between adjacent distinct pooled scores plus
    the two infinities; the winner minimizes |FPR - FNR| under the
    ``score >= cutoff -> plausible`` rule, ties resolved toward the higher
    threshold. The chosen cutoff is stored on the model and returned.
    """
    pos = np.asarray(list(train_pos_scores), dtype=np.float64)
    neg = np.asarray(list(train_neg_scores), dtype=np.float64)
    distinct = np.unique(np.concatenate([pos, neg]))
    candidates = np.concatenate(
        [[-math.inf, math.inf], (distinct[:-1] + distinct[1:]) / 2.0]
    )
    # counts of negatives at or above and positives below each threshold
    n_neg_above = neg.size - np.searchsorted(np.sort(neg), candidates, side="left")
    n_pos_below = np.searchsorted(np.sort(pos), candidates, side="left")
    gap = np.abs(n_neg_above / neg.size - n_pos_below / pos.size)
    best_threshold = candidates[gap == gap.min()].max()
    model.cutoff = float(best_threshold)
    return model.cutoff


def predict_baseline(model: KronBaselineModel, subjects, objects_):
    """Labels and scores for N pairs under the calibrated cutoff.

    Mirrors ``tensor_model.predict_batch``: returns ``(labels, scores)``
    with ``score >= cutoff`` labeled plausible.
    """
    values = score(model, subjects, objects_)
    labels = [PLAUSIBLE if value >= model.cutoff else IMPLAUSIBLE for value in values]
    return labels, values
