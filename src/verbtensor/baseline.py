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

import numpy as np

from .data import IMPLAUSIBLE, PLAUSIBLE
from .linalg import _as_dense_matrix
from .util import DataError


@dataclass
class KronBaselineModel:
    avg_matrix: np.ndarray  # (K, K)
    cutoff: float | None = None


def train_baseline(positives, embeddings) -> KronBaselineModel:
    """Average the Kronecker products of the positive (subject, object) pairs.

    Only positively labeled triples are accepted; the baseline never sees
    negatives until cutoff calibration. Pairs are stacked in a canonical
    sorted order, so ``Sᵀ O / n`` is exactly permutation invariant. A noun
    without an embedding raises ``DataError``.
    """
    if not positives:
        raise DataError("no positive triples")
    if any(not t.is_plausible for t in positives):
        raise ValueError("train_baseline accepts positive triples only")
    ordered = sorted(positives, key=lambda t: (t.subject, t.object))
    subjects = embeddings.rows(t.subject for t in ordered)
    objects_ = embeddings.rows(t.object for t in ordered)
    return KronBaselineModel(avg_matrix=subjects.T @ objects_ / len(ordered))


def score(model: KronBaselineModel, subjects, objects_) -> np.ndarray:
    """Cosines between each pair's outer product and the verb average.

    ``subjects`` and ``objects_`` are (N, K); one pair is the N = 1 case.
    Non-finite inputs, mismatched shapes and a zero subject row, object row
    or average raise ``ValueError``, as the cosine of a zero vector is
    undefined.
    """
    avg = _as_dense_matrix(model.avg_matrix, "average matrix")
    subjects = _as_dense_matrix(subjects, "subjects")
    objects_ = _as_dense_matrix(objects_, "objects")
    n, k_s = subjects.shape
    if objects_.shape[0] != n or (k_s, objects_.shape[1]) != avg.shape:
        raise ValueError(
            f"shape mismatch: subjects {subjects.shape}, objects {objects_.shape}, "
            f"average {avg.shape}"
        )
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
    if pos.size == 0 or neg.size == 0:
        raise DataError("cutoff calibration needs both positive and negative scores")
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
    if model.cutoff is None:
        raise ValueError("baseline model has no calibrated cutoff")
    values = score(model, subjects, objects_)
    labels = [PLAUSIBLE if value >= model.cutoff else IMPLAUSIBLE for value in values]
    return labels, values
