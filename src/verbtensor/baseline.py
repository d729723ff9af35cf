"""Corpus-driven baseline: average Kronecker product of positive pairs.

The verb is summarized by the mean outer product of its positive subject and
object embeddings. A new pair is scored by the cosine between its own outer
product and that average. Labels use a score cutoff placed at the equal-error
point of the training ROC, the threshold where false-positive and
false-negative rates come closest.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import IMPLAUSIBLE, PLAUSIBLE
from .linalg import cosine, kronecker, read_tvb, write_tvb
from .util import DataError


@dataclass
class KronBaselineModel:
    verb: str
    avg_matrix: np.ndarray  # (K, K)
    cutoff: float | None = None


def train_baseline(positives, embeddings) -> KronBaselineModel:
    """Average the Kronecker products of the positive (subject, object) pairs.

    Only positively labeled triples are accepted; the baseline never sees
    negatives until cutoff calibration. Pairs are summed in a canonical
    sorted order so the result is exactly permutation invariant.
    """
    usable = [t for t in positives if t.subject in embeddings and t.object in embeddings]
    if not usable:
        raise DataError("no positive triples with embedded nouns")
    if any(not t.is_plausible for t in usable):
        raise ValueError("train_baseline accepts positive triples only")
    verb = usable[0].verb
    ordered = sorted(usable, key=lambda t: (t.subject, t.object))
    k_s = embeddings.vector(ordered[0].subject).shape[0]
    k_o = embeddings.vector(ordered[0].object).shape[0]
    total = np.zeros((k_s, k_o))
    for t in ordered:
        total += kronecker(embeddings.vector(t.subject), embeddings.vector(t.object))
    return KronBaselineModel(verb=verb, avg_matrix=total / len(ordered))


def score(model: KronBaselineModel, n_s, n_o) -> float:
    """Cosine between the query pair's outer product and the verb average."""
    return cosine(kronecker(n_s, n_o), model.avg_matrix)


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


def predict_baseline(model: KronBaselineModel, n_s, n_o):
    """Label a pair with the calibrated cutoff; returns (label, score)."""
    if model.cutoff is None:
        raise ValueError("baseline model has no calibrated cutoff")
    value = score(model, n_s, n_o)
    label = PLAUSIBLE if value >= model.cutoff else IMPLAUSIBLE
    return label, value


def save_baseline(base_path, model: KronBaselineModel, stats: dict | None = None) -> None:
    """Write ``<base>.tvbm`` (average matrix) and a text sidecar."""
    base = str(base_path)
    write_tvb(base + ".tvbm", model.avg_matrix)
    lines = [f"verb = {model.verb}", f"k = {model.avg_matrix.shape[0]}"]
    cutoff = "none" if model.cutoff is None else repr(model.cutoff)
    lines.append(f"cutoff = {cutoff}")
    for key in sorted(stats or {}):
        lines.append(f"{key} = {stats[key]!r}")
    with open(base + ".meta", "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def load_baseline(base_path) -> KronBaselineModel:
    base = str(base_path)
    avg = read_tvb(base + ".tvbm")
    verb = ""
    cutoff = None
    with open(base + ".meta", "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line.startswith("verb = "):
                verb = line[len("verb = "):]
            elif line.startswith("cutoff = "):
                raw = line[len("cutoff = "):]
                cutoff = None if raw == "none" else float(raw)
    return KronBaselineModel(verb=verb, avg_matrix=avg, cutoff=cutoff)
