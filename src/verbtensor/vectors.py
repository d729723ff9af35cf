"""From raw co-occurrence counts to low-dimensional noun embeddings.

The pipeline is: tTest reweighting of counts, per-noun top-N context
selection, row L2 normalization, then truncated SVD down to K dimensions.
Vector quality is sanity-checked with Spearman correlation against a
human-scored word-pair file.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy import stats

from .corpus import CooccurrenceTable, Vocabulary
from .linalg import cosine, l2_normalize_rows, truncated_svd
from .util import DataError, numbered_lines

log = logging.getLogger(__name__)

DEFAULT_TOP_N = 200


@dataclass(frozen=True)
class WeightedVectorTable:
    """Sparse noun-by-context association weights in [-1, 1]."""

    nouns: Vocabulary
    contexts: Vocabulary
    weights: sp.csr_matrix


@dataclass(frozen=True)
class EmbeddingTable:
    """Dense K-dimensional embeddings for a fixed noun vocabulary."""

    nouns: Vocabulary
    dim: int
    matrix: np.ndarray  # shape (len(nouns), dim)

    def __contains__(self, noun) -> bool:
        return noun in self.nouns

    def vector(self, noun: str) -> np.ndarray:
        return self.matrix[self.nouns.position(noun)]

    def rows(self, nouns) -> np.ndarray:
        """The (N, dim) stack of the nouns' vectors, in order, as one gather.

        A noun without an embedding raises ``DataError`` naming it.
        """
        try:
            return self.matrix[np.fromiter(map(self.nouns.position, nouns), dtype=np.intp)]
        except KeyError as exc:
            raise DataError(f"noun {exc.args[0]!r} has no embedding") from None

    def leading(self, k: int) -> "EmbeddingTable":
        """The first k dimensions: rank-k embeddings of the same decomposition."""
        return EmbeddingTable(self.nouns, k, np.ascontiguousarray(self.matrix[:, :k]))


@dataclass(frozen=True)
class SimilarityPair:
    word_a: str
    word_b: str
    gold_score: float

    def __post_init__(self):
        if self.word_a == self.word_b:
            raise ValueError(f"similarity pair repeats the word {self.word_a!r}")


def ttest_weight(table: CooccurrenceTable) -> WeightedVectorTable:
    """Replace raw counts with tTest association weights.

    For a cell with joint probability p(w, c) and marginals p(w), p(c), all
    estimated from the table's own grand total, the weight is
    ``(p(w, c) - p(w) p(c)) / sqrt(p(w) p(c))``, which always lands in
    [-1, 1]. Cells with count zero are kept at weight zero so the table stays
    sparse; only observed contexts compete in the later ranking. The table
    must hold at least one co-occurrence.
    """
    total = float(table.counts.sum())
    row_sums = np.asarray(table.counts.sum(axis=1), dtype=np.float64).ravel()
    col_sums = np.asarray(table.counts.sum(axis=0), dtype=np.float64).ravel()
    coo = table.counts.tocoo()
    p_joint = coo.data.astype(np.float64) / total
    p_noun = row_sums[coo.row] / total
    p_ctx = col_sums[coo.col] / total
    denom = np.sqrt(p_noun * p_ctx)
    values = (p_joint - p_noun * p_ctx) / denom
    weights = sp.csr_matrix(
        (values, (coo.row, coo.col)), shape=table.counts.shape, dtype=np.float64
    )
    weights.eliminate_zeros()
    return WeightedVectorTable(table.target_nouns, table.contexts, weights)


def select_top_n(table: WeightedVectorTable, n: int) -> WeightedVectorTable:
    """Keep only each noun's N highest-weighted contexts, zeroing the rest.

    Ranking is by weight descending; equal weights break by context word,
    lexicographically ascending, so selection is deterministic.
    """
    src = table.weights
    words = table.contexts.words
    word_rank = np.empty(len(words), dtype=np.int64)
    word_rank[sorted(range(len(words)), key=words.__getitem__)] = np.arange(len(words))
    rows = np.repeat(np.arange(src.shape[0]), np.diff(src.indptr))
    # Rows stay grouped in place; within a row, weight descending, then word.
    order = np.lexsort((word_rank[src.indices], -src.data, rows))
    keep = order[np.arange(src.nnz) - src.indptr[rows] < n]
    out = sp.csr_matrix(
        (src.data[keep], (rows[keep], src.indices[keep])), shape=src.shape, dtype=np.float64
    )
    return WeightedVectorTable(table.nouns, table.contexts, out)


def drop_zero_rows(table: WeightedVectorTable):
    """Remove nouns whose weight row is entirely zero.

    Such nouns never co-occurred with anything informative; keeping them
    would produce zero embeddings and undefined cosines downstream. Returns
    the reduced table and the list of dropped nouns.
    """
    csr = table.weights.tocsr()
    nnz_per_row = np.diff(csr.indptr)
    keep = np.flatnonzero(nnz_per_row > 0)
    dropped = [table.nouns.words[i] for i in np.flatnonzero(nnz_per_row == 0)]
    if not dropped:
        return table, []
    vocab = Vocabulary.from_words(table.nouns.words[i] for i in keep)
    return WeightedVectorTable(vocab, table.contexts, csr[keep]), dropped


def reduce_to_embeddings(table: WeightedVectorTable, k: int, top_n: int) -> EmbeddingTable:
    """Run top-N context selection, row normalization and truncated SVD to K dimensions.

    Embeddings are the singular-value-scaled rows ``U @ diag(s)``, which
    preserve the inner products of the normalized table.
    """
    table = select_top_n(table, top_n)
    u, s = truncated_svd(l2_normalize_rows(table.weights), k)
    return EmbeddingTable(nouns=table.nouns, dim=k, matrix=u * s)


def spearman_similarity_eval(embeddings: EmbeddingTable, pairs) -> float:
    """Spearman rank correlation of embedding cosines against gold scores.

    Pairs with a missing word are skipped (and logged); at least two usable
    pairs are required. Tied values receive average ranks.
    """
    sims, golds = [], []
    skipped = 0
    for pair in pairs:
        if pair.word_a in embeddings and pair.word_b in embeddings:
            sims.append(cosine(embeddings.vector(pair.word_a), embeddings.vector(pair.word_b)))
            golds.append(pair.gold_score)
        else:
            skipped += 1
    if skipped:
        log.info("similarity eval skipped %d pairs with out-of-vocabulary words", skipped)
    if len(sims) < 2:
        raise ValueError(
            f"need at least 2 usable pairs, got {len(sims)} (skipped {skipped})"
        )
    rho = stats.spearmanr(sims, golds).statistic
    if not np.isfinite(rho):
        raise ValueError("Spearman correlation undefined (constant ranking)")
    return float(rho)


def read_pairs_tsv(path) -> list:
    """Read ``word_a<TAB>word_b<TAB>score`` similarity pairs.

    A row without three fields, a score that is not a finite float or a pair
    that repeats its word raises ``DataError`` naming the file and line.
    """
    pairs = []
    for lineno, line in numbered_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        try:
            pair = SimilarityPair(parts[0], parts[1], float(parts[2]))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if not np.isfinite(pair.gold_score):
            raise DataError(f"{path}:{lineno}: score {parts[2]!r} is not finite")
        pairs.append(pair)
    return pairs


def write_embeddings_tsv(path, embeddings: EmbeddingTable) -> None:
    """Export ``noun<TAB>v1<TAB>...<TAB>vK`` with full float precision."""
    with open(path, "w", encoding="utf-8") as handle:
        for noun, row in zip(embeddings.nouns.words, embeddings.matrix.tolist()):
            handle.write(f"{noun}\t" + "\t".join(map(repr, row)) + "\n")


def read_embeddings_tsv(path) -> EmbeddingTable:
    """Read ``noun<TAB>v1<TAB>...<TAB>vK`` rows, one noun per line.

    A row wider or narrower than the first, rows with no values, a value
    that is not a finite float, a repeated noun or a file without rows
    raises ``DataError`` naming the file (and the line, where there is one).

    The fast path, ``_read_embeddings_whole``, reads the file in one pass
    and parses every value cell with ``float`` into one array. On any
    anomaly it gives up, and the line loop, ``_read_embeddings_lines``,
    reads the file again and raises the ``DataError`` for its first fault.
    """
    table = _read_embeddings_whole(path)
    return table if table is not None else _read_embeddings_lines(path)


def _read_embeddings_whole(path):
    """The table from one read of a well-formed file, or None on any anomaly.

    The anomalies are: bytes that are not UTF-8, no rows, a blank line, a
    row with no values, a row whose tab count differs from the first row's,
    a repeated noun, a cell ``float`` rejects and a non-finite value. The
    text is split on ``"\\n"`` alone, as the line loop splits it, so a noun
    may hold any other line-break character.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().split("\n")
    except UnicodeDecodeError:
        return None
    if lines[-1] == "":
        del lines[-1]
    width = lines[0].count("\t") if lines else 0
    if not width or any(line.count("\t") != width for line in lines):
        return None
    # every row has width + 1 cells, so each row's noun is every (width + 1)-th cell
    cells = "\t".join(lines).split("\t")
    nouns = cells[:: width + 1]
    del cells[:: width + 1]
    index = dict(zip(nouns, range(len(nouns))))
    if len(index) != len(nouns):
        return None
    try:
        matrix = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        return None
    if not np.isfinite(matrix).all():
        return None
    return EmbeddingTable(
        nouns=Vocabulary(tuple(nouns), index), dim=width, matrix=matrix.reshape(len(nouns), width)
    )


def _read_embeddings_lines(path) -> EmbeddingTable:
    """``read_embeddings_tsv`` one line at a time, raising at the first fault."""
    index, rows, linenos = {}, [], []
    width = None
    for lineno, line in numbered_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise DataError(f"{path}:{lineno}: expected {width - 1} values, got {len(parts) - 1}")
        noun = parts[0]
        if noun in index:
            raise DataError(f"{path}:{lineno}: noun {noun!r} repeats line {linenos[index[noun]]}")
        try:
            rows.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        index[noun] = len(linenos)
        linenos.append(lineno)
    if not rows:
        raise DataError(f"no embeddings found in {path}")
    if width == 1:
        raise DataError(f"{path}:{linenos[0]}: row has no values")
    matrix = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise DataError(f"{path}:{linenos[int(np.argmin(finite))]}: non-finite value")
    return EmbeddingTable(
        nouns=Vocabulary(tuple(index), index), dim=matrix.shape[1], matrix=matrix
    )
