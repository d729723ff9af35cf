"""From raw co-occurrence counts to low-dimensional noun embeddings.

The pipeline is: tTest reweighting of counts, per-noun top-N context
selection, row L2 normalization, then truncated SVD down to K dimensions.
The ranking that top-N selection cuts does not depend on N, so
``context_ranks`` computes it once per weighted table and every N reuses it.
Vector quality is sanity-checked with Spearman correlation against a
human-scored word-pair file. Rho is scipy's ``spearmanr`` recipe written in
numpy: average ranks for ties (``_average_ranks``, ``rankdata``'s formula),
then the Pearson correlation of the two rankings from ``np.corrcoef``. A test
holds it to ``spearmanr`` bit for bit.

One ``write_embeddings_tsv`` call writes every configured dim from a single
``repr`` pass: each narrower TSV holds the leading columns of the widest
decomposition. An embeddings TSV is authoritative. Beside it the writer puts
a binary sidecar (``embeddings_k20.tvb``): a 32-byte digest, then the
payload, which is the nouns (UTF-8, joined by ``"\n"``, after their byte
length as a little-endian uint64) and the matrix as one TVB1 block. The
digest is the sha256 of the TSV's bytes followed by the payload, so it ties
this text to this payload. While it matches, the reader takes the nouns and
values from the payload and never parses the text; on any other outcome it
parses the text. The digest catches corruption, hand edits and a stale file
on either side; it is not a signature, and a pair forged with a recomputed
digest reads as whatever it holds.
"""

import hashlib
import io
import logging
import struct
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from .corpus import CooccurrenceTable, Vocabulary
from .linalg import cosine, l2_normalize_rows, read_tvb, truncated_svd, write_tvb
from .util import DataError, open_output, read_rows

log = logging.getLogger(__name__)

DEFAULT_TOP_N = 200


@dataclass(frozen=True)
class WeightedVectorTable:
    """Sparse noun-by-context association weights in [-1, 1]."""

    nouns: Vocabulary
    contexts: Vocabulary
    weights: object  # scipy.sparse.csr_matrix


@dataclass(frozen=True)
class EmbeddingTable:
    """Dense K-dimensional embeddings for a fixed noun vocabulary."""

    nouns: Vocabulary
    matrix: np.ndarray  # shape (len(nouns), dim)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __contains__(self, noun) -> bool:
        return noun in self.nouns

    def vector(self, noun: str) -> np.ndarray:
        return self.matrix[self.nouns.index[noun]]

    def rows(self, nouns) -> np.ndarray:
        """The (N, dim) stack of the nouns' vectors, in order, as one gather.

        A noun without an embedding raises ``DataError`` naming it.
        """
        row_of = self.nouns.index.__getitem__
        try:
            return self.matrix[np.fromiter(map(row_of, nouns), dtype=np.intp)]
        except KeyError as exc:
            raise DataError(f"noun {exc.args[0]!r} has no embedding") from None

    def pairs(self, triples) -> tuple:
        """``(subjects, objects)``: the (N, dim) rows of the triples' nouns, in order.

        The one place that maps triples to embedding rows. Subjects are
        gathered first, then objects, so a noun without an embedding raises
        the ``DataError`` of ``rows`` for the first such subject, or else
        for the first such object.
        """
        return self.rows(map(itemgetter(0), triples)), self.rows(map(itemgetter(2), triples))

    def leading(self, k: int) -> "EmbeddingTable":
        """The first k dimensions: rank-k embeddings of the same decomposition."""
        return EmbeddingTable(self.nouns, np.ascontiguousarray(self.matrix[:, :k]))


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
    weights = table.counts.astype(np.float64)
    p_joint = weights.data / total
    p_noun = np.repeat(row_sums / total, np.diff(weights.indptr))
    p_ctx = col_sums[weights.indices] / total
    weights.data = (p_joint - p_noun * p_ctx) / np.sqrt(p_noun * p_ctx)
    weights.eliminate_zeros()
    return WeightedVectorTable(table.target_nouns, table.contexts, weights)


def context_ranks(table: WeightedVectorTable) -> np.ndarray:
    """Each stored cell's rank within its noun's row, aligned with ``table.weights.data``.

    Rank 0 is the row's highest weight; equal weights break by context word,
    lexicographically ascending, so the ranking is deterministic.
    """
    src = table.weights
    words = table.contexts.words
    word_rank = np.empty(len(words), dtype=np.int64)
    word_rank[sorted(range(len(words)), key=words.__getitem__)] = np.arange(len(words))
    rows = np.repeat(np.arange(src.shape[0]), np.diff(src.indptr))
    # Rows stay grouped in place; within a row, weight descending, then word.
    order = np.lexsort((word_rank[src.indices], -src.data, rows))
    ranks = np.empty(src.nnz, dtype=np.int64)
    ranks[order] = np.arange(src.nnz) - src.indptr[rows]
    return ranks


def select_top_n(table: WeightedVectorTable, n: int, ranks) -> WeightedVectorTable:
    """Keep only each noun's N highest-weighted contexts, zeroing the rest.

    A cell survives when its ``context_ranks`` rank is below N. ``ranks`` is
    that ranking of ``table``; it does not depend on N, so several N can
    share one.
    """
    out = table.weights.copy()
    out.data[ranks >= n] = 0.0
    out.eliminate_zeros()
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


def reduce_to_embeddings(table: WeightedVectorTable, k: int, top_n: int,
                         ranks) -> EmbeddingTable:
    """Run top-N context selection, row normalization and truncated SVD to K dimensions.

    Embeddings are the singular-value-scaled rows ``U @ diag(s)``, which
    preserve the inner products of the normalized table. ``ranks`` is passed
    on to ``select_top_n``.
    """
    table = select_top_n(table, top_n, ranks)
    u, s = truncated_svd(l2_normalize_rows(table.weights), k)
    return EmbeddingTable(nouns=table.nouns, matrix=u * s)


def spearman_similarity_eval(embeddings: EmbeddingTable, pairs) -> float:
    """Spearman rank correlation of embedding cosines against gold scores.

    Pairs with a missing word are skipped (and logged); at least two usable
    pairs are required. Tied values receive average ranks. Rho is read at
    ``[1, 0]`` of ``np.corrcoef`` of the stacked rankings, where
    ``scipy.stats.spearmanr`` reads it; a test pins it to scipy's bit for bit.
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
    if len(set(sims)) == 1 or len(set(golds)) == 1:
        raise ValueError("Spearman correlation undefined (constant ranking)")
    rankings = np.column_stack((_average_ranks(sims), _average_ranks(golds)))
    return float(np.corrcoef(rankings, rowvar=False)[1, 0])


def _average_ranks(values) -> np.ndarray:
    """1-based ranks of ``values``, tied values sharing their mean rank.

    ``scipy.stats.rankdata``'s formula: every rank is an exact half-integer.
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.arange(order.size, dtype=np.intp)
    ordered = values[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    dense = starts.cumsum()[inverse]
    count = np.r_[np.nonzero(starts)[0], starts.size]
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def read_pairs_tsv(path) -> list:
    """``word_a<TAB>word_b<TAB>score`` similarity pairs under ``util.read_rows``; a
    score that is not a finite float or a pair that repeats its word is a fault."""
    return read_rows(path, 3, parse=_similarity_pairs)


def _similarity_pairs(words_a, words_b, scores) -> list:
    pairs = list(map(SimilarityPair, words_a, words_b, map(float, scores)))
    for pair, score in zip(pairs, scores):
        if not np.isfinite(pair.gold_score):
            raise ValueError(f"score {score!r} is not finite")
    return pairs


def write_embeddings_tsv(paths, embeddings: EmbeddingTable) -> list:
    """Export ``noun<TAB>v1<TAB>...<TAB>vk`` for each ``k -> path`` of ``paths``.

    The file for k holds the leading k columns of ``embeddings`` (``k <=
    embeddings.dim`` is the caller's to keep), each value the ``repr`` of its
    float64. Each row is formatted once, and its leading values serve every
    k, so each narrower line is the widest line cut after k values.

    Beside each TSV goes its sidecar, the TSV's path with suffix ``.tvb``
    (layout in the module docstring), and the sidecars written are returned
    in the order of ``paths``. A sidecar is written only for a table that
    ``_read_embeddings_lines`` reads back exactly: at least one row and one
    column, distinct nouns, and no noun holding a tab, ``"\n"`` or
    ``"\r"``. For any other table a stale sidecar is removed. A non-finite
    value in such a table raises ``ValueError`` once the first TSV is written.
    """
    lines = {k: [] for k in paths}
    for noun, row in zip(embeddings.nouns.words, embeddings.matrix):
        values = list(map(repr, row.tolist()))
        for k, out in lines.items():
            out.append(f"{noun}\t" + "\t".join(values[:k]) + "\n")
    words = embeddings.nouns.words
    joined = "\n".join(words)
    # a noun holding "\n" shows as one "\n" too many
    sealable = (words and len(set(words)) == len(words) and "\t" not in joined
                and "\r" not in joined and joined.count("\n") == len(words) - 1)
    nouns = joined.encode("utf-8")
    sidecars = []
    for k, path in paths.items():
        data = "".join(lines.pop(k)).encode("utf-8")
        with open_output(path, "wb") as handle:
            handle.write(data)
        sidecar = Path(path).with_suffix(".tvb")
        if not (sealable and k):
            sidecar.unlink(missing_ok=True)
            continue
        buffer = io.BytesIO()
        buffer.write(_NOUNS_SIZE.pack(len(nouns)) + nouns)
        write_tvb(buffer, embeddings.matrix[:, :k])
        payload = buffer.getbuffer()
        with open_output(sidecar, "wb") as handle:
            handle.write(_sidecar_digest(data, payload))
            handle.write(payload)
        sidecars.append(sidecar)
    return sidecars


_DIGEST_SIZE = 32
_NOUNS_SIZE = struct.Struct("<Q")


def _sidecar_digest(data, payload) -> bytes:
    """The sha256 of a TSV's bytes followed by its sidecar's payload, in one pass."""
    digest = hashlib.sha256(data)
    digest.update(payload)
    return digest.digest()


def read_embeddings_tsv(path) -> EmbeddingTable:
    """Read ``noun<TAB>v1<TAB>...<TAB>vK`` rows, one noun per line.

    The rows keep ``util.read_rows``'s rules, each as wide as the first and
    keyed by noun; a value that is not a finite float or a file without rows
    raises ``DataError`` naming the file (and the line, where there is one).

    The TSV is authoritative. The table comes from its sidecar only when the
    sidecar's digest is that of the TSV's bytes followed by its payload, and
    the payload is well formed: one distinct UTF-8 noun per row of a finite
    2-D block, and no byte after it. The writer seals only a table that the
    text reads back as exactly, so the text is not parsed then. Otherwise
    one INFO line names the file and ``_read_embeddings_lines`` runs. A
    length or header that claims more bytes than the sidecar holds is
    rejected before anything is allocated for it.
    """
    sidecar = Path(path).with_suffix(".tvb")
    try:
        data = Path(path).read_bytes()
        raw = sidecar.read_bytes()
        if raw[:_DIGEST_SIZE] != _sidecar_digest(data, memoryview(raw)[_DIGEST_SIZE:]):
            raise ValueError(f"{sidecar} holds the digest of other bytes")
        (size,) = _NOUNS_SIZE.unpack_from(raw, _DIGEST_SIZE)
        start = _DIGEST_SIZE + _NOUNS_SIZE.size
        if size > len(raw) - start:
            raise ValueError(f"{sidecar} claims {size} bytes of nouns")
        nouns = Vocabulary.from_words(raw[start:start + size].decode("utf-8").split("\n"))
        block = io.BytesIO(raw)
        block.seek(start + size)
        matrix = read_tvb(block)
        if block.read(1):
            raise ValueError(f"{sidecar} has bytes after its block")
        if (matrix.ndim != 2 or not matrix.size or len(matrix) != len(nouns)
                or len(nouns.index) != len(nouns) or not np.isfinite(matrix).all()):
            raise ValueError(f"the {matrix.shape} block in {sidecar} does not fit its "
                             f"{len(nouns)} nouns or is not finite")
    except (OSError, ValueError, struct.error) as exc:
        log.info("%s: parsing the text, no usable sidecar (%s)", path, exc)
        return _read_embeddings_lines(path)
    return EmbeddingTable(nouns=nouns, matrix=matrix)


def _read_embeddings_lines(path) -> EmbeddingTable:
    """``read_embeddings_tsv`` from the text, every row as wide as the first."""
    nouns, matrix = read_rows(path, None, key=("noun", 1), parse=_noun_vectors)
    if not nouns:
        raise DataError(f"no embeddings found in {path}")
    return EmbeddingTable(nouns=Vocabulary.from_words(nouns), matrix=matrix)


def _noun_vectors(nouns, *values) -> tuple:
    """``nouns`` and the matrix of their ``values`` columns as finite floats."""
    matrix = np.array([list(map(float, column)) for column in values], dtype=np.float64)
    if not np.isfinite(matrix).all():
        raise ValueError("non-finite value")
    return nouns, np.ascontiguousarray(matrix.T)
