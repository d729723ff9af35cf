"""Corpus scanning: word frequencies, sentence co-occurrence, frequency buckets.

``scan_corpus`` reads the corpus once. It maps every token to an integer
word-type id, counts frequencies with one ``np.bincount``, and gets the
noun-by-context co-occurrence table from one sparse product of a
sentence-by-word count matrix with itself, less each noun's frequency on
its own (noun, noun) cell because a token never pairs with itself. The
table covers every word type; ``CooccurrenceTable.restrict`` narrows it to
the context vocabulary chosen from the frequencies.

The corpus format is deliberately dumb: UTF-8 text, one sentence per line,
whitespace-separated tokens that are already lemmatized and lowercased.
``iter_corpus_lines`` streams it; the stopword file is read whole through
``util.read_lines`` and the frequency file through ``util.read_rows``.
Everything linguistic (tokenization, parsing, lemmatization) happens upstream
of this package.
"""

from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .util import DataError, not_utf8_error, open_output, read_lines, read_rows


@dataclass(frozen=True)
class Vocabulary:
    """An ordered set of distinct words with a word -> position map."""

    words: tuple
    index: dict = field(repr=False)

    @classmethod
    def from_words(cls, words) -> "Vocabulary":
        """The vocabulary of ``words``, which must be distinct, in their order."""
        words = tuple(words)
        return cls(words=words, index={word: pos for pos, word in enumerate(words)})

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word) -> bool:
        return word in self.index


@dataclass(frozen=True)
class CooccurrenceTable:
    """Sparse noun-by-context co-occurrence counts within sentences."""

    target_nouns: Vocabulary
    contexts: Vocabulary
    counts: object  # scipy.sparse.csr_matrix, shape (len(target_nouns), len(contexts))

    def restrict(self, vocab: Vocabulary) -> "CooccurrenceTable":
        """The same counts over the context columns ``vocab``, in its order.

        A word of ``vocab`` that the table has no column for gets an empty one.
        """
        import scipy.sparse as sp

        src = np.array([self.contexts.index.get(word, -1) for word in vocab.words],
                       dtype=np.intp)
        dst = np.flatnonzero(src >= 0)
        select = sp.csr_matrix(
            (np.ones(len(dst), dtype=np.int64), (src[dst], dst)),
            shape=(len(self.contexts), len(vocab)),
        )
        counts = (self.counts @ select).tocsr()
        counts.sort_indices()
        return CooccurrenceTable(self.target_nouns, vocab, counts)


@dataclass(frozen=True)
class FrequencyBuckets:
    """Partition of nouns into buckets of near-equal corpus frequency.

    Nouns are sorted by descending frequency (ties broken lexicographically)
    and chopped into consecutive runs of equal size; the final bucket may be
    smaller. Each noun is in exactly one bucket, once.
    """

    bucket_of: dict
    members: dict  # bucket id -> tuple of nouns, in sort order


def iter_corpus_lines(path):
    """Yield raw sentence lines from a corpus file, one at a time, never the whole file.

    A file that is not UTF-8 raises ``DataError`` naming the file and the
    first line that does not decode; so does a file with no non-blank line,
    naming its last line.
    """
    lineno, blank = 0, True
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                blank = blank and line.isspace()
                yield line
    except UnicodeDecodeError as exc:
        raise not_utf8_error(path, "corpus", exc) from None
    if blank:
        raise DataError(f"{path}:{lineno}: empty corpus: no non-blank sentences found")


class _TypeIds(dict):
    """Word -> integer id, giving an unseen word the next id on lookup."""

    def __missing__(self, word):
        self[word] = index = len(self)
        return index


def scan_corpus(sentences, target_nouns):
    """Count token frequencies and noun-context sentence co-occurrences.

    ``sentences`` is an iterable of whitespace-tokenized lines, read once,
    with at least one non-blank line (``iter_corpus_lines`` raises otherwise).
    Co-occurrence uses occurrence-pair counting: every occurrence of a
    target noun pairs with every occurrence of a context word in the same
    sentence, except the noun's own token position. A noun therefore does
    co-occur with *other* occurrences of its own lemma.

    The pass gives each word type an integer id, takes frequencies from one
    ``np.bincount`` and builds a sentence-by-word count matrix ``S`` over the
    sentences that hold a target noun. The table is then one sparse product,
    ``S[:, nouns].T @ S``: cell (n, w) sums ``count(n) * count(w)`` over
    sentences. At (n, n) that sum includes each token pairing with itself
    once per occurrence, and every sentence holding n is in ``S``, so the
    self-pair correction is exactly ``freq[n]``, subtracted from that cell.

    Returns ``(frequency_counter, CooccurrenceTable)``. The table's rows are
    the sorted target nouns (a noun that never occurs has an empty row) and
    its columns every word type seen, sorted; ``CooccurrenceTable.restrict``
    narrows it to a chosen context vocabulary.
    """
    import scipy.sparse as sp

    first_id = _TypeIds()  # word -> id in order of first occurrence
    raw_ids, lengths = array("i"), []
    for line in sentences:
        words = line.split()
        if words:
            raw_ids.extend(map(first_id.__getitem__, words))
            lengths.append(len(words))

    # Renumber in sorted word order, so column j of S is the j-th sorted type.
    types = sorted(first_id)
    type_id = {word: i for i, word in enumerate(types)}
    renumber = np.fromiter(map(type_id.__getitem__, first_id), dtype=np.int32, count=len(types))
    ids = renumber[np.frombuffer(raw_ids, dtype=np.int32)]
    del raw_ids
    counts = np.bincount(ids, minlength=len(types))
    freq = Counter(dict(zip(types, counts.tolist())))

    noun_vocab = Vocabulary.from_words(sorted(set(target_nouns)))
    noun_row = np.full(len(types), -1, dtype=np.int32)  # word id -> table row
    for row, noun in enumerate(noun_vocab.words):
        if noun in type_id:
            noun_row[type_id[noun]] = row
    nouns = np.flatnonzero(noun_row >= 0)

    # A sentence's tokens are contiguous in ids, so the rows of S (the kept
    # sentences) are runs of ids and need no row index per token.
    lengths = np.array(lengths)
    is_noun = noun_row[ids] >= 0
    nouns_per_sentence = np.add.reduceat(is_noun, np.cumsum(lengths) - lengths, dtype=np.int64)
    kept = nouns_per_sentence > 0
    in_kept = np.repeat(kept, lengths)
    sentence_words = sp.csr_matrix(
        (np.ones(int(in_kept.sum()), dtype=np.int64), ids[in_kept],
         np.concatenate(([0], np.cumsum(lengths[kept])))),
        shape=(int(kept.sum()), len(types)),
    )
    # S[:, nouns], with each noun's column placed at its table row.
    sentence_nouns = sp.csr_matrix(
        (np.ones(int(is_noun.sum()), dtype=np.int64), noun_row[ids[is_noun]],
         np.concatenate(([0], np.cumsum(nouns_per_sentence[kept])))),
        shape=(int(kept.sum()), len(noun_vocab)),
    )
    shape = (len(noun_vocab), len(types))
    self_pairs = sp.csr_matrix((counts[nouns], (noun_row[nouns], nouns)), shape=shape)
    table = (sentence_nouns.T @ sentence_words - self_pairs).tocsr()
    table.eliminate_zeros()
    table.sort_indices()
    return freq, CooccurrenceTable(noun_vocab, Vocabulary(tuple(types), type_id), table)


def build_context_vocab(frequencies, stopwords, size: int) -> Vocabulary:
    """Pick the ``size`` most frequent non-stopword types.

    Ties at the same count break lexicographically ascending, so the result
    is deterministic for a given frequency table.
    """
    stopwords = set(stopwords)
    ranked = sorted(
        (w for w in frequencies if w not in stopwords),
        key=lambda w: (-frequencies[w], w),
    )
    return Vocabulary.from_words(ranked[:size])


def frequency_buckets(frequencies, nouns, bucket_size: int) -> FrequencyBuckets:
    """Bucket nouns into consecutive runs of ``bucket_size`` by frequency.

    Nouns missing from the frequency table count as frequency 0.
    """
    ordered = sorted(set(nouns))
    count = dict(zip(ordered, map(frequencies.get, ordered, repeat(0))))
    ordered.sort(key=count.__getitem__, reverse=True)  # stable: ties stay sorted
    ordered = tuple(ordered)
    bucket_of = {}
    members = {}
    for bucket_id, start in enumerate(range(0, len(ordered), bucket_size)):
        members[bucket_id] = chunk = ordered[start : start + bucket_size]
        bucket_of.update(dict.fromkeys(chunk, bucket_id))
    return FrequencyBuckets(bucket_of=bucket_of, members=members)


def read_stopwords(path) -> set:
    """One stopword per line, stripped; blank lines are skipped, and a line of
    two or more words raises ``DataError`` naming the file and line."""
    lines = [line.split() for line in read_lines(path)]
    for lineno, words in enumerate(lines, start=1):
        if len(words) > 1:
            raise DataError(f"{path}:{lineno}: expected one stopword, got {len(words)}")
    return {word for words in lines for word in words}


def write_frequency_tsv(path, frequencies) -> None:
    """Export ``word<TAB>count`` rows, most frequent first, ties lexicographic."""
    ordered = sorted(frequencies.items(), key=lambda kv: (-kv[1], kv[0]))
    with open_output(path) as handle:
        for word, count in ordered:
            handle.write(f"{word}\t{count}\n")


def read_frequency_tsv(path) -> Counter:
    """Read ``word<TAB>count`` rows under ``util.read_rows``'s rules, keyed by word."""
    words, counts = read_rows(path, 2, key=("word", 1), count=True)
    return Counter(dict(zip(words, counts)))
