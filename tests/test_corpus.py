import random
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from verbtensor.corpus import (
    CooccurrenceTable,
    Vocabulary,
    build_context_vocab,
    frequency_buckets,
    iter_corpus_lines,
    read_frequency_tsv,
    scan_corpus,
    write_frequency_tsv,
)
from verbtensor.util import DataError


def cell_count(table, noun, context):
    """The table's count for (noun, context), 0 when either is absent."""
    if noun not in table.target_nouns or context not in table.contexts:
        return 0
    return int(table.counts[table.target_nouns.index[noun], table.contexts.index[context]])


def table_total(table):
    """Sum of all counts in the table."""
    return int(table.counts.sum())


def naive_pair_count(sentences, targets, context_vocab=None):
    """Position-pair recount, written independently of scan_corpus."""
    total = 0
    per_pair = Counter()
    for line in sentences:
        tokens = line.split()
        for i, noun in enumerate(tokens):
            if noun not in targets:
                continue
            for j, word in enumerate(tokens):
                if i == j:
                    continue
                if context_vocab is not None and word not in context_vocab:
                    continue
                per_pair[(noun, word)] += 1
                total += 1
    return total, per_pair


def loop_scan_corpus(sentences, target_nouns, context_vocab=None):
    """Per-sentence loop scan, the reference for ``scan_corpus``.

    Counts each sentence's tokens and adds ``n_occ * w_occ`` pairs per
    (target noun, word), less ``n_occ`` when the word is the noun itself.
    """
    target_nouns = set(target_nouns)
    freq: Counter = Counter()
    pair_counts: dict = {}
    n_sentences = 0
    for line in sentences:
        tokens = line.split()
        if not tokens:
            continue
        n_sentences += 1
        token_counts = Counter(tokens)
        freq.update(token_counts)
        present = [t for t in token_counts if t in target_nouns]
        for noun in present:
            n_occ = token_counts[noun]
            for word, w_occ in token_counts.items():
                if context_vocab is not None and word not in context_vocab:
                    continue
                pairs = n_occ * w_occ
                if word == noun:
                    pairs -= n_occ  # a token never pairs with itself
                if pairs:
                    key = (noun, word)
                    pair_counts[key] = pair_counts.get(key, 0) + pairs
    if n_sentences == 0:
        raise ValueError("empty corpus: no non-blank sentences found")

    noun_vocab = Vocabulary.from_words(sorted(target_nouns))
    if context_vocab is None:
        context_vocab = Vocabulary.from_words(sorted(freq))
    rows, cols, data = [], [], []
    for (noun, word), count in pair_counts.items():
        rows.append(noun_vocab.index[noun])
        cols.append(context_vocab.index[word])
        data.append(count)
    counts = sp.csr_matrix(
        (data, (rows, cols)),
        shape=(len(noun_vocab), len(context_vocab)),
        dtype=np.int64,
    )
    counts.sum_duplicates()
    return freq, CooccurrenceTable(noun_vocab, context_vocab, counts)


class TestScanCorpus:
    def test_single_sentence(self):
        vocab = Vocabulary.from_words(["eat", "fish"])
        freq, table = scan_corpus(["cat eat fish"], {"cat"})
        table = table.restrict(vocab)
        assert cell_count(table, "cat", "eat") == 1
        assert cell_count(table, "cat", "fish") == 1
        assert freq == Counter({"cat": 1, "eat": 1, "fish": 1})

    def test_absent_target_has_zero_row(self):
        vocab = Vocabulary.from_words(["eat"])
        _, table = scan_corpus(["dog eat bone"], {"cat", "dog"})
        table = table.restrict(vocab)
        assert cell_count(table, "cat", "eat") == 0
        assert cell_count(table, "dog", "eat") == 1

    def test_repeated_noun_multiplicity(self):
        _, table = scan_corpus(["cat cat eat"], {"cat"})
        table = table.restrict(Vocabulary.from_words(["eat", "cat"]))
        assert cell_count(table, "cat", "eat") == 2
        # two occurrences of the lemma pair with each other, not with themselves
        assert cell_count(table, "cat", "cat") == 2

    def test_matches_naive_recount(self):
        rng = random.Random(5)
        words = [f"w{i}" for i in range(12)]
        targets = {"w0", "w1", "w2"}
        sentences = [
            " ".join(rng.choices(words, k=rng.randint(1, 9))) for _ in range(400)
        ]
        freq, table = scan_corpus(sentences, targets)
        expected_total, expected_pairs = naive_pair_count(sentences, targets)
        assert table_total(table) == expected_total
        for (noun, word), count in expected_pairs.items():
            assert cell_count(table, noun, word) == count
        assert sum(freq.values()) == sum(len(s.split()) for s in sentences)

    def test_restricted_context_vocab(self):
        vocab = Vocabulary.from_words(["eat"])
        _, table = scan_corpus(["cat eat fish", "cat purr"], {"cat"})
        table = table.restrict(vocab)
        assert cell_count(table, "cat", "eat") == 1
        assert "fish" not in table.contexts

    def test_sentence_order_invariance(self):
        sentences = ["cat eat fish", "dog eat cat", "fish swim"]
        _, table_a = scan_corpus(sentences, {"cat", "fish"})
        _, table_b = scan_corpus(list(reversed(sentences)), {"cat", "fish"})
        assert (table_a.counts != table_b.counts).nnz == 0
        assert table_a.contexts.words == table_b.contexts.words

    @pytest.mark.parametrize("text, last_line", [("", 0), ("\n", 1), ("\n  \n\t\n", 3)])
    def test_blank_corpus_file_names_file_and_line(self, tmp_path, text, last_line):
        path = tmp_path / "corpus.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=rf"corpus\.txt:{last_line}: empty corpus"):
            scan_corpus(iter_corpus_lines(path), {"cat"})


class TestBuildContextVocab:
    def test_stopwords_excluded(self):
        vocab = build_context_vocab({"a": 5, "b": 3, "the": 9}, {"the"}, size=2)
        assert vocab.words == ("a", "b")

    def test_size_exhausts_vocabulary(self):
        vocab = build_context_vocab({"a": 5, "b": 3}, set(), size=100)
        assert vocab.words == ("a", "b")

    def test_tie_break_lexicographic(self):
        vocab = build_context_vocab({"y": 3, "x": 3}, set(), size=1)
        assert vocab.words == ("x",)

    def test_deterministic(self):
        freq = {f"w{i}": i % 7 for i in range(50)}
        a = build_context_vocab(freq, {"w0"}, size=10)
        b = build_context_vocab(dict(reversed(list(freq.items()))), {"w0"}, size=10)
        assert a.words == b.words


class TestFrequencyBuckets:
    def test_partition_sizes(self):
        nouns = [f"n{i:02d}" for i in range(25)]
        freq = {n: 100 - i for i, n in enumerate(nouns)}
        buckets = frequency_buckets(freq, nouns, bucket_size=10)
        sizes = [len(buckets.members[b]) for b in sorted(buckets.members)]
        assert sizes == [10, 10, 5]
        assert set(buckets.bucket_of) == set(nouns)

    def test_every_noun_in_exactly_one_bucket(self):
        nouns = [f"n{i}" for i in range(17)]
        buckets = frequency_buckets({n: 1 for n in nouns}, nouns, bucket_size=4)
        seen = [n for b in sorted(buckets.members) for n in buckets.members[b]]
        assert sorted(seen) == sorted(nouns)
        for noun in nouns:
            assert noun in buckets.members[buckets.bucket_of[noun]]

    def test_tie_break_is_lexicographic(self):
        buckets = frequency_buckets({"b": 5, "a": 5, "c": 5}, ["a", "b", "c"], bucket_size=2)
        assert buckets.members[0] == ("a", "b")
        assert buckets.members[1] == ("c",)

    def test_descending_frequency_order(self):
        freq = {"low": 1, "high": 9, "mid": 4}
        buckets = frequency_buckets(freq, freq, bucket_size=1)
        assert buckets.members[0] == ("high",)
        assert buckets.members[1] == ("mid",)
        assert buckets.members[2] == ("low",)

    def test_missing_noun_counts_as_zero(self):
        buckets = frequency_buckets({"a": 3}, ["a", "ghost"], bucket_size=1)
        assert buckets.bucket_of["ghost"] == 1

    def test_singleton(self):
        buckets = frequency_buckets({"a": 1}, ["a"], bucket_size=10)
        assert buckets.members == {0: ("a",)}


class TestVocabulary:
    def test_lookup(self):
        vocab = Vocabulary.from_words(["x", "y"])
        assert vocab.index["y"] == 1
        assert "x" in vocab
        assert len(vocab) == 2


class TestRoundTrips:
    def test_frequency_tsv(self, tmp_path):
        freq = Counter({"b": 3, "a": 3, "z": 10})
        path = tmp_path / "freq.tsv"
        write_frequency_tsv(path, freq)
        assert read_frequency_tsv(path) == freq
        first_line = path.read_text().splitlines()[0]
        assert first_line == "z\t10"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_total_count_matches_oracle_property(seed):
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(rng.randint(2, 10))]
    targets = set(rng.sample(words, k=rng.randint(1, len(words))))
    sentences = [
        " ".join(rng.choices(words, k=rng.randint(1, 7)))
        for _ in range(rng.randint(1, 60))
    ]
    freq, table = scan_corpus(sentences, targets)
    expected_total, _ = naive_pair_count(sentences, targets)
    assert table_total(table) == expected_total


def assert_tables_equal(table, expected):
    assert table.target_nouns.words == expected.target_nouns.words
    assert table.contexts.words == expected.contexts.words
    assert table.counts.shape == expected.counts.shape
    assert table.counts.dtype == expected.counts.dtype
    np.testing.assert_array_equal(table.counts.indptr, expected.counts.indptr)
    np.testing.assert_array_equal(table.counts.indices, expected.counts.indices)
    np.testing.assert_array_equal(table.counts.data, expected.counts.data)


@st.composite
def corpora(draw):
    """Random corpora with repeated lemmas, blank lines and unseen targets.

    Returns ``(sentences, targets, vocab)``. Targets are drawn from the
    corpus words plus words that never occur; the context vocabulary is a
    random subset of the same words in random order, so some targets fall
    outside it and some contexts never occur.
    """
    words = [f"w{i}" for i in range(draw(st.integers(1, 12)))]
    sentence = st.lists(st.sampled_from(words), min_size=1, max_size=10).map(" ".join)
    line = st.one_of(sentence, sentence, sentence, st.sampled_from(["", "  ", "\t"]))
    sentences = draw(st.lists(line, min_size=1, max_size=40))
    sentences.append(draw(sentence))
    ghosts = [f"ghost{i}" for i in range(3)]
    targets = draw(st.sets(st.sampled_from(words + ghosts), max_size=len(words) + 3))
    vocab = draw(st.permutations(words + ghosts[:1]).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda n: order[:n])))
    return sentences, targets, Vocabulary.from_words(vocab)


@settings(max_examples=300, deadline=None)
@given(corpora())
def test_restricted_scan_matches_loop_reference(case):
    sentences, targets, vocab = case
    freq, table = scan_corpus(sentences, targets)
    expected_freq, expected = loop_scan_corpus(sentences, targets, vocab)
    assert freq == expected_freq
    assert_tables_equal(table.restrict(vocab), expected)
    _, expected_full = loop_scan_corpus(sentences, targets)
    assert_tables_equal(table, expected_full)


def test_repeated_targets_in_one_sentence_match_loop_reference():
    sentences = ["cat cat cat dog dog eat", "", "dog cat eat eat", "fish"]
    targets = {"cat", "dog", "ghost"}
    vocab = Vocabulary.from_words(["eat", "dog", "fish"])
    freq, table = scan_corpus(sentences, targets)
    expected_freq, expected = loop_scan_corpus(sentences, targets, vocab)
    assert freq == expected_freq
    assert_tables_equal(table.restrict(vocab), expected)
    assert cell_count(table, "cat", "cat") == 3 * 2
    assert cell_count(table, "ghost", "eat") == 0
