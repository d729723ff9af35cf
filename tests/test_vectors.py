import hashlib
import io
import logging
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata, spearmanr

from verbtensor.corpus import CooccurrenceTable, Vocabulary
from verbtensor import vectors
from verbtensor.linalg import TVB_MAGIC, cosine, write_tvb
from verbtensor.util import DataError
from verbtensor.vectors import (
    EmbeddingTable,
    SimilarityPair,
    _read_embeddings_lines,
    context_ranks,
    drop_zero_rows,
    read_embeddings_tsv,
    read_pairs_tsv,
    reduce_to_embeddings,
    select_top_n,
    spearman_similarity_eval,
    ttest_weight,
    write_embeddings_tsv,
)


def weight(table, noun, context):
    """The table's weight for (noun, context), 0.0 when either is absent."""
    if noun not in table.nouns or context not in table.contexts:
        return 0.0
    return float(table.weights[table.nouns.index[noun], table.contexts.index[context]])


def make_table(counts, nouns=None, contexts=None):
    counts = np.asarray(counts)
    nouns = nouns or [f"n{i}" for i in range(counts.shape[0])]
    contexts = contexts or [f"c{j}" for j in range(counts.shape[1])]
    return CooccurrenceTable(
        Vocabulary.from_words(nouns),
        Vocabulary.from_words(contexts),
        sp.csr_matrix(counts),
    )


class TestTtestWeight:
    def test_two_by_two_diagonal(self):
        table = ttest_weight(make_table([[2, 0], [0, 2]]))
        assert weight(table, "n0", "c0") == pytest.approx(0.5, abs=1e-15)
        assert weight(table, "n1", "c1") == pytest.approx(0.5, abs=1e-15)
        # unobserved cells stay at zero rather than their negative value
        assert weight(table, "n0", "c1") == 0.0

    def test_independent_table_is_zero(self):
        table = ttest_weight(make_table([[1, 1], [1, 1]]))
        assert table.weights.nnz == 0

    def test_single_cell_degenerate(self):
        table = ttest_weight(make_table([[4, 0], [0, 0]]))
        assert weight(table, "n0", "c0") == pytest.approx(0.0, abs=1e-15)

    def test_outer_product_margins_all_zero(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(1, 6, size=5)
        cols = rng.integers(1, 6, size=7)
        counts = np.outer(rows, cols)
        table = ttest_weight(make_table(counts))
        assert np.all(np.abs(table.weights.toarray()) < 1e-12)

    def test_weights_within_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            counts = rng.integers(0, 9, size=(6, 8))
            if counts.sum() == 0:
                continue
            table = ttest_weight(make_table(counts))
            data = table.weights.data
            assert np.all(data <= 1.0 + 1e-9)
            assert np.all(data >= -1.0 - 1e-9)

    def test_matches_direct_formula(self):
        counts = np.array([[3, 1, 0], [0, 2, 5]])
        table = ttest_weight(make_table(counts))
        total = counts.sum()
        for i in range(2):
            for j in range(3):
                if counts[i, j] == 0:
                    continue
                p_wc = counts[i, j] / total
                p_w = counts[i].sum() / total
                p_c = counts[:, j].sum() / total
                expected = (p_wc - p_w * p_c) / np.sqrt(p_w * p_c)
                assert weight(table, f"n{i}", f"c{j}") == pytest.approx(expected, abs=1e-14)


def select_top_n_loop(table, n):
    """Reference per-row sort: weight descending, then context word ascending."""
    src = table.weights
    words = table.contexts.words
    rows, cols, data = [], [], []
    for i in range(src.shape[0]):
        start, end = src.indptr[i], src.indptr[i + 1]
        idx = src.indices[start:end]
        vals = src.data[start:end]
        if len(idx) > n:
            order = sorted(range(len(idx)), key=lambda t: (-vals[t], words[idx[t]]))[:n]
            idx = idx[order]
            vals = vals[order]
        rows.extend([i] * len(idx))
        cols.extend(idx.tolist())
        data.extend(vals.tolist())
    return sp.csr_matrix((data, (rows, cols)), shape=src.shape, dtype=np.float64)


@st.composite
def tied_weight_tables(draw):
    """Small sparse tables whose weights come from a few values, so ties are common."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 9))
    contexts = draw(
        st.lists(st.text("abcz", min_size=1, max_size=3), min_size=n_cols,
                 max_size=n_cols, unique=True)
    )
    cells = st.sampled_from([0.0, 0.0, 0.25, 0.5, -0.5, 1.0])
    weights = draw(st.lists(st.lists(cells, min_size=n_cols, max_size=n_cols),
                            min_size=n_rows, max_size=n_rows))
    from verbtensor.vectors import WeightedVectorTable

    table = WeightedVectorTable(
        Vocabulary.from_words([f"n{i}" for i in range(n_rows)]),
        Vocabulary.from_words(contexts),
        sp.csr_matrix(np.asarray(weights)),
    )
    return table, draw(st.integers(1, n_cols + 1))


class TestSelectTopN:
    def make_weighted(self, rows, contexts=None):
        table = make_table(np.ones_like(np.asarray(rows)), contexts=contexts)
        from verbtensor.vectors import WeightedVectorTable

        return WeightedVectorTable(
            table.target_nouns, table.contexts, sp.csr_matrix(np.asarray(rows, dtype=float))
        )

    def test_keeps_largest(self):
        weighted = self.make_weighted([[0.9, 0.1, 0.5]], contexts=["a", "b", "c"])
        out = select_top_n(weighted, 2, context_ranks(weighted))
        assert weight(out, "n0", "a") == 0.9
        assert weight(out, "n0", "c") == 0.5
        assert weight(out, "n0", "b") == 0.0

    def test_noop_when_n_exceeds_nonzeros(self):
        weighted = self.make_weighted([[0.3, 0.0, 0.2]])
        out = select_top_n(weighted, 5, context_ranks(weighted))
        assert (out.weights != weighted.weights).nnz == 0

    def test_zero_row_stays_zero(self):
        weighted = self.make_weighted([[0.0, 0.0, 0.0]])
        out = select_top_n(weighted, 2, context_ranks(weighted))
        assert out.weights.nnz == 0

    def test_row_sparsity_bound(self):
        rng = np.random.default_rng(7)
        weighted = self.make_weighted(rng.uniform(0.01, 1.0, size=(6, 12)))
        out = select_top_n(weighted, 4, context_ranks(weighted))
        assert np.all(np.diff(out.weights.indptr) <= 4)

    def test_ties_break_by_context_word(self):
        weighted = self.make_weighted([[0.5, 0.5, 0.5]], contexts=["zz", "aa", "mm"])
        out = select_top_n(weighted, 2, context_ranks(weighted))
        assert weight(out, "n0", "aa") == 0.5
        assert weight(out, "n0", "mm") == 0.5
        assert weight(out, "n0", "zz") == 0.0

    @settings(max_examples=300, deadline=None)
    @given(tied_weight_tables())
    def test_matches_loop_reference(self, case):
        """Each N, with a ranking of its own or with one ranking shared by every N."""
        table, n = case
        ranks = context_ranks(table)
        # each row's cells hold the ranks 0, 1, ... in some order
        for start, end in zip(table.weights.indptr[:-1], table.weights.indptr[1:]):
            assert sorted(ranks[start:end]) == list(range(end - start))
        shared = [(m, select_top_n(table, m, ranks)) for m in range(1, table.weights.shape[1] + 2)]
        for m, out in [(n, select_top_n(table, n, context_ranks(table)))] + shared:
            expected = select_top_n_loop(table, m)
            np.testing.assert_array_equal(out.weights.indptr, expected.indptr)
            np.testing.assert_array_equal(out.weights.indices, expected.indices)
            np.testing.assert_array_equal(out.weights.data, expected.data)


class TestReduce:
    def make_weighted(self, rows):
        rows = np.asarray(rows, dtype=float)
        from verbtensor.vectors import WeightedVectorTable

        return WeightedVectorTable(
            Vocabulary.from_words([f"n{i}" for i in range(rows.shape[0])]),
            Vocabulary.from_words([f"c{j}" for j in range(rows.shape[1])]),
            sp.csr_matrix(rows),
        )

    def test_orthogonal_rows_stay_orthogonal(self):
        weighted = self.make_weighted(np.eye(4) * 0.7)
        emb = reduce_to_embeddings(weighted, 4, weighted.weights.shape[1], context_ranks(weighted))
        for i in range(4):
            for j in range(i + 1, 4):
                sim = cosine(emb.vector(f"n{i}"), emb.vector(f"n{j}"))
                assert abs(sim) < 1e-10

    def test_rank_one_table(self):
        base = np.array([1.0, 2.0, 0.5, 0.0])
        weighted = self.make_weighted(np.outer([1.0, -2.0, 0.5], base))
        emb = reduce_to_embeddings(weighted, 1, weighted.weights.shape[1], context_ranks(weighted))
        sims = [
            cosine(emb.vector("n0"), emb.vector("n1")),
            cosine(emb.vector("n0"), emb.vector("n2")),
        ]
        assert abs(abs(sims[0]) - 1.0) < 1e-10
        assert abs(abs(sims[1]) - 1.0) < 1e-10

    def test_shapes_and_finiteness(self):
        rng = np.random.default_rng(5)
        weighted = self.make_weighted(rng.uniform(-0.2, 1.0, size=(40, 60)))
        emb = reduce_to_embeddings(weighted, 20, weighted.weights.shape[1], context_ranks(weighted))
        assert emb.dim == 20
        assert emb.matrix.shape == (40, 20)
        assert np.isfinite(emb.matrix).all()

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(9)
        rows = rng.uniform(0.0, 1.0, size=(6, 10))
        weighted = self.make_weighted(rows)
        from verbtensor.linalg import l2_normalize_rows, truncated_svd

        normalized = l2_normalize_rows(sp.csr_matrix(rows))
        u, _ = truncated_svd(normalized, 6)
        normalized = normalized.toarray()
        assert np.linalg.norm(normalized - u @ (u.T @ normalized)) < 1e-8
        # scaled embeddings preserve inner products of the normalized table
        emb = reduce_to_embeddings(weighted, 6, weighted.weights.shape[1], context_ranks(weighted))
        gram_emb = emb.matrix @ emb.matrix.T
        gram_src = normalized @ normalized.T
        np.testing.assert_allclose(gram_emb, gram_src, atol=1e-8)

    def test_top_n_applied_inside(self):
        weighted = self.make_weighted([[0.9, 0.5, 0.1], [0.1, 0.6, 0.8]])
        emb = reduce_to_embeddings(weighted, 2, 1, context_ranks(weighted))
        assert emb.matrix.shape == (2, 2)


class TestDropZeroRows:
    def test_drops_only_empty_rows(self):
        from verbtensor.vectors import WeightedVectorTable

        weighted = WeightedVectorTable(
            Vocabulary.from_words(["keep", "drop", "also"]),
            Vocabulary.from_words(["c0", "c1"]),
            sp.csr_matrix(np.array([[0.5, 0.0], [0.0, 0.0], [0.1, 0.2]])),
        )
        reduced, dropped = drop_zero_rows(weighted)
        assert dropped == ["drop"]
        assert reduced.nouns.words == ("keep", "also")
        assert weight(reduced, "also", "c1") == pytest.approx(0.2)


class TestSpearmanEval:
    def make_embeddings(self, vectors):
        names = list(vectors)
        matrix = np.asarray([vectors[n] for n in names], dtype=float)
        return EmbeddingTable(Vocabulary.from_words(names), matrix)

    def test_perfectly_monotone(self):
        emb = self.make_embeddings(
            {"a": [1.0, 0.0], "b": [1.0, 0.1], "c": [1.0, 0.5], "d": [0.0, 1.0]}
        )
        pairs = [
            SimilarityPair("a", "b", 0.9),
            SimilarityPair("a", "c", 0.5),
            SimilarityPair("a", "d", 0.1),
        ]
        assert spearman_similarity_eval(emb, pairs) == pytest.approx(1.0)

    def test_reversed_order(self):
        emb = self.make_embeddings(
            {"a": [1.0, 0.0], "b": [1.0, 0.1], "c": [1.0, 0.5], "d": [0.0, 1.0]}
        )
        pairs = [
            SimilarityPair("a", "b", 0.1),
            SimilarityPair("a", "c", 0.5),
            SimilarityPair("a", "d", 0.9),
        ]
        assert spearman_similarity_eval(emb, pairs) == pytest.approx(-1.0)

    def test_textbook_rank_example(self):
        # cosine ranks (1, 2, 3) against gold ranks (2, 1, 3) give rho = 0.5
        emb = self.make_embeddings(
            {"a": [1.0, 0.0], "b": [1.0, 0.2], "c": [1.0, 0.6], "d": [1.0, 2.0]}
        )
        pairs = [
            SimilarityPair("a", "b", 0.5),
            SimilarityPair("a", "c", 0.9),
            SimilarityPair("a", "d", 0.1),
        ]
        assert spearman_similarity_eval(emb, pairs) == pytest.approx(0.5)

    def test_skips_missing_words(self):
        emb = self.make_embeddings({"a": [1.0, 0.0], "b": [0.9, 0.1], "c": [0.0, 1.0]})
        pairs = [
            SimilarityPair("a", "b", 0.9),
            SimilarityPair("a", "c", 0.2),
            SimilarityPair("a", "ghost", 0.5),
        ]
        assert spearman_similarity_eval(emb, pairs) == pytest.approx(1.0)

    def test_too_few_usable_pairs(self):
        emb = self.make_embeddings({"a": [1.0], "b": [0.5]})
        with pytest.raises(ValueError, match="usable pairs"):
            spearman_similarity_eval(emb, [SimilarityPair("a", "ghost", 0.5)])

    def test_monotone_transform_invariance(self):
        emb = self.make_embeddings(
            {"a": [1.0, 0.0], "b": [0.8, 0.2], "c": [0.5, 0.5], "d": [0.1, 0.9]}
        )
        pairs = [
            SimilarityPair("a", "b", 0.7),
            SimilarityPair("a", "c", 0.4),
            SimilarityPair("b", "d", 0.2),
            SimilarityPair("c", "d", 0.6),
        ]
        base = spearman_similarity_eval(emb, pairs)
        transformed = [
            SimilarityPair(p.word_a, p.word_b, np.exp(3.0 * p.gold_score)) for p in pairs
        ]
        assert spearman_similarity_eval(emb, transformed) == base

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 500),
           sim_pool=st.integers(2, 8) | st.none(), gold_pool=st.integers(2, 8) | st.none(),
           sign=st.sampled_from([1.0, -1.0]))
    def test_equals_scipy_spearmanr_bit_for_bit(self, seed, n, sim_pool, gold_pool, sign):
        """rho is ``spearmanr``'s, with ties in either ranking and either sign."""
        rng = np.random.default_rng(seed)
        # noun n{i} sits at angles[i] from the anchor's [1, 0]: its pair's cosine is cos(angles[i])
        angles = rng.uniform(0.0, np.pi, n)
        if sim_pool is not None:
            angles = rng.choice(angles[:sim_pool], n)
        golds = sign * -angles + rng.normal(0.0, 0.5, n)
        if gold_pool is not None:
            golds = rng.choice(golds[:gold_pool], n)
        names = ["anchor"] + [f"n{i}" for i in range(n)]
        matrix = np.vstack([[1.0, 0.0], np.column_stack((np.cos(angles), np.sin(angles)))])
        emb = EmbeddingTable(Vocabulary.from_words(names), matrix)
        pairs = [SimilarityPair("anchor", f"n{i}", float(g)) for i, g in enumerate(golds)]
        sims = [cosine(emb.vector("anchor"), emb.vector(f"n{i}")) for i in range(n)]
        assume(len(set(sims)) > 1 and len(set(golds)) > 1)
        assert spearman_similarity_eval(emb, pairs) == spearmanr(sims, list(golds)).statistic

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.sampled_from([-2.5, -0.0, 0.0, 1e-300, 3.0, 7.25, 1e300, 42.0])
                           | st.floats(allow_nan=False), min_size=1, max_size=300))
    def test_average_ranks_equal_rankdata(self, values):
        assert np.array_equal(vectors._average_ranks(values), rankdata(values))

    def test_identical_words_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            SimilarityPair("a", "a", 1.0)


class TestEmbeddingIo:
    def test_tsv_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        matrix = rng.standard_normal((3, 3))
        matrix[2] = [-0.0, 5e-324, 1e308]
        emb = EmbeddingTable(Vocabulary.from_words(["x", "y", "z"]), matrix)
        path = tmp_path / "emb.tsv"
        write_embeddings_tsv({3: path}, emb)
        # each value is the repr of its float64, the shortest text that reads back exactly
        assert path.read_text(encoding="utf-8") == "".join(
            "\t".join([noun] + [repr(float(v)) for v in row]) + "\n"
            for noun, row in zip(emb.nouns.words, matrix)
        )
        loaded = read_embeddings_tsv(path)
        assert loaded.nouns.words == ("x", "y", "z")
        assert loaded.matrix.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("dims", [(4, 1, 3), (2, 4)], ids=["widest-first", "widest-last"])
    def test_narrower_files_cut_the_widest(self, tmp_path, dims):
        """Each narrower TSV is the widest cut after k values; its sidecar holds matrix[:, :k]."""
        matrix = np.random.default_rng(17).standard_normal((3, 4))
        matrix[2] = [-0.0, 5e-324, 1e308, 1.0]
        emb = EmbeddingTable(Vocabulary.from_words(["x", "y", "z"]), matrix)
        paths = {k: tmp_path / f"emb_k{k}.tsv" for k in dims}
        sidecars = write_embeddings_tsv(paths, emb)
        assert sidecars == [path.with_suffix(".tvb") for path in paths.values()]
        widest = paths[4].read_text(encoding="utf-8").splitlines()
        for k, path in paths.items():
            assert path.read_text(encoding="utf-8").splitlines() == [
                "\t".join(line.split("\t")[: k + 1]) for line in widest
            ]
            with mock.patch.object(vectors, "_read_embeddings_lines") as line_loop:
                loaded = read_embeddings_tsv(path)
            assert line_loop.call_count == 0
            assert loaded.nouns.words == ("x", "y", "z")
            assert loaded.matrix.tobytes() == np.ascontiguousarray(matrix[:, :k]).tobytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a\t1.0\t2.0\nb\t3.0\n", r"emb\.tsv:2: expected 2 values, got 1"),
            ("a\t1.0\n\nb\t3.0\t4.0\n", r"emb\.tsv:3: expected 1 values, got 2"),
            ("a\t1.0\nb\tnan\n", r"emb\.tsv:2: non-finite value"),
            ("a\t-inf\nb\t1.0\n", r"emb\.tsv:1: non-finite value"),
            ("a\t1.0\nb\t2.0\na\t3.0\n", r"emb\.tsv:3: noun 'a' repeats line 1"),
            ("a\t1.0\nb\tx1\n", r"emb\.tsv:2: could not convert"),
            ("\n", r"no embeddings found in .*emb\.tsv"),
            ("\na\nb\n", r"emb\.tsv:2: row has no values"),
        ],
        ids=["narrow", "wide", "nan", "inf", "repeat", "text", "empty", "no-values"],
    )
    def test_malformed_tsv_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "emb.tsv"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            read_embeddings_tsv(path)

    def test_pairs_round_trip(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\t0.5\nc\td\t0.25\n")
        pairs = read_pairs_tsv(path)
        assert pairs[1] == SimilarityPair("c", "d", 0.25)

    def test_blank_pairs_line_skipped(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\t0.5\n\nc\td\tx\n")
        with pytest.raises(DataError, match=r"pairs\.tsv:3: could not convert"):
            read_pairs_tsv(path)
        path.write_text("a\tb\t0.5\n\nc\td\t0.25\n\n")
        assert read_pairs_tsv(path) == [SimilarityPair("a", "b", 0.5),
                                        SimilarityPair("c", "d", 0.25)]


BAD_VALUES = ["nan", "NaN", "inf", "-inf", "1e999", "", "x1", "0x10", "1,5"]


@st.composite
def corrupted_embeddings(draw):
    """Embedding file lines with one corruption, and the line that shows it."""
    n, k = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    values = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: repr(float(v)))
    rows = [[f"n{i}"] + draw(st.lists(values, min_size=k, max_size=k)) for i in range(n)]
    i = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["drop", "extra", "value", "repeat"]))
    if kind == "drop":
        del rows[i][draw(st.integers(1, k))]
    elif kind == "extra":
        rows[i].insert(draw(st.integers(1, k + 1)), "0.5")
    elif kind == "value":
        rows[i][draw(st.integers(1, k))] = draw(st.sampled_from(BAD_VALUES))
    else:
        j = draw(st.integers(0, n - 1).filter(lambda j: j != i))
        i, j = max(i, j), min(i, j)
        rows[i][0] = rows[j][0]
    # a row of the wrong width is reported on the first row that differs
    lineno = 2 if kind in ("drop", "extra") and i == 0 else i + 1
    return ["\t".join(row) for row in rows], lineno


@settings(max_examples=150, deadline=None)
@given(corrupted_embeddings())
def test_corrupted_embeddings_raise_only_data_error(tmp_path_factory, case):
    lines, lineno = case
    path = tmp_path_factory.mktemp("emb") / "embeddings_k4.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"embeddings_k4\.tsv:{lineno}: "):
        read_embeddings_tsv(path)


# characters str.splitlines breaks on and the line loop keeps inside a noun
NOUN_CHARS = "a \x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# nouns whose written row the line loop does not read back as one row
UNSAFE_NOUNS = ["a\tb", "a\nb", "a\rb", "\n"]
# spellings float reads and numpy's own parsers may not
FINITE_SPELLINGS = ["1_0", " 1.0 ", "+2", "-0.0", "1e5", ".5"]
NON_FINITE_SPELLINGS = ["inf", "nan", "-Infinity", "NaN", "1e999"]
FAULTS = ["ragged", "bad-value", "non-finite", "edit", "blank", "trailing-blank", "bytes"]


@st.composite
def embedding_tables(draw):
    """A table of finite float64 values, and whether the line loop reads it back.

    Nouns come from a small alphabet, so some repeat, and half are digits,
    so that a noun shifted into the values by a ragged row reads as a float.
    Some tables have a noun with a tab, a newline or a carriage return.
    """
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    noun = st.one_of(st.text(NOUN_CHARS, min_size=1, max_size=3), st.integers(0, 9).map(str))
    nouns = draw(st.lists(noun, min_size=n, max_size=n))
    if draw(st.integers(0, 3)) == 0:
        nouns[draw(st.integers(0, n - 1))] = draw(st.sampled_from(UNSAFE_NOUNS))
    values = st.floats(allow_nan=False, allow_infinity=False)
    matrix = np.array(draw(st.lists(values, min_size=n * k, max_size=n * k)), dtype=np.float64)
    table = EmbeddingTable(Vocabulary.from_words(nouns), matrix.reshape(n, k))
    return table, len(set(nouns)) == n and not set(UNSAFE_NOUNS) & set(nouns)


@st.composite
def edited_tsv(draw, rows):
    """The bytes of an embeddings file of ``rows`` (lists of cells), with faults or edits.

    A fault is a ragged row whose cells moved to another row (the total cell
    count still matches), a value ``float`` rejects, a non-finite value, a
    blank line in the middle or at the end, or bytes that are not UTF-8. An
    edit puts another finite value into one cell. Lines end in ``\\n``,
    ``\\r\\n`` or ``\\r``, and the last line may have no ending.
    """
    n = len(rows)
    faults = draw(st.sets(st.sampled_from(FAULTS)))
    if "ragged" in faults and n > 1:
        source, target = draw(st.permutations(range(n)))[:2]
        rows[target].append(rows[source].pop())
    cells = {
        "bad-value": st.sampled_from(BAD_VALUES),
        "non-finite": st.sampled_from(NON_FINITE_SPELLINGS),
        "edit": st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                          st.sampled_from(FINITE_SPELLINGS)),
    }
    for fault, value in cells.items():
        if fault in faults:
            row = rows[draw(st.integers(0, n - 1))]
            if len(row) > 1:
                row[draw(st.integers(1, len(row) - 1))] = draw(value)
    lines = ["\t".join(row) for row in rows]
    if "blank" in faults:
        lines.insert(draw(st.integers(1, n)), "")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    ending = newline * (draw(st.integers(2, 3)) if "trailing-blank" in faults
                        else draw(st.integers(0, 1)))
    data = (newline.join(lines) + ending).encode("utf-8")
    if "bytes" in faults:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


def read_outcome(read, path):
    """A reader's table as plain values (float64 bits included), or its error text."""
    try:
        table = read(path)
    except DataError as exc:
        return str(exc)
    return table.nouns.words, table.nouns.index, table.dim, table.matrix.tobytes()


@settings(max_examples=300, deadline=None)
@given(embedding_tables(), st.data())
def test_sidecar_read_agrees_with_line_loop(tmp_path_factory, case, data):
    """A written table reads back as the line loop reads it, from the sidecar when the
    loop reads it back; so does the TSV once edited, beside the stale sidecar."""
    table, round_trips = case
    path = tmp_path_factory.mktemp("emb") / "emb.tsv"
    write_embeddings_tsv({table.dim: path}, table)
    with mock.patch.object(vectors, "_read_embeddings_lines",
                           wraps=_read_embeddings_lines) as line_loop:
        outcome = read_outcome(read_embeddings_tsv, path)
    assert outcome == read_outcome(_read_embeddings_lines, path)
    if round_trips:
        assert outcome == (table.nouns.words, table.nouns.index, table.dim,
                           table.matrix.tobytes())
        assert line_loop.call_count == 0
    rows = [line.split("\t") for line in path.read_bytes().decode("utf-8").split("\n")[:-1]]
    path.write_bytes(data.draw(edited_tsv(rows)))
    assert read_outcome(read_embeddings_tsv, path) == read_outcome(_read_embeddings_lines, path)


@pytest.mark.parametrize("shape", [(0, 2), (2, 0)], ids=["no-rows", "no-values"])
def test_written_empty_table_fails_as_text(tmp_path, shape):
    path = tmp_path / "emb.tsv"
    nouns = Vocabulary.from_words(["x", "y"][: shape[0]])
    assert write_embeddings_tsv({shape[1]: path},
                                EmbeddingTable(nouns, np.zeros(shape))) == []
    assert not path.with_suffix(".tvb").exists()
    message = read_outcome(_read_embeddings_lines, path)
    assert isinstance(message, str) and read_outcome(read_embeddings_tsv, path) == message


def tvb_bytes(array) -> bytes:
    buffer = io.BytesIO()
    write_tvb(buffer, array)
    return buffer.getvalue()


def nouns_bytes(words) -> bytes:
    """A sidecar payload's nouns: their UTF-8 bytes joined by newlines, after the length."""
    joined = "\n".join(words).encode("utf-8")
    return struct.pack("<Q", len(joined)) + joined


def sealed(text, payload) -> bytes:
    """A sidecar of ``payload`` under the digest the writer puts beside ``text``."""
    return hashlib.sha256(text + payload).digest() + payload


def with_byte(data, at, mask) -> bytes:
    return data[:at] + bytes([data[at] ^ mask]) + data[at + 1:]


def non_finite_tvb(matrix) -> bytes:
    # write_tvb refuses non-finite values, so put the NaN into the last cell by hand
    return tvb_bytes(matrix)[:-8] + struct.pack("<d", float("nan"))


def wrong_width_tvb(matrix) -> bytes:
    # the header's last dim (the width) says one column, and all the values follow
    block = tvb_bytes(matrix)
    return block[:20] + struct.pack("<Q", 1) + block[28:]


# fault -> (the sidecar's bytes, from the TSV's bytes, the written sidecar and the
# table; None for no file) and the reason the INFO line gives. The faults in the
# payload are sealed under the digest of this payload, so each reaches its own check.
SIDECAR_FAULTS = {
    "missing": (lambda text, written, table: None, "No such file"),
    "empty": (lambda text, written, table: b"", "digest of other bytes"),
    "other-digest": (lambda text, written, table: hashlib.sha256(b"x").digest() + written[32:],
                     "digest of other bytes"),
    "tsv-only-digest": (lambda text, written, table: hashlib.sha256(text).digest()
                        + tvb_bytes(table.matrix), "digest of other bytes"),
    "changed-value": (lambda text, written, table: with_byte(written, len(written) - 2, 0x10),
                      "digest of other bytes"),
    "changed-noun": (lambda text, written, table: with_byte(written, 40, 0x20),
                     "digest of other bytes"),
    "non-finite": (lambda text, written, table: sealed(
        text, nouns_bytes(table.nouns.words) + non_finite_tvb(table.matrix)), "not finite"),
    "huge-nouns": (lambda text, written, table: sealed(text, struct.pack("<Q", 2**64 - 1)),
                   "bytes of nouns"),
    "bad-utf8": (lambda text, written, table: sealed(
        text, nouns_bytes(table.nouns.words)[:-1] + b"\xff" + tvb_bytes(table.matrix)),
        "can't decode"),
    "bad-magic": (lambda text, written, table: sealed(
        text, nouns_bytes(table.nouns.words) + b"TVB0" + tvb_bytes(table.matrix)[4:]),
        "bad magic"),
    "huge-block": (lambda text, written, table: sealed(
        text, nouns_bytes(table.nouns.words) + TVB_MAGIC + struct.pack("<3Q", 2, 2**62, 2**62)),
        "bytes follow"),
    "3-d": (lambda text, written, table: sealed(
        text, nouns_bytes(table.nouns.words) + tvb_bytes(table.matrix[:, :, None])),
        "does not fit"),
    "wrong-rows": (lambda text, written, table: sealed(
        text, nouns_bytes(table.nouns.words) + tvb_bytes(table.matrix[1:])), "does not fit"),
    "wrong-width": (lambda text, written, table: sealed(
        text, nouns_bytes(table.nouns.words) + wrong_width_tvb(table.matrix)),
        "bytes after its block"),
    "repeated-noun": (lambda text, written, table: sealed(
        text, nouns_bytes(["x", "x", "z"]) + tvb_bytes(table.matrix)), "does not fit"),
    "directory": (lambda text, written, table: None, "Is a directory"),
}


@pytest.mark.parametrize("fault", SIDECAR_FAULTS)
def test_unusable_sidecar_falls_back_to_text(tmp_path, caplog, fault):
    """One INFO line names the TSV and the check the sidecar failed; no traceback,
    no large allocation, the text's table."""
    path = tmp_path / "emb.tsv"
    table = EmbeddingTable(Vocabulary.from_words(["x", "y", "z"]),
                           np.arange(1.0, 7.0).reshape(3, 2))
    [sidecar] = write_embeddings_tsv({2: path}, table)
    make, reason = SIDECAR_FAULTS[fault]
    data = make(path.read_bytes(), sidecar.read_bytes(), table)
    sidecar.unlink()
    if fault == "directory":
        sidecar.mkdir()
    elif data is not None:
        sidecar.write_bytes(data)
    tracemalloc.start()
    try:
        with caplog.at_level(logging.INFO, logger="verbtensor.vectors"):
            outcome = read_outcome(read_embeddings_tsv, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome == (table.nouns.words, table.nouns.index, 2, table.matrix.tobytes())
    assert peak < 1 << 20
    [record] = [r for r in caplog.records if r.name == "verbtensor.vectors"]
    assert record.levelno == logging.INFO and record.exc_info is None
    assert record.getMessage().startswith(f"{path}: parsing the text")
    assert reason in record.getMessage()


def test_written_sidecar_layout(tmp_path):
    """Digest, length-prefixed nouns, TVB1 block: the digest covers the TSV and the rest."""
    path = tmp_path / "emb.tsv"
    table = EmbeddingTable(Vocabulary.from_words(["x", "\u00e9t\u00e9", "z"]),
                           np.arange(1.0, 7.0).reshape(3, 2))
    [sidecar] = write_embeddings_tsv({2: path}, table)
    payload = nouns_bytes(table.nouns.words) + tvb_bytes(table.matrix)
    assert sidecar.read_bytes() == sealed(path.read_bytes(), payload)


@pytest.mark.parametrize(
    "noun",
    ["x", "a\tb", "a\nb", "a\rb", "\n"],
    ids=["repeated", "tab", "newline", "carriage-return", "bare-newline"])
def test_table_the_line_loop_misreads_gets_no_sidecar(tmp_path, noun):
    """The writer removes a stale sidecar and writes none; the reader parses the text."""
    path = tmp_path / "emb.tsv"
    good = EmbeddingTable(Vocabulary.from_words(["p", "q"]), np.ones((2, 2)))
    assert write_embeddings_tsv({2: path}, good) == [path.with_suffix(".tvb")]
    table = EmbeddingTable(Vocabulary.from_words(["x", noun]), np.zeros((2, 2)))
    assert write_embeddings_tsv({2: path}, table) == []
    assert not path.with_suffix(".tvb").exists()
    assert read_outcome(read_embeddings_tsv, path) == read_outcome(_read_embeddings_lines, path)


@settings(max_examples=100, deadline=None)
@given(embedding_tables().filter(lambda case: case[1]), st.data())
def test_one_byte_change_to_a_sidecar_reads_as_the_text(tmp_path_factory, case, data):
    """Whichever byte of a written sidecar changes, the line loop reads the TSV."""
    table, _ = case
    path = tmp_path_factory.mktemp("emb") / "emb.tsv"
    [sidecar] = write_embeddings_tsv({table.dim: path}, table)
    raw = sidecar.read_bytes()
    at = data.draw(st.integers(0, len(raw) - 1), label="at")
    mask = data.draw(st.integers(1, 255), label="mask")
    sidecar.write_bytes(with_byte(raw, at, mask))
    with mock.patch.object(vectors, "_read_embeddings_lines",
                           wraps=_read_embeddings_lines) as line_loop:
        outcome = read_outcome(read_embeddings_tsv, path)
    assert line_loop.call_count == 1
    assert outcome == read_outcome(_read_embeddings_lines, path)


BAD_SCORES = ["nan", "inf", "-inf", "1e999", "", "x1", "0x10", "1,5"]


@st.composite
def corrupted_pairs(draw):
    """Similarity-pair file lines with one corrupted row, and that row's number."""
    n = draw(st.integers(1, 6))
    rows = [[f"a{i}", f"b{i}", repr(draw(st.floats(-10, 10)))] for i in range(n)]
    i = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["drop", "extra", "score", "repeat"]))
    if kind == "drop":
        del rows[i][draw(st.integers(0, 2))]
    elif kind == "extra":
        rows[i].insert(draw(st.integers(0, 3)), "x")
    elif kind == "score":
        rows[i][2] = draw(st.sampled_from(BAD_SCORES))
    else:
        rows[i][1] = rows[i][0]
    return ["\t".join(row) for row in rows], i + 1


@settings(max_examples=100, deadline=None)
@given(corrupted_pairs())
def test_corrupted_pairs_raise_only_data_error(tmp_path_factory, case):
    lines, lineno = case
    path = tmp_path_factory.mktemp("pairs") / "pairs.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"pairs\.tsv:{lineno}: "):
        read_pairs_tsv(path)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_ttest_range_property(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 12, size=(rng.integers(1, 7), rng.integers(1, 7)))
    if counts.sum() == 0:
        counts[0, 0] = 1
    table = ttest_weight(make_table(counts))
    if table.weights.nnz:
        assert np.all(np.abs(table.weights.data) <= 1.0 + 1e-9)
