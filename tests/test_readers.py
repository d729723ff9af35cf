import re

import pytest

from verbtensor.corpus import read_frequency_tsv, read_stopwords
from verbtensor.data import read_dataset_jsonl, read_triples_tsv
from verbtensor.util import DataError
from verbtensor.vectors import EmbeddingTable, read_embeddings_tsv, read_pairs_tsv

# reader -> a valid first line for it
READERS = {
    read_triples_tsv: "cat\teat\tfish\t3\n",
    read_dataset_jsonl: '{"metadata": {}, "verb": "eat"}\n',
    read_pairs_tsv: "cat\tdog\t0.5\n",
    read_embeddings_tsv: "cat\t1.0\t0.5\n",
    read_frequency_tsv: "cat\t3\n",
    read_stopwords: "the\n",
}


@pytest.mark.parametrize("reader", READERS, ids=lambda reader: reader.__name__)
def test_undecodable_line_names_file_and_line(tmp_path, reader):
    path = tmp_path / "input.txt"
    path.write_bytes(READERS[reader].encode("utf-8") + b"\xff\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: file is not UTF-8")):
        reader(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("cat\t3\ndog\n", r"freq\.tsv:2: expected 2 tab-separated fields, got 1"),
        ("cat\t3\ndog\t1\tx\n", r"freq\.tsv:2: expected 2 tab-separated fields, got 3"),
        ("cat\t3\n\ndog\tmany\n", r"freq\.tsv:3: count 'many' is not an integer"),
        ("cat\t3\ndog\t2\n\ncat\t1\n", r"freq\.tsv:4: word 'cat' repeats line 1"),
    ],
)
def test_malformed_frequency_row_names_file_and_line(tmp_path, text, message):
    path = tmp_path / "freq.tsv"
    path.write_text(text)
    with pytest.raises(DataError, match=message):
        read_frequency_tsv(path)


# tab-separated reader -> (two valid rows, its message for a line of one field)
TSV_READERS = {
    read_triples_tsv: (["cat\teat\tfish\t3", "dog\teat\tbone\t5"],
                       "expected 4 tab-separated fields, got 1"),
    read_frequency_tsv: (["cat\t3", "dog\t5"], "expected 2 tab-separated fields, got 1"),
    read_pairs_tsv: (["cat\tdog\t0.5", "fish\tbone\t0.25"],
                     "expected 3 tab-separated fields, got 1"),
    read_embeddings_tsv: (["cat\t1.0\t0.5", "dog\t-2.5\t0.0"], "expected 2 values, got 0"),
}


def comparable(value):
    if isinstance(value, EmbeddingTable):
        return value.nouns.words, value.matrix.tolist()
    return list(value.items()) if isinstance(value, dict) else value


@pytest.mark.parametrize("reader", TSV_READERS, ids=lambda reader: reader.__name__)
@pytest.mark.parametrize("blank", [" ", "  \u00a0 "], ids=["space", "spaces"])
def test_whitespace_only_line_is_a_row_of_one_field(tmp_path, reader, blank):
    rows, message = TSV_READERS[reader]
    path = tmp_path / "input.tsv"
    path.write_text(f"{rows[0]}\n{blank}\n{rows[1]}\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: {message}") + "$"):
        reader(path)


@pytest.mark.parametrize("reader", TSV_READERS, ids=lambda reader: reader.__name__)
def test_crlf_rows_read_as_lf_rows(tmp_path, reader):
    rows, _ = TSV_READERS[reader]
    lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
    lf.write_bytes("\n".join([rows[0], "", rows[1], ""]).encode("utf-8"))
    crlf.write_bytes("\r\n".join([rows[0], "", rows[1], ""]).encode("utf-8"))
    assert comparable(reader(crlf)) == comparable(reader(lf))


@pytest.mark.parametrize(
    "reader, text, message",
    [
        (read_triples_tsv, "a\t\tb\t3\nc\tv\td\tx\n", "1: empty subject, verb or object"),
        (read_triples_tsv, "a\tv\tb\tx\na\tv\tb\t3\tz\n", "1: count 'x' is not an integer"),
        (read_frequency_tsv, "a\t-1\na\n", "1: count '-1' is not an integer"),
        (read_pairs_tsv, "a\ta\t0.5\nb\tc\n", "1: similarity pair repeats the word 'a'"),
        (read_pairs_tsv, "a\tb\tinf\nb\tc\tx\n", "1: score 'inf' is not finite"),
        (read_embeddings_tsv, "a\tx\nb\t1\t2\n", "1: could not convert"),
        (read_embeddings_tsv, "a\t1\nb\ty\na\t2\n", "2: could not convert"),
    ],
    ids=["triples-empty", "triples-count", "frequencies", "pairs-word", "pairs-score",
         "embeddings-width", "embeddings-repeat"],
)
def test_first_line_at_fault_is_named(tmp_path, reader, text, message):
    path = tmp_path / "input.tsv"
    path.write_text(text)
    with pytest.raises(DataError, match=re.escape(f"{path}:{message}")):
        reader(path)


def test_stopwords_are_stripped_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("  the \n\n \t \nof\r\n")
    assert read_stopwords(path) == {"the", "of"}


def test_stopword_line_of_two_words_names_file_and_line(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("of\n\nthe a\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:3: expected one stopword, got 2")):
        read_stopwords(path)
