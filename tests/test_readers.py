import re

import pytest

from verbtensor.corpus import read_frequency_tsv, read_stopwords
from verbtensor.data import read_dataset_jsonl, read_triples_tsv
from verbtensor.util import DataError
from verbtensor.vectors import read_embeddings_tsv, read_pairs_tsv

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
