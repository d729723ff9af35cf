import json
import pickle
import random
import re
from functools import partial
from itertools import repeat

import pytest
from conftest import gold_dist, is_plausible
from hypothesis import given, settings
from hypothesis import strategies as st

from verbtensor.corpus import FrequencyBuckets, frequency_buckets, read_frequency_tsv
from verbtensor.data import (
    IMPLAUSIBLE,
    PLAUSIBLE,
    LabeledTriple,
    VerbDataset,
    gen_confounders,
    load_positives,
    make_5x2cv_splits,
    read_dataset_jsonl,
    read_triples_tsv,
    subsample,
    write_dataset_jsonl,
    _confounder_options,
)
from verbtensor.util import DataError


def write_triples(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write("\t".join(str(x) for x in row) + "\n")
    return path


@pytest.fixture
def triple_file(tmp_path):
    rows = [
        ("court", "apply", "law", 50),
        ("judge", "apply", "rule", 30),
        ("clerk", "apply", "stamp", 10),
        ("woman", "comb", "hair", 40),
        ("ghost", "apply", "law", 99),  # subject not embedded
    ]
    return write_triples(tmp_path / "triples.tsv", rows)


KNOWN = {"court", "law", "judge", "rule", "clerk", "stamp", "woman", "hair"}


def verb_rows(path, verb):
    """The rows of ``path`` for ``verb``, in file order, as ``gen_data`` groups them."""
    return [row for row in read_triples_tsv(path) if row[1] == verb]


def positives_of(path, verb, **kwargs):
    triples, _ = load_positives(verb_rows(path, verb), verb, path, **kwargs)
    return triples


class TestLoadPositives:
    def test_cap_keeps_most_frequent(self, triple_file):
        triples = positives_of(triple_file, "apply", cap=2, known_nouns=KNOWN)
        assert [(t.subject, t.object) for t in triples] == [("court", "law"), ("judge", "rule")]
        assert all(t.label == PLAUSIBLE for t in triples)

    def test_oov_rows_dropped(self, triple_file):
        triples = positives_of(triple_file, "apply", cap=2000, known_nouns=KNOWN)
        assert all(t.subject != "ghost" for t in triples)
        assert len(triples) == 3

    def test_unknown_verb(self, triple_file):
        with pytest.raises(DataError, match="unknown verb"):
            positives_of(triple_file, "devour", cap=2000, known_nouns=KNOWN)

    def test_zero_survivors(self, tmp_path):
        path = write_triples(tmp_path / "t.tsv", [("ghost", "haunt", "wall", 5)])
        with pytest.raises(DataError, match="zero triples"):
            positives_of(path, "haunt", cap=2000, known_nouns={"somebody"})

    def test_fixture_with_26_rows_yields_26(self, tmp_path):
        rows = [(f"s{i:02d}", "censor", f"o{i:02d}", 100 - i) for i in range(26)]
        path = write_triples(tmp_path / "censor.tsv", rows)
        nouns = {w for row in rows for w in (row[0], row[2])}
        triples = positives_of(path, "censor", cap=2000, known_nouns=nouns)
        assert len(triples) == 26

    def test_counts_oov_rows_and_names_the_file(self, triple_file):
        _, dropped = load_positives(verb_rows(triple_file, "apply"), "apply", triple_file,
                                    cap=2000, known_nouns=KNOWN)
        assert dropped == 1
        _, dropped = load_positives(verb_rows(triple_file, "apply"), "apply", triple_file,
                                    cap=2000, known_nouns=KNOWN | {"ghost"})
        assert dropped == 0
        with pytest.raises(DataError, match=r"^unknown verb 'devour': no triples in triples\.tsv$"):
            load_positives([], "devour", triple_file, cap=2000, known_nouns=KNOWN)


def make_buckets(noun_freqs, bucket_size=3):
    return frequency_buckets(noun_freqs, set(noun_freqs), bucket_size=bucket_size)


class TestGenConfounders:
    def setup_method(self):
        self.freqs = {f"n{i:02d}": 100 - i for i in range(12)}
        self.buckets = make_buckets(self.freqs, bucket_size=3)

    def test_both_slots_replaced(self):
        positives = [LabeledTriple("n00", "comb", "n05", PLAUSIBLE)]
        negatives = gen_confounders(positives, self.buckets, rng_seed=5, options={})
        assert len(negatives) == 1
        neg = negatives[0]
        assert neg.label == IMPLAUSIBLE
        assert neg.subject != "n00"
        assert neg.object != "n05"
        assert neg.verb == "comb"

    def test_confounder_from_same_bucket(self):
        positives = [LabeledTriple("n01", "eat", "n10", PLAUSIBLE)] * 20
        negatives = gen_confounders(positives, self.buckets, rng_seed=8, options={})
        for neg in negatives:
            assert self.buckets.bucket_of[neg.subject] == self.buckets.bucket_of["n01"]
            assert self.buckets.bucket_of[neg.object] == self.buckets.bucket_of["n10"]

    def test_singleton_bucket_falls_back_to_neighbor(self):
        freqs = {"a": 9, "b": 8, "c": 7, "lonely": 1}
        buckets = make_buckets(freqs, bucket_size=3)  # {a,b,c} then {lonely}
        positives = [LabeledTriple("lonely", "eat", "a", PLAUSIBLE)]
        negatives = gen_confounders(positives, buckets, rng_seed=1, options={})
        assert negatives[0].subject in {"a", "b", "c"}
        home = buckets.bucket_of["lonely"]
        landed = buckets.bucket_of[negatives[0].subject]
        assert abs(landed - home) == 1

    def test_deterministic_under_seed(self):
        positives = [
            LabeledTriple(f"n{i:02d}", "eat", f"n{11 - i:02d}", PLAUSIBLE) for i in range(6)
        ]
        a = gen_confounders(positives, self.buckets, rng_seed=42, options={})
        b = gen_confounders(positives, self.buckets, rng_seed=42, options={})
        assert a == b
        c = gen_confounders(positives, self.buckets, rng_seed=43, options={})
        assert a != c

    def test_balance_is_exact(self):
        positives = [
            LabeledTriple(f"n{i:02d}", "eat", f"n{(i + 3) % 12:02d}", PLAUSIBLE)
            for i in range(9)
        ]
        negatives = gen_confounders(positives, self.buckets, rng_seed=3, options={})
        assert len(negatives) == len(positives) == 9
        assert all(not is_plausible(t) for t in negatives)

    def test_missing_bucket_is_an_error(self):
        positives = [LabeledTriple("unbucketed", "eat", "n00", PLAUSIBLE)]
        with pytest.raises(DataError, match="no frequency bucket"):
            gen_confounders(positives, self.buckets, rng_seed=0, options={})

    def test_shared_options_hold_each_noun_once_and_no_failing_noun(self):
        """A shared map is filled once per noun; a noun without options fails every call."""
        options = {}
        gen_confounders([LabeledTriple("n00", "eat", "n05", PLAUSIBLE)], self.buckets, 1, options)
        assert set(options) == {"n00", "n05"}
        held = options["n00"]
        stray = [LabeledTriple("n00", "see", "unbucketed", PLAUSIBLE)]
        for seed in (2, 3):
            with pytest.raises(DataError, match="'unbucketed' has no frequency bucket"):
                gen_confounders(stray, self.buckets, seed, options)
        assert set(options) == {"n00", "n05"} and options["n00"] is held

    def test_no_candidate_anywhere(self):
        buckets = make_buckets({"only": 5}, bucket_size=10)
        positives = [LabeledTriple("only", "eat", "only", PLAUSIBLE)]
        with pytest.raises(DataError, match="no confounder"):
            gen_confounders(positives, buckets, rng_seed=0, options={})


def oracle_draw_confounder(noun, buckets, rng):
    """Reference draw: rebuilds the largest bucket id and the option list per draw."""
    if noun not in buckets.bucket_of:
        raise DataError(f"noun {noun!r} has no frequency bucket")
    home = buckets.bucket_of[noun]
    max_id = max(buckets.members)
    for dist in range(0, max_id + 1):
        candidates_ids = [home] if dist == 0 else [home - dist, home + dist]
        for bucket_id in candidates_ids:
            members = buckets.members.get(bucket_id)
            if not members:
                continue
            options = [m for m in members if m != noun]
            if options:
                return rng.choice(options)
    raise DataError(f"no confounder available for {noun!r}: noun universe too small")


def oracle_gen_confounders(positives, buckets, rng_seed):
    rng = random.Random(rng_seed)
    negatives = []
    for triple in positives:
        subject = oracle_draw_confounder(triple.subject, buckets, rng)
        obj = oracle_draw_confounder(triple.object, buckets, rng)
        negatives.append(LabeledTriple(subject, triple.verb, obj, IMPLAUSIBLE))
    return negatives


def outcome(generate, positives, buckets, seed):
    """The negatives ``generate`` returns, or the message of the DataError it raises."""
    try:
        return generate(positives, buckets, seed)
    except DataError as exc:
        return str(exc)


@st.composite
def confounder_cases(draw):
    """Random frequency buckets, positives over their nouns (and a stray one), a seed."""
    n_nouns = draw(st.integers(1, 12))
    freqs = {f"n{i}": draw(st.integers(0, 4)) for i in range(n_nouns)}
    buckets = make_buckets(freqs, bucket_size=draw(st.integers(1, 4)))
    nouns = st.sampled_from(sorted(freqs) + ["stray"] * draw(st.integers(0, 1)))
    verbs = st.sampled_from(["eat", "see"])
    positives = [
        LabeledTriple(draw(nouns), draw(verbs), draw(nouns), PLAUSIBLE)
        for _ in range(draw(st.integers(0, 8)))
    ]
    return positives, buckets, draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(confounder_cases())
def test_gen_confounders_matches_per_draw_oracle(case):
    positives, buckets, seed = case
    expected = outcome(oracle_gen_confounders, positives, buckets, seed)
    assert outcome(partial(gen_confounders, options={}), positives, buckets, seed) == expected
    # so does a call on an options map that a call on other positives filled
    shared = partial(gen_confounders, options={})
    outcome(shared, positives[1:], buckets, seed + 1)
    assert outcome(shared, positives, buckets, seed) == expected


def per_row_gen_confounders(positives, buckets, rng_seed):
    """``gen_confounders`` with one ``LabeledTriple(...)`` call per drawn row."""
    max_id = max(buckets.members, default=0)
    nouns = dict.fromkeys(noun for subject, _, obj, _ in positives for noun in (subject, obj))
    options = {noun: _confounder_options(noun, buckets, max_id) for noun in nouns}
    choice = random.Random(rng_seed).choice
    return [LabeledTriple(choice(options[subject]), verb, choice(options[obj]), IMPLAUSIBLE)
            for subject, verb, obj, _ in positives]


@settings(max_examples=300, deadline=None)
@given(confounder_cases())
def test_gen_confounders_matches_per_row_construction(case):
    positives, buckets, seed = case
    built = outcome(partial(gen_confounders, options={}), positives, buckets, seed)
    reference = outcome(per_row_gen_confounders, positives, buckets, seed)
    assert built == reference
    if isinstance(reference, list):
        assert type(built) is list
        assert all(type(t) is LabeledTriple for t in built)


def test_singleton_buckets_match_oracle_when_widening():
    freqs = {f"n{i}": 20 - i for i in range(7)}
    buckets = make_buckets(freqs, bucket_size=1)  # every draw widens to a neighbour
    positives = [LabeledTriple(f"n{i}", "eat", f"n{6 - i}", PLAUSIBLE) for i in range(7)] * 3
    assert gen_confounders(positives, buckets, 11, {}) == oracle_gen_confounders(
        positives, buckets, 11
    )
    empty = FrequencyBuckets(bucket_of={}, members={})
    assert gen_confounders([], empty, 0, {}) == []


def balanced_dataset(n, verb="eat"):
    triples = []
    for i in range(n // 2):
        triples.append(LabeledTriple(f"s{i}", verb, f"o{i}", PLAUSIBLE))
    for i in range(n - n // 2):
        triples.append(LabeledTriple(f"xs{i}", verb, f"xo{i}", IMPLAUSIBLE))
    return VerbDataset(verb=verb, triples=triples)


class TestSplits:
    def test_52_samples_give_26_26(self):
        splits = make_5x2cv_splits(balanced_dataset(52), seed=7)
        assert len(splits) == 10
        for split in splits:
            assert len(split.train) == 26
            assert len(split.test) == 26

    def test_fold_pair_swaps(self):
        splits = make_5x2cv_splits(balanced_dataset(20), seed=3)
        by_rep = {}
        for split in splits:
            by_rep.setdefault(split.repetition, {})[split.fold] = split
        for rep, folds in by_rep.items():
            assert folds[1].train == folds[2].test
            assert folds[1].test == folds[2].train

    def test_cover_and_disjoint(self):
        dataset = balanced_dataset(30)
        for split in make_5x2cv_splits(dataset, seed=1):
            train, test = set(split.train), set(split.test)
            assert train.isdisjoint(test)
            assert train | test == set(range(30))

    def test_stratified_parity(self):
        dataset = balanced_dataset(4)
        for split in make_5x2cv_splits(dataset, seed=9):
            train_triples = [dataset.triples[i] for i in split.train]
            assert sum(map(is_plausible, train_triples)) == 1

    def test_deterministic(self):
        dataset = balanced_dataset(26)
        assert make_5x2cv_splits(dataset, seed=4) == make_5x2cv_splits(dataset, seed=4)
        assert make_5x2cv_splits(dataset, seed=4) != make_5x2cv_splits(dataset, seed=5)

    def test_too_small(self):
        with pytest.raises(DataError, match="too small"):
            make_5x2cv_splits(balanced_dataset(3), seed=0)
        single_class = VerbDataset(
            "eat", [LabeledTriple(f"s{i}", "eat", f"o{i}", PLAUSIBLE) for i in range(6)]
        )
        with pytest.raises(DataError, match="too small"):
            make_5x2cv_splits(single_class, seed=0)


class TestSubsample:
    def test_full_size_returns_everything(self):
        dataset = balanced_dataset(12)
        sub = subsample(dataset.triples, 12, seed=3)
        assert sub == dataset.triples

    def test_stratification(self):
        dataset = balanced_dataset(400)
        sub = subsample(dataset.triples, 10, seed=3)
        assert sum(map(is_plausible, sub)) == 5
        assert len(sub) == 10

    def test_odd_sample_differs_by_one(self):
        dataset = balanced_dataset(40)
        sub = subsample(dataset.triples, 11, seed=3)
        n_pos = sum(map(is_plausible, sub))
        assert n_pos - (11 - n_pos) == 1  # extra example goes to the plausible class

    def test_too_large(self):
        with pytest.raises(DataError, match="cannot sample"):
            subsample(balanced_dataset(10).triples, 11, seed=0)

    def test_short_of_one_class(self):
        triples = balanced_dataset(8).triples[:5]  # 4 plausible, 1 implausible
        with pytest.raises(DataError, match=r"^cannot draw 2 positive / 2 negative "
                                            r"from 4 / 1 available$"):
            subsample(triples, 4, seed=0)

    def test_deterministic(self):
        dataset = balanced_dataset(60)
        assert subsample(dataset.triples, 20, seed=5) == subsample(dataset.triples, 20, seed=5)


words = st.text(max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(words, words, words), max_size=8),
       st.sampled_from([PLAUSIBLE, IMPLAUSIBLE]))
def test_batch_equals_per_row_construction(rows, label):
    subjects, verbs, objects_ = map(list, zip(*rows)) if rows else ([], [], [])
    built = LabeledTriple.batch(subjects, verbs, objects_, label)
    reference = [LabeledTriple(subject, verb, obj, label) for subject, verb, obj in rows]
    assert type(built) is list and len(built) == len(reference)
    for triple, expected in zip(built, reference):
        assert type(triple) is LabeledTriple
        assert triple == expected and triple.label == expected.label
        assert pickle.dumps(triple) == pickle.dumps(expected)
        loaded = pickle.loads(pickle.dumps(triple))
        assert type(loaded) is LabeledTriple and loaded == expected


@pytest.mark.parametrize("label", ["maybe", None, 1, ["plausible"], {"x": 1}])
def test_batch_rejects_a_bad_label_before_building_a_row(label):
    subjects = iter(["a", "b"])
    with pytest.raises(ValueError, match="bad label"):
        LabeledTriple.batch(subjects, repeat("v"), repeat("o"), label)
    assert list(subjects) == ["a", "b"]  # no row was read


class TestTripleInvariants:
    def test_gold_dist_matches_label(self):
        assert gold_dist(LabeledTriple("a", "v", "b", PLAUSIBLE)) == (1.0, 0.0)
        assert gold_dist(LabeledTriple("a", "v", "b", IMPLAUSIBLE)) == (0.0, 1.0)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="bad label"):
            LabeledTriple("a", "v", "b", "maybe")

    @pytest.mark.parametrize("label", [None, 1, ["plausible"], {"x": 1}])
    def test_non_string_label_rejected(self, label):
        with pytest.raises(ValueError, match="bad label"):
            LabeledTriple("a", "v", "b", label)

    def test_fields_and_properties(self):
        triple = LabeledTriple("a", "v", "b", PLAUSIBLE)
        assert (triple.subject, triple.verb, triple.object, triple.label) == \
            ("a", "v", "b", PLAUSIBLE)
        assert tuple(triple) == ("a", "v", "b", PLAUSIBLE)
        assert is_plausible(triple)
        assert not is_plausible(LabeledTriple("a", "v", "b", IMPLAUSIBLE))
        assert LabeledTriple(subject="a", verb="v", object="b", label=PLAUSIBLE) == triple

    @pytest.mark.parametrize("field", ["subject", "verb", "object", "label", "extra"])
    def test_immutable(self, field):
        triple = LabeledTriple("a", "v", "b", PLAUSIBLE)
        with pytest.raises(AttributeError):
            setattr(triple, field, "c")
        assert triple == LabeledTriple("a", "v", "b", PLAUSIBLE)

    def test_equal_triples_are_equal_and_hash_alike(self):
        a, b = LabeledTriple("a", "v", "b", PLAUSIBLE), LabeledTriple("a", "v", "b", PLAUSIBLE)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, LabeledTriple("a", "v", "b", IMPLAUSIBLE)}) == 2
        assert a != LabeledTriple("b", "v", "a", PLAUSIBLE)

    def test_pickle_round_trip(self):
        for triple in (LabeledTriple("a", "v", "b", PLAUSIBLE),
                       LabeledTriple("café", "v", "日本", IMPLAUSIBLE)):
            loaded = pickle.loads(pickle.dumps(triple))
            assert type(loaded) is LabeledTriple
            assert loaded == triple and gold_dist(loaded) == gold_dist(triple)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        dataset = balanced_dataset(8)
        path = tmp_path / "eat.jsonl"
        write_dataset_jsonl(path, dataset)
        header, *records = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert header == '{"verb": "eat"}\n'
        assert read_dataset_jsonl(path) == dataset
        # a header with keys the reader does not use, as older datasets have, still loads
        old = tmp_path / "old.jsonl"
        old.write_text('{"metadata": {"concreteness": 4.4, "corpus_frequency": 0}, '
                       '"verb": "eat"}\n' + "".join(records), encoding="utf-8")
        assert read_dataset_jsonl(old) == dataset

    def test_header_without_verb_is_a_data_error(self, tmp_path):
        path = tmp_path / "eat.jsonl"
        path.write_text('\n{"metadata": {}}\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"eat\.jsonl:2: header has no verb$"):
            read_dataset_jsonl(path)

    def test_empty_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "eat.jsonl"
        path.write_text("\n \n", encoding="utf-8")
        with pytest.raises(DataError, match=r"^empty dataset file eat\.jsonl$"):
            read_dataset_jsonl(path)

    def test_unhashable_label_is_a_data_error(self, tmp_path):
        path = tmp_path / "eat.jsonl"
        path.write_text('{"verb": "eat"}\n{"subject": "a", "verb": "eat", "object": "b", '
                        '"label": ["plausible"], "gold_dist": [1.0, 0.0]}\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"eat\.jsonl:2: bad label \['plausible'\]"):
            read_dataset_jsonl(path)

    def test_record_of_another_verb_is_a_data_error(self, tmp_path):
        path = tmp_path / "eat.jsonl"
        write_dataset_jsonl(path, balanced_dataset(4))
        header, first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join([header, first, first.replace('"eat"', '"drink"'), *rest]),
                        encoding="utf-8")
        with pytest.raises(DataError,
                           match=r"eat\.jsonl:3: verb 'drink' differs from the header's 'eat'$"):
            read_dataset_jsonl(path)



def oracle_dataset_lines(dataset):
    """Reference JSONL: ``json.dumps(record, sort_keys=True)`` per line."""
    lines = [json.dumps({"verb": dataset.verb}, sort_keys=True)]
    for t in dataset.triples:
        record = {"subject": t.subject, "verb": t.verb, "object": t.object, "label": t.label,
                  "gold_dist": list(gold_dist(t))}
        lines.append(json.dumps(record, sort_keys=True))
    return "".join(line + "\n" for line in lines).encode("utf-8")


AWKWARD_WORDS = ['say "hi"', "back\\slash", "tab\there", "café", "日本", "emoji 😀",
                 "line\nbreak", "\x00nul", "\u2028sep", "plain"]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(AWKWARD_WORDS) | st.text(min_size=1),
                          st.sampled_from(AWKWARD_WORDS) | st.text(min_size=1),
                          st.sampled_from([PLAUSIBLE, IMPLAUSIBLE])), max_size=8),
       st.sampled_from(AWKWARD_WORDS))
def test_dataset_writer_matches_json_dumps_lines(tmp_path_factory, rows, verb):
    dataset = VerbDataset(
        verb=verb,
        triples=[LabeledTriple(s, verb, o, label) for s, o, label in rows],
    )
    path = tmp_path_factory.mktemp("jsonl") / "awkward.jsonl"
    write_dataset_jsonl(path, dataset)
    assert path.read_bytes() == oracle_dataset_lines(dataset)
    if not rows:
        with pytest.raises(DataError, match="awkward.jsonl: dataset has a header and no triples$"):
            read_dataset_jsonl(path)
        return
    loaded = read_dataset_jsonl(path)
    assert (loaded.verb, loaded.triples) == (dataset.verb, dataset.triples)


class TestReadTriplesTsv:
    def test_round_trip(self, triple_file):
        rows = read_triples_tsv(triple_file)
        assert rows[0] == ("court", "apply", "law", 50)
        assert len(rows) == 5

    def test_wrong_field_count_names_file_and_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tv\tb\t3\n\na\tv\tb\n")
        with pytest.raises(DataError, match=r"t\.tsv:3: expected 4 tab-separated fields, got 3"):
            read_triples_tsv(path)

    def test_non_integer_count_names_file_and_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tv\tb\t3\nc\tv\td\tx1\n")
        with pytest.raises(DataError, match=r"t\.tsv:2: count 'x1' is not an integer"):
            read_triples_tsv(path)

    @pytest.mark.parametrize("row", ["\tv\tb\t3", "a\t\tb\t3", "a\tv\t\t3"],
                             ids=["subject", "verb", "object"])
    def test_empty_field_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "t.tsv"
        path.write_text(f"a\tv\tb\t3\n{row}\n")
        with pytest.raises(DataError, match=r"t\.tsv:2: empty subject, verb or object"):
            read_triples_tsv(path)

    def test_repeated_row_names_both_lines(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tv\tb\t3\nc\tv\tb\t3\n\na\tv\tb\t7\n")
        with pytest.raises(DataError,
                           match=r"t\.tsv:4: triple \('a', 'v', 'b'\) repeats line 1$"):
            read_triples_tsv(path)

    def test_same_nouns_under_another_verb_are_not_a_repeat(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tv\tb\t3\na\tw\tb\t3\nb\tv\ta\t3\n")
        assert len(read_triples_tsv(path)) == 3


# "-7" would reorder the positive cap and "٣" is an Arabic-Indic digit, which int() accepts
BAD_COUNTS = ["x1", "1.5", "", "one", "1e3", "nan", "3 3",
              "-7", "+3", " 4", "4 ", "1_000", "٣", "²", "1" * 4301]


def count_id(count):
    return ascii(count) if len(count) < 10 else f"{len(count)}-digits"


@pytest.mark.parametrize("count", BAD_COUNTS, ids=count_id)
@pytest.mark.parametrize("reader, rows", [(read_triples_tsv, ("a\tv\tb\t", "c\tv\tb\t")),
                                          (read_frequency_tsv, ("cat\t", "dog\t"))],
                         ids=["triples", "frequencies"])
def test_count_must_be_ascii_digits(tmp_path, reader, rows, count):
    path = tmp_path / "counts.tsv"
    path.write_text(f"{rows[0]}3\n\n{rows[1]}{count}\n", encoding="utf-8")
    message = f"counts.tsv:3: count {count!r} is not an integer of ASCII digits"
    with pytest.raises(DataError, match=re.escape(message)):
        reader(path)


@st.composite
def corrupted_triples(draw):
    """Triples file lines with one corrupted row, and that row's line number."""
    n = draw(st.integers(1, 6))
    rows = [[f"s{i}", "v", f"o{i}", str(draw(st.integers(0, 99)))] for i in range(n)]
    i = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["drop", "extra", "count"]))
    if kind == "drop":
        del rows[i][draw(st.integers(0, 3))]
    elif kind == "extra":
        rows[i].insert(draw(st.integers(0, 4)), "x")
    else:
        rows[i][3] = draw(st.sampled_from(BAD_COUNTS))
    return ["\t".join(row) for row in rows], i + 1


@settings(max_examples=100, deadline=None)
@given(corrupted_triples())
def test_corrupted_triples_raise_only_data_error(tmp_path_factory, case):
    lines, lineno = case
    path = tmp_path_factory.mktemp("triples") / "triples.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"triples\.tsv:{lineno}: "):
        read_triples_tsv(path)


@st.composite
def corrupted_datasets(draw):
    """Dataset JSONL lines with one corrupted line, and that line's number."""
    triples = balanced_dataset(draw(st.integers(1, 3)) * 2).triples
    records = [
        {"subject": t.subject, "verb": t.verb, "object": t.object, "label": t.label,
         "gold_dist": list(gold_dist(t))}
        for t in triples
    ]
    lines = [json.dumps({"verb": "eat"})] + [json.dumps(r) for r in records]
    kind = draw(st.sampled_from(["truncate", "not_object", "drop", "label", "gold", "noun"]))
    if kind == "truncate":
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i][: draw(st.integers(1, len(lines[i]) - 1))]
    elif kind == "not_object":
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from(["[]", "3", "null", '"eat"', "[1, 2]"]))
    else:
        i = draw(st.integers(1, len(records)))
        record = records[i - 1]
        if kind == "drop":
            del record[draw(st.sampled_from(sorted(record)))]
        elif kind == "label":
            record["label"] = draw(st.sampled_from(["maybe", "", "PLAUSIBLE", None, 1]))
        elif kind == "gold":
            wrong = [[0.0, 1.0], [1.0, 0.0]][record["label"] == IMPLAUSIBLE]
            record["gold_dist"] = draw(st.sampled_from([wrong, [], [1.0], "x", [0.5, 0.5]]))
        else:
            record[draw(st.sampled_from(["subject", "verb", "object"]))] = draw(
                st.sampled_from([None, 3, ["a"]])
            )
        lines[i] = json.dumps(record)
    return lines, i + 1


@settings(max_examples=150, deadline=None)
@given(corrupted_datasets())
def test_corrupted_dataset_raises_only_data_error(tmp_path_factory, case):
    lines, lineno = case
    path = tmp_path_factory.mktemp("datasets") / "eat.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"eat\.jsonl:{lineno}: "):
        read_dataset_jsonl(path)
