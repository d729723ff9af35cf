"""Verb datasets: positive triples, confounder negatives and CV splits.

Positive subject-verb-object triples come from a pre-extracted TSV. For each
positive a pseudo-negative is built by replacing both nouns with confounders
drawn at random from the same corpus-frequency bucket, which keeps the
negatives frequency-matched and the classes exactly balanced.

A row is a ``LabeledTriple``, an immutable tuple of four strings whose
unpacking, hashing and comparing run in C. ``load_positives`` and
``gen_confounders`` build their rows with ``LabeledTriple.batch``: one label
check, then every tuple built in C, with no Python frame per row. A reader
that takes one row at a time calls ``LabeledTriple(...)``. The caller reads
the TSV once (``read_triples_tsv``) and hands each verb its own rows
(``load_positives``). Each noun's tuple of confounder options is built
once per set of buckets, before its first draw (``gen_confounders`` takes a
map that its callers share across verbs), and
``write_dataset_jsonl`` JSON-encodes each distinct string once per file.
The triples TSV keeps the row rules of ``util.read_rows``; the dataset
reader names the file and line of the first malformed line.
"""

import json
import logging
import random
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .corpus import FrequencyBuckets
from .util import DataError, choose, derive_seed, open_output, read_lines, read_rows, shuffle

log = logging.getLogger(__name__)

PLAUSIBLE = "plausible"
IMPLAUSIBLE = "implausible"
_LABELS = (PLAUSIBLE, IMPLAUSIBLE)
_GOLD_DIST = {PLAUSIBLE: (1.0, 0.0), IMPLAUSIBLE: (0.0, 1.0)}


class _Triple(NamedTuple):
    subject: str
    verb: str
    object: str
    label: str


class LabeledTriple(_Triple):
    """A (subject, verb, object) triple with its label, as an immutable tuple.

    A triple compares and hashes as the tuple of its four fields, and pickles
    as them. A label other than ``PLAUSIBLE`` or ``IMPLAUSIBLE`` raises
    ``ValueError``, also when unpickling.
    """

    __slots__ = ()

    def __new__(cls, subject, verb, object, label):
        if label not in _LABELS:  # a tuple, so an unhashable label is rejected too
            raise ValueError(f"bad label {label!r}")
        return tuple.__new__(cls, (subject, verb, object, label))

    @classmethod
    def batch(cls, subjects, verbs, objects, label) -> list:
        """One triple per position of the aligned iterables, all with ``label``.

        Equal, element for element, to calling the class on each position,
        but the label is checked once, before any iterable is read, and the
        tuples are built in C. The shortest iterable ends the batch.
        """
        if label not in _LABELS:
            raise ValueError(f"bad label {label!r}")
        return list(map(tuple.__new__, repeat(cls), zip(subjects, verbs, objects, repeat(label))))


@dataclass
class VerbDataset:
    verb: str
    triples: list

    def __len__(self) -> int:
        return len(self.triples)


@dataclass(frozen=True)
class CvSplit:
    repetition: int
    fold: int
    train: tuple
    test: tuple


def read_triples_tsv(path) -> list:
    """``subject<TAB>verb<TAB>object<TAB>count`` rows as tuples, in file order, keyed
    by the triple under ``util.read_rows``; an empty subject, verb or object is a fault."""
    return read_rows(path, 4, key=("triple", 3), count=True, parse=_triples)


def _triples(subjects, verbs, objects, counts) -> list:
    if not (all(subjects) and all(verbs) and all(objects)):
        raise ValueError("empty subject, verb or object")
    return list(zip(subjects, verbs, objects, counts))


def load_positives(rows, verb: str, source, cap: int, known_nouns) -> tuple:
    """A verb's positive triples, filtered and frequency-capped.

    ``rows`` are the verb's rows of ``read_triples_tsv(source)``, in file
    order; ``source`` names the file in error messages. Triples whose subject
    or object is not in ``known_nouns`` (the embedding vocabulary) are dropped
    and logged. Survivors are ordered by descending corpus count, ties broken
    by (subject, object), and truncated to ``cap``. Returns the positives and
    the number of rows dropped for out-of-vocabulary nouns.
    """
    if not rows:
        raise DataError(f"unknown verb {verb!r}: no triples in {Path(source).name}")
    kept = [r for r in rows if r[0] in known_nouns and r[2] in known_nouns]
    dropped = len(rows) - len(kept)
    if dropped:
        log.info("verb %r: dropped %d triples with out-of-vocabulary nouns", verb, dropped)
    if not kept:
        raise DataError(f"verb {verb!r}: zero triples survive the vocabulary filter")
    # order by (-count, subject, object): a descending sort stays stable
    kept.sort(key=itemgetter(0, 2))
    kept.sort(key=itemgetter(3), reverse=True)
    kept = kept[:cap]
    positives = LabeledTriple.batch(map(itemgetter(0), kept), repeat(verb),
                                    map(itemgetter(2), kept), PLAUSIBLE)
    return positives, dropped


def _confounder_options(noun: str, buckets: FrequencyBuckets, max_id: int) -> tuple:
    """Bucket-mates of ``noun``, excluding the noun itself.

    When the noun's bucket offers no alternative, the search widens to the
    nearest buckets by rank distance, lower bucket id first, and returns the
    first non-empty one. ``max_id`` is the largest bucket id. The buckets
    partition the nouns, so only the noun's own bucket holds it.
    """
    home = buckets.bucket_of.get(noun)
    if home is None:
        raise DataError(f"noun {noun!r} has no frequency bucket")
    members = buckets.members
    own = members[home]
    at = own.index(noun)
    options = own[:at] + own[at + 1 :]
    for dist in range(1, max_id + 1):
        if options:
            break
        options = members.get(home - dist) or members.get(home + dist)
    if not options:
        raise DataError(f"no confounder available for {noun!r}: noun universe too small")
    return options


def gen_confounders(positives, buckets: FrequencyBuckets, rng_seed: int, options) -> list:
    """One implausible triple per positive, both nouns confounded.

    Each confounder is one ``rng.choice`` over the noun's options (see
    ``_confounder_options``), drawn subject then object, positive by positive,
    all in one ``util.choose`` call.
    ``options`` maps nouns to their options from ``buckets``, and the call
    adds the nouns it lacks, so calls that draw from the same buckets can
    share one map and build each noun's options once.
    """
    max_id = max(buckets.members, default=0)
    nouns = list(chain.from_iterable(map(itemgetter(0, 2), positives)))  # draw order
    # the missing nouns' options, built in draw order before the draws, so
    # the first noun without any raises as the draws would
    for noun in dict.fromkeys(nouns):
        if noun not in options:
            options[noun] = _confounder_options(noun, buckets, max_id)
    drawn = choose(random.Random(rng_seed), map(options.__getitem__, nouns))
    # the even picks are the subjects' confounders, the odd ones the objects'
    return LabeledTriple.batch(drawn[::2], map(itemgetter(1), positives), drawn[1::2],
                               IMPLAUSIBLE)


def _stratified_indices(triples):
    pos = [i for i, t in enumerate(triples) if t[3] == PLAUSIBLE]
    neg = [i for i, t in enumerate(triples) if t[3] != PLAUSIBLE]
    return pos, neg


def stratified_halves(triples, rng: random.Random) -> tuple:
    """Two sorted index lists: each class shuffled with ``rng``, then halved.

    The plausible indices are shuffled first, then the implausible ones, each
    by ``util.shuffle``, which permutes as ``rng.shuffle`` does; the first
    half takes ``len // 2`` of each class and the second the rest.
    """
    pos, neg = _stratified_indices(triples)
    if len(pos) < 2 or len(neg) < 2:
        raise DataError(
            f"dataset too small to stratify: {len(pos)} positive, {len(neg)} negative"
        )
    shuffle(rng, pos)
    shuffle(rng, neg)
    return (sorted(pos[: len(pos) // 2] + neg[: len(neg) // 2]),
            sorted(pos[len(pos) // 2 :] + neg[len(neg) // 2 :]))


def make_5x2cv_splits(dataset: VerbDataset, seed: int) -> list:
    """Ten (repetition, fold) splits: five stratified shuffled halvings.

    Within a repetition the two folds are mirror images: fold 1 trains on
    half A and tests on half B, fold 2 swaps them.
    """
    splits = []
    for rep in range(1, 6):
        rng = random.Random(derive_seed(seed, "5x2cv", rep))
        half_a, half_b = map(tuple, stratified_halves(dataset.triples, rng))
        splits.append(CvSplit(repetition=rep, fold=1, train=half_a, test=half_b))
        splits.append(CvSplit(repetition=rep, fold=2, train=half_b, test=half_a))
    return splits


def subsample(triples, n: int, seed: int) -> list:
    """A stratified sample of ``n`` triples without replacement, in their original order.

    Classes split n evenly; when n is odd the plausible class receives the
    extra example.
    """
    if n > len(triples):
        raise DataError(f"cannot sample {n} triples from a dataset of {len(triples)}")
    pos, neg = _stratified_indices(triples)
    n_pos = n // 2 + (n % 2)
    n_neg = n // 2
    if n_pos > len(pos) or n_neg > len(neg):
        raise DataError(
            f"cannot draw {n_pos} positive / {n_neg} negative from "
            f"{len(pos)} / {len(neg)} available"
        )
    rng = random.Random(derive_seed(seed, "subsample", n))
    return [triples[i] for i in sorted(rng.sample(pos, n_pos) + rng.sample(neg, n_neg))]


def write_dataset_jsonl(path, dataset: VerbDataset) -> None:
    """A header line, then one triple per line, with label and gold distribution.

    The header is ``{"verb": ...}``. Each record line is what
    ``json.dumps(record, sort_keys=True)`` gives, built from a template in
    that key order: a fixed head per label, then each string encoded as
    ``json.dumps`` encodes it, once per distinct string.
    """
    strings = set(chain.from_iterable(dataset.triples))
    quoted = dict(zip(strings, map(encode_basestring_ascii, strings)))
    head = {
        label: f'{{"gold_dist": {json.dumps(list(dist))}, "label": {json.dumps(label)}, '
        for label, dist in _GOLD_DIST.items()
    }
    lines = [
        f'{head[label]}"object": {quoted[obj]}, "subject": {quoted[subject]}, '
        f'"verb": {quoted[verb]}}}\n'
        for subject, verb, obj, label in dataset.triples
    ]
    with open_output(path) as handle:
        handle.write(json.dumps({"verb": dataset.verb}) + "\n" + "".join(lines))


_RECORD_FIELDS = itemgetter("subject", "verb", "object", "label", "gold_dist")
_GOLD_LIST = {label: list(dist) for label, dist in _GOLD_DIST.items()}


def read_dataset_jsonl(path) -> VerbDataset:
    """Read a dataset written by ``write_dataset_jsonl``.

    The first non-blank line is the header; its keys other than ``verb`` are
    ignored. A line that is not a JSON object, a header without a string
    verb, a missing key (the first of subject, verb, object, label and
    gold_dist is named), a subject, verb or object that is not a string, a
    verb other than the header's, a bad label or a ``gold_dist`` that
    disagrees with the label raises ``DataError`` naming the file and line;
    a file with no header or no triples raises one naming the file.
    """
    dataset_verb, triples = None, []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line or line.isspace():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: not a JSON line ({exc})") from None
        if not isinstance(record, dict):
            raise DataError(f"{path}:{lineno}: expected a JSON object")
        if dataset_verb is None:
            dataset_verb = record.get("verb")
            if not isinstance(dataset_verb, str):
                raise DataError(f"{path}:{lineno}: header has no verb")
            continue
        try:
            subject, verb, obj, label, gold = _RECORD_FIELDS(record)
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: missing key {exc.args[0]!r}") from None
        if not (isinstance(subject, str) and isinstance(verb, str) and isinstance(obj, str)):
            raise DataError(f"{path}:{lineno}: subject, verb and object must be strings")
        if verb != dataset_verb:
            raise DataError(f"{path}:{lineno}: verb {verb!r} differs from the header's "
                            f"{dataset_verb!r}")
        try:
            triples.append(LabeledTriple(subject, verb, obj, label))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if gold != _GOLD_LIST[label]:
            raise DataError(
                f"{path}:{lineno}: gold_dist {gold!r} disagrees with label {label!r}"
            )
    if dataset_verb is None:
        raise DataError(f"empty dataset file {Path(path).name}")
    if not triples:
        raise DataError(f"{path}: dataset has a header and no triples")
    return VerbDataset(verb=dataset_verb, triples=triples)

