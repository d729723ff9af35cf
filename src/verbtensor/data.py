"""Verb datasets: positive triples, confounder negatives and CV splits.

Positive subject-verb-object triples come from a pre-extracted TSV. For each
positive a pseudo-negative is built by replacing both nouns with confounders
drawn at random from the same corpus-frequency bucket, which keeps the
negatives frequency-matched and the classes exactly balanced.

The caller reads the TSV once (``read_triples_tsv``) and hands each verb its
own rows (``load_positives``). Within one ``gen_confounders`` call each noun's
list of confounder options is built once, on its first draw, and
``write_dataset_jsonl`` JSON-encodes each distinct string once per file.
"""

import json
import logging
import random
from dataclasses import dataclass
from pathlib import Path

from .corpus import FrequencyBuckets
from .util import DataError, derive_seed, numbered_lines, open_output

log = logging.getLogger(__name__)

PLAUSIBLE = "plausible"
IMPLAUSIBLE = "implausible"
_GOLD_DIST = {PLAUSIBLE: (1.0, 0.0), IMPLAUSIBLE: (0.0, 1.0)}


@dataclass(frozen=True)
class LabeledTriple:
    subject: str
    verb: str
    object: str
    label: str

    def __post_init__(self):
        if self.label not in _GOLD_DIST:
            raise ValueError(f"bad label {self.label!r}")

    @property
    def gold_dist(self) -> tuple:
        return _GOLD_DIST[self.label]

    @property
    def is_plausible(self) -> bool:
        return self.label == PLAUSIBLE


@dataclass
class VerbDataset:
    verb: str
    triples: list

    def __len__(self) -> int:
        return len(self.triples)

    @property
    def positives(self) -> list:
        return [t for t in self.triples if t.is_plausible]

    @property
    def negatives(self) -> list:
        return [t for t in self.triples if not t.is_plausible]


@dataclass(frozen=True)
class CvSplit:
    repetition: int
    fold: int
    train: tuple
    test: tuple


def read_triples_tsv(path) -> list:
    """Read ``subject<TAB>verb<TAB>object<TAB>count`` rows.

    A row without four fields or with a count that is not an integer raises
    ``DataError`` naming the file and line.
    """
    rows = []
    for lineno, line in numbered_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}")
        subject, verb, obj, count = parts
        try:
            rows.append((subject, verb, obj, int(count)))
        except ValueError:
            raise DataError(f"{path}:{lineno}: count {count!r} is not an integer") from None
    return rows


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
    rows = sorted(kept, key=lambda r: (-r[3], r[0], r[2]))[:cap]
    return [LabeledTriple(s, verb, o, PLAUSIBLE) for s, _, o, _ in rows], dropped


def _confounder_options(noun: str, buckets: FrequencyBuckets, max_id: int) -> list:
    """Bucket-mates of ``noun``, excluding the noun itself.

    When the noun's bucket offers no alternative, the search widens to the
    nearest buckets by rank distance, lower bucket id first, and returns the
    first non-empty list. ``max_id`` is the largest bucket id.
    """
    if noun not in buckets.bucket_of:
        raise DataError(f"noun {noun!r} has no frequency bucket")
    home = buckets.bucket_of[noun]
    for dist in range(0, max_id + 1):
        candidates_ids = [home] if dist == 0 else [home - dist, home + dist]
        for bucket_id in candidates_ids:
            members = buckets.members.get(bucket_id)
            if not members:
                continue
            options = [m for m in members if m != noun]
            if options:
                return options
    raise DataError(f"no confounder available for {noun!r}: noun universe too small")


def gen_confounders(positives, buckets: FrequencyBuckets, rng_seed: int) -> list:
    """One implausible triple per positive, both nouns confounded.

    Each confounder is ``rng.choice`` over the noun's options (see
    ``_confounder_options``), drawn subject then object, positive by positive.
    """
    rng = random.Random(rng_seed)
    max_id = max(buckets.members, default=0)
    options = {}  # noun -> its confounder options, built on its first draw

    def draw(noun):
        if noun not in options:
            options[noun] = _confounder_options(noun, buckets, max_id)
        return rng.choice(options[noun])

    negatives = []
    for triple in positives:
        subject = draw(triple.subject)
        obj = draw(triple.object)
        negatives.append(LabeledTriple(subject, triple.verb, obj, IMPLAUSIBLE))
    return negatives


def _stratified_indices(triples):
    pos = [i for i, t in enumerate(triples) if t.is_plausible]
    neg = [i for i, t in enumerate(triples) if not t.is_plausible]
    return pos, neg


def stratified_halves(triples, rng: random.Random) -> tuple:
    """Two sorted index lists: each class shuffled with ``rng``, then halved.

    The plausible indices are shuffled first, then the implausible ones; the
    first half takes ``len // 2`` of each class and the second the rest.
    """
    pos, neg = _stratified_indices(triples)
    if len(pos) < 2 or len(neg) < 2:
        raise DataError(
            f"dataset too small to stratify: {len(pos)} positive, {len(neg)} negative"
        )
    rng.shuffle(pos)
    rng.shuffle(neg)
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


def subsample(dataset: VerbDataset, n: int, seed: int) -> VerbDataset:
    """Stratified sample of ``n`` triples without replacement.

    Classes split n evenly; when n is odd the plausible class receives the
    extra example. Original triple order is preserved.
    """
    if n > len(dataset):
        raise DataError(f"cannot sample {n} triples from a dataset of {len(dataset)}")
    pos, neg = _stratified_indices(dataset.triples)
    n_pos = n // 2 + (n % 2)
    n_neg = n // 2
    if n_pos > len(pos) or n_neg > len(neg):
        raise DataError(
            f"cannot draw {n_pos} positive / {n_neg} negative from "
            f"{len(pos)} / {len(neg)} available"
        )
    rng = random.Random(derive_seed(seed, "subsample", n))
    chosen = sorted(rng.sample(pos, n_pos) + rng.sample(neg, n_neg))
    return VerbDataset(verb=dataset.verb, triples=[dataset.triples[i] for i in chosen])


def write_dataset_jsonl(path, dataset: VerbDataset) -> None:
    """A header line, then one triple per line, with label and gold distribution.

    The header is ``{"verb": ...}``. Each record line is what
    ``json.dumps(record, sort_keys=True)`` gives, built from a template in
    that key order with each distinct string encoded once.
    """
    strings = {text for t in dataset.triples for text in (t.subject, t.verb, t.object, t.label)}
    quoted = {text: json.dumps(text) for text in strings}
    gold = {label: json.dumps(list(dist)) for label, dist in _GOLD_DIST.items()}
    lines = [
        f'{{"gold_dist": {gold[t.label]}, "label": {quoted[t.label]}, '
        f'"object": {quoted[t.object]}, "subject": {quoted[t.subject]}, '
        f'"verb": {quoted[t.verb]}}}\n'
        for t in dataset.triples
    ]
    with open_output(path) as handle:
        handle.write(json.dumps({"verb": dataset.verb}) + "\n" + "".join(lines))


_RECORD_KEYS = ("subject", "verb", "object", "label", "gold_dist")


def read_dataset_jsonl(path) -> VerbDataset:
    """Read a dataset written by ``write_dataset_jsonl``.

    Header keys other than ``verb`` are ignored. A line that is not a JSON
    object, a missing key, a bad label or a ``gold_dist`` that disagrees with
    the label raises ``DataError`` naming the file and line; a file with no
    triples raises one naming the file.
    """
    records = []
    for lineno, line in numbered_lines(path):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: not a JSON line ({exc})") from None
        if not isinstance(record, dict):
            raise DataError(f"{path}:{lineno}: expected a JSON object")
        records.append((lineno, record))
    if not records:
        raise DataError(f"empty dataset file {Path(path).name}")
    (lineno, header), triples = records[0], []
    if not isinstance(header.get("verb"), str):
        raise DataError(f"{path}:{lineno}: header has no verb")
    for lineno, record in records[1:]:
        missing = [key for key in _RECORD_KEYS if key not in record]
        if missing:
            raise DataError(f"{path}:{lineno}: missing key {missing[0]!r}")
        if not all(isinstance(record[key], str) for key in _RECORD_KEYS[:3]):
            raise DataError(f"{path}:{lineno}: subject, verb and object must be strings")
        try:
            triple = LabeledTriple(
                record["subject"], record["verb"], record["object"], record["label"]
            )
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if record["gold_dist"] != list(triple.gold_dist):
            raise DataError(
                f"{path}:{lineno}: gold_dist {record['gold_dist']!r} disagrees with "
                f"label {triple.label!r}"
            )
        triples.append(triple)
    if not triples:
        raise DataError(f"{path}: dataset has a header and no triples")
    return VerbDataset(verb=header["verb"], triples=triples)


def write_splits_jsonl(path, splits) -> None:
    with open_output(path) as handle:
        for s in splits:
            record = {
                "repetition": s.repetition,
                "fold": s.fold,
                "train": list(s.train),
                "test": list(s.test),
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")
