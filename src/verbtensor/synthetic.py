"""Synthetic worlds with planted selectional preferences.

:class:`WorldConfig` / :func:`write_fixture` generate a full desk-scale
world: a lemmatized corpus whose nouns carry class-specific context words, a
triples file whose verbs prefer certain subject and object classes, a
stopword list, similarity dev pairs and a ready-to-run pipeline config.

Noun frequencies decrease with a global rank that round-robins across the
classes, so any run of adjacent ranks (a frequency bucket) mixes classes and
bucket-sampled confounders usually break the planted preference.
"""

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from .util import choose, derive_seed, ensure_dir, shuffle

DEFAULT_STOPWORDS = ("the", "a", "of", "and", "to", "in")


@dataclass(frozen=True)
class WorldConfig:
    classes: tuple = ("person", "creature", "food", "machine", "place")
    nouns_per_class: int = 40
    contexts_per_class: int = 25
    shared_contexts: int = 50
    class_context_share: float = 0.65
    context_tokens_per_sentence: int = 8
    stopword_tokens_per_sentence: int = 3
    max_noun_frequency: int = 80
    rank_step: int = 4
    min_noun_frequency: int = 10
    positives_per_verb: int = 400
    # verb -> (allowed subject classes, allowed object classes)
    verb_preferences: dict = field(
        default_factory=lambda: {
            "devour": (("person", "creature"), ("food",)),
            "assemble": (("person",), ("machine",)),
        }
    )
    seed: int = 7

    def __post_init__(self):
        for name in ("nouns_per_class", "contexts_per_class", "shared_contexts", "rank_step"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer, got {getattr(self, name)}")
        if not (math.isfinite(self.class_context_share) and 0 <= self.class_context_share <= 1):
            raise ValueError(
                f"class_context_share must lie in [0, 1], got {self.class_context_share}"
            )
        for name in ("context_tokens_per_sentence", "stopword_tokens_per_sentence",
                     "positives_per_verb"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if len(set(self.classes)) < len(self.classes):
            raise ValueError(f"classes must not repeat a name, got {self.classes}")
        n_nouns = len(self.classes) * self.nouns_per_class
        if n_nouns < 2:  # a dev pair samples two distinct nouns
            raise ValueError(f"classes and nouns_per_class give {n_nouns} noun(s), "
                             "fewer than the 2 a world needs")
        for verb, (subj_classes, obj_classes) in self.verb_preferences.items():
            for cls in (*subj_classes, *obj_classes):
                if cls not in self.classes:
                    raise ValueError(
                        f"verb_preferences class {cls!r} of {verb!r} is not in classes"
                    )


@dataclass(frozen=True)
class SyntheticWorld:
    config: WorldConfig
    nouns_by_class: dict
    class_of: dict
    noun_frequency: dict
    class_contexts: dict
    shared_context_words: tuple


def build_world(config: WorldConfig = WorldConfig()) -> SyntheticWorld:
    nouns_by_class = {
        cls: tuple(f"{cls}{i:02d}" for i in range(config.nouns_per_class))
        for cls in config.classes
    }
    class_of = {n: cls for cls, nouns in nouns_by_class.items() for n in nouns}
    class_contexts = {
        cls: tuple(f"{cls}_ctx{j:02d}" for j in range(config.contexts_per_class))
        for cls in config.classes
    }
    shared = tuple(f"filler{j:02d}" for j in range(config.shared_contexts))
    frequency = {}
    n_classes = len(config.classes)
    for rank in range(n_classes * config.nouns_per_class):
        cls = config.classes[rank % n_classes]
        noun = nouns_by_class[cls][rank // n_classes]
        frequency[noun] = max(
            config.min_noun_frequency, config.max_noun_frequency - rank // config.rank_step
        )
    return SyntheticWorld(
        config=config,
        nouns_by_class=nouns_by_class,
        class_of=class_of,
        noun_frequency=frequency,
        class_contexts=class_contexts,
        shared_context_words=shared,
    )


def generate_sentences(world: SyntheticWorld) -> list:
    """One sentence per planned noun occurrence, class-flavored contexts.

    Each sentence is the noun, ``context_tokens_per_sentence`` context words
    (each one ``rng.random()`` to pick the class or the shared pool, then a
    pick from it), ``stopword_tokens_per_sentence`` stopwords and a shuffle
    of the whole; the sentences are shuffled at the end. The draws are those
    of ``rng.choice`` and ``rng.shuffle``, made by ``util.choose`` and
    ``util.shuffle`` and, for the context words, inline, so no Python call
    is made per draw.
    """
    config = world.config
    rng = random.Random(derive_seed(config.seed, "corpus"))
    draw, getrandbits = rng.random, rng.getrandbits
    share = config.class_context_share
    context_draws = range(config.context_tokens_per_sentence)
    stopword_pools = (DEFAULT_STOPWORDS,) * config.stopword_tokens_per_sentence
    shared = _pool(world.shared_context_words)
    sentences = []
    for cls in config.classes:
        own = _pool(world.class_contexts[cls])
        for noun in world.nouns_by_class[cls]:
            for _ in range(world.noun_frequency[noun]):
                tokens = [noun]
                for _ in context_draws:
                    # rng.choice of the picked pool; WorldConfig keeps both non-empty
                    words, n, k = own if draw() < share else shared
                    r = getrandbits(k)
                    while r >= n:
                        r = getrandbits(k)
                    tokens.append(words[r])
                tokens += choose(rng, stopword_pools)
                shuffle(rng, tokens)
                sentences.append(" ".join(tokens))
    shuffle(rng, sentences)
    return sentences


def _pool(words) -> tuple:
    """``(words, n, n.bit_length())``: what one ``choice`` over ``words`` draws with."""
    return words, len(words), len(words).bit_length()


def generate_triples(world: SyntheticWorld) -> list:
    """Positive (subject, verb, object, count) rows for every planted verb."""
    config = world.config
    rows = []
    for verb in sorted(config.verb_preferences):
        subj_classes, obj_classes = config.verb_preferences[verb]
        subjects = [n for cls in subj_classes for n in world.nouns_by_class[cls]]
        objects_ = [n for cls in obj_classes for n in world.nouns_by_class[cls]]
        rng = random.Random(derive_seed(config.seed, "triples", verb))
        space = len(subjects) * len(objects_)
        n_pairs = min(config.positives_per_verb, space)
        picks = rng.sample(range(space), n_pairs)
        for j, flat in enumerate(picks):
            subject = subjects[flat // len(objects_)]
            obj = objects_[flat % len(objects_)]
            count = max(1, int(2000.0 / (j + 2)))
            rows.append((subject, verb, obj, count))
    return rows


def generate_dev_pairs(world: SyntheticWorld, n_pairs: int = 60) -> list:
    """Word pairs whose gold similarity reflects shared class membership."""
    config = world.config
    rng = random.Random(derive_seed(config.seed, "dev-pairs"))
    frequent = sorted(
        world.class_of, key=lambda n: (-world.noun_frequency[n], n)
    )[: max(40, n_pairs)]
    pairs = []
    attempts = 0
    while len(pairs) < n_pairs and attempts < 50 * n_pairs:
        attempts += 1
        a, b = rng.sample(frequent, 2)
        same = world.class_of[a] == world.class_of[b]
        if same:
            gold = 0.7 + 0.3 * rng.random()
        else:
            gold = 0.3 * rng.random()
        want_same = len(pairs) % 2 == 0
        if same != want_same:
            continue
        pairs.append((a, b, round(gold, 4)))
    return pairs


def write_fixture(directory, config: WorldConfig = WorldConfig(), pipeline_overrides=None) -> Path:
    """Write a complete input directory plus pipeline config, return its path.

    Files: ``corpus.txt``, ``stopwords.txt``, ``triples.tsv``,
    ``dev_pairs.tsv`` and ``config.ini`` (paths inside are relative to the
    directory). The config's ``[experiment] verbs`` lists the world's verbs.
    ``pipeline_overrides`` maps ``section.key`` strings to values that replace
    the defaults in the written config.
    """
    directory = ensure_dir(directory)
    world = build_world(config)

    with open(directory / "corpus.txt", "w", encoding="utf-8") as handle:
        handle.write("\n".join([*generate_sentences(world), ""]))
    with open(directory / "stopwords.txt", "w", encoding="utf-8") as handle:
        for word in DEFAULT_STOPWORDS:
            handle.write(word + "\n")
    with open(directory / "triples.tsv", "w", encoding="utf-8") as handle:
        for subject, verb, obj, count in generate_triples(world):
            handle.write(f"{subject}\t{verb}\t{obj}\t{count}\n")
    with open(directory / "dev_pairs.tsv", "w", encoding="utf-8") as handle:
        for a, b, gold in generate_dev_pairs(world):
            handle.write(f"{a}\t{b}\t{gold}\n")

    settings = {
        "paths.corpus": "corpus.txt",
        "paths.stopwords": "stopwords.txt",
        "paths.triples": "triples.tsv",
        "paths.dev_pairs": "dev_pairs.tsv",
        "paths.output_dir": "out",
        "vectors.context_vocab_size": 10000,
        "vectors.top_n": "",
        "vectors.top_n_sweep": "25,50,100,200",
        "vectors.svd_dims": "20,40",
        "training.learning_rate": 0.05,
        "training.adagrad_epsilon": 1e-8,
        "training.l2_lambda": 1e-4,
        "training.epochs": 100,
        "training.init_scale": 0.01,
        "training.seed": 13,
        "experiment.positive_cap": 2000,
        "experiment.bucket_size": 10,
        "experiment.cv_seed": 17,
        "experiment.data_seed": 23,
        "experiment.curve_sizes": "10,25,50,100",
        "experiment.curve_repeats": 5,
        "experiment.small_cv_size": 52,
        "experiment.verbs": ", ".join(sorted(config.verb_preferences)),
    }
    settings.update(pipeline_overrides or {})

    sections: dict = {}
    for dotted, value in settings.items():
        section, key = dotted.split(".", 1)
        sections.setdefault(section, {})[key] = value
    lines = []
    for section in ("paths", "vectors", "training", "experiment"):
        lines.append(f"[{section}]")
        for key, value in sections.get(section, {}).items():
            lines.append(f"{key} = {value}")
        lines.append("")
    with open(directory / "config.ini", "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
    return directory / "config.ini"


def small_world_config(seed: int = 7) -> WorldConfig:
    """A miniature world for fast end-to-end tests."""
    return WorldConfig(
        nouns_per_class=12,
        contexts_per_class=12,
        shared_contexts=20,
        context_tokens_per_sentence=7,
        max_noun_frequency=34,
        rank_step=2,
        min_noun_frequency=8,
        positives_per_verb=60,
        seed=seed,
    )
