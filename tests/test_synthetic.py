"""The synthetic world: pinned fixture bytes, the corpus draws against a
per-draw oracle, and the checks of ``WorldConfig``."""

import hashlib
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verbtensor.synthetic import (
    DEFAULT_STOPWORDS,
    WorldConfig,
    build_world,
    generate_sentences,
    small_world_config,
    write_fixture,
)
from verbtensor.util import derive_seed

# sha256 of every file write_fixture writes, taken from the generator that
# drew with rng.choice and rng.shuffle, one Python call per draw
FIXTURE_DIGESTS = {
    "small": {
        "corpus.txt": "4ceb84109f8220afd0c49d9383c6be70ed2f4c18b96e6a7bd04b0cdc1e3f7718",
        "stopwords.txt": "464e726ed153cd431b489980bf5da56d5ee68b1000e57fe25ebc3439b6751981",
        "triples.tsv": "19d442fa1d9ad399a7c44018aa28ebdaf10871b31b57bb2504473a06a2416267",
        "dev_pairs.tsv": "b604045c97254d9cfa1eec1615dab9c1c426415f200964ae90e0e01149086c0b",
        "config.ini": "c4c968185dac2b169a88ed38e5177ca66ddd4f143fb1903beae39a2ee1e2588e",
    },
    "default": {
        "corpus.txt": "32933f26156b6c30b5470c209b48134c276340e713c43ba5845efb728dfd4074",
        "stopwords.txt": "464e726ed153cd431b489980bf5da56d5ee68b1000e57fe25ebc3439b6751981",
        "triples.tsv": "4bc64269bb2666d8e9676a1e2dbeac0db47aff01d4bc9453cf153edb48de4eb9",
        "dev_pairs.tsv": "56f7c90e51569b14a682f75ec06e9a2ef661a621392751482644176344bb76b0",
        "config.ini": "c4c968185dac2b169a88ed38e5177ca66ddd4f143fb1903beae39a2ee1e2588e",
    },
}
WORLDS = {"small": small_world_config, "default": WorldConfig}


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_fixture_files_are_pinned(tmp_path, world):
    write_fixture(tmp_path, WORLDS[world]())
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in FIXTURE_DIGESTS[world]}
    assert digests == FIXTURE_DIGESTS[world]


def oracle_sentences(world) -> list:
    """The corpus sentences drawn one ``rng.choice`` / ``rng.shuffle`` call at a time."""
    config = world.config
    rng = random.Random(derive_seed(config.seed, "corpus"))
    sentences = []
    for cls in config.classes:
        for noun in world.nouns_by_class[cls]:
            class_words = world.class_contexts[cls]
            for _ in range(world.noun_frequency[noun]):
                tokens = [noun]
                for _ in range(config.context_tokens_per_sentence):
                    if rng.random() < config.class_context_share:
                        tokens.append(rng.choice(class_words))
                    else:
                        tokens.append(rng.choice(world.shared_context_words))
                for _ in range(config.stopword_tokens_per_sentence):
                    tokens.append(rng.choice(DEFAULT_STOPWORDS))
                rng.shuffle(tokens)
                sentences.append(" ".join(tokens))
    rng.shuffle(sentences)
    return sentences


small_worlds = st.sampled_from([("a",), ("a", "b"), ("a", "b", "c")]).flatmap(
    lambda classes: st.builds(
        WorldConfig,
        classes=st.just(classes),
        # at least the two nouns a world needs
        nouns_per_class=st.integers(2 if len(classes) == 1 else 1, 4),
        contexts_per_class=st.integers(1, 5),
        shared_contexts=st.integers(1, 5),
        class_context_share=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
        context_tokens_per_sentence=st.integers(0, 9),
        stopword_tokens_per_sentence=st.integers(0, 4),
        max_noun_frequency=st.integers(0, 6),
        rank_step=st.integers(1, 3),
        min_noun_frequency=st.integers(0, 3),
        verb_preferences=st.just({}),
        seed=st.integers(0, 2**32),
    )
)


@settings(max_examples=150, deadline=None)
@given(config=small_worlds)
def test_sentences_match_the_per_draw_oracle(config):
    world = build_world(config)
    assert generate_sentences(world) == oracle_sentences(world)


def test_default_world_sentences_match_the_oracle():
    world = build_world(WorldConfig(seed=11))
    assert generate_sentences(world) == oracle_sentences(world)


# One class and no verbs: a single noun per class makes too small a world.
ONE_CLASS = {"classes": ("person",), "verb_preferences": {}}


@pytest.mark.parametrize("field, value", [
    ("nouns_per_class", 0),
    ("contexts_per_class", 0),
    ("shared_contexts", 0),
    ("rank_step", 0),
    ("class_context_share", math.nan),
    ("class_context_share", math.inf),
    ("class_context_share", -0.01),
    ("class_context_share", 1.5),
    ("context_tokens_per_sentence", -1),
    ("stopword_tokens_per_sentence", -1),
    ("positives_per_verb", -1),
    ("classes", ()),
    ("classes", ("person", "person")),
    ("nouns_per_class", 1),
])
def test_world_config_rejects_a_bad_field(field, value):
    with pytest.raises(ValueError, match=field):
        replace(small_world_config(), **{**ONE_CLASS, field: value})


def test_world_config_rejects_a_preference_for_an_unknown_class():
    preferences = {"devour": (("person",), ("food",)), "fly": (("bird",), ("place",))}
    with pytest.raises(ValueError, match="verb_preferences.*'bird'.*'fly'"):
        WorldConfig(verb_preferences=preferences)


@pytest.mark.parametrize("changes", [
    {"class_context_share": 0.0},
    {"class_context_share": 1.0},
    {"context_tokens_per_sentence": 0, "stopword_tokens_per_sentence": 0},
    {"nouns_per_class": 1, "contexts_per_class": 1, "shared_contexts": 1, "rank_step": 1},
    {"positives_per_verb": 0},
    {"classes": ("person",), "nouns_per_class": 2, "verb_preferences": {}},
])
def test_world_config_accepts_the_edges(changes):
    assert build_world(replace(small_world_config(), **changes)).config.seed == 7
