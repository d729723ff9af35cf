import random

import numpy as np
import pytest

from verbtensor.cli import main as cli_main
from verbtensor.corpus import Vocabulary
from verbtensor.data import (
    IMPLAUSIBLE,
    PLAUSIBLE,
    LabeledTriple,
    VerbDataset,
    stratified_halves,
)
from verbtensor.synthetic import small_world_config, write_fixture
from verbtensor.util import derive_seed
from verbtensor.vectors import EmbeddingTable


def planted_embeddings(k: int = 5, per_cluster: int = 30, noise: float = 0.35, seed: int = 0):
    """Embeddings for four noun clusters around +-e1 (subjects) and +-e2 (objects)."""
    if k < 2:
        raise ValueError("planted embeddings need k >= 2")
    rng = np.random.default_rng(derive_seed(seed, "planted-emb"))
    names = []
    rows = []
    centers = {
        "sp": np.eye(k)[0],
        "sn": -np.eye(k)[0],
        "op": np.eye(k)[1],
        "on": -np.eye(k)[1],
    }
    for prefix in ("sp", "sn", "op", "on"):
        for i in range(per_cluster):
            names.append(f"{prefix}{i:03d}")
            rows.append(centers[prefix] + noise * rng.standard_normal(k))
    matrix = np.asarray(rows)
    return EmbeddingTable(nouns=Vocabulary.from_words(names), matrix=matrix)


def planted_dataset(
    k: int = 5,
    n_triples: int = 200,
    noise: float = 0.35,
    seed: int = 0,
    verb: str = "vex",
):
    """Separable synthetic dataset plus matching embeddings.

    Positives pair a +subject-cluster noun with a +object-cluster noun;
    negatives flip exactly one of the two clusters, which makes the task
    bilinear-separable and solvable by both learners when noise is modest.
    """
    per_cluster = max(10, n_triples // 4)
    embeddings = planted_embeddings(k=k, per_cluster=per_cluster, noise=noise, seed=seed)
    rng = random.Random(derive_seed(seed, "planted-data"))
    sp = [w for w in embeddings.nouns.words if w.startswith("sp")]
    sn = [w for w in embeddings.nouns.words if w.startswith("sn")]
    op = [w for w in embeddings.nouns.words if w.startswith("op")]
    on = [w for w in embeddings.nouns.words if w.startswith("on")]
    n_pos = n_triples // 2
    n_neg = n_triples - n_pos
    triples = []
    for _ in range(n_pos):
        triples.append(LabeledTriple(rng.choice(sp), verb, rng.choice(op), PLAUSIBLE))
    for i in range(n_neg):
        if i % 2 == 0:
            triples.append(LabeledTriple(rng.choice(sn), verb, rng.choice(op), IMPLAUSIBLE))
        else:
            triples.append(LabeledTriple(rng.choice(sp), verb, rng.choice(on), IMPLAUSIBLE))
    dataset = VerbDataset(verb=verb, triples=triples)
    return dataset, embeddings


def is_plausible(triple) -> bool:
    return triple.label == PLAUSIBLE


def gold_dist(triple) -> tuple:
    """The one-hot target of a triple's label: (1, 0) if plausible, else (0, 1)."""
    return (1.0, 0.0) if is_plausible(triple) else (0.0, 1.0)


def dataset_positives(dataset) -> list:
    return [t for t in dataset.triples if is_plausible(t)]


def dataset_negatives(dataset) -> list:
    return [t for t in dataset.triples if not is_plausible(t)]


def rule_labelled_pairs(embeddings, world, verb: str):
    """Every (subject, object) pair of the table's nouns, labelled by the
    rule ``synthetic.build_world`` plants for ``verb``.

    A pair is plausible when the verb prefers its subject's class as a
    subject and its object's class as an object. Returns the (N, K) subject
    and object rows, subjects varying slowest, and the N labels.
    """
    subject_classes, object_classes = world.config.verb_preferences[verb]
    classes = [world.class_of[noun] for noun in embeddings.nouns.words]
    n = len(classes)
    labels = [PLAUSIBLE if s in subject_classes and o in object_classes else IMPLAUSIBLE
              for s in classes for o in classes]
    return np.repeat(embeddings.matrix, n, axis=0), np.tile(embeddings.matrix, (n, 1)), labels


def holdout_halves(dataset, seed: int):
    """The two ``stratified_halves`` of a dataset, drawn with ``random.Random(seed)``."""
    halves = stratified_halves(dataset.triples, random.Random(seed))
    return tuple(
        VerbDataset(dataset.verb, [dataset.triples[i] for i in half]) for half in halves
    )


@pytest.fixture(scope="session")
def planted():
    """Separable K=5 dataset with matching embeddings for learner tests."""
    dataset, embeddings = planted_dataset(k=5, n_triples=200, noise=0.35, seed=11)
    return dataset, embeddings


@pytest.fixture(scope="session")
def noisy_planted():
    """Harder planted dataset for learning-curve style checks."""
    dataset, embeddings = planted_dataset(k=5, n_triples=400, noise=0.9, seed=29)
    return dataset, embeddings


SMALL_FIXTURE_OVERRIDES = {
    "vectors.svd_dims": "6,10",
    "vectors.top_n": "",
    "vectors.top_n_sweep": "20,60",
    "training.epochs": 25,
    "experiment.curve_sizes": "8,16",
    "experiment.curve_repeats": 2,
    "experiment.small_cv_size": 20,
}


@pytest.fixture(scope="session")
def small_fixture(tmp_path_factory):
    """A miniature corpus-to-config fixture directory for pipeline tests."""
    directory = tmp_path_factory.mktemp("world")
    config_path = write_fixture(
        directory, small_world_config(seed=7), SMALL_FIXTURE_OVERRIDES
    )
    return config_path


@pytest.fixture(scope="session")
def built(small_fixture):
    """Config path with build-vectors and gen-data already run."""
    assert cli_main(["--config", str(small_fixture), "build-vectors"]) == 0
    assert cli_main(["--config", str(small_fixture), "gen-data"]) == 0
    return small_fixture
