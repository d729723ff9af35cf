"""Ground truth: the chain from corpus to model learns what the world plants.

Trained on a verb's full dataset, each method must rank every (subject,
object) pair of the embedded nouns by the synthetic world's rule. The byte
pins catch any change; this test tells a change that keeps learning from
one that breaks it.
"""

import pytest
from conftest import SMALL_FIXTURE_OVERRIDES, dataset_positives, rule_labelled_pairs

from verbtensor import baseline as kron
from verbtensor import tensor_model as tm
from verbtensor.cli import main as cli_main
from verbtensor.config import load_config
from verbtensor.data import read_dataset_jsonl
from verbtensor.evaluation import METHOD_BASELINE, METHOD_TENSOR, roc_auc
from verbtensor.synthetic import build_world, small_world_config, write_fixture
from verbtensor.vectors import read_embeddings_tsv


@pytest.fixture(scope="module", params=[7, 11, 13], ids=lambda seed: f"seed{seed}")
def built_world(request, tmp_path_factory):
    """The small world at one seed, its config, with build-vectors and gen-data run."""
    world_config = small_world_config(seed=request.param)
    config_path = write_fixture(tmp_path_factory.mktemp("ground-truth"), world_config,
                                SMALL_FIXTURE_OVERRIDES)
    for command in ("build-vectors", "gen-data"):
        assert cli_main(["--config", str(config_path), command]) == 0
    return build_world(world_config), load_config(config_path)


@pytest.mark.parametrize("method", [METHOD_TENSOR, METHOD_BASELINE])
def test_full_data_model_ranks_the_planted_rule(built_world, method):
    world, config = built_world
    aucs = {}
    for verb in config.verbs:
        dataset = read_dataset_jsonl(config.output_dir / "datasets" / f"{verb}.jsonl")
        for k in config.svd_dims:
            embeddings = read_embeddings_tsv(config.output_dir / "vectors" / f"embeddings_k{k}.tsv")
            subjects, objects_, labels = rule_labelled_pairs(embeddings, world, verb)
            if method == METHOD_TENSOR:
                model = tm.train(dataset.triples, embeddings, config.train).model
                _, scores = tm.predict_batch(model, subjects, objects_)
            else:
                model = kron.train_baseline(dataset_positives(dataset), embeddings)
                scores = kron.score(model, subjects, objects_)
            aucs[verb, k] = roc_auc(scores, labels)
    assert len(aucs) == 4
    assert min(aucs.values()) >= 0.999, aucs
