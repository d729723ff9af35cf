"""The top-N sweep against a reference that decomposes every candidate on its own."""

from dataclasses import replace
from unittest import mock

import pytest

from verbtensor import pipeline
from verbtensor import vectors as vec_mod
from verbtensor.config import load_config


def choose_top_n_reference(config, weighted):
    """``_choose_top_n`` with one ``reduce_to_embeddings`` per candidate and no ranking shared."""

    def reduce(top_n):
        return vec_mod.reduce_to_embeddings(weighted, max(config.svd_dims), top_n,
                                            vec_mod.context_ranks(weighted))

    if config.top_n is not None:
        return config.top_n, [], reduce(config.top_n)
    if config.dev_pairs is None:
        return vec_mod.DEFAULT_TOP_N, [], reduce(vec_mod.DEFAULT_TOP_N)
    pairs = vec_mod.read_pairs_tsv(config.dev_pairs)
    trace = []
    best = None
    for candidate in config.top_n_sweep:
        emb = reduce(candidate)
        try:
            rho = vec_mod.spearman_similarity_eval(emb.leading(config.primary_k), pairs)
        except ValueError:
            continue
        trace.append({"top_n": candidate, "spearman": rho})
        if best is None or rho > best[1]:
            best = (candidate, rho, emb)
    if best is None:
        return vec_mod.DEFAULT_TOP_N, trace, reduce(vec_mod.DEFAULT_TOP_N)
    return best[0], trace, best[2]


@pytest.fixture(scope="module")
def sweep_inputs(small_fixture, tmp_path_factory):
    """The config and weighted table that build-vectors hands to ``_choose_top_n``."""
    config = load_config(small_fixture, out_override=tmp_path_factory.mktemp("out"))
    with mock.patch.object(pipeline, "_choose_top_n", wraps=pipeline._choose_top_n) as choose:
        pipeline.build_vectors(config)
    config, weighted = choose.call_args.args
    return config, weighted, int(weighted.weights.getnnz(axis=1).max())


def unusable_pairs(tmp_path):
    path = tmp_path / "ghost_pairs.tsv"
    path.write_text("ghost1\tghost2\t0.5\nghost3\tghost4\t0.25\n", encoding="utf-8")
    return path


# case -> (config changes from the table's longest row L and a scratch dir, top-N keys)
CASES = {
    "fixture-sweep": (lambda L, tmp: {}, lambda L: {min(20, L), min(60, L)}),
    "sweep-above-longest-row": (
        lambda L, tmp: {"top_n_sweep": (L + 1, 5, L - 1, L, 2 * L, 10 * L)},
        lambda L: {5, L - 1, L}),
    "configured-top-n": (lambda L, tmp: {"top_n": 3 * L}, lambda L: {L}),
    "no-dev-pairs": (lambda L, tmp: {"dev_pairs": None},
                     lambda L: {min(vec_mod.DEFAULT_TOP_N, L)}),
    "no-usable-pair": (lambda L, tmp: {"top_n_sweep": (3, L), "dev_pairs": unusable_pairs(tmp)},
                       lambda L: {3, min(vec_mod.DEFAULT_TOP_N, L)}),
}


@pytest.mark.parametrize("case", CASES)
def test_sweep_matches_per_candidate_reference(sweep_inputs, tmp_path, case):
    config, weighted, longest_row = sweep_inputs
    changes, keys = CASES[case]
    config = replace(config, **changes(longest_row, tmp_path))
    expected_n, expected_trace, expected = choose_top_n_reference(config, weighted)
    with mock.patch.object(vec_mod, "truncated_svd", wraps=vec_mod.truncated_svd) as svd:
        top_n, trace, reduced = pipeline._choose_top_n(config, weighted)
    assert (top_n, trace) == (expected_n, expected_trace)
    assert reduced.nouns.words == expected.nouns.words
    assert reduced.matrix.tobytes() == expected.matrix.tobytes()
    # one decomposition for each distinct min(N, longest row)
    assert svd.call_count == len(keys(longest_row))


def test_candidates_at_or_above_the_longest_row_score_alike(sweep_inputs):
    config, weighted, longest_row = sweep_inputs
    config = replace(config, top_n_sweep=(longest_row, 2 * longest_row))
    top_n, trace, _ = pipeline._choose_top_n(config, weighted)
    assert [entry["top_n"] for entry in trace] == [longest_row, 2 * longest_row]
    assert trace[0]["spearman"] == trace[1]["spearman"]
    assert top_n == longest_row  # a tie keeps the first candidate
