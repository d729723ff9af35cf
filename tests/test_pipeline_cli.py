import argparse
import concurrent.futures
import csv
import gc
import json
import logging
import os
import shutil
import statistics
import struct
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import dataset_negatives, dataset_positives

from verbtensor import corpus as corpus_mod
from verbtensor import data as data_mod
from verbtensor import pipeline
from verbtensor import vectors as vec_mod
from verbtensor.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, build_parser, main as cli_main
from verbtensor.config import load_config
from verbtensor.data import IMPLAUSIBLE, PLAUSIBLE, read_dataset_jsonl
from verbtensor.evaluation import METHOD_BASELINE, METHOD_TENSOR, f1_plausible
from verbtensor.linalg import TVB_MAGIC, write_tvb
from verbtensor.synthetic import build_world, small_world_config, write_fixture
from verbtensor.tensor_model import TrainConfig, TrainResult, VerbTensorModel
from verbtensor.util import DataError, ValidationError, derive_seed, sha256_file
from verbtensor.vectors import read_embeddings_tsv


def run_cli(*args):
    return cli_main([str(a) for a in args])


@pytest.fixture(scope="session")
def experimented(built):
    for which in ("full-cv", "small-cv", "curves"):
        assert run_cli("--config", built, "experiment", "--which", which) == 0
    return built


def tree_hashes(root):
    return {
        str(p.relative_to(root)): sha256_file(p)
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


# Run as ``python -c SCRIPT CONFIG OUT SUBJECT OBJECT``: each command in turn,
# then print, as one JSON object, the scipy modules loaded after each one
# ("scipy", a list of lists) and whether the process pool's module was
# ("pool", a list of booleans).
SCIPY_PER_COMMAND = """
import json, sys
from verbtensor.cli import main
config, out, subject, object_ = sys.argv[1:]
commands = [["gen-data"], ["experiment", "--which", "small-cv"],
            ["--jobs", "2", "experiment", "--which", "full-cv"],
            ["experiment", "--which", "curves"], ["train", "--verb", "devour"],
            ["predict", "--verb", "devour", "--subject", subject, "--object", object_],
            ["eval-vectors"], ["build-vectors"]]
loaded = {"scipy": [], "pool": []}
for command in commands:
    assert main(["--config", config, "--out", out, *command]) == 0, command
    loaded["scipy"].append(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    loaded["pool"].append("concurrent.futures.process" in sys.modules)
print(json.dumps(loaded))
"""


def assert_manifest_digests(config, entries):
    """Resolve each manifest key by the documented rule and check its digest.

    A key names a file relative to ``config.output_dir``, else relative to
    ``config.config_dir``; exactly one file must match, and a key for a file
    under either root must not be absolute.
    """
    roots = [config.output_dir.resolve(), config.config_dir.resolve()]
    for key, digest in entries.items():
        found = {(root / key).resolve() for root in roots if (root / key).is_file()}
        assert len(found) == 1, f"{key!r} resolves to {sorted(found)}"
        (path,) = found
        assert sha256_file(path) == digest, key
        if any(path.is_relative_to(root) for root in roots):
            assert not Path(key).is_absolute(), key


class TestConfigValidation:
    def test_missing_config_file(self, tmp_path):
        assert run_cli("--config", tmp_path / "nope.ini", "build-vectors") == 1

    def test_missing_stopwords_fails_before_work(self, small_fixture, tmp_path):
        fixture_dir = Path(small_fixture).parent
        broken_dir = tmp_path / "broken"
        shutil.copytree(fixture_dir, broken_dir, ignore=shutil.ignore_patterns("out"))
        (broken_dir / "stopwords.txt").unlink()
        out = tmp_path / "out"
        rc = run_cli("--config", broken_dir / "config.ini", "--out", out, "build-vectors")
        assert rc == 1
        assert not out.exists() or not any(out.rglob("*.tsv"))

    def test_config_requires_verbs(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[paths]\ncorpus = c\nstopwords = s\ntriples = t\noutput_dir = o\n")
        with pytest.raises(ValidationError, match="verbs"):
            load_config(path)

    def test_defaults_are_golden(self, tmp_path):
        """A config holding only [paths] and the verbs takes every default, with its type."""
        path = tmp_path / "minimal.ini"
        path.write_text("[paths]\ncorpus = c.txt\nstopwords = s.txt\ntriples = t.tsv\n"
                        "output_dir = out\n\n[experiment]\nverbs = devour\n")
        config = load_config(path)
        pipeline_defaults = {
            "config_dir": tmp_path, "corpus": tmp_path / "c.txt",
            "stopwords": tmp_path / "s.txt", "triples": tmp_path / "t.tsv",
            "dev_pairs": None, "output_dir": tmp_path / "out",
            "context_vocab_size": 10000, "top_n": None,
            "top_n_sweep": (25, 50, 100, 200, 400), "svd_dims": (20, 40),
            "positive_cap": 2000, "bucket_size": 10, "cv_seed": 17, "data_seed": 23,
            "curve_sizes": (10, 50, 100, 200), "curve_repeats": 5, "small_cv_size": 52,
            "verbs": ("devour",),
        }
        train_defaults = {
            "learning_rate": 0.05, "adagrad_epsilon": 1e-8, "l2_lambda": 1e-4,
            "epochs": 100, "init_scale": 0.01, "seed": 13,
        }
        for obj, expected, skip in ((config, pipeline_defaults, {"train"}),
                                    (config.train, train_defaults, set())):
            names = [f.name for f in fields(obj) if f.name not in skip]
            assert names == list(expected)
            assert {n: (getattr(obj, n), type(getattr(obj, n))) for n in names} \
                == {n: (value, type(value)) for n, value in expected.items()}

    def test_bad_values_rejected(self, small_fixture, tmp_path):
        text = Path(small_fixture).read_text()
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace("epochs = 25", "epochs = 0"))
        with pytest.raises(ValidationError, match="training"):
            load_config(bad)

    @pytest.mark.parametrize(
        "old, new, message",
        [("corpus = corpus.txt\n", "", "config is missing [paths] corpus"),
         ("epochs = 25", "epochs = two", "bad value for [training] epochs: 'two'")],
        ids=["missing-paths-key", "badly-typed-value"],
    )
    def test_malformed_config_fails_validation(self, small_fixture, tmp_path, caplog,
                                               old, new, message):
        text = Path(small_fixture).read_text()
        assert old in text
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace(old, new))
        with pytest.raises(ValidationError) as raised:
            load_config(bad)
        assert str(raised.value) == message
        assert run_cli("--config", bad, "build-vectors") == EXIT_VALIDATION
        assert_clean_failure(caplog, message)

    def test_relative_config_and_out_paths(self, small_fixture, tmp_path, monkeypatch):
        """Paths in the config follow the config file; --out follows the working directory."""
        shutil.copytree(Path(small_fixture).parent, tmp_path / "sub",
                        ignore=shutil.ignore_patterns("out"))
        monkeypatch.chdir(tmp_path)
        config = load_config("sub/config.ini")
        assert config.output_dir.resolve() == (tmp_path / "sub" / "out").resolve()
        assert load_config("sub/config.ini", out_override="res").output_dir == Path("res")
        assert run_cli("--config", "sub/config.ini", "build-vectors") == 0
        assert run_cli("--config", "sub/config.ini", "--out", "res", "build-vectors") == 0
        assert not (tmp_path / "sub" / "sub").exists()
        assert not (tmp_path / "sub" / "res").exists()
        assert (tmp_path / "res" / "vectors" / "manifest.json").is_file()
        assert tree_hashes(tmp_path / "sub" / "out") == tree_hashes(tmp_path / "res")

    def test_seed_override_rebases_all_seeds(self, small_fixture):
        base = load_config(small_fixture)
        rebased = load_config(small_fixture, seed_override=99)
        assert rebased.train.seed == 99
        assert rebased.cv_seed != base.cv_seed
        assert rebased.data_seed != base.data_seed

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("epochs = 25", "epoch = 5", r"\[training\] epoch$"),
            ("curve_repeats = 2", "curve_repeat = 2", r"\[experiment\] curve_repeat$"),
            ("curve_repeats = 2", "curve_repeats = 2\ncurve_verbs = devour",
             r"\[experiment\] curve_verbs$"),
            ("[training]", "[trainig]", r"section \[trainig\]"),
            ("epochs = 25", "epochs = 25\nupdate_mode = batch", r"\[training\] update_mode$"),
            ("epochs = 25", "epochs = 25\nregularize_theta = true",
             r"\[training\] regularize_theta$"),
            ("svd_dims = 6,10", "svd_dims = 6,10\nscale_by_singular_values = true",
             r"\[vectors\] scale_by_singular_values$"),
        ],
        ids=["typo-key", "misspelled-key", "leftover-curve-verbs", "unknown-section",
             "leftover-update-mode", "leftover-regularize-theta",
             "leftover-scale-by-singular-values"],
    )
    def test_unknown_key_or_section_rejected(self, small_fixture, tmp_path, old, new, message):
        text = Path(small_fixture).read_text()
        assert old in text
        bad = tmp_path / "unknown.ini"
        bad.write_text(text.replace(old, new))
        with pytest.raises(ValidationError, match=message):
            load_config(bad)
        assert run_cli("--config", bad, "build-vectors") == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "old, new, command",
        [
            ("curve_repeats = 2", "curve_repeats = 0", ("experiment", "--which", "curves")),
            ("curve_sizes = 8,16", "curve_sizes = 1", ("experiment", "--which", "curves")),
            ("curve_sizes = 8,16", "curve_sizes = ,", ("experiment", "--which", "curves")),
            ("top_n_sweep = 20,60", "top_n_sweep = 0, 5", ("build-vectors",)),
            ("top_n_sweep = 20,60", "top_n_sweep = ,", ("build-vectors",)),
            ("init_scale = 0.01", "init_scale = inf", ("train", "--verb", "devour")),
            ("init_scale = 0.01", "init_scale = 1e308", ("train", "--verb", "devour")),
            ("learning_rate = 0.05", "learning_rate = nan", ("train", "--verb", "devour")),
            ("adagrad_epsilon = 1e-08", "adagrad_epsilon = nan",
             ("experiment", "--which", "small-cv")),
            ("l2_lambda = 0.0001", "l2_lambda = nan", ("train", "--verb", "devour")),
            ("verbs = assemble, devour", "verbs = devour, devour", ("gen-data",)),
            ("verbs = assemble, devour\n", "\n[verbs]\nassemble = 3.1\ndevour = 4.4\n",
             ("gen-data",)),
            ("svd_dims = 6,10", "svd_dims = 6,6", ("experiment", "--which", "small-cv")),
            ("curve_sizes = 8,16", "curve_sizes = 8,8", ("experiment", "--which", "curves")),
            ("top_n_sweep = 20,60", "top_n_sweep = 20,20", ("build-vectors",)),
            ("positive_cap = 2000", "positive_cap = 0", ("gen-data",)),
            ("bucket_size = 10", "bucket_size = 0", ("gen-data",)),
            ("context_vocab_size = 10000", "context_vocab_size = 0", ("build-vectors",)),
            ("top_n = \n", "top_n = 0\n", ("build-vectors",)),
            ("small_cv_size = 20", "small_cv_size = 3", ("experiment", "--which", "small-cv")),
            ("svd_dims = 6,10", "svd_dims = 0,20", ("build-vectors",)),
            ("svd_dims = 6,10", "svd_dims = 6,100000", ("build-vectors",)),
        ],
        ids=["curve-repeats-0", "curve-size-1", "no-curve-sizes", "top-n-sweep-0",
             "no-top-n-sweep", "init-scale-inf", "init-scale-overflow", "learning-rate-nan", "adagrad-epsilon-nan",
             "l2-lambda-nan", "repeated-verbs", "old-verbs-section", "repeated-svd-dims",
             "repeated-curve-sizes", "repeated-top-n-sweep", "positive-cap-0", "bucket-size-0",
             "context-vocab-size-0", "top-n-0", "small-cv-size-3", "svd-dims-0",
             "svd-dim-beyond-table"],
    )
    def test_out_of_range_value_fails_before_work(self, built, tmp_path, caplog,
                                                  old, new, command):
        config = load_config(built)
        inputs = copy_fixture(built, tmp_path)
        text = (inputs / "config.ini").read_text()
        assert old in text
        (inputs / "config.ini").write_text(text.replace(old, new))
        out = tmp_path / "out"
        for name in ("vectors", "datasets"):
            shutil.copytree(config.output_dir / name, out / name)
        before = tree_hashes(out)
        assert run_cli("--config", inputs / "config.ini", "--out", out, *command) \
            == EXIT_VALIDATION
        assert tree_hashes(out) == before
        assert not any(record.exc_info for record in caplog.records)

    @pytest.mark.parametrize("verb", ["de/vour", "de\\vour", ".", ".."],
                             ids=["slash", "backslash", "dot", "dot-dot"])
    def test_verb_that_cannot_be_a_file_name_fails_before_work(self, built, tmp_path, caplog,
                                                               verb):
        config = load_config(built)
        inputs = copy_fixture(built, tmp_path)
        text = (inputs / "config.ini").read_text()
        assert "verbs = assemble, devour" in text
        (inputs / "config.ini").write_text(
            text.replace("verbs = assemble, devour", f"verbs = assemble, {verb}"))
        subject, _, obj, count = (inputs / "triples.tsv").read_text().splitlines()[0].split("\t")
        with open(inputs / "triples.tsv", "a", encoding="utf-8") as handle:
            handle.write(f"{subject}\t{verb}\t{obj}\t{count}\n")
        out = tmp_path / "out"
        shutil.copytree(config.output_dir / "vectors", out / "vectors")
        before = tree_hashes(out)
        assert run_cli("--config", inputs / "config.ini", "--out", out, "gen-data") \
            == EXIT_VALIDATION
        assert tree_hashes(out) == before
        assert_clean_failure(caplog, f"{verb!r} cannot be a file name")

    @pytest.mark.parametrize("content", [b"corpus = c.txt\n", b"[paths]\ncorpus = \xff\n"],
                             ids=["no-section-header", "not-utf8"])
    def test_unreadable_config_fails_validation(self, tmp_path, caplog, content):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(content)
        with pytest.raises(ValidationError, match="unreadable config"):
            load_config(bad)
        assert run_cli("--config", bad, "build-vectors") == EXIT_VALIDATION
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize(
        "args, code",
        [
            (("train", "--verb", "devour", "--k", "abc"), EXIT_VALIDATION),
            (("frobnicate",), EXIT_VALIDATION),
            (("train",), EXIT_VALIDATION),
            (("--jobs", "two", "experiment", "--which", "full-cv"), EXIT_VALIDATION),
            (("--help",), EXIT_OK),
            (("experiment", "--which", "nope"), EXIT_VALIDATION),
            (("predict", "--verb", "devour", "--object", "b"), EXIT_VALIDATION),
            (("gen-data", "--bogus"), EXIT_VALIDATION),
        ],
        ids=["non-int-k", "unknown-command", "missing-verb", "non-int-jobs", "help",
             "unknown-which", "missing-subject", "unknown-flag"],
    )
    def test_command_line_usage_exit_codes(self, small_fixture, caplog, capsys, args, code):
        """argparse's usage errors exit 1, like every other validation failure."""
        assert run_cli("--config", small_fixture, *args) == code
        printed = capsys.readouterr()
        assert "usage: verbtensor" in printed.out + printed.err
        assert "Traceback" not in caplog.text + printed.err


# command -> (its help line in the top-level help, the flags its own help names)
COMMAND_HELP = {
    "build-vectors": ("scan the corpus and write noun embeddings", ()),
    "gen-data": ("build per-verb datasets with confounder negatives", ()),
    "experiment": ("run an evaluation protocol", ("--which",)),
    "train": ("train and save one verb's tensor model", ("--verb", "--k")),
    "predict": ("classify one subject-verb-object triple",
                ("--verb", "--subject", "--object", "--k")),
    "eval-vectors": ("Spearman check of embeddings on word pairs", ("--pairs", "--k")),
}


class TestCommandLineParsers:
    @pytest.fixture
    def count_parsers(self, monkeypatch):
        """A list that gains one entry per ``ArgumentParser`` constructed."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        return built

    def test_a_call_builds_only_the_chosen_commands_parser(self, built, count_parsers):
        """predict builds the top-level parser and its own; -h and a bad command, one."""
        assert run_cli("--config", built, "predict", "--verb", "devour",
                       "--subject", "a", "--object", "b") == EXIT_VALIDATION
        assert count_parsers == ["verbtensor", "verbtensor predict"]
        count_parsers.clear()
        assert run_cli("-h") == EXIT_OK
        assert count_parsers == ["verbtensor"]
        count_parsers.clear()
        assert run_cli("--config", built, "frobnicate") == EXIT_VALIDATION
        assert count_parsers == ["verbtensor"]

    def test_help_lists_every_command_and_flag(self, built, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_cli("-h") == EXIT_OK
        top = " ".join(capsys.readouterr().out.split())
        for command, (help_line, flags) in COMMAND_HELP.items():
            assert f"{command} {help_line}" in top
            assert run_cli("--config", built, command, "-h") == EXIT_OK
            printed = capsys.readouterr().out
            assert printed.startswith(f"usage: verbtensor {command} [-h]")
            for flag in flags:
                assert flag in printed, (command, flag)

    def test_abbreviated_flags_still_parse(self):
        args = build_parser().parse_args(
            ["--config", "c.ini", "predict", "--verb", "devour", "--subj", "a", "--obj", "b"])
        assert (args.command, args.subject, args.object_) == ("predict", "a", "b")

    def test_fresh_process_help(self, small_fixture):
        """One ``main`` per interpreter, as ``python -m verbtensor`` runs it."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(pipeline.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        for args in (["--help"], ["--config", str(small_fixture), "predict", "-h"]):
            proc = subprocess.run([sys.executable, "-m", "verbtensor", *args],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.startswith("usage: verbtensor"), proc.stdout


class TestCollectorPause:
    """``main`` runs a command with the cyclic collector off and hands back the caller's state."""

    @pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
    def caller_state(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize(
        "outcome, args, code",
        [
            (None, ("gen-data",), EXIT_OK),
            (None, ("frobnicate",), EXIT_VALIDATION),
            (ValidationError("bad value"), ("gen-data",), EXIT_VALIDATION),
            (DataError("bad row"), ("gen-data",), EXIT_RUNTIME),
            (RuntimeError("bug"), ("gen-data",), EXIT_RUNTIME),
        ],
        ids=["ok", "usage-error", "validation-error", "data-error", "unexpected-error"],
    )
    def test_caller_state_restored(self, small_fixture, monkeypatch, capsys, caller_state,
                                   outcome, args, code):
        seen = []

        def command(config):
            seen.append(gc.isenabled())
            if outcome is not None:
                raise outcome
            return {}

        monkeypatch.setattr(pipeline, "gen_data", command)
        assert run_cli("--config", small_fixture, *args) == code
        assert gc.isenabled() is caller_state
        assert seen == ([] if args == ("frobnicate",) else [False])

    def test_garbage_left_does_not_grow_with_the_world(self, small_fixture, tmp_path):
        """What a paused call leaves for the collector is fixed, not per row or per fold."""
        from conftest import SMALL_FIXTURE_OVERRIDES

        bigger = write_fixture(
            tmp_path / "bigger", replace(small_world_config(seed=7), positives_per_verb=240),
            {**SMALL_FIXTURE_OVERRIDES, "experiment.small_cv_size": 80})
        commands = (("gen-data",), ("experiment", "--which", "small-cv"))

        def garbage_per_command(config_path, out):
            assert run_cli("--config", config_path, "--out", out, "build-vectors") == EXIT_OK
            left = []
            for command in commands:
                gc.collect()
                gc.disable()
                try:
                    assert run_cli("--config", config_path, "--out", out, *command) == EXIT_OK
                    left.append(gc.collect())
                finally:
                    gc.enable()
            return left

        garbage_per_command(small_fixture, tmp_path / "warm-up")  # first-call imports
        small = garbage_per_command(small_fixture, tmp_path / "small")
        large = garbage_per_command(bigger, tmp_path / "large")
        assert all(count > 0 for count in small)
        assert all(a >= b for a, b in zip(small, large)), (small, large)


class TestBuildVectors:
    def test_outputs_exist_with_configured_dims(self, built):
        config = load_config(built)
        out = config.output_dir / "vectors"
        for k in config.svd_dims:
            assert (out / f"embeddings_k{k}.tsv").is_file()
            assert (out / f"embeddings_k{k}.tvb").is_file()
        assert (out / "frequencies.tsv").is_file()

    def test_manifest_checksums_match_inputs(self, built):
        config = load_config(built)
        manifest = json.loads((config.output_dir / "vectors" / "manifest.json").read_text())
        assert manifest["command"] == "build-vectors"
        assert set(manifest["inputs"]) == {
            "corpus.txt", "stopwords.txt", "triples.tsv", "dev_pairs.tsv"
        }
        assert set(manifest["outputs"]) == {"vectors/frequencies.tsv"} | {
            f"vectors/embeddings_k{k}.{ext}" for k in config.svd_dims for ext in ("tsv", "tvb")
        }
        assert_manifest_digests(config, manifest["inputs"])
        assert_manifest_digests(config, manifest["outputs"])
        assert manifest["parameters"]["top_n"] >= 1

    def test_input_outside_both_roots_is_keyed_by_its_absolute_path(self, small_fixture,
                                                                    tmp_path):
        inputs, out = copy_fixture(small_fixture, tmp_path), tmp_path / "out"
        elsewhere = tmp_path / "elsewhere" / "dev_pairs.tsv"
        elsewhere.parent.mkdir()
        (inputs / "dev_pairs.tsv").rename(elsewhere)
        text = (inputs / "config.ini").read_text()
        assert "dev_pairs = dev_pairs.tsv\n" in text
        (inputs / "config.ini").write_text(
            text.replace("dev_pairs = dev_pairs.tsv\n", f"dev_pairs = {elsewhere}\n"))
        assert run_cli("--config", inputs / "config.ini", "--out", out, "build-vectors") == 0
        manifest = json.loads((out / "vectors" / "manifest.json").read_text())
        key = elsewhere.resolve().as_posix()
        assert Path(key).is_absolute()
        assert set(manifest["inputs"]) == {"corpus.txt", "stopwords.txt", "triples.tsv", key}
        assert_manifest_digests(load_config(inputs / "config.ini", out_override=out),
                                manifest["inputs"])

    def test_noun_without_cooccurrences_is_dropped(self, small_fixture, tmp_path, caplog):
        """A triple's noun that the corpus never holds gets no embedding row."""
        inputs, out = copy_fixture(small_fixture, tmp_path), tmp_path / "out"
        with open(inputs / "triples.tsv", "a", encoding="utf-8") as handle:
            handle.write("ghost01\tdevour\tfood01\t5\n")
        args = ("--config", inputs / "config.ini", "--out", out, "--log-level", "INFO")
        assert run_cli(*args, "build-vectors") == EXIT_OK
        assert "dropped 1 nouns with no informative co-occurrences" in caplog.text
        manifest = json.loads((out / "vectors" / "manifest.json").read_text())
        assert manifest["parameters"]["dropped_nouns"] == ["ghost01"]
        for k in load_config(small_fixture).svd_dims:
            assert "ghost01" not in read_embeddings_tsv(out / "vectors" / f"embeddings_k{k}.tsv")
        assert run_cli(*args, "gen-data") == EXIT_OK
        manifest = json.loads((out / "datasets" / "manifest.json").read_text())
        assert manifest["parameters"]["oov_dropped"]["devour"] == 1

    def test_no_dev_pairs_takes_the_default_top_n(self, small_fixture, tmp_path):
        inputs, out = copy_fixture(small_fixture, tmp_path), tmp_path / "out"
        text = (inputs / "config.ini").read_text()
        assert "dev_pairs = dev_pairs.tsv\n" in text
        (inputs / "config.ini").write_text(text.replace("dev_pairs = dev_pairs.tsv\n", ""))
        assert run_cli("--config", inputs / "config.ini", "--out", out, "build-vectors") == 0
        manifest = json.loads((out / "vectors" / "manifest.json").read_text())
        assert {key: manifest["parameters"][key] for key in
                ("top_n", "top_n_source", "top_n_sweep")} \
            == {"top_n": 200, "top_n_source": "default", "top_n_sweep": []}
        assert "dev_pairs.tsv" not in manifest["inputs"]

    def test_rerun_is_byte_identical(self, small_fixture, tmp_path):
        out = tmp_path / "vec_repro"
        assert run_cli("--config", small_fixture, "--out", out, "build-vectors") == 0
        first = tree_hashes(out)
        assert run_cli("--config", small_fixture, "--out", out, "build-vectors") == 0
        assert tree_hashes(out) == first

    def test_embedding_dim_matches(self, built):
        config = load_config(built)
        from verbtensor.vectors import read_embeddings_tsv

        emb = read_embeddings_tsv(config.output_dir / "vectors" / f"embeddings_k{config.primary_k}.tsv")
        assert emb.dim == config.primary_k

    def test_smaller_dims_are_leading_columns(self, built):
        """Every embedding file comes from one decomposition of the chosen table."""
        config = load_config(built)
        small, large = sorted(config.svd_dims)
        low = read_embeddings_tsv(config.output_dir / "vectors" / f"embeddings_k{small}.tsv")
        high = read_embeddings_tsv(config.output_dir / "vectors" / f"embeddings_k{large}.tsv")
        assert low.nouns.words == high.nouns.words
        np.testing.assert_array_equal(low.matrix, high.matrix[:, :small])

    def test_svd_dim_out_of_range_fails_before_any_svd(self, small_fixture, tmp_path,
                                                        monkeypatch):
        import verbtensor.vectors as vec_mod

        calls = []
        monkeypatch.setattr(vec_mod, "truncated_svd", lambda *args: calls.append(args))
        fixture_dir = tmp_path / "world"
        shutil.copytree(Path(small_fixture).parent, fixture_dir,
                        ignore=shutil.ignore_patterns("out"))
        config_path = fixture_dir / "config.ini"
        text = config_path.read_text()
        assert "svd_dims = 6,10" in text
        config_path.write_text(text.replace("svd_dims = 6,10", "svd_dims = 6,100000"))
        assert run_cli("--config", config_path, "build-vectors") == EXIT_VALIDATION
        assert calls == []
        assert not list(fixture_dir.rglob("embeddings_*"))


class TestGenData:
    def test_dataset_digests(self, built, tmp_path):
        """The small world's datasets, byte for byte.

        They depend only on integer counts and seeds, so only a deliberate
        change to the data (its rows, its draws or its format) moves these.
        """
        out = tmp_path / "out"
        shutil.copytree(load_config(built).output_dir / "vectors", out / "vectors")
        assert run_cli("--config", built, "--out", out, "gen-data") == EXIT_OK
        assert {verb: sha256_file(out / "datasets" / f"{verb}.jsonl")
                for verb in ("assemble", "devour")} == {
            "assemble": "ad5748d0fae8b8f2e08662738fc9a06e525d6b24222e8c86cedb779335abc05b",
            "devour": "c98cad1383f1d5ac2e909dcb20245bff72968adf1e7f2bf8fc3c036a85ec6a7d",
        }

    def test_confounder_options_built_once_per_noun(self, built, tmp_path, monkeypatch):
        """The verbs share one options map: each drawn noun's options are built once."""
        built_for = []
        options = data_mod._confounder_options
        monkeypatch.setattr(data_mod, "_confounder_options",
                            lambda noun, *args: built_for.append(noun) or options(noun, *args))
        out = tmp_path / "out"
        shutil.copytree(load_config(built).output_dir / "vectors", out / "vectors")
        assert run_cli("--config", built, "--out", out, "gen-data") == EXIT_OK
        drawn = set()
        for verb in ("assemble", "devour"):
            dataset = read_dataset_jsonl(out / "datasets" / f"{verb}.jsonl")
            drawn.update(noun for t in dataset_positives(dataset) for noun in (t.subject, t.object))
        assert sorted(built_for) == sorted(drawn)

    def test_datasets_balanced(self, built):
        config = load_config(built)
        for verb in config.verbs:
            dataset = read_dataset_jsonl(config.output_dir / "datasets" / f"{verb}.jsonl")
            assert len(dataset_positives(dataset)) == len(dataset_negatives(dataset))

    def test_cap_respected(self, built):
        config = load_config(built)
        for verb in config.verbs:
            dataset = read_dataset_jsonl(config.output_dir / "datasets" / f"{verb}.jsonl")
            assert len(dataset_positives(dataset)) <= config.positive_cap

    def test_confounders_from_buckets(self, built):
        config = load_config(built)
        embeddings = read_embeddings_tsv(
            config.output_dir / "vectors" / f"embeddings_k{config.primary_k}.tsv")
        buckets = corpus_mod.frequency_buckets(
            corpus_mod.read_frequency_tsv(config.output_dir / "vectors" / "frequencies.tsv"),
            embeddings.nouns.words, config.bucket_size)
        for verb in config.verbs:
            dataset = read_dataset_jsonl(config.output_dir / "datasets" / f"{verb}.jsonl")
            positives = dataset_positives(dataset)
            negatives = dataset_negatives(dataset)
            for p, n in zip(positives, negatives):
                assert n.subject != p.subject
                assert n.object != p.object
                assert abs(buckets.bucket_of[n.subject] - buckets.bucket_of[p.subject]) <= 1
                assert abs(buckets.bucket_of[n.object] - buckets.bucket_of[p.object]) <= 1

    def test_seed_changes_confounders_not_positives(self, small_fixture, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out, seed in ((out_a, 1), (out_b, 2)):
            assert run_cli("--config", small_fixture, "--out", out, "build-vectors") == 0
            assert run_cli(
                "--config", small_fixture, "--out", out, "--seed", seed, "gen-data"
            ) == 0
        config = load_config(small_fixture)
        verb = sorted(config.verbs)[0]
        data_a = read_dataset_jsonl(out_a / "datasets" / f"{verb}.jsonl")
        data_b = read_dataset_jsonl(out_b / "datasets" / f"{verb}.jsonl")
        assert dataset_positives(data_a) == dataset_positives(data_b)
        assert dataset_negatives(data_a) != dataset_negatives(data_b)

    def test_unknown_verb_skipped_but_others_proceed(self, small_fixture, tmp_path):
        fixture_dir = Path(small_fixture).parent
        patched_dir = tmp_path / "extra_verb"
        shutil.copytree(fixture_dir, patched_dir, ignore=shutil.ignore_patterns("out"))
        config_path = patched_dir / "config.ini"
        text = config_path.read_text()
        assert "verbs = assemble, devour\n" in text
        config_path.write_text(text.replace("verbs = assemble, devour\n",
                                            "verbs = assemble, devour, unheard\n"))
        out = tmp_path / "out"
        assert run_cli("--config", config_path, "--out", out, "build-vectors") == 0
        assert run_cli("--config", config_path, "--out", out, "gen-data") == 0
        manifest = json.loads((out / "datasets" / "manifest.json").read_text())
        assert "unheard" in manifest["parameters"]["verbs_skipped"]
        message = manifest["parameters"]["verbs_skipped"]["unheard"]
        assert str(tmp_path) not in message
        assert "triples.tsv" in message
        assert len(manifest["parameters"]["verbs_written"]) == 2

    def test_reads_triples_once_and_records_oov_drops(self, built, tmp_path, monkeypatch):
        config = load_config(built)
        inputs = copy_fixture(built, tmp_path)
        subject, verb, obj, _ = (inputs / "triples.tsv").read_text().splitlines()[0].split("\t")
        with open(inputs / "triples.tsv", "a", encoding="utf-8") as handle:
            handle.write(f"unembedded\t{verb}\t{obj}\t1\n{subject}\t{verb}\tunembedded\t1\n")
        out = tmp_path / "out"
        shutil.copytree(config.output_dir / "vectors", out / "vectors")
        calls = []
        read = data_mod.read_triples_tsv
        monkeypatch.setattr(data_mod, "read_triples_tsv",
                            lambda path: calls.append(path) or read(path))
        assert run_cli("--config", inputs / "config.ini", "--out", out, "gen-data") == 0
        assert calls == [inputs / "triples.tsv"]
        parameters = json.loads((out / "datasets" / "manifest.json").read_text())["parameters"]
        assert len(parameters["verbs_written"]) == 2
        assert parameters["oov_dropped"] == {v: 2 if v == verb else 0 for v in config.verbs}
        for name in parameters["verbs_written"]:
            assert (out / "datasets" / f"{name}.jsonl").read_bytes() \
                == (config.output_dir / "datasets" / f"{name}.jsonl").read_bytes()

    def test_skipped_verb_leaves_no_old_dataset(self, built, tmp_path):
        """A verb that yields no dataset on a rerun loses its old one, so no command reads it.

        A call in which every verb fails writes nothing and removes nothing.
        """
        inputs, out = copy_fixture(built, tmp_path), tmp_path / "out"
        shutil.copytree(load_config(built).output_dir / "vectors", out / "vectors")
        args = ("--config", inputs / "config.ini", "--out", out)
        assert run_cli(*args, "gen-data") == EXIT_OK
        drop_triples_of(inputs, "assemble")
        assert run_cli(*args, "gen-data") == EXIT_OK
        assert sorted(p.name for p in (out / "datasets").iterdir()) \
            == ["devour.jsonl", "manifest.json"]
        manifest = json.loads((out / "datasets" / "manifest.json").read_text())
        assert list(manifest["parameters"]["verbs_skipped"]) == ["assemble"]
        assert run_cli(*args, "experiment", "--which", "small-cv") == EXIT_OK
        manifest = json.loads((out / "reports" / "manifest_experiment-small-cv.json").read_text())
        assert manifest["parameters"]["verbs"] == ["devour"]

        (inputs / "triples.tsv").write_text("person01\tunheard\tfood01\t1\n")
        before = tree_hashes(out)
        assert run_cli(*args, "gen-data") == EXIT_RUNTIME
        assert tree_hashes(out) == before

    def test_unremovable_old_dataset_fails_validation(self, built, tmp_path, caplog, capsys):
        """A skipped verb's dataset that cannot be removed fails cleanly, naming it."""
        inputs, out = copy_fixture(built, tmp_path), tmp_path / "out"
        shutil.copytree(load_config(built).output_dir / "vectors", out / "vectors")
        blocker = out / "datasets" / "assemble.jsonl"
        blocker.mkdir(parents=True)
        drop_triples_of(inputs, "assemble")
        assert run_cli("--config", inputs / "config.ini", "--out", out, "gen-data") \
            == EXIT_VALIDATION
        assert_clean_failure(caplog, f"cannot remove {blocker}")
        assert "Traceback" not in capsys.readouterr().err

    def test_mixed_case_verb_keeps_its_case(self, tmp_path):
        """A verb spelt ``Devour`` in triples.tsv and the config gets a dataset and a model."""
        from conftest import SMALL_FIXTURE_OVERRIDES

        world = replace(small_world_config(),
                        verb_preferences={"Devour": (("person", "creature"), ("food",))})
        config_path = write_fixture(tmp_path / "world", world, SMALL_FIXTURE_OVERRIDES)
        for command in (("build-vectors",), ("gen-data",), ("train", "--verb", "Devour")):
            assert run_cli("--config", config_path, *command) == EXIT_OK, command
        out = config_path.parent / "out"
        assert read_dataset_jsonl(out / "datasets" / "Devour.jsonl").verb == "Devour"
        assert (out / "models" / "Devour_k6.tvbm").is_file()

    def test_log_level_holds_for_each_call(self, built, tmp_path, caplog):
        """A second call in one process logs at its own ``--log-level``."""
        out = tmp_path / "out"
        shutil.copytree(load_config(built).output_dir / "vectors", out / "vectors")
        counted = []
        for level in ("INFO", "WARNING"):
            assert run_cli("--config", built, "--out", out, "--log-level", level,
                           "gen-data") == EXIT_OK
            counted.append(sum("positives" in r.getMessage() for r in caplog.records))
            caplog.clear()
        assert counted[0] > 0 and counted[1] == 0

    def test_gen_data_requires_vectors(self, small_fixture, tmp_path):
        assert run_cli(
            "--config", small_fixture, "--out", tmp_path / "fresh", "gen-data"
        ) == 1

    def test_gen_data_requires_frequencies(self, built, tmp_path, caplog):
        out = tmp_path / "out"
        shutil.copytree(load_config(built).output_dir / "vectors", out / "vectors")
        frequencies = out / "vectors" / "frequencies.tsv"
        frequencies.unlink()
        assert run_cli("--config", built, "--out", out, "gen-data") == EXIT_VALIDATION
        assert_clean_failure(caplog, f"missing {frequencies} (run build-vectors)")
        assert not (out / "datasets").exists()


class TestExperimentReports:
    def test_full_cv_csv_schema(self, experimented):
        config = load_config(experimented)
        path = config.output_dir / "reports" / "full_cv.csv"
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        rows = list(csv.DictReader(lines[1:]))
        expected_cols = ["verb", "method", "k", "metric", "mean", "sd"] + [
            f"r{rep}f{fold}" for rep in range(1, 6) for fold in (1, 2)
        ]
        assert list(rows[0].keys()) == expected_cols
        # 2 verbs x 2 methods x 2 dims x 2 metrics
        assert len(rows) == 16
        for row in rows:
            assert 0.0 <= float(row["mean"]) <= 1.0

    def test_full_cv_against_the_worlds_answer_key(self, experimented):
        """The planted rule labels every triple; the reports sit near what it allows.

        The rule calls a triple plausible when the verb prefers its subject's
        and its object's classes. On the fixture world (seed 7) its mean F1
        over full-cv's test halves is 0.968 (assemble) and 0.976 (devour);
        the tensor's mean fold F1 is 0.882-0.953 and the baseline's mean AUC
        0.967-0.985. A tensor gradient of the wrong sign gives F1 0.27-0.33.
        """
        config = load_config(experimented)
        world = build_world(small_world_config(seed=7))
        lines = (config.output_dir / "reports" / "full_cv.csv").read_text().splitlines()[1:]
        means = {(row["verb"], row["method"], int(row["k"]), row["metric"]): float(row["mean"])
                 for row in csv.DictReader(lines)}
        for verb in sorted(config.verbs):
            subjects, objects_ = world.config.verb_preferences[verb]
            dataset = read_dataset_jsonl(config.output_dir / "datasets" / f"{verb}.jsonl")
            triples = dataset.triples
            splits = data_mod.make_5x2cv_splits(
                dataset, derive_seed(config.cv_seed, "full-cv", verb))
            rule_f1 = statistics.fmean(
                f1_plausible(
                    [PLAUSIBLE if world.class_of[t.subject] in subjects
                     and world.class_of[t.object] in objects_ else IMPLAUSIBLE for t in test],
                    [t.label for t in test],
                )
                for test in ([triples[i] for i in split.test] for split in splits)
            )
            for k in config.svd_dims:
                assert abs(means[verb, METHOD_TENSOR, k, "f1"] - rule_f1) <= 0.12, (verb, k)
                assert means[verb, METHOD_BASELINE, k, "auc"] >= 0.9, (verb, k)

    def test_comparisons_schema(self, experimented):
        config = load_config(experimented)
        path = config.output_dir / "reports" / "full_cv_comparisons.csv"
        lines = path.read_text().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        assert list(rows[0].keys()) == ["verb", "k", "metric", "f_statistic", "significant", "alpha"]
        assert len(rows) == 8  # 2 verbs x 2 dims x 2 metrics
        for row in rows:
            assert row["significant"] in ("true", "false")

    def test_small_cv_uses_configured_size(self, built, tmp_path, monkeypatch):
        """small-cv evaluates each verb on ``small_cv_size`` triples, split in ten halvings."""
        config, out = load_config(built), tmp_path / "out"
        for subdir in ("vectors", "datasets"):
            shutil.copytree(config.output_dir / subdir, out / subdir)
        evaluated = []  # (verb, base size, train + test size of each split)
        evaluate = pipeline.eval_mod.evaluate_on_splits

        def spy(method, dataset, splits, *args):
            evaluated.append((dataset.verb, len(dataset.triples),
                              [len(s.train) + len(s.test) for s in splits]))
            return evaluate(method, dataset, splits, *args)

        monkeypatch.setattr(pipeline.eval_mod, "evaluate_on_splits", spy)
        assert run_cli("--config", built, "--out", out, "experiment", "--which", "small-cv") == 0
        n = config.small_cv_size
        assert n < min(len(read_dataset_jsonl(out / "datasets" / f"{verb}.jsonl").triples)
                       for verb in config.verbs)
        # each verb at each svd dim, for both methods
        assert sorted(verb for verb, _, _ in evaluated) == sorted(config.verbs * 4)
        assert all(size == n and sizes == [n] * 10 for _, size, sizes in evaluated), evaluated

    def test_curves_schema(self, experimented):
        config = load_config(experimented)
        lines = (config.output_dir / "reports" / "curves.csv").read_text().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        assert list(rows[0].keys()) == ["verb", "method", "k", "size", "mean_auc", "sd_auc"]
        sizes = sorted({int(r["size"]) for r in rows})
        assert sizes == sorted(config.curve_sizes)
        # 2 verbs x 2 methods x |sizes|
        assert len(rows) == 2 * 2 * len(config.curve_sizes)

    def test_experiment_manifest_lists_inputs(self, experimented):
        config = load_config(experimented)
        manifest = json.loads(
            (config.output_dir / "reports" / "manifest_experiment-full-cv.json").read_text()
        )
        assert manifest["parameters"]["which"] == "full-cv"
        assert set(manifest["inputs"]) == {
            f"datasets/{verb}.jsonl" for verb in config.verbs
        } | {f"vectors/embeddings_k{k}.tsv" for k in config.svd_dims}
        assert_manifest_digests(config, manifest["inputs"])

    def test_curves_read_only_primary_k(self, built, tmp_path, monkeypatch):
        config = load_config(built)
        out = tmp_path / "out"
        for subdir in ("vectors", "datasets"):
            shutil.copytree(config.output_dir / subdir, out / subdir)
        read = []

        def counting_read(path):
            read.append(Path(path).name)
            return read_embeddings_tsv(path)

        monkeypatch.setattr(pipeline.vec_mod, "read_embeddings_tsv", counting_read)
        assert run_cli("--config", built, "--out", out, "experiment", "--which", "curves") == 0
        # read once for the call, not once per verb
        assert read == [f"embeddings_k{config.primary_k}.tsv"]
        manifest = json.loads((out / "reports" / "manifest_experiment-curves.json").read_text())
        assert set(manifest["inputs"]) == {
            f"datasets/{verb}.jsonl" for verb in config.verbs
        } | {f"vectors/embeddings_k{config.primary_k}.tsv"}

    def test_experiment_manifest_train_block(self, experimented):
        config = load_config(experimented)
        manifest = json.loads(
            (config.output_dir / "reports" / "manifest_experiment-full-cv.json").read_text()
        )
        train = manifest["parameters"]["train"]
        assert train == {
            "learning_rate": 0.05,
            "adagrad_epsilon": 1e-8,
            "l2_lambda": 1e-4,
            "epochs": 25,
            "init_scale": 0.01,
            "seed": 13,
        }
        assert {key: type(value) for key, value in train.items()} == {
            "learning_rate": float,
            "adagrad_epsilon": float,
            "l2_lambda": float,
            "epochs": int,
            "init_scale": float,
            "seed": int,
        }

    def test_requires_datasets(self, small_fixture, tmp_path):
        out = tmp_path / "nodata"
        assert run_cli("--config", small_fixture, "--out", out, "build-vectors") == 0
        rc = run_cli("--config", small_fixture, "--out", out, "experiment", "--which", "full-cv")
        assert rc == 1

    def test_verb_without_dataset_is_warned_about(self, built, tmp_path, caplog):
        """A configured verb with no dataset is named once, and the others still report."""
        out = tmp_path / "out"
        for subdir in ("vectors", "datasets"):
            shutil.copytree(load_config(built).output_dir / subdir, out / subdir)
        missing = out / "datasets" / "assemble.jsonl"
        missing.unlink()
        assert run_cli("--config", built, "--out", out, "experiment", "--which", "small-cv") \
            == EXIT_OK
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [f"verbs without a dataset skipped: 'assemble' ({missing}) "
                            "(run gen-data)"]
        parameters = json.loads(
            (out / "reports" / "manifest_experiment-small-cv.json").read_text())["parameters"]
        assert (parameters["verbs"], parameters["failed_verbs"]) == (["devour"], {})

    def test_unreadable_embeddings_fail_once_before_any_verb(self, built, tmp_path, caplog,
                                                             monkeypatch):
        config, out = load_config(built), tmp_path / "out"
        for subdir in ("vectors", "datasets"):
            shutil.copytree(config.output_dir / subdir, out / subdir)
        emb = out / "vectors" / f"embeddings_k{config.svd_dims[-1]}.tsv"
        emb.write_bytes(emb.read_bytes().replace(b"\t", b"\t\xff", 1))

        def no_verb(args):
            raise AssertionError("a verb ran despite unreadable embeddings")

        monkeypatch.setattr(pipeline, "_experiment_verb_safe", no_verb)
        assert run_cli("--config", built, "--out", out, "experiment", "--which", "full-cv") \
            == EXIT_RUNTIME
        assert_clean_failure(caplog, f"{emb}:1: file is not UTF-8")
        assert not (out / "reports" / "manifest_experiment-full-cv.json").exists()

    def test_parallel_jobs_match_serial(self, built, tmp_path):
        out_serial = tmp_path / "serial"
        out_parallel = tmp_path / "parallel"
        for out in (out_serial, out_parallel):
            assert run_cli("--config", built, "--out", out, "build-vectors") == 0
            assert run_cli("--config", built, "--out", out, "gen-data") == 0
        assert run_cli(
            "--config", built, "--out", out_serial, "experiment", "--which", "small-cv"
        ) == 0
        assert run_cli(
            "--config", built, "--out", out_parallel, "--jobs", 2,
            "experiment", "--which", "small-cv",
        ) == 0
        assert tree_hashes(out_serial / "reports") == tree_hashes(out_parallel / "reports")

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, built, caplog, monkeypatch, jobs):
        def no_work(args):
            raise AssertionError("a verb ran despite invalid --jobs")

        monkeypatch.setattr(pipeline, "_experiment_verb_safe", no_work)
        rc = run_cli("--config", built, "--jobs", jobs, "experiment", "--which", "small-cv")
        assert rc == EXIT_VALIDATION
        assert "--jobs must be at least 1" in caplog.text

    def test_jobs_capped_at_verb_count(self, built, tmp_path, monkeypatch):
        # a stand-in pool that records its size and runs the verbs in-process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # experiment imports the pool from its module only when it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        out = tmp_path / "out"
        source = load_config(built).output_dir
        for subdir in ("vectors", "datasets"):
            shutil.copytree(source / subdir, out / subdir)
        rc = run_cli("--config", built, "--out", out, "--jobs", 5000,
                     "experiment", "--which", "small-cv")
        assert rc == 0
        assert sizes == [len(load_config(built).verbs)] == [2]

    def test_failed_verb_recorded_alike_for_any_out_and_jobs(self, built, tmp_path):
        """A corrupt dataset fails its verb; the other verb reports, byte-identically."""
        source = load_config(built).output_dir
        outs = {1: tmp_path / "p1" / "out", 2: tmp_path / "p2" / "out"}
        for jobs, out in outs.items():
            for subdir in ("vectors", "datasets"):
                shutil.copytree(source / subdir, out / subdir)
            dataset = out / "datasets" / "assemble.jsonl"
            lines = dataset.read_text().splitlines()
            lines[5] = lines[5][: len(lines[5]) // 2]
            dataset.write_text("\n".join(lines) + "\n")
            assert run_cli("--config", built, "--out", out, "--jobs", jobs,
                           "experiment", "--which", "small-cv") == EXIT_RUNTIME
            rows = (out / "reports" / "small_cv.csv").read_text().splitlines()[2:]
            assert rows and all(row.startswith("devour,") for row in rows)
        assert tree_hashes(outs[1] / "reports") == tree_hashes(outs[2] / "reports")
        manifest = json.loads(
            (outs[1] / "reports" / "manifest_experiment-small-cv.json").read_text()
        )
        assert manifest["parameters"]["verbs"] == ["devour"]
        failed = manifest["parameters"]["failed_verbs"]
        assert list(failed) == ["assemble"]
        assert failed["assemble"].startswith(
            "DataError: datasets/assemble.jsonl:6: not a JSON line"
        ), failed

    def test_manifests_independent_of_out_and_config_path(self, built, tmp_path, monkeypatch):
        """vectors/, datasets/ and models/ match across --out dirs and config spellings."""
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        monkeypatch.chdir(tmp_path)
        configs = {out_a: built, out_b: os.path.relpath(built, tmp_path)}
        for out, config_path in configs.items():
            for command in (["build-vectors"], ["gen-data"], ["train", "--verb", "devour"]):
                assert run_cli("--config", config_path, "--out", out, *command) == 0
        k = load_config(built).primary_k
        for manifest in ("vectors/manifest.json", "datasets/manifest.json",
                         f"models/manifest_devour_k{k}.json"):
            assert (out_a / manifest).is_file()
        for subdir in ("vectors", "datasets", "models"):
            assert tree_hashes(out_a / subdir) == tree_hashes(out_b / subdir), subdir


# Dyadic fold metrics, so every difference the F-test takes is exact.
STUB_AUC = [0.5 + i / 64 for i in range(10)]
STUB_F1 = [0.25 + i / 128 for i in range(10)]
STUB_SPREAD = [0.0, 0.125, 0.25, 0.0625, 0.5, 0.0, 0.375, 0.125, 0.25, 0.5]
STUB_STEADY = [0.125, 0.140625, 0.125, 0.125, 0.109375, 0.125, 0.125, 0.125, 0.125, 0.140625]


def stub_evaluate_on_splits(method, dataset, splits, embeddings, train_config, seed):
    """Fixed fold metrics for each split, looked up by (repetition, fold).

    At k=6 the tensor's AUC is the baseline's plus a constant (F = inf) and
    its F1 equals the baseline's (F = 0); at k=10 its AUC differs unevenly
    (small F) and its F1 steadily (large finite F).
    """
    shift = 1 / 256 if dataset.verb == "devour" else 0.0
    aucs, f1s = [], []
    for split in splits:
        i = 2 * (split.repetition - 1) + (split.fold - 1)
        auc, f1 = STUB_AUC[i] + shift, STUB_F1[i]
        if method == METHOD_TENSOR and embeddings.dim == 6:
            auc += 0.125
        elif method == METHOD_TENSOR:
            auc += STUB_SPREAD[i] / 4
            f1 += STUB_STEADY[i]
        aucs.append(auc)
        f1s.append(f1)
    return aucs, f1s


def stub_learning_curve(method, dataset, sizes, embeddings, train_config, seed, repeats):
    base = 0.625 if method == METHOD_TENSOR else 0.5
    return [(size, base + size / 1024, 1 / 3) for size in sizes]


def csv_bytes(note, rows):
    """A report as written: the note line ends in LF, csv rows in CRLF."""
    return (note + "\n" + "".join(row + "\r\n" for row in rows)).encode("utf-8")


class TestReportGolden:
    """Exact report bytes for fixed fold metrics: formatting, order, notes."""

    @pytest.fixture
    def stubbed_reports(self, built, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline.eval_mod, "evaluate_on_splits", stub_evaluate_on_splits)
        monkeypatch.setattr(pipeline.eval_mod, "learning_curve", stub_learning_curve)
        out = tmp_path / "out"
        for subdir in ("vectors", "datasets"):
            shutil.copytree(load_config(built).output_dir / subdir, out / subdir)
        for which in ("full-cv", "curves"):
            assert run_cli("--config", built, "--out", out, "experiment", "--which", which) == 0
        return out / "reports"

    def test_full_cv_bytes(self, stubbed_reports):
        folds = ",".join(f"r{rep}f{fold}" for rep in range(1, 6) for fold in (1, 2))
        assert (stubbed_reports / "full_cv.csv").read_bytes() == csv_bytes(
            "# sd columns are sample standard deviations (ddof=1)",
            [
                f"verb,method,k,metric,mean,sd,{folds}",
                "assemble,baseline,6,auc,0.570312,0.047307,0.500000,0.515625,0.531250,"
                "0.546875,0.562500,0.578125,0.593750,0.609375,0.625000,0.640625",
                "assemble,baseline,6,f1,0.285156,0.023654,0.250000,0.257812,0.265625,"
                "0.273438,0.281250,0.289062,0.296875,0.304688,0.312500,0.320312",
                "assemble,tensor,6,auc,0.695312,0.047307,0.625000,0.640625,0.656250,"
                "0.671875,0.687500,0.703125,0.718750,0.734375,0.750000,0.765625",
                "assemble,tensor,6,f1,0.285156,0.023654,0.250000,0.257812,0.265625,"
                "0.273438,0.281250,0.289062,0.296875,0.304688,0.312500,0.320312",
                "assemble,baseline,10,auc,0.570312,0.047307,0.500000,0.515625,0.531250,"
                "0.546875,0.562500,0.578125,0.593750,0.609375,0.625000,0.640625",
                "assemble,baseline,10,f1,0.285156,0.023654,0.250000,0.257812,0.265625,"
                "0.273438,0.281250,0.289062,0.296875,0.304688,0.312500,0.320312",
                "assemble,tensor,10,auc,0.625000,0.082021,0.500000,0.546875,0.593750,"
                "0.562500,0.687500,0.578125,0.687500,0.640625,0.687500,0.765625",
                "assemble,tensor,10,f1,0.411719,0.026055,0.375000,0.398438,0.390625,"
                "0.398438,0.390625,0.414062,0.421875,0.429688,0.437500,0.460938",
                "devour,baseline,6,auc,0.574219,0.047307,0.503906,0.519531,0.535156,"
                "0.550781,0.566406,0.582031,0.597656,0.613281,0.628906,0.644531",
                "devour,baseline,6,f1,0.285156,0.023654,0.250000,0.257812,0.265625,"
                "0.273438,0.281250,0.289062,0.296875,0.304688,0.312500,0.320312",
                "devour,tensor,6,auc,0.699219,0.047307,0.628906,0.644531,0.660156,"
                "0.675781,0.691406,0.707031,0.722656,0.738281,0.753906,0.769531",
                "devour,tensor,6,f1,0.285156,0.023654,0.250000,0.257812,0.265625,"
                "0.273438,0.281250,0.289062,0.296875,0.304688,0.312500,0.320312",
                "devour,baseline,10,auc,0.574219,0.047307,0.503906,0.519531,0.535156,"
                "0.550781,0.566406,0.582031,0.597656,0.613281,0.628906,0.644531",
                "devour,baseline,10,f1,0.285156,0.023654,0.250000,0.257812,0.265625,"
                "0.273438,0.281250,0.289062,0.296875,0.304688,0.312500,0.320312",
                "devour,tensor,10,auc,0.628906,0.082021,0.503906,0.550781,0.597656,"
                "0.566406,0.691406,0.582031,0.691406,0.644531,0.691406,0.769531",
                "devour,tensor,10,f1,0.411719,0.026055,0.375000,0.398438,0.390625,"
                "0.398438,0.390625,0.414062,0.421875,0.429688,0.437500,0.460938",
            ],
        )

    def test_comparisons_bytes(self, stubbed_reports):
        assert (stubbed_reports / "full_cv_comparisons.csv").read_bytes() == csv_bytes(
            "# f_statistic compares tensor minus baseline on aligned folds",
            [
                "verb,k,metric,f_statistic,significant,alpha",
                "assemble,6,auc,inf,true,0.05",
                "assemble,6,f1,0.000000,false,0.05",
                "assemble,10,auc,1.880734,false,0.05",
                "assemble,10,f1,219.666667,true,0.05",
                "devour,6,auc,inf,true,0.05",
                "devour,6,f1,0.000000,false,0.05",
                "devour,10,auc,1.880734,false,0.05",
                "devour,10,f1,219.666667,true,0.05",
            ],
        )

    def test_curves_bytes(self, stubbed_reports):
        assert (stubbed_reports / "curves.csv").read_bytes() == csv_bytes(
            "# sd columns are sample standard deviations (ddof=1)",
            [
                "verb,method,k,size,mean_auc,sd_auc",
                "assemble,baseline,6,8,0.507812,0.333333",
                "assemble,baseline,6,16,0.515625,0.333333",
                "assemble,tensor,6,8,0.632812,0.333333",
                "assemble,tensor,6,16,0.640625,0.333333",
                "devour,baseline,6,8,0.507812,0.333333",
                "devour,baseline,6,16,0.515625,0.333333",
                "devour,tensor,6,8,0.632812,0.333333",
                "devour,tensor,6,16,0.640625,0.333333",
            ],
        )

class TestTrainPredictEval:
    def test_train_then_predict(self, built, capsys):
        config = load_config(built)
        verb = sorted(config.verbs)[0]
        assert run_cli("--config", built, "train", "--verb", verb) == 0
        for name in (f"{verb}_k{config.primary_k}.tvbm",
                     f"manifest_{verb}_k{config.primary_k}.json"):
            assert (config.output_dir / "models" / name).is_file()
        dataset = read_dataset_jsonl(config.output_dir / "datasets" / f"{verb}.jsonl")
        triple = dataset_positives(dataset)[0]
        capsys.readouterr()
        rc = run_cli(
            "--config", built, "predict", "--verb", verb,
            "--subject", triple.subject, "--object", triple.object,
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] in ("plausible", "implausible")
        assert 0.0 <= payload["p_plausible"] <= 1.0

    def test_predict_without_model_fails_validation(self, built, tmp_path, caplog):
        """The hint names the ``--k`` of the missing model, not only the verb."""
        config, out = load_config(built), tmp_path / "nomodel"
        shutil.copytree(config.output_dir / "vectors", out / "vectors")
        k = config.svd_dims[-1]
        assert k != config.primary_k
        rc = run_cli(
            "--config", built, "--out", out, "predict",
            "--verb", "devour", "--subject", "a", "--object", "b", "--k", k,
        )
        assert rc == EXIT_VALIDATION
        assert_clean_failure(caplog, f"(run train --verb devour --k {k})")

    def test_train_requires_its_dataset(self, built, tmp_path, caplog):
        out = tmp_path / "out"
        shutil.copytree(load_config(built).output_dir / "vectors", out / "vectors")
        assert run_cli("--config", built, "--out", out, "train", "--verb", "devour") \
            == EXIT_VALIDATION
        assert_clean_failure(
            caplog, f"missing dataset {out / 'datasets' / 'devour.jsonl'} (run gen-data)")
        assert not (out / "models").exists()

    @pytest.mark.parametrize("kind", ["no-dev-pairs", "missing-pairs-file"])
    def test_eval_vectors_requires_a_pairs_file(self, built, tmp_path, caplog, kind):
        inputs, out = copy_fixture(built, tmp_path), tmp_path / "out"
        shutil.copytree(load_config(built).output_dir / "vectors", out / "vectors")
        args = ["--config", inputs / "config.ini", "--out", out, "eval-vectors"]
        if kind == "no-dev-pairs":
            text = (inputs / "config.ini").read_text()
            (inputs / "config.ini").write_text(text.replace("dev_pairs = dev_pairs.tsv\n", ""))
            needle = "no pairs file given and no dev_pairs in the config"
        else:
            args += ["--pairs", tmp_path / "nope.tsv"]
            needle = f"pairs file not found: {tmp_path / 'nope.tsv'}"
        assert run_cli(*args) == EXIT_VALIDATION
        assert_clean_failure(caplog, needle)

    @pytest.mark.parametrize("malformed", [
        "huge_header", "wrong_shapes", "non_finite-tensor-nan", "non_finite-tensor-inf",
        "non_finite-theta-nan", "non_finite-theta-inf", "other_k", "trailing_byte",
        "order_4"])
    def test_predict_malformed_model_fails_cleanly(self, built, tmp_path, caplog, malformed):
        config = load_config(built)
        k, other = config.svd_dims
        out = tmp_path / "badmodel"
        shutil.copytree(config.output_dir / "vectors", out / "vectors")
        model = out / "models" / f"devour_k{k}.tvbm"
        model.parent.mkdir()
        needle = f"malformed model file {model}"
        if malformed == "huge_header":
            model.write_bytes(TVB_MAGIC + struct.pack("<4Q", 3, 2**40, 2**40, 2) + b"\0" * 64)
        elif malformed == "wrong_shapes":
            with open(model, "wb") as handle:
                write_tvb(handle, np.zeros((2, 2)))
                write_tvb(handle, np.zeros((2, 3)))
        elif malformed == "other_k":
            with open(model, "wb") as handle:
                write_tvb(handle, np.zeros((other, other, 2)))
                write_tvb(handle, np.zeros((2, 3)))
            needle = f"{model}: K={other} model in the file for k={k}"
        elif malformed == "trailing_byte":
            with open(model, "wb") as handle:
                write_tvb(handle, np.zeros((k, k, 2)))
                write_tvb(handle, np.zeros((2, 3)))
                handle.write(b"\0")
            needle += ": bytes after the theta block"
        elif malformed == "order_4":
            model.write_bytes(TVB_MAGIC + struct.pack("<5Q", 4, 1, 1, 1, 1) + b"\0" * 8)
            needle += ": unsupported tensor order 4"
        else:
            _, block, value = malformed.split("-")
            arrays = {"tensor": np.zeros((k, k, 2)), "theta": np.zeros((2, 3))}
            arrays[block].flat[1] = float(value)
            # write_tvb refuses non-finite values, so lay the blocks out by hand
            model.write_bytes(b"".join(
                TVB_MAGIC + struct.pack(f"<{a.ndim + 1}Q", a.ndim, *a.shape)
                + a.astype("<f8").tobytes() for a in arrays.values()))
            needle += ": non-finite values"
        emb = read_embeddings_tsv(out / "vectors" / f"embeddings_k{k}.tsv")
        subject, obj = emb.nouns.words[:2]
        rc = run_cli(
            "--config", built, "--out", out, "predict",
            "--verb", "devour", "--subject", subject, "--object", obj,
        )
        assert rc == EXIT_RUNTIME
        assert_clean_failure(caplog, needle)

    def test_predict_oov_noun(self, built):
        config = load_config(built)
        verb = sorted(config.verbs)[0]
        run_cli("--config", built, "train", "--verb", verb)
        rc = run_cli(
            "--config", built, "predict", "--verb", verb,
            "--subject", "not_a_noun", "--object", "also_not",
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "command",
        [("train", "--verb", "devour"),
         ("predict", "--verb", "devour", "--subject", "a", "--object", "b"),
         ("eval-vectors",)],
        ids=["train", "predict", "eval-vectors"],
    )
    def test_k_outside_svd_dims_rejected(self, built, tmp_path, caplog, command):
        """``--k 0`` is not a configured dim, not a stand-in for the default."""
        source = load_config(built).output_dir
        out = tmp_path / "out"
        for subdir in ("vectors", "datasets"):
            shutil.copytree(source / subdir, out / subdir)
        before = tree_hashes(out)
        assert run_cli("--config", built, "--out", out, *command, "--k", 0) == EXIT_VALIDATION
        assert tree_hashes(out) == before
        assert_clean_failure(caplog, "k=0 is not one of the configured svd_dims")

    @pytest.mark.parametrize(
        "command, subdir",
        [(("build-vectors",), "vectors"), (("gen-data",), "datasets"),
         (("experiment", "--which", "small-cv"), "reports"),
         (("train", "--verb", "devour"), "models")],
        ids=["build-vectors", "gen-data", "experiment", "train"],
    )
    def test_file_in_place_of_an_output_directory(self, built, tmp_path, caplog,
                                                  command, subdir):
        """A file as ``--out``, or as the command's own output directory, fails validation.

        The command exits 1 without a traceback and writes nothing.
        """
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        assert run_cli("--config", built, "--out", blocker, *command) == EXIT_VALIDATION
        assert blocker.read_text() == "not a directory\n"
        assert_clean_failure(caplog, str(blocker))
        caplog.clear()

        source, out = load_config(built).output_dir, tmp_path / "out"
        for inputs in {"vectors", "datasets"} - {subdir}:
            shutil.copytree(source / inputs, out / inputs)
        (out / subdir).write_text("not a directory\n")
        before = tree_hashes(out)
        assert run_cli("--config", built, "--out", out, *command) == EXIT_VALIDATION
        assert tree_hashes(out) == before
        assert_clean_failure(caplog, f"cannot create directory {out / subdir}")

    @pytest.mark.parametrize(
        "command, output",
        [(("build-vectors",), "vectors/frequencies.tsv"),
         (("build-vectors",), "vectors/embeddings_k{k}.tsv"),
         (("build-vectors",), "vectors/embeddings_k{k}.tvb"),
         (("gen-data",), "datasets/devour.jsonl"),
         (("experiment", "--which", "small-cv"), "reports/small_cv.csv"),
         (("train", "--verb", "devour"), "models/devour_k{k}.tvbm"),
         (("train", "--verb", "devour"), "models/manifest_devour_k{k}.json")],
        ids=["frequencies", "embeddings", "embeddings-sidecar", "dataset", "report", "model",
             "manifest"],
    )
    def test_directory_in_place_of_an_output_file(self, built, tmp_path, caplog, capsys,
                                                  command, output):
        """An output file that cannot be opened fails validation, naming the file."""
        config, out = load_config(built), tmp_path / "out"
        for inputs in ("vectors", "datasets"):
            shutil.copytree(config.output_dir / inputs, out / inputs)
        blocker = out / output.format(k=config.primary_k)
        blocker.unlink(missing_ok=True)
        blocker.mkdir(parents=True)
        assert run_cli("--config", built, "--out", out, *command) == EXIT_VALIDATION
        assert_clean_failure(caplog, f"cannot write {blocker}")
        assert "Traceback" not in capsys.readouterr().err

    def test_commands_read_embeddings_from_sidecars(self, built, tmp_path, monkeypatch):
        """No command parses the text of embeddings that build-vectors wrote."""
        parsed = []
        line_loop = vec_mod._read_embeddings_lines
        monkeypatch.setattr(vec_mod, "_read_embeddings_lines",
                            lambda path: parsed.append(path) or line_loop(path))
        out = tmp_path / "out"
        assert run_cli("--config", built, "--out", out, "build-vectors") == 0
        assert run_cli("--config", built, "--out", out, "gen-data") == 0
        assert run_cli("--config", built, "--out", out, "train", "--verb", "devour") == 0
        triple = dataset_positives(read_dataset_jsonl(out / "datasets" / "devour.jsonl"))[0]
        assert run_cli("--config", built, "--out", out, "predict", "--verb", "devour",
                       "--subject", triple.subject, "--object", triple.object) == 0
        assert run_cli("--config", built, "--out", out,
                       "experiment", "--which", "small-cv") == 0
        assert run_cli("--config", built, "--out", out, "eval-vectors") == 0
        assert parsed == []

    def test_flipped_sidecar_bit_falls_back_to_the_text(self, built, tmp_path, capsys, caplog):
        """A changed value in an embeddings sidecar is not read: predict answers from the TSV."""
        config, out = load_config(built), tmp_path / "out"
        for command in (("build-vectors",), ("gen-data",), ("train", "--verb", "devour")):
            assert run_cli("--config", built, "--out", out, *command) == 0
        triple = dataset_positives(read_dataset_jsonl(out / "datasets" / "devour.jsonl"))[0]
        predict = ("--config", built, "--out", out, "--log-level", "INFO", "predict",
                   "--verb", "devour", "--subject", triple.subject, "--object", triple.object)
        capsys.readouterr()
        assert run_cli(*predict) == 0
        before = json.loads(capsys.readouterr().out)["p_plausible"]

        tsv = out / "vectors" / f"embeddings_k{config.primary_k}.tsv"
        table = read_embeddings_tsv(tsv)
        raw = bytearray(tsv.with_suffix(".tvb").read_bytes())
        # the block's values end the file, row by row; flip the lowest exponent bit
        # of the first value of the subject's row, which doubles or halves it
        at = len(raw) - 8 * table.matrix.size + 8 * table.dim * table.nouns.index[triple.subject]
        raw[at + 6] ^= 0x10
        assert struct.unpack_from("<d", raw, at)[0] != table.vector(triple.subject)[0]
        tsv.with_suffix(".tvb").write_bytes(raw)
        caplog.clear()
        assert run_cli(*predict) == 0
        assert json.loads(capsys.readouterr().out)["p_plausible"] == before
        [fallback] = [record for record in caplog.records
                      if "parsing the text" in record.getMessage()]
        assert fallback.levelno == logging.INFO and fallback.name == "verbtensor.vectors"
        assert fallback.getMessage().startswith(f"{tsv}: ")

    def test_only_sparse_commands_import_scipy(self, built, tmp_path):
        """A fresh interpreter runs every command but build-vectors without scipy.

        build-vectors loads ``scipy.sparse`` and no ``scipy.stats``, and the
        process pool is loaded only by the ``--jobs 2`` experiment.
        """
        config, out = load_config(built), tmp_path / "out"
        shutil.copytree(config.output_dir / "vectors", out / "vectors")
        triple = dataset_positives(read_dataset_jsonl(config.output_dir / "datasets" / "devour.jsonl"))[0]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(pipeline.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_PER_COMMAND, built, out, triple.subject, triple.object],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded["scipy"][:-1] == [[]] * 7
        assert "scipy.sparse" in loaded["scipy"][-1]
        assert not [name for name in loaded["scipy"][-1] if name.startswith("scipy.stats")]
        assert loaded["pool"][:3] == [False, False, True]

    def test_train_unknown_verb(self, built):
        assert run_cli("--config", built, "train", "--verb", "unknown") == 1

    @pytest.mark.parametrize(
        "command", [("train",), ("predict", "--subject", "a", "--object", "b")],
        ids=["train", "predict"])
    def test_verb_outside_the_config_fails_before_any_path(self, built, caplog, command):
        assert run_cli("--config", built, command[0], "--verb", "../../x", *command[1:]) \
            == EXIT_VALIDATION
        assert_clean_failure(caplog, "verb '../../x' is not in the config's [experiment] verbs")
        assert "run train" not in caplog.text

    def test_eval_vectors_on_dev_pairs(self, built, capsys):
        capsys.readouterr()
        assert run_cli("--config", built, "eval-vectors") == 0
        payload = json.loads(capsys.readouterr().out)
        assert -1.0 <= payload["spearman"] <= 1.0
        assert payload["usable"] >= 2
        # class-structured pairs should correlate clearly better than chance
        assert payload["spearman"] > 0.3

    def test_eval_vectors_custom_pairs(self, built, tmp_path, capsys):
        config = load_config(built)
        from verbtensor.vectors import read_embeddings_tsv

        emb = read_embeddings_tsv(
            config.output_dir / "vectors" / f"embeddings_k{config.primary_k}.tsv"
        )
        words = list(emb.nouns.words)[:4]
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(
            f"{words[0]}\t{words[1]}\t0.9\n{words[2]}\t{words[3]}\t0.1\n"
            f"{words[0]}\t{words[2]}\t0.5\n"
        )
        capsys.readouterr()
        assert run_cli("--config", built, "eval-vectors", "--pairs", pairs) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pairs"] == 3

    def test_model_files_reproducible(self, built, tmp_path):
        config = load_config(built)
        verb = sorted(config.verbs)[1]
        out_a, out_b = tmp_path / "ma", tmp_path / "mb"
        for out in (out_a, out_b):
            assert run_cli("--config", built, "--out", out, "build-vectors") == 0
            assert run_cli("--config", built, "--out", out, "gen-data") == 0
            assert run_cli("--config", built, "--out", out, "train", "--verb", verb) == 0
        name = f"{verb}_k{config.primary_k}.tvbm"
        assert sha256_file(out_a / "models" / name) == sha256_file(out_b / "models" / name)

    def test_model_manifest_parameters_are_golden(self, built, tmp_path, monkeypatch):
        """The verb, k, every training setting and the trace's exact floats."""
        train_config = TrainConfig(learning_rate=0.125, adagrad_epsilon=1e-06, l2_lambda=0.0,
                                   epochs=7, init_scale=0.5, seed=42)
        source = load_config(built)
        config = replace(source, output_dir=tmp_path / "out", train=train_config)
        for subdir in ("vectors", "datasets"):
            shutil.copytree(source.output_dir / subdir, config.output_dir / subdir)
        k = config.primary_k
        model = VerbTensorModel(np.zeros((k, k, 2)), np.zeros((2, 3)))
        monkeypatch.setattr(pipeline.tm, "train",
                            lambda *args: TrainResult(model, (1.5, 0.1 + 0.2)))
        pipeline.train_verb(config, "devour")
        manifest = json.loads((config.output_dir / "models" / f"manifest_devour_k{k}.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["parameters"] == {
            "verb": "devour",
            "k": k,
            "train": {"learning_rate": 0.125, "adagrad_epsilon": 1e-06, "l2_lambda": 0.0,
                      "epochs": 7, "init_scale": 0.5, "seed": 42},
            "objective_trace": [1.5, 0.30000000000000004],
        }

    def test_every_artifact_has_one_manifest(self, built, tmp_path, monkeypatch):
        """Each file under ``--out`` is the output of exactly one manifest, by sha256.

        A manifest is a ``.json`` file, and its name starts with ``manifest``:
        the benchmark tells manifests from artifacts by that prefix. Three
        models, one of them at the other k, leave only their model files and
        one manifest each, whose trace is the one training returned.
        """
        config, out = load_config(built), tmp_path / "out"
        k, other = config.svd_dims
        models = [("devour", k), ("assemble", k), ("devour", other)]
        for command in (("build-vectors",), ("gen-data",), ("experiment", "--which", "small-cv")):
            assert run_cli("--config", built, "--out", out, *command) == 0
        results = []
        train = pipeline.tm.train
        monkeypatch.setattr(pipeline.tm, "train",
                            lambda *args: results.append(train(*args)) or results[-1])
        for verb, dim in models:
            k_args = () if dim == k else ("--k", dim)
            assert run_cli("--config", built, "--out", out, "train", "--verb", verb, *k_args) == 0
        files = tree_hashes(out)
        manifests = {path: json.loads((out / path).read_text())
                     for path in files if path.endswith(".json")}
        assert [path for path in manifests if not Path(path).name.startswith("manifest")] == []
        outputs = sorted(key for manifest in manifests.values() for key in manifest["outputs"])
        assert outputs == sorted(set(files) - set(manifests))
        for manifest in manifests.values():
            for key, digest in manifest["outputs"].items():
                assert files[key] == digest, key

        assert sorted(p.name for p in (out / "models").iterdir()) == sorted(
            name for verb, dim in models
            for name in (f"{verb}_k{dim}.tvbm", f"manifest_{verb}_k{dim}.json"))
        assert [tuple(manifests[f"models/manifest_{verb}_k{dim}.json"]["parameters"]
                      ["objective_trace"]) for verb, dim in models] \
            == [result.objective_trace for result in results]


def copy_fixture(small_fixture, tmp_path) -> Path:
    """A copy of the fixture's input files, without its outputs."""
    broken_dir = tmp_path / "broken"
    shutil.copytree(Path(small_fixture).parent, broken_dir, ignore=shutil.ignore_patterns("out"))
    return broken_dir


def drop_triples_of(inputs: Path, verb: str) -> None:
    """Remove ``verb``'s rows from the ``triples.tsv`` under ``inputs``."""
    triples = inputs / "triples.tsv"
    rows = triples.read_text().splitlines(keepends=True)
    triples.write_text("".join(row for row in rows if row.split("\t")[1] != verb))


def assert_clean_failure(caplog, needle):
    """One logged error names ``needle``, and no record carries a traceback."""
    assert not any(record.exc_info for record in caplog.records)
    assert "Traceback" not in caplog.text
    assert any(needle in record.getMessage() for record in caplog.records), caplog.text


class TestMalformedInputs:
    def test_non_utf8_corpus_fails_cleanly(self, small_fixture, tmp_path, caplog):
        broken = copy_fixture(small_fixture, tmp_path)
        corpus = broken / "corpus.txt"
        n_lines = len(corpus.read_bytes().splitlines())
        with open(corpus, "ab") as handle:
            handle.write(b"\xff\xfe bad\n")
        rc = run_cli("--config", broken / "config.ini", "--out", tmp_path / "out",
                     "build-vectors")
        assert rc == EXIT_RUNTIME
        assert_clean_failure(caplog, f"corpus.txt:{n_lines + 1}: corpus is not UTF-8")

    def test_non_integer_triple_count_fails_cleanly(self, small_fixture, tmp_path, caplog):
        broken = copy_fixture(small_fixture, tmp_path)
        triples = broken / "triples.tsv"
        lines = triples.read_text().splitlines()
        subject, verb, obj, _ = lines[2].split("\t")
        lines[2] = f"{subject}\t{verb}\t{obj}\tx1"
        triples.write_text("\n".join(lines) + "\n")
        rc = run_cli("--config", broken / "config.ini", "--out", tmp_path / "out",
                     "build-vectors")
        assert rc == EXIT_RUNTIME
        assert_clean_failure(caplog, "triples.tsv:3: count 'x1' is not an integer")

    def test_triples_of_blank_lines_fail_build_vectors(self, small_fixture, tmp_path, caplog):
        broken = copy_fixture(small_fixture, tmp_path)
        (broken / "triples.tsv").write_text("\n\n")
        rc = run_cli("--config", broken / "config.ini", "--out", tmp_path / "out",
                     "build-vectors")
        assert rc == EXIT_VALIDATION
        assert_clean_failure(caplog, f"no triples found in {broken / 'triples.tsv'}")

    def test_repeated_triple_fails_gen_data(self, built, tmp_path, caplog):
        """A (subject, verb, object) given twice would be two identical positives."""
        broken = copy_fixture(built, tmp_path)
        triples = broken / "triples.tsv"
        lines = triples.read_text().splitlines()
        subject, verb, obj, _ = lines[0].split("\t")
        triples.write_text("\n".join(lines + [f"{subject}\t{verb}\t{obj}\t1"]) + "\n")
        out = tmp_path / "out"
        shutil.copytree(load_config(built).output_dir / "vectors", out / "vectors")
        assert run_cli("--config", broken / "config.ini", "--out", out, "gen-data") \
            == EXIT_RUNTIME
        assert_clean_failure(caplog, f"triples.tsv:{len(lines) + 1}: triple "
                                     f"{(subject, verb, obj)!r} repeats line 1")
        assert not (out / "datasets" / "manifest.json").exists()

    def test_non_finite_embedding_fails_gen_data(self, built, tmp_path, caplog):
        config = load_config(built)
        out = tmp_path / "nanvec"
        shutil.copytree(config.output_dir / "vectors", out / "vectors")
        emb = out / "vectors" / f"embeddings_k{config.primary_k}.tsv"
        lines = emb.read_text().splitlines()
        noun, _, rest = lines[1].split("\t", 2)
        lines[1] = f"{noun}\tnan\t{rest}"
        emb.write_text("\n".join(lines) + "\n")
        assert run_cli("--config", built, "--out", out, "gen-data") == EXIT_RUNTIME
        assert_clean_failure(caplog, f"{emb.name}:2: non-finite value")
        assert not (out / "datasets" / "manifest.json").exists()

    @pytest.mark.parametrize("kind", ["other-k-file", "noun-only-rows"])
    def test_embeddings_not_k_wide_fail_train(self, built, tmp_path, caplog, kind):
        config = load_config(built)
        out = tmp_path / kind
        shutil.copytree(config.output_dir / "vectors", out / "vectors")
        shutil.copytree(config.output_dir / "datasets", out / "datasets")
        k, other = config.svd_dims
        emb = out / "vectors" / f"embeddings_k{k}.tsv"
        if kind == "other-k-file":
            shutil.copy(out / "vectors" / f"embeddings_k{other}.tsv", emb)
            needle = f"{emb.name}: {other}-dim embeddings in the file for k={k}"
        else:
            nouns = [line.split("\t")[0] for line in emb.read_text().splitlines()]
            emb.write_text("".join(f"{noun}\n" for noun in nouns))
            needle = f"{emb.name}:1: row has no values"
        assert run_cli("--config", built, "--out", out, "train", "--verb", "devour") == EXIT_RUNTIME
        assert_clean_failure(caplog, needle)
        assert not list(out.rglob("*.tvbm"))

    def test_corpus_without_cooccurrences_fails_cleanly(self, small_fixture, tmp_path, caplog):
        """Every sentence holds one target noun and stopwords only."""
        broken = copy_fixture(small_fixture, tmp_path)
        nouns = sorted({row[i] for row in data_mod.read_triples_tsv(broken / "triples.tsv")
                        for i in (0, 2)})
        (broken / "corpus.txt").write_text("".join(f"{noun} the a\n" for noun in nouns))
        rc = run_cli("--config", broken / "config.ini", "--out", tmp_path / "out",
                     "build-vectors")
        assert rc == EXIT_RUNTIME
        assert_clean_failure(
            caplog, "corpus.txt: no target noun shares a sentence with a context word"
        )

    def test_blank_corpus_fails_cleanly(self, small_fixture, tmp_path, caplog):
        broken = copy_fixture(small_fixture, tmp_path)
        (broken / "corpus.txt").write_text("\n  \n\n")
        rc = run_cli("--config", broken / "config.ini", "--out", tmp_path / "out",
                     "build-vectors")
        assert rc == EXIT_RUNTIME
        assert_clean_failure(caplog, "corpus.txt:3: empty corpus")

    def test_truncated_dataset_line_fails_train(self, built, tmp_path, caplog):
        config = load_config(built)
        out = tmp_path / "cut"
        shutil.copytree(config.output_dir / "vectors", out / "vectors")
        shutil.copytree(config.output_dir / "datasets", out / "datasets")
        dataset = out / "datasets" / "devour.jsonl"
        lines = dataset.read_text().splitlines()
        lines[3] = lines[3][: len(lines[3]) // 2]
        dataset.write_text("\n".join(lines) + "\n")
        assert run_cli("--config", built, "--out", out, "train", "--verb", "devour") == EXIT_RUNTIME
        assert_clean_failure(caplog, "devour.jsonl:4: not a JSON line")

    def test_non_utf8_dataset_fails_train(self, built, tmp_path, caplog):
        config = load_config(built)
        out = tmp_path / "bytes"
        shutil.copytree(config.output_dir / "vectors", out / "vectors")
        shutil.copytree(config.output_dir / "datasets", out / "datasets")
        dataset = out / "datasets" / "devour.jsonl"
        lines = dataset.read_bytes().splitlines(keepends=True)
        lines[2] = b"\xff" + lines[2]
        dataset.write_bytes(b"".join(lines))
        assert run_cli("--config", built, "--out", out, "train", "--verb", "devour") == EXIT_RUNTIME
        assert_clean_failure(caplog, "devour.jsonl:3: file is not UTF-8")

    def test_short_pairs_row_fails_eval_vectors(self, built, tmp_path, caplog):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("a\tb\t0.5\nc\td\n")
        assert run_cli("--config", built, "eval-vectors", "--pairs", pairs) == EXIT_RUNTIME
        assert_clean_failure(caplog, "pairs.tsv:2: expected 3 tab-separated fields, got 2")

    @pytest.mark.parametrize("kind", ["one-usable-pair", "constant-scores", "constant-cosines",
                                      "zero-row"])
    def test_unusable_eval_inputs_fail_cleanly(self, built, tmp_path, caplog, kind):
        config = load_config(built)
        out = tmp_path / "out"
        shutil.copytree(config.output_dir / "vectors", out / "vectors")
        emb = out / "vectors" / f"embeddings_k{config.primary_k}.tsv"
        lines = emb.read_text().splitlines()
        nouns = [line.split("\t")[0] for line in lines]
        pairs = tmp_path / "pairs.tsv"
        if kind == "one-usable-pair":
            pairs.write_text(f"{nouns[0]}\t{nouns[1]}\t0.5\n{nouns[0]}\tghost\t0.2\n")
            needle = f"{pairs}: need at least 2 usable pairs, got 1 (skipped 1)"
        elif kind == "constant-scores":
            pairs.write_text("".join(f"{nouns[0]}\t{noun}\t0.5\n" for noun in nouns[1:5]))
            needle = f"{pairs}: Spearman correlation undefined (constant ranking)"
        elif kind == "constant-cosines":
            pairs.write_text("".join(f"{nouns[0]}\t{nouns[1]}\t{i}\n" for i in range(4)))
            needle = f"{pairs}: Spearman correlation undefined (constant ranking)"
        else:
            pairs.write_text("".join(f"{nouns[0]}\t{noun}\t{i}\n"
                                     for i, noun in enumerate(nouns[1:5])))
            lines[3] = "\t".join([nouns[3]] + ["0.0"] * config.primary_k)
            emb.write_text("\n".join(lines) + "\n")
            needle = f"{emb}: noun {nouns[3]!r} has a zero embedding"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("--config", built, "--out", out, "eval-vectors", "--pairs", pairs) \
                == EXIT_RUNTIME
        assert_clean_failure(caplog, needle)
        assert not caught, [str(w.message) for w in caught]

    def devour_outputs(self, built, tmp_path, kind):
        """vectors/ and datasets/, with ``devour.jsonl`` broken as ``kind`` says.

        ``unknown_noun`` gives one positive a subject without an embedding,
        ``record_verb`` gives it another verb than the header's, and
        ``header_only`` cuts the file to its header line.
        """
        config = load_config(built)
        out = tmp_path / kind
        shutil.copytree(config.output_dir / "vectors", out / "vectors")
        shutil.copytree(config.output_dir / "datasets", out / "datasets")
        dataset = out / "datasets" / "devour.jsonl"
        lines = dataset.read_text().splitlines()
        if kind == "header_only":
            del lines[1:]
        else:
            record = json.loads(lines[1])
            assert record["label"] == "plausible"
            if kind == "record_verb":
                record["verb"] = "assemble"
            else:
                record["subject"] = "zzz_unknown"
            lines[1] = json.dumps(record, sort_keys=True)
        dataset.write_text("\n".join(lines) + "\n")
        return out, dataset

    @pytest.mark.parametrize("kind", ["unknown_noun", "header_only", "record_verb"])
    def test_broken_dataset_fails_train(self, built, tmp_path, caplog, kind):
        out, dataset = self.devour_outputs(built, tmp_path, kind)
        assert run_cli("--config", built, "--out", out, "train", "--verb", "devour") == EXIT_RUNTIME
        assert_clean_failure(caplog, {
            "unknown_noun": f"{dataset}: noun 'zzz_unknown' has no embedding in "
                            f"{out / 'vectors'}/embeddings_k{load_config(built).primary_k}.tsv",
            "header_only": f"{dataset}: dataset has a header and no triples",
            "record_verb": f"{dataset}:2: verb 'assemble' differs from the header's 'devour'",
        }[kind])
        assert not list(out.rglob("*.tvbm"))

    def test_dataset_of_another_verb_fails_train_and_experiment(self, built, tmp_path, caplog):
        out, dataset = self.devour_outputs(built, tmp_path, "unknown_noun")
        shutil.copyfile(dataset.with_name("assemble.jsonl"), dataset)  # replaces the broken file
        assert run_cli("--config", built, "--out", out, "train", "--verb", "devour") == EXIT_RUNTIME
        assert_clean_failure(caplog, f"{dataset}: the dataset is for verb 'assemble', not 'devour'")
        assert not list(out.rglob("*.tvbm"))
        assert run_cli("--config", built, "--out", out,
                       "experiment", "--which", "small-cv") == EXIT_RUNTIME
        manifest = json.loads((out / "reports" / "manifest_experiment-small-cv.json").read_text())
        assert manifest["parameters"]["verbs"] == ["assemble"]
        assert manifest["parameters"]["failed_verbs"] == {
            "devour": "DataError: datasets/devour.jsonl: the dataset is for verb 'assemble', "
                      "not 'devour'"
        }

    def test_zero_embedding_row_fails_experiment_verbs_cleanly(self, built, tmp_path, caplog):
        """A zero row for a dataset noun is a ``DataError`` naming the noun and file."""
        config = load_config(built)
        out = tmp_path / "zero"
        shutil.copytree(config.output_dir / "vectors", out / "vectors")
        shutil.copytree(config.output_dir / "datasets", out / "datasets")
        for k in config.svd_dims:
            emb = out / "vectors" / f"embeddings_k{k}.tsv"
            emb.write_text("".join(
                "\t".join(["person08"] + ["0.0"] * k) + "\n" if line.startswith("person08\t")
                else line for line in emb.read_text().splitlines(keepends=True)))
        assert run_cli("--config", built, "--out", out,
                       "experiment", "--which", "full-cv") == EXIT_RUNTIME
        # person08 is in both verbs' datasets, so both fail and no manifest is
        # written: the failed_verbs text is in the error that ends the run
        message = (f"DataError: vectors/embeddings_k{config.svd_dims[0]}.tsv: "
                   "noun 'person08' has a zero embedding (no cosine)")
        failed_verbs = {verb: message for verb in sorted(config.verbs)}
        assert_clean_failure(caplog, f"every verb failed: {failed_verbs}")
        assert not (out / "reports" / "manifest_experiment-full-cv.json").exists()

    def test_unknown_noun_fails_full_cv_verb(self, built, tmp_path, caplog):
        out, _ = self.devour_outputs(built, tmp_path, "unknown_noun")
        assert run_cli("--config", built, "--out", out,
                       "experiment", "--which", "full-cv") == EXIT_RUNTIME
        # checked before any fold trains, against the first configured dim's file
        message = ("DataError: datasets/devour.jsonl: noun 'zzz_unknown' has no embedding in "
                   f"vectors/embeddings_k{load_config(built).svd_dims[0]}.tsv")
        assert_clean_failure(caplog, message)
        manifest = json.loads((out / "reports" / "manifest_experiment-full-cv.json").read_text())
        assert manifest["parameters"]["verbs"] == ["assemble"]
        assert manifest["parameters"]["failed_verbs"] == {"devour": message}

    def test_overflowing_accumulator_fails_train_and_experiment(self, built, tmp_path, caplog):
        """An l2_lambda whose squared gradient overflows would zero every step."""
        config = load_config(built)
        inputs = copy_fixture(built, tmp_path)
        text = (inputs / "config.ini").read_text()
        assert "l2_lambda = 0.0001" in text
        (inputs / "config.ini").write_text(text.replace("l2_lambda = 0.0001", "l2_lambda = 1e308"))
        out = tmp_path / "out"
        for name in ("vectors", "datasets"):
            shutil.copytree(config.output_dir / name, out / name)
        args = ("--config", inputs / "config.ini", "--out", out)
        message = "Adagrad accumulator became non-finite at epoch 1"
        assert run_cli(*args, "train", "--verb", "devour") == EXIT_RUNTIME
        assert_clean_failure(caplog, message)
        assert not list(out.rglob("*.tvbm"))
        caplog.clear()
        assert run_cli(*args, "experiment", "--which", "small-cv") == EXIT_RUNTIME
        assert_clean_failure(caplog, "TrainingDiverged: tensor failed on repetition 1 fold 1: "
                                     + message)
