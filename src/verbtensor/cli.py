"""Command-line entry point.

Exit codes: 0 on success (``--help`` included), 1 for configuration or
validation problems, command-line usage errors among them, 2 for runtime
failures. Global flags go before the subcommand, for example::

    verbtensor --config config.ini --log-level INFO build-vectors
    verbtensor --config config.ini experiment --which full-cv

One call builds the top-level parser and, once argparse dispatches to it,
the chosen command's parser; the other commands' parsers are never built.
The ``-h`` output and the usage errors are the same as with every parser
built up front.

``main`` runs with the cyclic garbage collector paused, and on every way out
turns it back on only if it was on when ``main`` was called, so an in-process
caller gets its own collector state back. The commands' per-row objects
(tuples, strings, JSON records, arrays) cannot form reference cycles, so
reference counting frees them, and traversing them was all the collector did
(most in gen-data; CHANGES.md has the measured shares). The pause is safe
because what a call leaves for the collector is a small, fixed amount, mostly
argparse's parsers: a few hundred objects per command, no more on a larger
world or after a full cross-validation than after a small one (the tests
hold it for gen-data and small-cv). The caller's collector, if on, frees it
after ``main`` returns. ``--jobs`` workers inherit the pause where they are
forked, and exit when the command ends.
"""

import argparse
import gc
import json
import logging
import sys

from . import pipeline
from .config import load_config
from .util import ValidationError, VerbTensorError

log = logging.getLogger("verbtensor")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


_K_HELP = ("embedding dim: one of the config's [vectors] svd_dims "
          "(default: the first of them)")


class _DeferredParser:
    """A subcommand's parser, built only when argparse dispatches to it.

    ``add_subparsers(parser_class=_DeferredParser)`` makes ``add_parser``
    return one of these, holding every keyword argument ``add_parser`` passes
    on; ``add_argument`` records its flags and options. The top-level help
    lists commands from ``add_parser``'s ``help`` alone. The only method
    ``argparse._SubParsersAction`` calls on a subparser is
    ``parse_known_args(args, namespace)`` (checked in the Python 3.11 source),
    so that method builds the real ``ArgumentParser`` and delegates to it.
    """

    def __init__(self, **kwargs):
        self._kwargs = kwargs
        self._arguments = []

    def add_argument(self, *flags, **options):
        self._arguments.append((flags, options))

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(**self._kwargs)
        for flags, options in self._arguments:
            parser.add_argument(*flags, **options)
        return parser.parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verbtensor",
        description="Transitive-verb tensor learning over a plausibility sentence space",
    )
    parser.add_argument("--config", required=True, help="pipeline config file (INI)")
    parser.add_argument("--out", default=None,
                        help="output directory in place of the config's [paths] output_dir, "
                             "relative to the working directory (paths inside the config "
                             "are relative to the config file)")
    parser.add_argument("--seed", type=int, default=None,
                        help="rebase all pipeline seeds from this value")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel verbs for experiments (at least 1; at most one "
                             "worker per verb is started)")
    parser.add_argument("--log-level", default="WARNING",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"])

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_DeferredParser)
    sub.add_parser("build-vectors", help="scan the corpus and write noun embeddings")
    sub.add_parser("gen-data", help="build per-verb datasets with confounder negatives")

    exp = sub.add_parser("experiment", help="run an evaluation protocol")
    exp.add_argument("--which", required=True, choices=list(pipeline.EXPERIMENT_KINDS))

    train = sub.add_parser("train", help="train and save one verb's tensor model")
    train.add_argument("--verb", required=True)
    train.add_argument("--k", type=int, default=None, help=_K_HELP)

    predict = sub.add_parser("predict", help="classify one subject-verb-object triple")
    predict.add_argument("--verb", required=True)
    predict.add_argument("--subject", required=True)
    predict.add_argument("--object", dest="object_", required=True)
    predict.add_argument("--k", type=int, default=None, help=_K_HELP)

    evalv = sub.add_parser("eval-vectors", help="Spearman check of embeddings on word pairs")
    evalv.add_argument("--pairs", default=None, help="word-pair TSV (defaults to dev_pairs)")
    evalv.add_argument("--k", type=int, default=None, help=_K_HELP)
    return parser


def main(argv=None) -> int:
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or a usage error
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    # basicConfig does nothing once the root logger has a handler (a second
    # call in one process, pytest's caplog), so the level goes on our logger
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(args.log_level)
    try:
        config = load_config(args.config, out_override=args.out, seed_override=args.seed)
    except ValidationError as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION

    try:
        if args.command == "build-vectors":
            result = pipeline.build_vectors(config)
        elif args.command == "gen-data":
            result = pipeline.gen_data(config)
        elif args.command == "experiment":
            result = pipeline.experiment(config, args.which, jobs=args.jobs)
        elif args.command == "train":
            result = pipeline.train_verb(config, args.verb, k=args.k)
        elif args.command == "predict":
            result = pipeline.predict_one(config, args.verb, args.subject, args.object_, k=args.k)
        elif args.command == "eval-vectors":
            result = pipeline.eval_vectors(config, pairs_path=args.pairs, k=args.k)
        else:  # pragma: no cover - argparse enforces choices
            raise ValidationError(f"unknown command {args.command!r}")
    except ValidationError as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION
    except VerbTensorError as exc:
        log.error("%s", exc)
        return EXIT_RUNTIME
    except Exception as exc:  # unexpected runtime failure
        log.exception("unexpected failure: %s", exc)
        return EXIT_RUNTIME

    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
