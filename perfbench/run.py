"""Run one verbtensor benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload cv-default --seed 7 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run. ``--trace 1``
makes the same untraced run, then one traced set-up and pass, and prints the
per-layer metrics. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
show each metric with its unit and better direction. A results file with
provenance, sample lists and artifact digests (plus the spans of a traced
run) is written under ``.perfbench/results/``.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed; 7 is the canonical default world")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "verbtensor" / "__init__.py").is_file():
        print(f"perfbench: no verbtensor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The benchmark reports the main thread's CPU time, so BLAS runs on that
    # thread (set before numpy loads). The process is pinned to one CPU, so
    # that the speedometer thread measures the CPU the program runs on.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import workloads
    from tracer import LAYER_METRICS

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = STATE / f"work-{tag}-{os.getpid()}"
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    session = workloads.Session(workloads.WORKLOADS[args.workload], args.seed, work)
    try:
        untraced = session.measure(args.seconds)
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "provenance": workloads.provenance(ROOT),
            **session.describe(),
            "fixture": session.fixture_sizes(),
            "untraced": untraced,
        }
        metrics, table = untraced["metrics"], workloads.END_TO_END_METRICS
        if args.trace:
            metrics, tracer = session.trace(run_id=f"{tag}-{os.getpid()}")
            table = LAYER_METRICS
            report["traced"] = {"metrics": metrics, "missing_hooks": tracer.missing}
            tracer.write_spans(results / f"{tag}-spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report["failures"] = session.failures
    (results / f"{tag}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for failure in session.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    for name, (unit, better) in table.items():
        print(f"# {args.workload} {name} = {metrics[name]:.6g} {unit} ({better} is better)")
    print(json.dumps({
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
