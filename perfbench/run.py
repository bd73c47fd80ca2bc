#!/usr/bin/env python3
"""Run the end-to-end benchmark of ``repro serve`` and ``repro ingest``.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-point --seed 1 --seconds 12
    python3 perfbench/run.py --workload all --trace 1

``--workload`` takes one workload, a comma-separated list, or ``all``.
With ``--trace 0`` every end-to-end metric is printed by name and unit;
with ``--trace 1`` the per-layer table is printed instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (metric names are prefixed
with ``<workload>/`` when more than one workload runs).  The exit code
is 0 when every workload ran to the end, even with wrong answers: those
show as ``failed`` and ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.procs import MissingProgram, require_program, stop_all  # noqa: E402

WORKLOADS = ("serve-point", "serve-batch-writes", "ingest-gui")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="one of %s, a comma-separated list, or 'all'"
                        % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=None,
                        help="program source tree to measure "
                        "(default: the checkout's src/)")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else tuple(args.workload.split(","))
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    args.names = names
    return args


def _print_table(title: str, metrics: dict) -> None:
    print(f"  {title}")
    for name, (value, unit) in metrics.items():
        print(f"    {name:<34} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        require_program(args.src)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # A terminated run still stops its children (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    from perfbench import workloads
    from perfbench.layers import metric_names

    runners = {
        "serve-point": workloads.serve_point,
        "serve-batch-writes": workloads.serve_batch_writes,
        "ingest-gui": workloads.ingest_gui,
    }
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    prefix = len(args.names) > 1
    try:
        for name in args.names:
            outcome = runners[name](args.seed, args.seconds, bool(args.trace))
            tally = outcome.tally
            print(f"{name} (seed {args.seed}, {args.seconds:g} s, "
                  f"trace {args.trace}): attempted {tally.attempted}, "
                  f"failed {tally.failed}, error_rate "
                  f"{tally.failed / max(1, tally.attempted):.6g}")
            if tally.first_failure:
                print(f"  first failure: {tally.first_failure}")
            for key, value in outcome.notes.items():
                print(f"  {key}: {value}")
            if args.trace:
                metrics = {n: outcome.layers[n] for n, _ in metric_names()}
                _print_table("per-layer (self time)", metrics)
            else:
                metrics = outcome.metrics
                _print_table("end-to-end", metrics)
            summary["attempted"] += tally.attempted
            summary["failed"] += tally.failed
            summary["correct"] = summary["correct"] and tally.failed == 0
            for metric, (value, unit) in metrics.items():
                key = f"{name}/{metric}" if prefix else metric
                summary["metrics"][key] = {"value": value, "unit": unit}
    finally:
        stop_all()
        shutil.rmtree(workloads.WORK, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
