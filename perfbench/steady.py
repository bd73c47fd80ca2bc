#!/usr/bin/env python3
"""Repeated runs of the benchmark, and comparison of two sets of runs.

Usage, from the repository root::

    # ten runs of each workload, seeds 1..10, saved to runs-a.json
    python3 perfbench/steady.py run --workload all --seeds 1-10 --out runs-a.json
    # the same code again, or another commit, then compare
    python3 perfbench/steady.py run --workload all --seeds 1-10 --out runs-b.json
    python3 perfbench/steady.py compare runs-a.json runs-b.json
    # parent against change, interleaved: per seed one run of each side,
    # alternating which side goes first
    python3 perfbench/steady.py pair --base ../parent/src --head src \
        --workload all --seeds 1-10 --out pairs.json

``run`` prints, per workload and end-to-end metric, the median of the
runs and their quartile spread ``(q3 - q1) / median``, and marks a
spread wider than the metric's bound in ``BENCHMARK.json`` (``WIDE``)
or wider than a third of it (``noisy``).  ``compare`` reports for every
metric of every workload ``ok``, ``regressed`` (the second median is
worse than the first by more than the bound), ``improved``, or
``unresolved`` when either set spreads wider than the bound and the
runs do not separate completely.

``pair`` runs the same benchmark code against two program source trees.
On a shared host the speed drifts in phases that last minutes, longer
than a set of runs, so two sets run one after the other can differ with
no code change; interleaving puts each drift on both sides.  It prints
each side's median and quartiles, how many pairs the head won, and the
``compare`` verdict; ``--out`` saves both sides as ``{"base": runs,
"head": runs}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import WORKLOADS  # noqa: E402
from perfbench.stats import median_iqr  # noqa: E402


def load_spec() -> tuple[dict, int]:
    """End-to-end metrics of ``BENCHMARK.json`` by name, and its
    ``run_seconds``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}, spec["run_seconds"]


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"3,5,8"``."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float,
             src: Optional[Path] = None) -> dict:
    """One benchmark run in a fresh process; its final JSON line.
    ``src`` is the program source tree (default: the checkout's)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    if src is not None:
        command += ["--src", str(Path(src).resolve())]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(series: dict, result: dict) -> None:
    """Append one run's failures and metric values to ``series``."""
    series.setdefault("_failed", []).append(result["failed"])
    for metric, entry in result["metrics"].items():
        series.setdefault(metric, []).append(entry["value"])


def summarise(runs: dict, spec: dict) -> None:
    for workload, series in runs.items():
        print(workload)
        for metric, values in series.items():
            if metric.startswith("_"):
                continue
            median, spread = median_iqr(values)
            bound = spec[metric]["bound"]
            flag = "WIDE" if spread > bound else "noisy" if spread > bound / 3 else ""
            print(f"  {metric:<18} median {median:>12.6g} {spec[metric]['unit']:<6}"
                  f" spread {spread:7.2%} (bound {bound:.0%}) {flag}")
        failed = sum(series["_failed"])
        print(f"  runs {len(series['_failed'])}, failed operations {failed}")


def cmd_run(args) -> int:
    spec, run_seconds = load_spec()
    seconds = args.seconds if args.seconds is not None else run_seconds
    names = WORKLOADS if args.workload == "all" else args.workload.split(",")
    runs: dict = {}
    for workload in names:
        series: dict = {}
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, seconds)
            record(series, result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{m}={e['value']:.6g}" for m, e in result["metrics"].items()),
                flush=True)
        runs[workload] = series
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    summarise(runs, spec)
    return 0


def verdict(first: list, second: list, metric: dict) -> tuple[str, float]:
    """Compare two sets of runs of one metric against its bound."""
    m1, s1 = median_iqr(first)
    m2, s2 = median_iqr(second)
    lower = metric["better"] == "lower"
    worse = (m2 - m1) / m1 if lower else (m1 - m2) / m1
    bound = metric["bound"]
    separated = max(second) < min(first) or min(second) > max(first)
    if max(s1, s2) > bound and not separated:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "ok", worse


def cmd_compare(args) -> int:
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    return report(first, second)


def report(first: dict, second: dict) -> int:
    """Print the verdict of every metric of every workload in both sets;
    1 when any is ``regressed`` or ``unresolved``."""
    spec, _ = load_spec()
    bad = 0
    for workload in first:
        if workload not in second:
            continue
        print(workload)
        for metric, values in first[workload].items():
            if metric.startswith("_") or metric not in second[workload]:
                continue
            status, worse = verdict(values, second[workload][metric], spec[metric])
            bad += status in ("regressed", "unresolved")
            print(f"  {metric:<18} {status:<10} second worse by "
                  f"{worse:+.2%} (bound {spec[metric]['bound']:.0%})")
    return 1 if bad else 0


def cmd_pair(args) -> int:
    spec, run_seconds = load_spec()
    seconds = args.seconds if args.seconds is not None else run_seconds
    names = WORKLOADS if args.workload == "all" else args.workload.split(",")
    sides = {"base": args.base, "head": args.head}
    runs: dict = {"base": {}, "head": {}}
    for workload in names:
        for index, seed in enumerate(parse_seeds(args.seeds)):
            order = ("base", "head") if index % 2 == 0 else ("head", "base")
            for side in order:
                result = run_once(workload, seed, seconds, sides[side])
                record(runs[side].setdefault(workload, {}), result)
                print(f"{workload} seed {seed} {side}: " + ", ".join(
                    f"{m}={e['value']:.6g}" for m, e in result["metrics"].items()),
                    flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    for workload in names:
        base, head = runs["base"][workload], runs["head"][workload]
        print(workload)
        for metric in spec:
            if metric not in base:
                continue
            lower = spec[metric]["better"] == "lower"
            wins = sum((h < b) if lower else (h > b)
                       for b, h in zip(base[metric], head[metric]))
            cells = []
            for side in (base, head):
                q1, median, q3 = statistics.quantiles(side[metric], n=4)
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] "
                             f"({(q3 - q1) / median:.1%})")
            print(f"  {metric:<18} base {cells[0]}  head {cells[1]}  "
                  f"head better in {wins}/{len(base[metric])} pairs")
    return report(runs["base"], runs["head"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="repeat runs over several seeds")
    run.add_argument("--workload", default="all")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--seconds", type=float, default=None,
                     help="default: run_seconds of BENCHMARK.json")
    run.add_argument("--out", help="save the runs as JSON")
    compare = commands.add_parser("compare", help="compare two saved sets")
    compare.add_argument("first")
    compare.add_argument("second")
    pair = commands.add_parser("pair", help="interleaved runs of two source trees")
    pair.add_argument("--base", type=Path, required=True,
                      help="source tree of the parent (the directory holding repro/)")
    pair.add_argument("--head", type=Path, required=True,
                      help="source tree of the change")
    pair.add_argument("--workload", default="all")
    pair.add_argument("--seeds", default="1-10")
    pair.add_argument("--seconds", type=float, default=None,
                      help="default: run_seconds of BENCHMARK.json")
    pair.add_argument("--out", help="save both sides as JSON")
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "compare": cmd_compare, "pair": cmd_pair}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
