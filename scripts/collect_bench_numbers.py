#!/usr/bin/env python3
"""Regenerate the measured numbers behind EXPERIMENTS.md.

Runs the benchmark suite with ``--benchmark-json`` and prints a compact
per-benchmark summary (median, ops, extra_info counters) grouped by
bench file, so the tables in EXPERIMENTS.md can be refreshed after a
change.

Usage:  python scripts/collect_bench_numbers.py [pytest-args...]
        python scripts/collect_bench_numbers.py -k interning --json-out BENCH_interning.json
        python scripts/collect_bench_numbers.py -k storm --json-out BENCH_delta.json
        python scripts/collect_bench_numbers.py -k snapshot --json-out BENCH_snapshot.json
        python scripts/collect_bench_numbers.py -k bench_columnar --json-out BENCH_columnar.json
        python scripts/collect_bench_numbers.py -k bench_semantics --json-out BENCH_semantics.json
        python scripts/collect_bench_numbers.py -k bench_coldstart --json-out BENCH_coldstart.json
        python scripts/collect_bench_numbers.py -k bench_ingest --json-out BENCH_ingest.json
        python scripts/collect_bench_numbers.py --quick

``--json-out PATH`` additionally writes a compact, machine-readable
summary (median/mean/stddev/rounds plus ``extra_info`` per benchmark) to
PATH — small enough to check in next to the benchmark it records.

A full run also folds the *checked-in* ``BENCH_*.json`` summaries into
the printed report (skipping any file re-measured by the current run),
so one invocation shows the fresh numbers next to every recorded
result — ``BENCH_coldstart.json``'s pack-vs-JSON speedups included.

Benchmarks that tag themselves with ``extra_info["baseline"] = True``
(the seed string-keyed build in ``bench_interning.py``, the per-member
build in ``bench_batched.py``, the rebuild-per-step storm in
``bench_incremental.py``) anchor a *comparisons* section: every
other benchmark of the same file + ``extra_info["workload"]`` group is
reported as a speedup over its baseline, so baseline-vs-current numbers
land in one JSON report instead of two runs diffed by hand.

``--quick`` runs the whole suite once with timing disabled
(``--benchmark-disable``): a smoke mode proving the harness still
*works* — CI uses it to fail PRs on benchmark bitrot without asserting
anything about speed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def human(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:8.1f} µs"
    if seconds < 1:
        return f"{seconds * 1e3:8.2f} ms"
    return f"{seconds:8.2f} s "


def comparisons(benchmarks: list) -> list[dict]:
    """Speedups of every benchmark against the tagged baseline of its
    ``(file, workload)`` group, where one exists."""
    groups: dict[tuple[str, str], list] = defaultdict(list)
    for bench in benchmarks:
        extras = bench.get("extra_info") or {}
        workload = extras.get("workload")
        if workload is None:
            continue
        file_name = bench["fullname"].split("::")[0].split("/")[-1]
        groups[(file_name, str(workload))].append(bench)

    out: list[dict] = []
    for (file_name, workload), group in sorted(groups.items()):
        baseline = next(
            (
                b
                for b in group
                if (b.get("extra_info") or {}).get("baseline")
            ),
            None,
        )
        if baseline is None:
            continue
        base_median = baseline["stats"]["median"]
        for bench in group:
            if bench is baseline or not base_median:
                continue
            out.append(
                {
                    "file": file_name,
                    "workload": workload,
                    "baseline": baseline["name"],
                    "candidate": bench["name"],
                    "baseline_median_s": base_median,
                    "candidate_median_s": bench["stats"]["median"],
                    "speedup": round(
                        base_median / bench["stats"]["median"], 3
                    ),
                }
            )
    return out


def recorded_comparisons(skip_files: set[str]) -> list[dict]:
    """The comparison rows of every checked-in ``BENCH_*.json`` summary
    at the repo root, except those whose bench file the current run
    already re-measured (fresh numbers win)."""
    rows: list[dict] = []
    for path in sorted(ROOT.glob("BENCH_*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        for row in data.get("comparisons", []):
            if row.get("file") in skip_files:
                continue
            rows.append({**row, "report": path.name})
    return rows


def main() -> int:
    pytest_args = list(sys.argv[1:])
    json_out = None
    if "--json-out" in pytest_args:
        index = pytest_args.index("--json-out")
        try:
            json_out = pytest_args[index + 1]
        except IndexError:
            print("--json-out requires a path", file=sys.stderr)
            return 2
        del pytest_args[index : index + 2]

    if "--quick" in pytest_args:
        pytest_args.remove("--quick")
        command = [
            sys.executable,
            "-m",
            "pytest",
            str(ROOT / "benchmarks"),
            "--benchmark-disable",
            # Smoke mode checks the harness, not the hardware: the
            # wall-clock floor assertions stay out of it by contract.
            "-k",
            "not speedup_floor",
            "-q",
            *pytest_args,
        ]
        return subprocess.run(command, cwd=ROOT).returncode

    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        json_path = handle.name
    command = [
        sys.executable,
        "-m",
        "pytest",
        str(ROOT / "benchmarks"),
        "--benchmark-only",
        "-q",
        f"--benchmark-json={json_path}",
        *pytest_args,
    ]
    completed = subprocess.run(command, cwd=ROOT)
    if completed.returncode != 0:
        return completed.returncode

    data = json.loads(Path(json_path).read_text())
    by_file: dict[str, list] = defaultdict(list)
    for bench in data["benchmarks"]:
        file_name = bench["fullname"].split("::")[0].split("/")[-1]
        by_file[file_name].append(bench)

    for file_name in sorted(by_file):
        print(f"\n== {file_name} ==")
        for bench in sorted(by_file[file_name], key=lambda b: b["name"]):
            median = bench["stats"]["median"]
            extras = bench.get("extra_info") or {}
            extra_text = (
                "  [" + ", ".join(f"{k}={v}" for k, v in extras.items()) + "]"
                if extras
                else ""
            )
            print(f"  {bench['name']:<55} {human(median)}{extra_text}")

    compared = comparisons(data["benchmarks"])
    if compared:
        print("\n== baseline comparisons ==")
        for row in compared:
            print(
                f"  {row['workload']:<20} {row['baseline']} -> "
                f"{row['candidate']:<40} {row['speedup']:6.2f}x"
            )
    recorded = recorded_comparisons(set(by_file))
    if recorded:
        print("\n== recorded comparisons (checked-in BENCH_*.json) ==")
        for row in recorded:
            print(
                f"  {row['report']:<28} {row['workload']:<20} "
                f"{row['candidate']:<45} {row['speedup']:6.2f}x"
            )
    print(f"\n(raw JSON: {json_path})")

    if json_out is not None:
        summary = {
            "machine_info": {
                key: data.get("machine_info", {}).get(key)
                for key in ("python_version", "system", "machine")
            },
            "datetime": data.get("datetime"),
            "benchmarks": [
                {
                    "name": bench["name"],
                    "fullname": bench["fullname"],
                    "median_s": bench["stats"]["median"],
                    "mean_s": bench["stats"]["mean"],
                    "stddev_s": bench["stats"]["stddev"],
                    "rounds": bench["stats"]["rounds"],
                    "extra_info": bench.get("extra_info") or {},
                }
                for bench in sorted(
                    data["benchmarks"], key=lambda b: b["fullname"]
                )
            ],
            "comparisons": compared,
        }
        Path(json_out).write_text(json.dumps(summary, indent=2) + "\n")
        print(f"(summary written to {json_out})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
