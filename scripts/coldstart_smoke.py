#!/usr/bin/env python3
"""Smoke the flatpack cold-start path in a genuinely fresh process.

CI runs this after the test suite: the parent builds a 256-class
family, packs it to a temp file, then spawns *this same script* as a
fresh subprocess (``--child``) that only ever sees the pack — it
``mmap_table``s the file and reports that on stdout.  While the child
holds that mapping, the parent re-packs a different (16-class) table
onto the same path, then tells the child to go on: it answers 50
deterministic queries straight off its original mapping and reports
the generation plus every answer as JSON.  The parent asserts the
child produced all 50 answers, the right generation, and
byte-identical results to the live table it first packed, and that
the path now holds the second table.  Exit code 0 means cold start
actually works cold — no warm compile memo, no shared interpreter
state, just the file — and that ``pack`` replaces a file under a live
reader instead of truncating it (which would kill the reader with
SIGBUS).

Usage:  PYTHONPATH=src python scripts/coldstart_smoke.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLASSES = 256
MEMBERS = 8
QUERIES = 50


def smoke_family(classes: int = CLASSES):
    """The 256-class binary-tree family from ``bench_coldstart.py``,
    shrunk to smoke size."""
    from repro.hierarchy.graph import ClassHierarchyGraph

    graph = ClassHierarchyGraph()
    graph.add_class("N1", members=["m0"])
    for i in range(2, classes + 1):
        declared = [f"m{i - 1}"] if i <= MEMBERS else []
        graph.add_class(f"N{i}", members=declared)
        graph.add_edge(f"N{i // 2}", f"N{i}")
    return graph


def smoke_queries():
    rng = random.Random(7)
    members = [f"m{i}" for i in range(MEMBERS)] + ["does_not_exist"]
    return [
        (f"N{rng.randrange(1, CLASSES + 1)}", rng.choice(members))
        for _ in range(QUERIES)
    ]


def answer_row(result) -> list:
    return [
        result.status.value,
        result.declaring_class,
        str(result.witness) if result.witness is not None else None,
    ]


def child(pack_path: str) -> int:
    """The cold process: one mmap, then (once the parent has re-packed
    the path) 50 answers off that mapping, one JSON line."""
    from repro.core.flatpack import mmap_table

    with mmap_table(pack_path) as packed:
        print("mapped", flush=True)
        sys.stdin.readline()
        answers = [
            answer_row(result)
            for result in packed.lookup_many(smoke_queries())
        ]
        payload = {"generation": packed.generation, "answers": answers}
    print(json.dumps(payload))
    return 0


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        return child(sys.argv[2])

    from repro.core.flatpack import mmap_table, pack
    from repro.core.lookup import build_lookup_table

    graph = smoke_family()
    table = build_lookup_table(graph, mode="batched")
    expected = [answer_row(table.lookup(c, m)) for c, m in smoke_queries()]

    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    other = build_lookup_table(smoke_family(16), mode="batched")
    with tempfile.TemporaryDirectory() as tmp:
        pack_path = str(Path(tmp) / "smoke.pack")
        pack(table, pack_path)
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--child", pack_path],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            mapped = proc.stdout.readline()
            if mapped.strip() == "mapped":
                pack(other, pack_path)
            stdout, stderr = proc.communicate("go\n", timeout=120)
        with mmap_table(pack_path) as repacked:
            repacked_classes = repacked.n_classes
    if proc.returncode != 0 or mapped.strip() != "mapped":
        sys.stderr.write(mapped + stdout)
        sys.stderr.write(stderr)
        raise SystemExit(f"cold child exited rc={proc.returncode}")
    assert repacked_classes == 16, (
        f"re-pack did not land: the path holds {repacked_classes} classes"
    )
    payload = json.loads(stdout)
    assert payload["generation"] == table.compiled.generation, (
        f"generation mismatch: packed {payload['generation']} vs "
        f"live {table.compiled.generation}"
    )
    assert len(payload["answers"]) == QUERIES, (
        f"expected {QUERIES} answers, got {len(payload['answers'])}"
    )
    assert payload["answers"] == expected, "cold answers diverge from live table"
    print(
        f"coldstart smoke OK: fresh process answered {QUERIES} queries "
        f"off the mmapped pack (generation {payload['generation']}, "
        f"{CLASSES} classes) after the path was re-packed under it"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
