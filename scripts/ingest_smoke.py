#!/usr/bin/env python3
"""Smoke the streaming ingestion pipeline in a genuinely fresh process.

CI runs this after the test suite: the parent emits a ~200-class
GUI-toolkit corpus to a temp directory, then spawns *this same script*
as a fresh subprocess (``--child``) that only ever sees the source
files — it stream-ingests them batch by batch and reports, as JSON,
every batch record (class count + published generation) plus the
answer to every ``(class, member)`` pair off the final snapshot:
status, declaring class, sorted candidates and blue abstractions.  The
parent asserts the generation advanced on every batch, the batch class
counts sum to the corpus size, and every answer is identical to a
parse-everything-then-build-once table it constructs itself.  The
streamed table reaches its blues through many small cone sweeps, the
reference through one sweep whose cone is every class, so the full comparison
checks the delta path's blue candidate and abstraction sets cell by
cell.  Exit code 0 means the streaming path actually works from
nothing but files on disk — no warm parser state, no shared
interpreter.

One header is written with CRLF line endings and a form-feed page
break between two classes, the way GNU-style headers come, so the
fresh process also proves those lex as blanks: the streamed report
must carry no parse errors and every answer must still match the
reference built from the untouched texts.

Usage:  PYTHONPATH=src python scripts/ingest_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LAYERS = 9
WIDTH = 24
FILES = 6
BATCH = 32


def smoke_corpus():
    from repro.workloads.corpus import gui_corpus

    return gui_corpus(layers=LAYERS, width=WIDTH, files=FILES, seed=4)


def smoke_queries(graph):
    """Every ``(class, member)`` pair of the corpus, plus one member no
    class declares."""
    names = list(graph.classes)
    members = sorted(
        {m for n in names for m in graph.declared_members(n)}
    ) + ["does_not_exist"]
    return [(name, member) for name in names for member in members]


def awkward_line_endings(path: Path) -> None:
    """Rewrite one header with CRLF line endings and a form-feed line
    between its first two classes."""
    text = path.read_text()
    boundary = text.index("};\nclass ") + len("};\n")
    text = text[:boundary] + "\f\n" + text[boundary:]
    path.write_bytes(text.replace("\n", "\r\n").encode())


def answer_row(result) -> list:
    return [
        result.status.value,
        result.declaring_class,
        sorted(result.candidates),
        sorted(map(str, result.blue_abstractions)),
    ]


def child(corpus_dir: str) -> int:
    """The cold process: stream the files, report batches + answers."""
    from repro.ingest import StreamingIngest

    paths = sorted(Path(corpus_dir).glob("*.h"))
    pipeline = StreamingIngest(batch_size=BATCH)
    report = pipeline.ingest(paths)
    if report.parse_errors:
        raise SystemExit(f"parse errors: {report.parse_errors}")
    if pipeline.diagnostics.has_errors():
        raise SystemExit(
            f"semantic errors: {pipeline.diagnostics.errors[0]}"
        )
    snapshot = pipeline.table.snapshot
    answers = [
        answer_row(snapshot.lookup(c, m))
        for c, m in smoke_queries(pipeline.table.graph)
    ]
    payload = {
        "classes": report.classes,
        "batches": [
            {"classes": b.classes, "generation": b.generation}
            for b in report.batches
        ],
        "answers": answers,
    }
    print(json.dumps(payload))
    return 0


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        return child(sys.argv[2])

    from repro.frontend import IncrementalSema
    from repro.frontend.parser import Parser
    from repro.core.lookup import MemberLookupTable
    from repro.workloads.corpus import write_corpus

    # The from-scratch reference: parse every file up front, lower it
    # all, build one table at the end.
    files = smoke_corpus()
    sema = IncrementalSema()
    known: set = set()
    for file in files:
        unit = Parser(
            file.text, filename=file.name, known_classes=known
        ).parse()
        for decl in unit.classes():
            sema.declare(decl)
    assert not sema.diagnostics.has_errors()
    table = MemberLookupTable(sema.graph.compile(), mode="batched")
    expected = [
        answer_row(table.lookup(c, m)) for c, m in smoke_queries(sema.graph)
    ]

    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    with tempfile.TemporaryDirectory() as tmp:
        awkward_line_endings(write_corpus(files, tmp)[FILES // 2])
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", tmp],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"cold child exited rc={completed.returncode}")
    payload = json.loads(completed.stdout)

    assert payload["classes"] == len(sema.graph), (
        f"streamed {payload['classes']} classes, "
        f"reference lowered {len(sema.graph)}"
    )
    batches = payload["batches"]
    assert len(batches) >= 3, f"expected >=3 batches, got {len(batches)}"
    generations = [b["generation"] for b in batches]
    assert all(
        later > earlier
        for earlier, later in zip(generations, generations[1:])
    ), f"generation did not advance every batch: {generations}"
    assert sum(b["classes"] for b in batches) == payload["classes"]
    answers = payload["answers"]
    assert len(answers) == len(expected)
    diverged = [
        (query, got, want)
        for query, got, want in zip(
            smoke_queries(sema.graph), answers, expected
        )
        if got != want
    ]
    assert not diverged, (
        f"{len(diverged)} streamed answers diverge from the from-scratch "
        f"table, first: {diverged[0]}"
    )
    blues = sum(1 for row in expected if row[0] == "ambiguous")
    print(
        f"ingest smoke OK: fresh process streamed {payload['classes']} "
        f"classes in {len(batches)} batches (generations "
        f"{generations[0]}..{generations[-1]}); all {len(expected)} "
        f"lookups ({blues} ambiguous) match the from-scratch build"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
