"""The streaming ingestion pipeline.

``StreamingIngest`` couples the frontend's streaming parser
(:meth:`repro.frontend.Parser.iter_declarations`) to the O(delta)
maintenance machinery: every completed ``ClassDecl`` is lowered into a
*live* :class:`~repro.hierarchy.graph.ClassHierarchyGraph` by an
:class:`~repro.frontend.sema.IncrementalSema`, and every ``batch_size``
classes the pipeline publishes one ``apply_delta`` — a cone-restricted
re-sweep plus an atomic snapshot swap — so a served table is current
and queryable *while* later files are still being parsed.

Contrast with :func:`rebuild_baseline`, the pre-delta shape of the same
job (parse a whole file, lower it, rebuild the entire ``|N| × |M|``
table from scratch, repeat): the streaming path's per-batch cost tracks
the invalidation cone of the new classes, not the accumulated
hierarchy, which is where the ≥2× end-to-end win on multi-thousand
class corpora comes from (``BENCH_ingest.json``).

Files are parsed in order with one shared ``known_classes`` set, so a
class in ``widgets.h`` can derive from a namespace-qualified base
defined in ``core.h`` without any ``#include`` machinery.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from repro.core.lookup import MemberLookupTable
from repro.frontend.cpp_ast import ClassDecl
from repro.frontend.errors import DiagnosticBag, ParseError
from repro.frontend.parser import Parser
from repro.frontend.sema import IncrementalSema
from repro.hierarchy.graph import ClassHierarchyGraph

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "BatchRecord",
    "IngestReport",
    "StreamingIngest",
    "ingest_paths",
    "rebuild_baseline",
]

DEFAULT_BATCH_SIZE = 128


@dataclass(frozen=True)
class BatchRecord:
    """One published batch: how much arrived, what the delta cost."""

    index: int
    classes: int
    generation: int
    cone_classes: int
    affected_members: int
    entries_recomputed: int
    entries_reused: int
    full_rebuilds: int
    elapsed_s: float


@dataclass
class IngestReport:
    """The outcome of one ingestion run."""

    files: list[str] = field(default_factory=list)
    classes: int = 0
    batches: list[BatchRecord] = field(default_factory=list)
    parse_errors: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def generation(self) -> int:
        """Table generation after the last publish (0 if none)."""
        return self.batches[-1].generation if self.batches else 0

    def to_dict(self) -> dict:
        return {
            "files": list(self.files),
            "classes": self.classes,
            "batches": [vars(b) | {} for b in self.batches],
            "parse_errors": list(self.parse_errors),
            "elapsed_s": self.elapsed_s,
        }


class StreamingIngest:
    """Parse → lower → ``apply_delta``, one batch at a time.

    Build one over a fresh (or existing) table, feed it sources with
    :meth:`ingest_source` / :meth:`ingest_file`, and the table stays
    current to within ``batch_size`` classes of the parse front; call
    :meth:`flush` to publish a final partial batch.  ``on_batch`` (if
    given) observes every published :class:`BatchRecord` — the serve
    tier uses it to bump tenant counters.

    Semantic errors (unknown bases, duplicate members) are collected on
    :attr:`diagnostics` and never stall the stream; *syntax* errors
    abort the offending file with :class:`ParseError` unless
    ``keep_going`` is set, in which case the error is recorded on the
    report and ingestion resumes with the next file (a desynced token
    stream cannot be resumed within the file).
    """

    def __init__(
        self,
        *,
        table: Optional[MemberLookupTable] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        semantics=None,
        keep_going: bool = False,
        on_batch: Optional[Callable[[BatchRecord], None]] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if table is None:
            table = MemberLookupTable(
                ClassHierarchyGraph(),
                mode="batched",
                fastpath=True,
                semantics=semantics,
            )
        if table.graph is None:
            raise ValueError(
                "StreamingIngest needs a table over a live source graph"
            )
        self.table = table
        self.sema = IncrementalSema(table.graph)
        self.batch_size = batch_size
        self.keep_going = keep_going
        self.on_batch = on_batch
        self.report = IngestReport()
        # Classes already in the graph resolve as bases for newly
        # parsed files, exactly like classes from earlier files do.
        self.known_classes: set = set(table.graph.classes)
        self._pending = 0

    @property
    def diagnostics(self) -> DiagnosticBag:
        return self.sema.diagnostics

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------

    def ingest_source(
        self, source: str, filename: Optional[str] = None
    ) -> int:
        """Stream one translation unit's classes into the live table.

        Returns the number of classes lowered.  The token stream is
        consumed declaration by declaration: a publish can happen in
        the middle of the file, with the parser suspended."""
        started = self.sema.classes_declared
        parser = Parser(
            source, filename=filename, known_classes=self.known_classes
        )
        if filename is not None:
            self.report.files.append(filename)
        try:
            for decl in parser.iter_declarations():
                if not isinstance(decl, ClassDecl):
                    continue  # free functions don't shape the table
                self.sema.declare(decl)
                self._pending += 1
                if self._pending >= self.batch_size:
                    self.flush()
        except ParseError as exc:
            if not self.keep_going:
                raise
            self.report.parse_errors.append(str(exc))
        lowered = self.sema.classes_declared - started
        self.report.classes += lowered
        return lowered

    def ingest_file(self, path: Union[str, Path]) -> int:
        path = Path(path)
        return self.ingest_source(path.read_text(), filename=str(path))

    def ingest(self, paths: Iterable[Union[str, Path]]) -> IngestReport:
        """Ingest many files in order and flush the final partial
        batch.  Returns the accumulated :class:`IngestReport`."""
        t0 = time.perf_counter()
        for path in paths:
            self.ingest_file(path)
        self.flush()
        self.report.elapsed_s += time.perf_counter() - t0
        return self.report

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------

    def flush(self) -> Optional[BatchRecord]:
        """Publish the pending classes as one ``apply_delta`` batch.

        No-op when nothing is pending.  The publish is atomic for
        readers of the table's snapshot chain: they see the generation
        before the batch or after it, never a torn table."""
        if self._pending == 0:
            return None
        t0 = time.perf_counter()
        stats = self.table.apply_delta()
        elapsed = time.perf_counter() - t0
        snapshot = self.table.snapshot
        record = BatchRecord(
            index=len(self.report.batches),
            classes=self._pending,
            generation=(
                snapshot.generation
                if snapshot is not None
                else self.table.graph.generation
            ),
            cone_classes=stats.cone_classes,
            affected_members=stats.affected_members,
            entries_recomputed=stats.entries_recomputed,
            entries_reused=stats.entries_reused,
            full_rebuilds=stats.full_rebuilds,
            elapsed_s=elapsed,
        )
        self.report.batches.append(record)
        self._pending = 0
        if self.on_batch is not None:
            self.on_batch(record)
        return record


def ingest_paths(
    paths: Iterable[Union[str, Path]],
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
    semantics=None,
    keep_going: bool = False,
) -> tuple[MemberLookupTable, IngestReport]:
    """One-shot convenience: stream-ingest ``paths`` into a fresh
    table.  Returns ``(table, report)``."""
    pipeline = StreamingIngest(
        batch_size=batch_size,
        semantics=semantics,
        keep_going=keep_going,
    )
    report = pipeline.ingest(paths)
    return pipeline.table, report


def rebuild_baseline(
    paths: Iterable[Union[str, Path]],
    *,
    semantics=None,
) -> tuple[MemberLookupTable, int]:
    """The pre-delta shape of ingestion, kept as the benchmark
    baseline: parse each whole file, lower all of it, then rebuild the
    complete table from scratch — per file, as a compiler without
    incremental maintenance would after each header.  Returns the final
    table and the class count."""
    graph = ClassHierarchyGraph()
    sema = IncrementalSema(graph)
    known: set = set()
    table = None
    for path in paths:
        path = Path(path)
        unit = Parser(
            path.read_text(), filename=str(path), known_classes=known
        ).parse()
        for decl in unit.classes():
            sema.declare(decl)
        table = MemberLookupTable(
            graph.compile(),
            mode="batched",
            fastpath=True,
            semantics=semantics,
        )
    if table is None:
        table = MemberLookupTable(graph, mode="batched", semantics=semantics)
    return table, sema.classes_declared
