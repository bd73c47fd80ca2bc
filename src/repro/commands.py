"""The commands of ``repro`` that answer once and exit.

:mod:`repro.cli` parses every command line and runs ``ingest`` and
``serve`` itself; every other command runs here, through :func:`run`,
so the long-running commands never compile this module.  Each handler
imports the modules it uses when it runs.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.core.semantics import DEFAULT_SEMANTICS, SEMANTICS_NAMES
from repro.fuzz import ENGINES

if TYPE_CHECKING:
    import argparse

    from repro.frontend.sema import Program
    from repro.hierarchy.graph import ClassHierarchyGraph

__all__ = ["run"]


def _load_hierarchy(path: str) -> tuple[ClassHierarchyGraph, list[str]]:
    """Load a hierarchy from C++ source or a JSON dump; returns the graph
    and any diagnostics rendered as strings."""
    text = Path(path).read_text()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        from repro.hierarchy.serialize import loads

        return loads(text), []
    program = _analyze_file(path, text)
    rendered = [d.render(text) for d in program.diagnostics]
    return program.hierarchy, rendered


def _analyze_file(path: str, text: str) -> Program:
    """Parse and analyse ``text``, every diagnostic located in ``path``."""
    from repro.frontend.parser import parse
    from repro.frontend.sema import analyze_unit

    return analyze_unit(parse(text, filename=path), text)


def _resolve_build_options(args: argparse.Namespace) -> None:
    """Non-default semantics only run on the batched driver: upgrade
    the per-member mode silently."""
    if args.semantics != DEFAULT_SEMANTICS:
        args.mode = "batched"


def _render_lookup_stats(table) -> str:
    stats = table.stats
    return (
        f"[build mode={table.mode}] "
        f"classes_visited={stats.classes_visited} "
        f"entries_computed={stats.entries_computed} "
        f"red_propagations={stats.red_propagations} "
        f"blue_propagations={stats.blue_propagations} "
        f"dominance_checks={stats.dominance_checks}"
    )


def _render_columnar_stats(table) -> Optional[str]:
    """The columnar layout's shape and serving counters, or ``None``
    for the in-place per-member table, which has no columnar layout."""
    columnar = table.columnar_table
    if columnar is None:
        return None
    stats = columnar.stats
    return (
        f"[columnar] columns={columnar.column_count} "
        f"pool_slots={len(columnar.pool)} "
        f"populated_cells={columnar.populated_cells} "
        f"batches={stats.batches} queries={stats.queries} "
        f"gathers={stats.gathers} scalar_serves={stats.scalar_serves} "
        f"columns_materialized={stats.columns_materialized}"
    )


def _exercise_columnar(graph: ClassHierarchyGraph, table) -> Optional[str]:
    """Answer every visible ``(class, member)`` pair through one
    serving gather (``lookup_many_json``), cross-check each wire
    fragment against the encoding of the per-query library answer, and
    return the columnar stats line (``None`` for the in-place
    per-member table, which has no columnar layout)."""
    from repro.core.results import result_json

    snapshot = table.snapshot
    if snapshot is None:
        return None
    queries = [
        (class_name, member)
        for class_name in graph.classes
        for member in table.visible_members(class_name)
    ]
    fragments = snapshot.lookup_many_json(queries)
    for (class_name, member), fragment in zip(queries, fragments):
        assert fragment == result_json(table.lookup(class_name, member))
    return _render_columnar_stats(table)


def _check_against_reference(
    graph: ClassHierarchyGraph, table, semantics: str
) -> str:
    """Check every visible answer of ``table`` against an engine sharing
    none of its build or delta path: the §5 lazy engine under the
    paper's rule, else a from-scratch batched build (the lazy engine
    runs only the dominance fold).  Returns the report line."""
    if semantics == DEFAULT_SEMANTICS:
        from repro.core.lazy import LazyMemberLookup

        reference = LazyMemberLookup(graph)
    else:
        from repro.core.lookup import MemberLookupTable

        reference = MemberLookupTable(graph, mode="batched", semantics=semantics)
    pairs = [(c, m) for c in graph.classes for m in table.visible_members(c)]
    for class_name, member in pairs:
        result = table.lookup(class_name, member)
        assert result == reference.lookup(class_name, member)
    return f"checked {len(pairs)} answers against {type(reference).__name__}"


def _report_delta_stats(
    graph: ClassHierarchyGraph, args: argparse.Namespace
) -> None:
    """The ``--delta-stats`` report: rebuild the hierarchy without its
    last leaf class, warm a table over that prefix, replay the leaf as
    a live mutation, show what ``MemberLookupTable.apply_delta``
    actually touched — the delta win without the benchmark harness —
    and check the maintained table's every answer."""
    from repro.core.lookup import build_lookup_table
    from repro.hierarchy.graph import ClassHierarchyGraph

    leaves = [
        name for name in graph.classes if not graph.direct_derived(name)
    ]
    if len(graph) < 2 or not leaves:
        print("delta stats: hierarchy too small to replay a declaration")
        return
    leaf = leaves[-1]

    prefix = ClassHierarchyGraph()
    for name in graph.classes:
        if name != leaf:
            prefix.add_class(name, graph.declared_members(name).values())
    for name in graph.classes:
        if name == leaf:
            continue
        for edge in graph.direct_bases(name):
            prefix.add_edge(
                edge.base, name, virtual=edge.virtual, access=edge.access
            )

    table = build_lookup_table(
        prefix, mode=args.mode, semantics=args.semantics
    )

    prefix.add_class(leaf, graph.declared_members(leaf).values())
    for edge in graph.direct_bases(leaf):
        prefix.add_edge(
            edge.base, leaf, virtual=edge.virtual, access=edge.access
        )
    delta = table.apply_delta()
    ch = table.compiled
    print(
        f"delta stats: replayed leaf class {leaf!r} "
        f"({graph.base_count(leaf)} base edge(s), "
        f"{len(graph.declared_members(leaf))} member(s)) as a mutation"
    )
    print(
        f"  cone: {delta.cone_classes} of {ch.n_classes} classes; "
        f"affected members: {delta.affected_members} of {ch.n_members}"
    )
    print(
        f"  table rows: recomputed={delta.entries_recomputed} "
        f"reused={delta.entries_reused} "
        f"boundary_rows={delta.boundary_rows} "
        f"full_rebuilds={delta.full_rebuilds}"
    )
    print("  " + _check_against_reference(prefix, table, args.semantics))


def _run_build(graph: ClassHierarchyGraph, args: argparse.Namespace) -> int:
    """The ``build`` command: construct the table in the requested mode,
    report its build counters, and check every visible ``(class,
    member)`` answer against an independent engine."""
    import time

    from repro.core.lookup import build_lookup_table

    ch = graph.compile()
    start = time.perf_counter()
    table = build_lookup_table(
        graph, mode=args.mode, semantics=args.semantics
    )
    elapsed = time.perf_counter() - start
    print(
        f"built lookup table for {ch.n_classes} classes / "
        f"{ch.n_members} member names / {len(ch.base_targets)} edges "
        f"in {elapsed * 1e3:.2f} ms"
    )
    print(f"  mode: {table.mode}  semantics: {table.semantics.name}")
    print("  " + _render_lookup_stats(table))

    print("  " + _check_against_reference(graph, table, args.semantics))
    if args.columnar:
        columnar_line = _exercise_columnar(graph, table)
        if columnar_line is not None:
            print("  " + columnar_line)
    if args.delta_stats:
        _report_delta_stats(graph, args)
    return 0


def _run_fuzz(args: argparse.Namespace) -> int:
    """The ``fuzz`` command: run a campaign, print the summary, write the
    JSON report, and exit nonzero iff any engine diverged."""
    from repro.fuzz import run_campaign

    engines = (
        tuple(name.strip() for name in args.engines.split(",") if name.strip())
        if args.engines
        else ENGINES
    )
    unknown = [name for name in engines if name not in ENGINES]
    if unknown or not engines:
        named = (
            f"unknown engine(s) {', '.join(unknown)}"
            if unknown
            else f"no engine named in {args.engines!r}"
        )
        print(
            f"error: {named} (choose from {', '.join(ENGINES)})",
            file=sys.stderr,
        )
        return 2
    semantics = (
        tuple(
            name.strip()
            for name in args.semantics.split(",")
            if name.strip()
        )
        if args.semantics
        else None
    )
    if semantics:
        unknown = [name for name in semantics if name not in SEMANTICS_NAMES]
        if unknown:
            print(
                f"error: unknown semantics {', '.join(unknown)} "
                f"(choose from {', '.join(SEMANTICS_NAMES)})",
                file=sys.stderr,
            )
            return 2
    report = run_campaign(
        seed=args.seed,
        budget=args.budget,
        engines=engines,
        corpus_dir=args.corpus,
        time_budget=args.time_budget,
        max_classes=args.max_classes,
        shrink=not args.no_shrink,
        semantics=semantics,
    )
    print(report.render())
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n")
        print(f"report written to {args.report}")
    return report.exit_code


def _run_table_pack(args: argparse.Namespace) -> int:
    """``repro table --load-pack``: serve the printed table straight
    off the mmapped file — no hierarchy source, no build."""
    from repro.core.flatpack import mmap_table

    if args.file is not None:
        raise ValueError(
            "--load-pack serves an already-packed table; drop the "
            "hierarchy file argument (or use --save-pack to write one)"
        )
    with mmap_table(args.load_pack) as packed:
        for class_name in packed._interner().class_names:
            for member in packed.visible_members(class_name):
                result = packed.lookup(class_name, member)
                if args.ambiguous_only and not result.is_ambiguous:
                    continue
                print(result)
        if args.stats:
            print(
                f"[pack generation={packed.generation} "
                f"semantics={packed.semantics.name}]"
            )
    return 0


def run(args: argparse.Namespace) -> int:
    """Run any command but ``ingest`` and ``serve``."""
    if args.command == "check":
        text = Path(args.file).read_text()
        if text.lstrip().startswith("{"):
            from repro.hierarchy.serialize import loads

            loads(text)
            print("hierarchy dump OK")
            return 0
        from repro.frontend.errors import ParseError

        try:
            program = _analyze_file(args.file, text)
        except ParseError as exc:
            print(exc.diagnostic.render(text), file=sys.stderr)
            return 2
        for diagnostic in program.diagnostics:
            print(diagnostic.render(text))
        errors = len(program.errors())
        print(
            f"{len(program.hierarchy)} classes, "
            f"{len(program.resolutions)} member accesses, "
            f"{errors} error(s)"
        )
        return 1 if errors else 0

    if args.command == "fuzz":
        return _run_fuzz(args)

    if args.command == "table" and args.load_pack:
        return _run_table_pack(args)

    if args.command == "diff":
        from repro.analysis.diff import diff_hierarchies, render_diff

        before, _ = _load_hierarchy(args.before)
        after, _ = _load_hierarchy(args.after)
        changes = diff_hierarchies(before, after)
        print(render_diff(changes))
        return 1 if changes else 0

    if args.command == "table" and args.file is None:
        raise ValueError("table needs a hierarchy file (or --load-pack)")

    graph, diagnostics = _load_hierarchy(args.file)
    for line in diagnostics:
        print(line, file=sys.stderr)

    if args.command == "lookup":
        class_name, member = args.query
        if args.no_static_rule:
            from repro.core.lookup import build_lookup_table

            result = build_lookup_table(graph).lookup(class_name, member)
        else:
            from repro.core.static_lookup import StaticAwareLookupTable

            result = StaticAwareLookupTable(graph).lookup(class_name, member)
        print(result)
        return 0 if result.is_unique else 1

    if args.command == "table":
        from repro.core.lookup import build_lookup_table

        _resolve_build_options(args)
        table = build_lookup_table(
            graph, mode=args.mode, semantics=args.semantics
        )
        for class_name in graph.classes:
            for member in table.visible_members(class_name):
                result = table.lookup(class_name, member)
                if args.ambiguous_only and not result.is_ambiguous:
                    continue
                print(result)
        if args.columnar:
            columnar_line = _exercise_columnar(graph, table)
            if columnar_line is not None:
                print(columnar_line)
        if args.stats:
            print(_render_lookup_stats(table))
        if args.delta_stats:
            _report_delta_stats(graph, args)
        if args.save_pack:
            from repro.core.flatpack import pack as write_pack

            written = write_pack(table, args.save_pack)
            print(
                f"pack written to {args.save_pack} ({written} bytes, "
                f"generation {table.compiled.generation})"
            )
        return 0

    if args.command == "pack":
        from repro.core.flatpack import pack as write_pack
        from repro.core.lookup import build_lookup_table

        table = build_lookup_table(
            graph, mode="batched", semantics=args.semantics
        )
        written = write_pack(table, args.out)
        ch = table.compiled
        print(
            f"packed {ch.n_classes} classes, {ch.n_members} members "
            f"(generation {ch.generation}, semantics "
            f"{table.semantics.name}) -> {args.out} ({written} bytes)"
        )
        return 0

    if args.command == "build":
        _resolve_build_options(args)
        return _run_build(graph, args)

    if args.command == "explain":
        from repro.diagnostics.explain import explain_lookup

        class_name, member = args.query
        print(explain_lookup(graph, class_name, member))
        return 0

    if args.command == "metrics":
        from repro.analysis.metrics import compute_metrics

        print(compute_metrics(graph).render())
        return 0

    if args.command == "dot":
        from repro.diagnostics.dot import chg_to_dot, subobject_graph_to_dot

        if args.subobjects:
            from repro.subobjects.graph import SubobjectGraph

            print(subobject_graph_to_dot(SubobjectGraph(graph, args.subobjects)))
        else:
            print(chg_to_dot(graph))
        return 0

    if args.command == "slice":
        from repro.hierarchy.serialize import dumps
        from repro.slicing.slicer import slice_hierarchy

        result = slice_hierarchy(graph, args.queries)
        if args.json:
            print(dumps(result.hierarchy))
        else:
            print(result.hierarchy.summary())
            removed = sorted(set(graph.classes) - result.kept_classes)
            print(f"removed: {', '.join(removed) if removed else '(nothing)'}")
        return 0

    if args.command == "lint":
        from repro.analysis.lint import (
            LintSeverity,
            lint_hierarchy,
            render_findings,
        )

        findings = lint_hierarchy(graph)
        if args.errors_only:
            findings = [
                f for f in findings if f.severity is LintSeverity.ERROR
            ]
        print(render_findings(findings))
        has_errors = any(
            f.severity is LintSeverity.ERROR for f in findings
        )
        return 1 if has_errors else 0

    if args.command == "vtables":
        from repro.layout.vtable import build_vtables

        print(build_vtables(graph, args.class_name).render())
        return 0

    if args.command == "targets":
        from repro.analysis.cha import analyze_call_targets

        class_name, member = args.query
        analysis = analyze_call_targets(graph, class_name, member)
        print(analysis.render())
        return 0

    if args.command == "trace":
        from repro.diagnostics.trace import (
            render_abstract_trace,
            render_concrete_trace,
        )

        if args.concrete:
            print(render_concrete_trace(graph, args.member))
        else:
            print(render_abstract_trace(graph, args.member))
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")
