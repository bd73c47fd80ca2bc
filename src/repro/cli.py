"""Command-line interface.

``python -m repro <command> <file> ...`` analyses a hierarchy given
either as C++ source (parsed by :mod:`repro.frontend`) or as a
``repro-chg`` JSON dump (see :mod:`repro.hierarchy.serialize`), and
answers lookup queries, prints tables, explains resolutions, slices, or
exports DOT drawings.

Commands:

* ``check``    parse + analyse, print diagnostics (exit 1 on errors)
* ``lookup``   resolve one ``Class::member`` query
* ``table``    print the whole lookup table
* ``build``    build the table, report build statistics, check every answer
* ``explain``  step-by-step dominance explanation of one query
* ``metrics``  structural metrics of the hierarchy
* ``dot``      DOT export of the CHG or of one class's subobject graph
* ``slice``    slice the hierarchy for a set of queries
* ``trace``    Figure 4-7 style propagation trace for one member
* ``diff``     lookup-impact diff between two hierarchy versions
* ``lint``     hierarchy lint: ambiguities, shadowing, fragile patterns
* ``targets``  class-hierarchy analysis of a call site (devirtualisation)
* ``vtables``  per-subobject vtables of one complete type
* ``fuzz``     seeded differential fuzzing campaign over all engines
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core.lazy import LazyMemberLookup
from repro.core.lookup import BUILD_MODES, MemberLookupTable, build_lookup_table
from repro.core.semantics import DEFAULT_SEMANTICS, SEMANTICS_NAMES
from repro.core.static_lookup import StaticAwareLookupTable
from repro.diagnostics.dot import chg_to_dot, subobject_graph_to_dot
from repro.diagnostics.explain import explain_lookup
from repro.diagnostics.trace import render_abstract_trace, render_concrete_trace
from repro.analysis.diff import diff_hierarchies, render_diff
from repro.analysis.cha import analyze_call_targets
from repro.analysis.lint import LintSeverity, lint_hierarchy, render_findings
from repro.errors import ReproError
from repro.frontend.errors import ParseError
from repro.frontend.sema import analyze
from repro.fuzz import ENGINES
from repro.hierarchy.graph import ClassHierarchyGraph
from repro.analysis.metrics import compute_metrics
from repro.hierarchy.serialize import dumps as hierarchy_dumps
from repro.hierarchy.serialize import loads as hierarchy_loads
from repro.layout.vtable import build_vtables
from repro.slicing.slicer import slice_hierarchy
from repro.subobjects.graph import SubobjectGraph


def _load_hierarchy(path: str) -> tuple[ClassHierarchyGraph, list[str]]:
    """Load a hierarchy from C++ source or a JSON dump; returns the graph
    and any diagnostics rendered as strings."""
    text = Path(path).read_text()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        return hierarchy_loads(text), []
    program = analyze(text)
    rendered = [d.render(text) for d in program.diagnostics]
    return program.hierarchy, rendered


def _parse_query(query: str) -> tuple[str, str]:
    if "::" not in query:
        raise argparse.ArgumentTypeError(
            f"query must look like Class::member, got {query!r}"
        )
    class_name, _, member = query.partition("::")
    return class_name, member


def _add_build_mode_options(parser: argparse.ArgumentParser) -> None:
    """The table-construction knobs shared by ``table`` and ``build``."""
    parser.add_argument(
        "--mode",
        choices=BUILD_MODES,
        default="per-member",
        help="table build strategy: per-member (one fold per (class, "
        "member) pair; the table default) or batched (one Figure-8 "
        "sweep; the build default)",
    )
    parser.add_argument(
        "--fastpath",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="serve certified-unambiguous member columns from the flat "
        "fast path (default: off for table, on for build's batched "
        "tables; rejected for per-member)",
    )
    parser.add_argument(
        "--columnar",
        action="store_true",
        help="exercise the dense columnar serving layout: answer every "
        "visible (class, member) pair through one lookup_many gather "
        "and report its layout/serving counters (snapshot-backed "
        "modes only)",
    )
    parser.add_argument(
        "--delta-stats",
        action="store_true",
        help="replay the hierarchy's last leaf class as a mutation and "
        "report what delta maintenance did (cone size, rows reused vs "
        "recomputed)",
    )
    parser.add_argument(
        "--semantics",
        choices=SEMANTICS_NAMES,
        default=DEFAULT_SEMANTICS,
        help="dispatch rule the table is built under (default: "
        f"{DEFAULT_SEMANTICS}; non-default rules force the batched "
        "mode)",
    )


def _resolve_build_options(
    args: argparse.Namespace, *, fastpath_default: bool
) -> None:
    """Non-default semantics only run on the batched driver: upgrade
    the per-member mode silently.  An unset ``--fastpath`` means
    ``fastpath_default`` on a batched table and off on a per-member
    one, whose fold does not certify."""
    if args.semantics != DEFAULT_SEMANTICS:
        args.mode = "batched"
    if args.fastpath is None:
        args.fastpath = fastpath_default and args.mode == "batched"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Member lookup for C++ hierarchies "
        "(Ramalingam & Srinivasan, PLDI 1997).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="analyse and print diagnostics")
    check.add_argument("file")

    lookup = commands.add_parser("lookup", help="resolve Class::member")
    lookup.add_argument("file")
    lookup.add_argument("query", type=_parse_query, help="Class::member")
    lookup.add_argument(
        "--no-static-rule",
        action="store_true",
        help="ignore the static-member dominance relaxation",
    )

    table = commands.add_parser("table", help="print the whole lookup table")
    table.add_argument(
        "file",
        nargs="?",
        help="hierarchy source (omit when serving from --load-pack)",
    )
    table.add_argument(
        "--ambiguous-only", action="store_true", help="only ⊥ entries"
    )
    _add_build_mode_options(table)
    table.add_argument(
        "--stats",
        action="store_true",
        help="print the LookupStats counters after the table",
    )
    table.add_argument(
        "--save-pack",
        metavar="PATH",
        help="also write the table as a mmap-servable flatpack file "
        "(snapshot-backed modes only)",
    )
    table.add_argument(
        "--load-pack",
        metavar="PATH",
        help="serve the table from an existing flatpack file instead "
        "of building it (no hierarchy source needed)",
    )

    pack_cmd = commands.add_parser(
        "pack",
        help="build the lookup table and write it as a mmap-servable "
        "flatpack file (open it back with 'table --load-pack' or "
        "'serve --preload')",
    )
    pack_cmd.add_argument("file")
    pack_cmd.add_argument("out", help="flatpack output path")
    pack_cmd.add_argument(
        "--semantics",
        choices=SEMANTICS_NAMES,
        default=DEFAULT_SEMANTICS,
        help=f"dispatch rule to tabulate under (default: {DEFAULT_SEMANTICS})",
    )

    ingest = commands.add_parser(
        "ingest",
        help="stream-ingest C++ source files into one live lookup "
        "table, publishing a snapshot every N classes",
    )
    ingest.add_argument(
        "files", nargs="+", help="C++ source files, ingested in order"
    )
    ingest.add_argument(
        "--batch",
        type=int,
        default=None,
        metavar="N",
        help="classes per apply_delta publish (default 128)",
    )
    ingest.add_argument(
        "--semantics",
        choices=SEMANTICS_NAMES,
        default=DEFAULT_SEMANTICS,
        help=f"dispatch rule to tabulate under (default: {DEFAULT_SEMANTICS})",
    )
    ingest.add_argument(
        "--keep-going",
        action="store_true",
        help="on a syntax error, skip to the next file instead of "
        "aborting the run",
    )
    ingest.add_argument(
        "--save-pack",
        metavar="PATH",
        help="write the ingested table as a mmap-servable flatpack file",
    )
    ingest.add_argument(
        "--serve-tenant",
        metavar="NAME",
        help="after ingesting, host the table as this tenant of the "
        "multi-tenant service (newline-JSON over TCP, like 'serve')",
    )
    ingest.add_argument(
        "--host", default="127.0.0.1", help="bind address for --serve-tenant"
    )
    ingest.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port for --serve-tenant (default 0 = ephemeral)",
    )

    build = commands.add_parser(
        "build",
        help="build the lookup table, report build statistics and check "
        "every answer against an independent engine",
    )
    build.add_argument("file")
    _add_build_mode_options(build)
    build.set_defaults(mode="batched")

    explain = commands.add_parser(
        "explain", help="explain the dominance reasoning for one query"
    )
    explain.add_argument("file")
    explain.add_argument("query", type=_parse_query, help="Class::member")

    metrics = commands.add_parser("metrics", help="hierarchy metrics")
    metrics.add_argument("file")

    dot = commands.add_parser("dot", help="DOT export")
    dot.add_argument("file")
    dot.add_argument(
        "--subobjects",
        metavar="CLASS",
        help="draw CLASS's subobject graph instead of the CHG",
    )

    slice_cmd = commands.add_parser(
        "slice", help="slice the hierarchy for the given queries"
    )
    slice_cmd.add_argument("file")
    slice_cmd.add_argument(
        "queries", nargs="+", type=_parse_query, metavar="Class::member"
    )
    slice_cmd.add_argument(
        "--json", action="store_true", help="emit the slice as JSON"
    )

    trace = commands.add_parser(
        "trace", help="propagation trace for one member (Figures 4-7 style)"
    )
    trace.add_argument("file")
    trace.add_argument("member")
    trace.add_argument(
        "--concrete",
        action="store_true",
        help="show concrete reaching definitions instead of abstractions",
    )

    diff = commands.add_parser(
        "diff", help="lookup-impact diff between two hierarchy versions"
    )
    diff.add_argument("before")
    diff.add_argument("after")

    lint = commands.add_parser(
        "lint", help="lint the hierarchy for lookup hazards"
    )
    lint.add_argument("file")
    lint.add_argument(
        "--errors-only", action="store_true", help="suppress warnings/info"
    )

    targets = commands.add_parser(
        "targets",
        help="possible dispatch targets of Class::member calls (CHA)",
    )
    targets.add_argument("file")
    targets.add_argument("query", type=_parse_query, help="Class::member")

    vtables = commands.add_parser(
        "vtables", help="vtables (final overriders + this adjustments)"
    )
    vtables.add_argument("file")
    vtables.add_argument("class_name", metavar="CLASS")

    fuzz = commands.add_parser(
        "fuzz",
        help="run a seeded differential fuzzing campaign "
        "(all engines vs the subobject-poset oracle)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default 0)"
    )
    fuzz.add_argument(
        "--budget",
        type=int,
        default=500,
        metavar="N",
        help="iteration budget (default 500)",
    )
    fuzz.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="additionally stop after this many seconds",
    )
    fuzz.add_argument(
        "--engines",
        default=None,
        metavar="A,B,...",
        help="comma-separated engine subset (default: "
        f"{','.join(ENGINES)})",
    )
    fuzz.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="regression corpus directory: replayed before fuzzing, "
        "new shrunk finds are persisted into it",
    )
    fuzz.add_argument(
        "--max-classes",
        type=int,
        default=12,
        metavar="N",
        help="size cap for generated hierarchies (default 12; the "
        "definitional oracle is exponential on non-virtual diamonds)",
    )
    fuzz.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="also write the JSON campaign report to FILE",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip delta-debugging of failing hierarchies",
    )
    fuzz.add_argument(
        "--semantics",
        default=None,
        metavar="A,B,...",
        help="comma-separated semantics subset for the cross-semantics "
        "differential leg (default: all of "
        f"{','.join(SEMANTICS_NAMES)}); pairwise disagreements not in "
        "the divergence catalog are findings",
    )

    serve = commands.add_parser(
        "serve",
        help="host the multi-tenant snapshot lookup service "
        "(newline-JSON over TCP)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default 0 = pick an ephemeral port and print it)",
    )
    serve.add_argument(
        "--semantics",
        choices=SEMANTICS_NAMES,
        default=DEFAULT_SEMANTICS,
        help="service-wide dispatch rule new tenants inherit "
        f"(default: {DEFAULT_SEMANTICS}; per-tenant overrides ride "
        "the add_tenant op)",
    )
    serve.add_argument(
        "--preload",
        action="append",
        default=[],
        metavar="NAME=PACK",
        help="boot a tenant from a flatpack file before accepting "
        "connections (repeatable; O(mmap) cold start per tenant)",
    )
    return parser


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


def _render_fastpath_stats(table) -> Optional[str]:
    """The flat serving overlay's certification and routing counters,
    or ``None`` when the fast path is off."""
    flat = table.flat_table
    if flat is None:
        return None
    stats = flat.stats
    return (
        f"[fastpath] flat_columns={flat.flat_column_count} "
        f"ambiguous_columns={flat.ambiguous_column_count} "
        f"flat_cells={flat.flat_cells} "
        f"flat_hits={stats.flat_hits} fallback_hits={stats.fallback_hits}"
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
        f"numpy={'on' if columnar.use_numpy else 'off'} "
        f"batches={stats.batches} queries={stats.queries} "
        f"gathers={stats.gathers} scalar_serves={stats.scalar_serves} "
        f"columns_materialized={stats.columns_materialized}"
    )


def _exercise_columnar(graph: ClassHierarchyGraph, table) -> Optional[str]:
    """Answer every visible ``(class, member)`` pair through one
    ``lookup_many`` batch, cross-check the gather against the per-query
    path, and return the columnar stats line."""
    queries = [
        (class_name, member)
        for class_name in graph.classes
        for member in table.visible_members(class_name)
    ]
    batched = table.lookup_many(queries)
    for (class_name, member), result in zip(queries, batched):
        assert result == table.lookup(class_name, member)
    return _render_columnar_stats(table)


def _check_against_reference(
    graph: ClassHierarchyGraph, table, semantics: str
) -> str:
    """Check every visible answer of ``table`` against an engine sharing
    none of its build or delta path: the §5 lazy engine under the
    paper's rule, else a from-scratch batched build (the lazy engine
    runs only the dominance fold).  Returns the report line."""
    if semantics == DEFAULT_SEMANTICS:
        reference = LazyMemberLookup(graph)
    else:
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
        prefix,
        mode=args.mode,
        fastpath=args.fastpath,
        semantics=args.semantics,
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
    if table.fastpath_stats is not None:
        fast = table.fastpath_stats
        print(
            f"  fastpath: demotions={fast.demotions} "
            f"promotions={fast.promotions} "
            f"cone_updates={fast.cone_updates}"
        )


def _run_build(graph: ClassHierarchyGraph, args: argparse.Namespace) -> int:
    """The ``build`` command: construct the table in the requested mode,
    report its build counters, and check every visible ``(class,
    member)`` answer against an independent engine."""
    import time

    ch = graph.compile()
    start = time.perf_counter()
    table = build_lookup_table(
        graph,
        mode=args.mode,
        fastpath=args.fastpath,
        semantics=args.semantics,
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
    fastpath_line = _render_fastpath_stats(table)
    if fastpath_line is not None:
        # The cross-check above queried the table once per pair, so the
        # flat/fallback split reflects real serving, not a cold overlay.
        print("  " + fastpath_line)
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
            stats = packed.stats()
            if stats is not None:
                print(
                    f"[pack generation={packed.generation} "
                    f"semantics={packed.semantics.name}] "
                    f"batches={stats.batches} queries={stats.queries} "
                    f"gathers={stats.gathers} "
                    f"scalar_serves={stats.scalar_serves} "
                    f"columns_materialized={stats.columns_materialized}"
                )
    return 0


def _run_ingest(args: argparse.Namespace) -> int:
    """``repro ingest``: stream files into one live table, publishing a
    snapshot generation every ``--batch`` classes."""
    from repro.ingest.pipeline import DEFAULT_BATCH_SIZE, StreamingIngest

    batch_size = args.batch if args.batch is not None else DEFAULT_BATCH_SIZE

    def on_batch(record) -> None:
        print(
            f"[batch {record.index}] +{record.classes} classes -> "
            f"generation {record.generation} "
            f"(cone={record.cone_classes}, "
            f"recomputed={record.entries_recomputed}, "
            f"{record.elapsed_s * 1e3:.1f} ms)"
        )

    pipeline = StreamingIngest(
        batch_size=batch_size,
        semantics=args.semantics,
        keep_going=args.keep_going,
        on_batch=on_batch,
    )
    report = pipeline.ingest(args.files)
    for message in report.parse_errors:
        print(f"error: {message}", file=sys.stderr)
    for diagnostic in pipeline.diagnostics:
        print(diagnostic, file=sys.stderr)
    table = pipeline.table
    snapshot = table.snapshot
    print(
        f"ingested {report.classes} classes from {len(report.files)} "
        f"file(s) in {len(report.batches)} batch(es), "
        f"{report.elapsed_s:.2f} s; generation {snapshot.generation}, "
        f"{snapshot.ch.n_members} distinct members"
    )
    if args.save_pack:
        from repro.core.flatpack import pack as write_pack

        written = write_pack(table, args.save_pack)
        print(f"pack written to {args.save_pack} ({written} bytes)")
    if args.serve_tenant:
        import asyncio

        from repro.serve.server import ServeFront
        from repro.serve.service import LookupService

        service = LookupService(semantics=args.semantics)
        tenant = service.add_tenant(args.serve_tenant, table.graph)
        print(
            f"serving tenant {args.serve_tenant!r} "
            f"({len(tenant.graph)} classes)"
        )
        front = ServeFront(service, host=args.host, port=args.port)
        try:
            asyncio.run(front.serve())
        except KeyboardInterrupt:
            pass
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.server import ServeFront
    from repro.serve.service import LookupService

    preload = {}
    for spec in args.preload:
        name, separator, pack_path = spec.partition("=")
        if not separator or not name or not pack_path:
            raise ValueError(
                f"--preload takes NAME=PACK, got {spec!r}"
            )
        preload[name] = pack_path
    service = LookupService(semantics=args.semantics, preload=preload)
    for name in preload:
        tenant = service.tenant(name)
        print(
            f"preloaded tenant {name!r} from {preload[name]} "
            f"(generation {tenant.snapshot.generation})"
        )
    front = ServeFront(service, host=args.host, port=args.port)
    try:
        asyncio.run(front.serve())
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ReproError, ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "check":
        text = Path(args.file).read_text()
        if text.lstrip().startswith("{"):
            hierarchy_loads(text)
            print("hierarchy dump OK")
            return 0
        program = analyze(text)
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

    if args.command == "ingest":
        return _run_ingest(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "table" and args.load_pack:
        return _run_table_pack(args)

    if args.command == "diff":
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
            result = build_lookup_table(graph).lookup(class_name, member)
        else:
            result = StaticAwareLookupTable(graph).lookup(class_name, member)
        print(result)
        return 0 if result.is_unique else 1

    if args.command == "table":
        _resolve_build_options(args, fastpath_default=False)
        table = build_lookup_table(
            graph,
            mode=args.mode,
            fastpath=args.fastpath,
            semantics=args.semantics,
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
            fastpath_line = _render_fastpath_stats(table)
            if fastpath_line is not None:
                print(fastpath_line)
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

        table = build_lookup_table(
            graph, mode="batched", fastpath=True, semantics=args.semantics
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
        _resolve_build_options(args, fastpath_default=True)
        return _run_build(graph, args)

    if args.command == "explain":
        class_name, member = args.query
        print(explain_lookup(graph, class_name, member))
        return 0

    if args.command == "metrics":
        print(compute_metrics(graph).render())
        return 0

    if args.command == "dot":
        if args.subobjects:
            print(subobject_graph_to_dot(SubobjectGraph(graph, args.subobjects)))
        else:
            print(chg_to_dot(graph))
        return 0

    if args.command == "slice":
        result = slice_hierarchy(graph, args.queries)
        if args.json:
            print(hierarchy_dumps(result.hierarchy))
        else:
            print(result.hierarchy.summary())
            removed = sorted(set(graph.classes) - result.kept_classes)
            print(f"removed: {', '.join(removed) if removed else '(nothing)'}")
        return 0

    if args.command == "lint":
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
        print(build_vtables(graph, args.class_name).render())
        return 0

    if args.command == "targets":
        class_name, member = args.query
        analysis = analyze_call_targets(graph, class_name, member)
        print(analysis.render())
        return 0

    if args.command == "trace":
        if args.concrete:
            print(render_concrete_trace(graph, args.member))
        else:
            print(render_abstract_trace(graph, args.member))
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
