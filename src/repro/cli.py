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
* ``pack``     write the lookup table as a mmap-servable flatpack file
* ``ingest``   stream C++ files into one live table, batch by batch
* ``serve``    host the multi-tenant lookup service over TCP

This module parses every command line and runs ``ingest`` and
``serve``; the other commands run in :mod:`repro.commands`.  Each
command imports only the modules it runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.lookup import BUILD_MODES
from repro.core.semantics import DEFAULT_SEMANTICS, SEMANTICS_NAMES
from repro.errors import FrontendError, ReproError
from repro.fuzz import ENGINES


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
        help="print the LookupStats counters after the table (with "
        "--load-pack: the pack's generation and semantics)",
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
        print(message, file=sys.stderr)
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
    except FrontendError as exc:
        print(exc, file=sys.stderr)  # already 'file:line:col: error: ...'
        return 2
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    """Run the command: ``ingest`` and ``serve`` here, every other one
    in :mod:`repro.commands`, which the two never load."""
    if args.command == "ingest":
        return _run_ingest(args)
    if args.command == "serve":
        return _run_serve(args)
    from repro.commands import run

    return run(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
