"""Seeded differential fuzzing campaigns over the full engine matrix.

One campaign iteration draws a hierarchy from a rotating set of
generator families (seeded random DAGs, layered DAGs, the paper's
adversarial shapes — diamond ladders, ambiguous fans, blue-heavy joins,
grids — and the paper figures themselves), optionally perturbs it with
metamorphic mutations (:mod:`repro.fuzz.mutators`), and then asks every
lookup engine every query ``(class, member)`` over the member universe
plus one deliberately missing name, cross-checking each answer against
the definitional :class:`~repro.subobjects.reference.ReferenceLookup`
oracle with :func:`~repro.core.results.describe_disagreement`.

On top of the oracle comparison each iteration:

* **translation validation** — one engine (rotating per iteration) has
  its entire answer surface certified with
  :func:`repro.core.certify.certify`;
* **metamorphic invariants** — every applied mutation's paper-derived
  invariant is checked against the fast lookup tables;
* **memo staleness** — periodically, the one-shot
  :func:`repro.core.lookup.lookup` is warmed over the whole query
  surface, the live graph is mutated in place (pure-growth operators),
  and every one-shot answer is re-compared against a fresh oracle: the
  per-graph lazy engine behind it must never serve a stale row;
* **delta storms** — periodically, a warm
  :class:`~repro.core.lookup.MemberLookupTable` (build mode drawn per
  iteration) absorbs a burst of random in-place growth mutations
  through :meth:`~repro.core.lookup.MemberLookupTable.apply_delta`,
  then its whole surface is differenced against a from-scratch rebuild
  *and* the subobject-poset oracle: cone-restricted maintenance must be
  indistinguishable from rebuilding;
* **snapshot chains** — periodically, a snapshot chain absorbs a storm
  of publishes with random retirements interleaved, and every retained
  :class:`~repro.core.snapshot.TableSnapshot` is cross-checked against
  the oracle of the hierarchy *at its own generation*: published
  snapshots must stay immutable (and keep their generation stamp) no
  matter what the writer published or retired after them;
* **cross-semantics pairs** — periodically, the hierarchy is built
  under every registered dispatch semantics
  (:mod:`repro.core.semantics`) and all pairs are diffed over the full
  query surface: any disagreement not covered by the divergence
  catalog (:mod:`repro.fuzz.cross_semantics`) is a finding.

Every divergence becomes a :class:`~repro.fuzz.report.Finding`; mismatch
and certificate findings are delta-debugged to a minimal counterexample
(:mod:`repro.fuzz.shrink`) and, when a corpus directory is given,
persisted as a regression corpus entry (:mod:`repro.fuzz.corpus`).
Campaigns are fully deterministic in ``seed`` (iteration-count budgets;
wall-clock budgets cut the same sequence short).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.core.certify import certify
from repro.core.lazy import LazyMemberLookup
from repro.core.lookup import build_lookup_table, lookup
from repro.core.snapshot import TableSnapshot
from repro.core.results import describe_disagreement, result_json
from repro.core.semantics import SEMANTICS_NAMES
from repro.fuzz import ENGINES
from repro.fuzz.corpus import CorpusEntry, replay_corpus, save_entry
from repro.fuzz.cross_semantics import cross_semantics_check
from repro.fuzz.mutators import AppliedMutation, copy_hierarchy, mutate
from repro.fuzz.report import CampaignReport, Finding
from repro.fuzz.shrink import shrink_hierarchy
from repro.hierarchy.graph import ClassHierarchyGraph
from repro.hierarchy.serialize import hierarchy_to_dict
from repro.subobjects.reference import ReferenceLookup
from repro.workloads import (
    ambiguous_fan,
    blue_heavy_hierarchy,
    deep_ambiguous_ladder,
    grid,
    layered_hierarchy,
    nonvirtual_diamond_ladder,
    random_hierarchy,
    virtual_diamond_ladder,
    wide_unambiguous,
)
from repro.workloads.paper_figures import ALL_FIGURES

__all__ = [
    "Divergence",
    "build_engine",
    "differential_check",
    "run_campaign",
]

#: A member name no generator family ever declares — every iteration
#: also queries it everywhere, pinning the NOT_FOUND row of each engine.
MISSING_MEMBER = "fuzz_absent_member"


class _ColumnarProbe:
    """Adapter giving the columnar serving read the campaign's engine
    shape: ``lookup(C, m)`` is a one-element ``lookup_many_json`` batch
    whose wire fragment must equal the encoding of the library answer
    (a mismatch raises, which the campaign records as an exception
    divergence); the library answer then goes to the oracle."""

    def __init__(self, snapshot: TableSnapshot) -> None:
        self._snapshot = snapshot

    def lookup(self, class_name: str, member: str):
        query = (class_name, member)
        (fragment,) = self._snapshot.lookup_many_json([query])
        result = self._snapshot.lookup_many([query])[0]
        if fragment != result_json(result):
            raise ValueError(
                f"wire fragment {fragment!r} does not encode {result}"
            )
        return result


def _lazy_replay(graph: ClassHierarchyGraph) -> LazyMemberLookup:
    """A :class:`~repro.core.lazy.LazyMemberLookup` over a copy of
    ``graph`` grown in place one declaration at a time, with queries
    between the edges so later edges land on a warm memo."""
    replay = ClassHierarchyGraph()
    engine = LazyMemberLookup(replay)
    members = graph.member_names()
    probe = members[0] if members else MISSING_MEMBER
    for class_name in graph.classes:
        replay.add_class(
            class_name,
            graph.declared_members(class_name).values(),
            is_struct=graph.is_struct(class_name),
        )
    for index, edge in enumerate(graph.edges):
        replay.add_edge(
            edge.base, edge.derived, virtual=edge.virtual, access=edge.access
        )
        if index % 3 == 0:
            engine.lookup(edge.derived, probe)
    return engine


def build_engine(name: str, graph: ClassHierarchyGraph):
    """Construct the named lookup engine over ``graph``.

    The eager modes build the whole table up front; ``lazy`` replays
    the hierarchy declaration-by-declaration into a fresh graph under a
    :class:`~repro.core.lazy.LazyMemberLookup` with queries interleaved
    between mutations, so the engine's recompile-on-generation-bump is
    exercised, not just the final state.
    """
    if name in ("per-member", "batched"):
        return build_lookup_table(graph, mode=name)
    if name == "lazy":
        return _lazy_replay(graph)
    if name == "snapshot":
        # The serving tier's unit: an immutable generation-stamped
        # published table, queried directly (no writer façade).
        return TableSnapshot.build(graph)
    if name == "columnar":
        # The same published snapshot, but every query is answered by
        # the columnar serving read: lookup() routes through a
        # one-element lookup_many_json() checked against the library
        # answer, which is differentially checked against the oracle
        # like any engine.
        return _ColumnarProbe(TableSnapshot.build(graph))
    raise ValueError(f"unknown engine {name!r} (choose from {ENGINES})")


@dataclass
class Divergence:
    """One way an engine departed from the oracle on one hierarchy."""

    engine: str
    kind: str  # "mismatch" | "exception" | "build-error" | "certificate"
    detail: str
    class_name: Optional[str] = None
    member: Optional[str] = None


def _query_surface(graph: ClassHierarchyGraph) -> list[tuple[str, str]]:
    names = list(graph.member_names()) + [MISSING_MEMBER]
    return [(c, m) for c in graph.classes for m in names]


def differential_check(
    graph: ClassHierarchyGraph,
    *,
    engines: Sequence[str] = ENGINES,
    certify_engine: Optional[str] = None,
) -> tuple[list[Divergence], int, int]:
    """Run the full query surface of ``graph`` through every named
    engine and compare each answer against the subobject-poset oracle.

    Returns ``(divergences, queries_checked, certificates_checked)``.
    Mismatches are reported once per engine (the first disagreeing
    query); engines that fail to build, or raise mid-query, produce
    ``"build-error"`` / ``"exception"`` divergences instead of
    propagating.  ``certify_engine`` names one engine whose entire
    surface is additionally certified against Definitions 7-9
    (translation validation); invalid certificates become
    ``"certificate"`` divergences.
    """
    oracle = ReferenceLookup(graph)
    surface = _query_surface(graph)
    divergences: list[Divergence] = []
    queries_checked = 0
    certificates_checked = 0
    for engine_name in engines:
        try:
            engine = build_engine(engine_name, graph)
        except Exception as exc:
            divergences.append(
                Divergence(
                    engine=engine_name,
                    kind="build-error",
                    detail=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        for class_name, member in surface:
            try:
                answer = engine.lookup(class_name, member)
            except Exception as exc:
                divergences.append(
                    Divergence(
                        engine=engine_name,
                        kind="exception",
                        detail=f"{type(exc).__name__}: {exc}",
                        class_name=class_name,
                        member=member,
                    )
                )
                break
            queries_checked += 1
            diff = describe_disagreement(answer, oracle.lookup(class_name, member))
            if diff is not None:
                divergences.append(
                    Divergence(
                        engine=engine_name,
                        kind="mismatch",
                        detail=diff,
                        class_name=class_name,
                        member=member,
                    )
                )
                break
        else:
            if engine_name == certify_engine:
                for class_name, member in surface:
                    certificate = certify(
                        graph,
                        engine.lookup(class_name, member),
                        reference=oracle,
                    )
                    certificates_checked += 1
                    if not certificate:
                        divergences.append(
                            Divergence(
                                engine=engine_name,
                                kind="certificate",
                                detail="; ".join(certificate.failures),
                                class_name=class_name,
                                member=member,
                            )
                        )
                        break
    return divergences, queries_checked, certificates_checked


def _draw_family(
    iteration: int, rng: random.Random, max_classes: int
) -> tuple[str, ClassHierarchyGraph]:
    """The iteration's hierarchy: families rotate deterministically, the
    per-family parameters are drawn from ``rng``."""
    families: list[tuple[str, Callable[[], ClassHierarchyGraph]]] = [
        (
            "random",
            lambda: random_hierarchy(
                rng.randint(3, max_classes),
                seed=rng.randrange(2**32),
                virtual_probability=rng.choice((0.0, 0.3, 0.6)),
                member_probability=rng.choice((0.2, 0.4, 0.7)),
            ),
        ),
        (
            "layered",
            lambda: layered_hierarchy(
                rng.randint(2, 4),
                rng.randint(2, 3),
                seed=rng.randrange(2**32),
                virtual_probability=rng.choice((0.0, 0.3, 0.6)),
            ),
        ),
        (
            "virtual-diamond",
            lambda: virtual_diamond_ladder(rng.randint(1, 3)),
        ),
        (
            "nonvirtual-diamond",
            lambda: nonvirtual_diamond_ladder(rng.randint(1, 3)),
        ),
        ("ambiguous-fan", lambda: ambiguous_fan(rng.randint(2, 6))),
        (
            "blue-heavy",
            lambda: blue_heavy_hierarchy(rng.randint(2, 4), rng.randint(1, 3)),
        ),
        ("wide-unambiguous", lambda: wide_unambiguous(rng.randint(2, 6))),
        ("grid", lambda: grid(rng.randint(2, 3), rng.randint(2, 3))),
        ("deep-ambiguous", lambda: deep_ambiguous_ladder(rng.randint(1, 2))),
        (
            "paper-figure",
            lambda: ALL_FIGURES[rng.choice(sorted(ALL_FIGURES))](),
        ),
    ]
    name, factory = families[iteration % len(families)]
    return name, factory()


def _check_mutation_invariant(
    before: ClassHierarchyGraph,
    after: ClassHierarchyGraph,
    applied: AppliedMutation,
) -> list[str]:
    """The mutation's invariant, checked against the fast lookup tables
    (the engines are what the invariant constrains)."""
    table_before = build_lookup_table(before, mode="batched")
    table_after = build_lookup_table(after, mode="batched")
    return applied.violations(
        before, after, table_before.lookup, table_after.lookup
    )


def _stale_cache_check(
    graph: ClassHierarchyGraph, rng: random.Random
) -> tuple[Optional[AppliedMutation], list[Divergence], int]:
    """Warm the one-shot :func:`~repro.core.lookup.lookup` on ``graph``,
    mutate the graph *in place*, and re-compare every one-shot answer
    with a fresh oracle — the per-graph lazy engine behind it must never
    serve a row memoised before the mutation."""
    for class_name, member in _query_surface(graph):
        lookup(graph, class_name, member)  # warm the per-graph memo
    applied = mutate(graph, rng, in_place_only=True)
    if applied is None:
        return None, [], 0
    _graph, mutation = applied
    oracle = ReferenceLookup(graph)
    divergences: list[Divergence] = []
    checked = 0
    for class_name, member in _query_surface(graph):
        checked += 1
        diff = describe_disagreement(
            lookup(graph, class_name, member), oracle.lookup(class_name, member)
        )
        if diff is not None:
            divergences.append(
                Divergence(
                    engine="one-shot",
                    kind="stale-cache",
                    detail=f"after {mutation.describe()}: {diff}",
                    class_name=class_name,
                    member=member,
                )
            )
            break
    return mutation, divergences, checked


def _delta_storm_check(
    graph: ClassHierarchyGraph,
    rng: random.Random,
    engines: Sequence[str],
) -> tuple[list[str], list[Divergence], int]:
    """Warm an eager table on a copy of ``graph``, hit it with a burst
    of random in-place growth mutations — ``apply_delta`` after each —
    and difference the maintained table against a from-scratch rebuild
    plus the subobject-poset oracle.

    The build mode is drawn per check (restricted to the campaign's
    engine matrix), so both the cone sweep and the per-member full
    rebuild get storm coverage.  Returns
    ``(mutation names, divergences, queries)``.
    """
    storm = copy_hierarchy(graph)
    modes = [
        name for name in ("batched", "per-member") if name in engines
    ] or ["batched"]
    mode = rng.choice(modes)
    table = build_lookup_table(storm, mode=mode)
    applied_names: list[str] = []
    for _ in range(rng.randint(1, 3)):
        applied = mutate(storm, rng, in_place_only=True)
        if applied is None:
            break
        _graph, mutation = applied
        applied_names.append(mutation.name)
        table.apply_delta()
    if not applied_names:
        return [], [], 0
    rebuilt = build_lookup_table(storm, mode="batched")
    oracle = ReferenceLookup(storm)
    divergences: list[Divergence] = []
    checked = 0
    for class_name, member in _query_surface(storm):
        checked += 1
        maintained = table.lookup(class_name, member)
        diff = describe_disagreement(
            maintained, oracle.lookup(class_name, member)
        )
        if diff is None and maintained != rebuilt.lookup(class_name, member):
            diff = (
                f"maintained table disagrees with from-scratch rebuild: "
                f"{maintained} != {rebuilt.lookup(class_name, member)}"
            )
        if diff is not None:
            divergences.append(
                Divergence(
                    engine=mode,
                    kind="delta-storm",
                    detail=(
                        f"after {'+'.join(applied_names)}: {diff}"
                    ),
                    class_name=class_name,
                    member=member,
                )
            )
            break
    return applied_names, divergences, checked


def _snapshot_chain_check(
    graph: ClassHierarchyGraph, rng: random.Random
) -> tuple[int, list[Divergence], int]:
    """Storm a snapshot chain with interleaved publish/retire and
    cross-check every *retained* snapshot against the subobject-poset
    oracle of the hierarchy **at its own generation**.

    A copy of ``graph`` grows through random in-place mutations; each
    publish captures the new chain head alongside a frozen copy of the
    source hierarchy, and random retained snapshots are retired
    (dropped) along the way.  At the end, each survivor must (a) still
    carry the generation it was published at, and (b) answer its whole
    query surface exactly like a fresh oracle over its frozen
    hierarchy — immutability under everything the writer did since.
    Returns ``(publishes, divergences, queries)``.
    """
    chain = copy_hierarchy(graph)
    table = build_lookup_table(chain, mode="batched")
    retained = [
        (table.snapshot, copy_hierarchy(chain), chain.compile().generation)
    ]
    publishes = 0
    for _ in range(rng.randint(2, 4)):
        applied = mutate(chain, rng, in_place_only=True)
        if applied is None:
            break
        table.apply_delta()
        publishes += 1
        retained.append(
            (table.snapshot, copy_hierarchy(chain), chain.compile().generation)
        )
        if len(retained) > 2 and rng.random() < 0.5:
            # Retire one older snapshot; the head always survives.
            retained.pop(rng.randrange(len(retained) - 1))
    if publishes == 0:
        return 0, [], 0
    divergences: list[Divergence] = []
    checked = 0
    for snapshot, frozen, generation in retained:
        if snapshot.generation != generation:
            divergences.append(
                Divergence(
                    engine="snapshot",
                    kind="snapshot-chain",
                    detail=(
                        f"snapshot published at generation {generation} "
                        f"now reports {snapshot.generation}"
                    ),
                )
            )
            break
        oracle = ReferenceLookup(frozen)
        for class_name, member in _query_surface(frozen):
            checked += 1
            diff = describe_disagreement(
                snapshot.lookup(class_name, member),
                oracle.lookup(class_name, member),
            )
            if diff is not None:
                divergences.append(
                    Divergence(
                        engine="snapshot",
                        kind="snapshot-chain",
                        detail=(
                            f"retained generation {generation} drifted "
                            f"after {publishes} publishes: {diff}"
                        ),
                        class_name=class_name,
                        member=member,
                    )
                )
                break
        if divergences:
            break
    return publishes, divergences, checked


def _roundtrip_eligible(graph: ClassHierarchyGraph) -> bool:
    """Only hierarchies whose every class and member name is a plain,
    non-keyword identifier can be rendered as parseable C++ — corpus
    graphs with qualified (``ns::C``) or generated exotic names are
    skipped, not failed."""
    from repro.frontend.lexer import KEYWORDS

    for name in graph.classes:
        if not name.isidentifier() or name in KEYWORDS:
            return False
        for member in graph.declared_members(name).values():
            if not member.name.isidentifier() or member.name in KEYWORDS:
                return False
    return True


def _roundtrip_check(
    graph: ClassHierarchyGraph,
) -> tuple[bool, list[Divergence]]:
    """The frontend-fidelity leg: emit the hierarchy as C++ source,
    push it back through :func:`repro.frontend.sema.analyze`, and
    require the identical graph — same classes in order, same edges
    (base/derived/virtuality/access), same per-class member sets with
    kind, staticness and access, same struct-ness — with no frontend
    diagnostics.  Returns ``(ran, divergences)``."""
    from repro.frontend.errors import FrontendError
    from repro.frontend.sema import analyze
    from repro.workloads.emit_cpp import emit_cpp

    if not _roundtrip_eligible(graph):
        return False, []

    def shape(g: ClassHierarchyGraph, order):
        # Edges compare per derived class (base order is what lookup
        # depends on); global edge-addition order is not observable.
        edges = {
            name: tuple(
                (e.base, e.virtual, str(e.access))
                for e in g.direct_bases(name)
            )
            for name in order
        }
        members = {
            name: {
                m.name: (m.kind, m.is_static, str(m.access))
                for m in g.declared_members(name).values()
            }
            for name in order
        }
        structness = {name: g.is_struct(name) for name in order}
        return tuple(order), edges, members, structness

    source = emit_cpp(graph)
    try:
        program = analyze(source)
    except FrontendError as exc:
        return True, [
            Divergence(
                engine="frontend",
                kind="roundtrip",
                detail=f"emitted source failed to parse: {exc}",
            )
        ]
    if program.diagnostics.has_errors():
        first = program.diagnostics.errors[0]
        return True, [
            Divergence(
                engine="frontend",
                kind="roundtrip",
                detail=(
                    "emitted source produced "
                    f"{len(program.diagnostics.errors)} frontend "
                    f"error(s), first: {first}"
                ),
            )
        ]
    from repro.workloads.emit_cpp import emission_order

    want = shape(graph, emission_order(graph))
    got = shape(program.hierarchy, list(program.hierarchy.classes))
    divergences: list[Divergence] = []
    labels = ("classes", "edges", "members", "struct-ness")
    for label, lhs, rhs in zip(labels, want, got):
        if lhs != rhs:
            divergences.append(
                Divergence(
                    engine="frontend",
                    kind="roundtrip",
                    detail=(
                        f"{label} changed across emit_cpp→analyze: "
                        f"expected {lhs!r:.200}, got {rhs!r:.200}"
                    ),
                )
            )
    return True, divergences


def run_campaign(
    *,
    seed: int = 0,
    budget: int = 500,
    engines: Sequence[str] = ENGINES,
    corpus_dir: Optional[Path | str] = None,
    time_budget: Optional[float] = None,
    max_classes: int = 12,
    mutation_probability: float = 0.6,
    shrink: bool = True,
    semantics: Optional[Sequence[str]] = None,
) -> CampaignReport:
    """Run a differential fuzzing campaign and return its report.

    ``budget`` bounds iterations; ``time_budget`` (seconds) additionally
    cuts the run short.  ``corpus_dir`` names the regression corpus: its
    entries are replayed through the engine matrix *before* fuzzing
    starts, and new shrunk finds are persisted into it.  ``engines``
    restricts the matrix.  ``semantics`` restricts the cross-semantics
    pairwise leg (default: every registered semantics).  Deterministic
    in ``seed`` for a fixed iteration budget.  An empty ``engines`` or
    a ``max_classes`` below 3 (the smallest random family) raises
    ``ValueError``.
    """
    engines = tuple(engines)
    if not engines:
        raise ValueError(
            f"run_campaign needs at least one engine (choose from "
            f"{', '.join(ENGINES)})"
        )
    if max_classes < 3:
        raise ValueError("max_classes must be >= 3")
    semantics = (
        tuple(semantics) if semantics is not None else SEMANTICS_NAMES
    )
    report = CampaignReport(
        seed=seed, budget=budget, engines=engines, semantics=semantics
    )
    start = time.monotonic()
    rng = random.Random(seed)

    if corpus_dir is not None:
        replayed, replay_findings = replay_corpus(corpus_dir, engines=engines)
        report.corpus_replayed = replayed
        report.findings.extend(replay_findings)

    iteration = 0
    while iteration < budget:
        if time_budget is not None and time.monotonic() - start > time_budget:
            report.stopped_by = "time"
            break
        family, graph = _draw_family(iteration, rng, max_classes)
        report.families[family] = report.families.get(family, 0) + 1

        mutation_names: list[str] = []
        if rng.random() < mutation_probability:
            for _ in range(rng.randint(1, 2)):
                applied = mutate(graph, rng)
                if applied is None:
                    break
                mutated, mutation = applied
                report.invariant_checks += 1
                violations = _check_mutation_invariant(graph, mutated, mutation)
                for violation in violations:
                    report.findings.append(
                        Finding(
                            iteration=iteration,
                            engine="table",
                            kind="invariant",
                            family=family,
                            detail=f"{mutation.describe()}: {violation}",
                            mutations=tuple(mutation_names + [mutation.name]),
                        )
                    )
                mutation_names.append(mutation.name)
                report.mutations[mutation.name] = (
                    report.mutations.get(mutation.name, 0) + 1
                )
                graph = mutated

        certify_engine = engines[iteration % len(engines)]
        divergences, queries, certificates = differential_check(
            graph, engines=engines, certify_engine=certify_engine
        )
        report.queries_checked += queries
        report.certificates_checked += certificates
        for divergence in divergences:
            report.findings.append(
                _finding_for(
                    divergence,
                    graph,
                    iteration=iteration,
                    family=family,
                    mutations=tuple(mutation_names),
                    corpus_dir=corpus_dir,
                    seed=seed,
                    shrink=shrink,
                )
            )

        if iteration % 5 == 0:
            ran, roundtrip_divergences = _roundtrip_check(graph)
            if ran:
                report.roundtrips += 1
            for divergence in roundtrip_divergences:
                report.findings.append(
                    Finding(
                        iteration=iteration,
                        engine=divergence.engine,
                        kind=divergence.kind,
                        family=family,
                        detail=divergence.detail,
                        mutations=tuple(mutation_names),
                    )
                )

        if iteration % 5 == 1:
            storm_mutations, storm_divergences, checked = _delta_storm_check(
                graph, rng, engines
            )
            report.queries_checked += checked
            if storm_mutations:
                report.delta_storms += 1
            for divergence in storm_divergences:
                report.findings.append(
                    Finding(
                        iteration=iteration,
                        engine=divergence.engine,
                        kind=divergence.kind,
                        family=family,
                        detail=divergence.detail,
                        class_name=divergence.class_name,
                        member=divergence.member,
                        mutations=tuple(storm_mutations),
                    )
                )

        if iteration % 5 == 2:
            publishes, chain_divergences, checked = _snapshot_chain_check(
                graph, rng
            )
            report.queries_checked += checked
            if publishes:
                report.snapshot_chains += 1
            for divergence in chain_divergences:
                report.findings.append(
                    Finding(
                        iteration=iteration,
                        engine=divergence.engine,
                        kind=divergence.kind,
                        family=family,
                        detail=divergence.detail,
                        class_name=divergence.class_name,
                        member=divergence.member,
                        mutations=tuple(mutation_names),
                    )
                )

        if iteration % 5 == 4 and len(semantics) > 1:
            uncatalogued, pairs, catalogued = cross_semantics_check(
                graph, semantics=semantics
            )
            report.cross_semantics_checks += pairs
            report.catalogued_divergences += catalogued
            for divergence in uncatalogued:
                report.findings.append(
                    Finding(
                        iteration=iteration,
                        engine=f"{divergence.left}|{divergence.right}",
                        kind="cross-semantics",
                        family=family,
                        detail=(
                            "uncatalogued divergence: "
                            f"{divergence.describe()}"
                        ),
                        class_name=divergence.class_name,
                        member=divergence.member,
                        mutations=tuple(mutation_names),
                    )
                )

        if iteration % 4 == 3:
            mutation, stale, checked = _stale_cache_check(graph, rng)
            report.queries_checked += checked
            if mutation is not None:
                report.invariant_checks += 1
            for divergence in stale:
                report.findings.append(
                    Finding(
                        iteration=iteration,
                        engine=divergence.engine,
                        kind=divergence.kind,
                        family=family,
                        detail=divergence.detail,
                        class_name=divergence.class_name,
                        member=divergence.member,
                        mutations=tuple(mutation_names),
                    )
                )
        iteration += 1

    report.iterations = iteration
    report.elapsed = time.monotonic() - start
    return report


def _finding_for(
    divergence: Divergence,
    graph: ClassHierarchyGraph,
    *,
    iteration: int,
    family: str,
    mutations: tuple[str, ...],
    corpus_dir: Optional[Path | str],
    seed: int,
    shrink: bool,
) -> Finding:
    """Turn a divergence into a report finding: shrink the hierarchy to
    a minimal counterexample and persist it to the corpus."""
    finding = Finding(
        iteration=iteration,
        engine=divergence.engine,
        kind=divergence.kind,
        family=family,
        detail=divergence.detail,
        class_name=divergence.class_name,
        member=divergence.member,
        mutations=mutations,
    )
    if not shrink:
        return finding

    def still_fails(candidate: ClassHierarchyGraph) -> bool:
        found, _queries, _certs = differential_check(
            candidate,
            engines=(divergence.engine,),
            certify_engine=(
                divergence.engine if divergence.kind == "certificate" else None
            ),
        )
        return bool(found)

    result = shrink_hierarchy(graph, still_fails, max_attempts=2_000)
    finding.original_classes = result.initial_classes
    finding.shrunk_classes = result.final_classes
    finding.shrink_attempts = result.attempts
    finding.shrunk_hierarchy = hierarchy_to_dict(result.graph)
    if corpus_dir is not None:
        entry = CorpusEntry(
            name=f"{divergence.engine}-{divergence.kind}-seed{seed}-i{iteration}",
            description=(
                f"{divergence.engine} {divergence.kind} found by campaign "
                f"(family {family}): {divergence.detail}"
            ),
            hierarchy=result.graph,
            origin=f"campaign seed={seed} iteration={iteration}",
            meta={
                "family": family,
                "mutations": list(mutations),
                "shrink": result.describe(),
            },
        )
        finding.corpus_path = str(save_entry(corpus_dir, entry))
    return finding
