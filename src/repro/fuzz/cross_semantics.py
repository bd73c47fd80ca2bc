"""Pairwise differential testing across dispatch semantics.

The six registered semantics (:mod:`repro.core.semantics`) answer the
same queries over the same compiled hierarchies, but they *mean*
different things — C++ dominance is subobject-sensitive, C3/topo are
linearization rules, Eiffel rejects origin clashes outright.  A naive
pairwise diff would therefore drown in expected noise.  This module
ships the **divergence catalog**: a machine-readable list of the
*documented* ways two semantics may legitimately disagree, each entry
with a predicate over the observed disagreement and a ``witness()``
factory producing a concrete hierarchy that exhibits it (so the catalog
itself is regression-tested and cannot rot — see
``tests/fuzz/test_cross_semantics.py``).

:func:`cross_semantics_check` diffs every semantics pair over a
hierarchy's full query surface and returns only the *uncatalogued*
divergences — which the fuzz campaign (:mod:`repro.fuzz.campaign`)
turns into findings.  Outcomes are compared class-level: two results
agree iff they have the same status and, for unique results, the same
declaring class (ambiguous-vs-ambiguous always agrees — the candidate
*sets* are semantics-specific vocabulary).  A
:class:`~repro.core.semantics.SemanticsRejection` is a hierarchy-level
outcome of its own: rejection-vs-acceptance is one divergence per pair,
anchored at the rejecting class.

The catalog's soundness leans on invariants provable from the rules
themselves (and pinned by the conformance tests):

* ``NOT_FOUND`` is universal — every semantics computes visibility from
  the same ``visible_masks``, so found-vs-not-found never diverges.
* g++-BFS ``UNIQUE`` implies dominance ``UNIQUE`` with the same
  declarer (the BFS winner dominates everything it beat), so a gxx
  unique answer never disagrees with a cpp unique answer.
* dominance ``UNIQUE`` (and self ``UNIQUE``) imply C3 and topo-number
  agree with the same declarer, so unique-vs-unique disagreements only
  occur among the linearization-style rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.core.lookup import build_lookup_table
from repro.core.results import LookupResult
from repro.core.semantics import SEMANTICS_NAMES, SemanticsRejection
from repro.hierarchy.graph import ClassHierarchyGraph
from repro.workloads import ambiguous_fan, nonvirtual_diamond_ladder
from repro.workloads.paper_figures import figure1, figure9

__all__ = [
    "CATALOG",
    "CatalogEntry",
    "PairDivergence",
    "REJECTED",
    "catalog_entry_for",
    "cross_semantics_check",
    "cross_semantics_divergences",
    "semantics_outcomes",
]

#: The hierarchy-level outcome of a semantics that rejected the whole
#: hierarchy (:class:`~repro.core.semantics.SemanticsRejection`).
REJECTED = ("rejected",)

#: Class-level (subobject-blind) semantics: one answer per *class*, so
#: duplicated subobjects of one declaring class cannot ambiguate them.
_CLASS_LEVEL = ("c3", "eiffel", "self", "topo-number")

#: Subobject-sensitive semantics: distinct subobjects of the same
#: declaring class are distinct candidates.
_SUBOBJECT_LEVEL = ("cpp-dominance", "gxx-bfs")


def _outcome(result: LookupResult) -> tuple:
    """The comparable shape of one query's answer: status plus the
    declaring class for unique results.  Ambiguity candidate sets are
    carried for the catalog predicates but excluded from equality."""
    if result.is_unique:
        return ("unique", result.declaring_class)
    if result.is_ambiguous:
        return ("ambiguous", frozenset(result.candidates or ()))
    return ("not-found",)


def _differs(left: tuple, right: tuple) -> bool:
    """Class-level disagreement: status, and declarer when unique."""
    if left[0] != right[0]:
        return True
    return left[0] == "unique" and left[1] != right[1]


@dataclass(frozen=True)
class PairDivergence:
    """One observed disagreement between two semantics.

    Query-level divergences carry the ``(class_name, member)`` they
    disagreed on; rejection-level divergences (one side rejected the
    whole hierarchy) anchor at the rejecting class with ``member=None``.
    ``outcomes`` maps *every* campaign semantics to its outcome for the
    same query (or :data:`REJECTED`), so catalog predicates can consult
    third parties — e.g. "gxx is prematurely ambiguous only where
    dominance is unique"."""

    left: str
    right: str
    left_outcome: tuple
    right_outcome: tuple
    class_name: Optional[str] = None
    member: Optional[str] = None
    outcomes: Mapping[str, tuple] = field(default_factory=dict)

    def swapped(self) -> "PairDivergence":
        return PairDivergence(
            left=self.right,
            right=self.left,
            left_outcome=self.right_outcome,
            right_outcome=self.left_outcome,
            class_name=self.class_name,
            member=self.member,
            outcomes=self.outcomes,
        )

    def describe(self) -> str:
        where = (
            f"{self.class_name}::{self.member}"
            if self.member is not None
            else f"class {self.class_name!r}"
        )
        return (
            f"{self.left}={_render(self.left_outcome)} vs "
            f"{self.right}={_render(self.right_outcome)} on {where}"
        )


def _render(outcome: tuple) -> str:
    if outcome[0] == "unique":
        return f"unique({outcome[1]})"
    if outcome[0] == "ambiguous":
        return f"ambiguous({{{', '.join(sorted(outcome[1]))}}})"
    return outcome[0]


@dataclass(frozen=True)
class CatalogEntry:
    """One documented way two semantics may legitimately disagree.

    ``applies`` is tried in both argument orders by
    :func:`catalog_entry_for`, so predicates may assume a fixed
    orientation.  ``witness`` builds a hierarchy on which the entry is
    the *first* matching catalog entry for at least one pair — the
    witness test replays every factory, so a predicate that stops
    matching its own witness fails CI instead of silently rotting."""

    name: str
    description: str
    applies: Callable[[PairDivergence], bool]
    witness: Callable[[], ClassHierarchyGraph]


def _vector_not_unique(d: PairDivergence) -> bool:
    """True when some subobject-sensitive semantics in the campaign saw
    the query as ambiguous/rejected (vacuously true when none ran)."""
    seen = [
        d.outcomes[name]
        for name in _SUBOBJECT_LEVEL
        if name in d.outcomes
    ]
    return not seen or any(o[0] in ("ambiguous", "rejected") for o in seen)


def _c3_order_clash() -> ClassHierarchyGraph:
    """X and Y inherit (A, B) in opposite orders; Z joins them.  C3
    cannot serialize the local precedence orders; every other semantics
    is untroubled (only A declares ``m``, so Eiffel sees one origin)."""
    g = ClassHierarchyGraph()
    g.add_class("A", members=["m"])
    g.add_class("B")
    g.add_class("X")
    g.add_edge("A", "X")
    g.add_edge("B", "X")
    g.add_class("Y")
    g.add_edge("B", "Y")
    g.add_edge("A", "Y")
    g.add_class("Z")
    g.add_edge("X", "Z")
    g.add_edge("Y", "Z")
    return g


CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        name="c3-rejection",
        description=(
            "C3 refuses hierarchies whose local precedence orders "
            "cannot be merged into one MRO; every other semantics "
            "accepts them (C++ accepts any acyclic CHG)."
        ),
        applies=lambda d: (
            d.left == "c3"
            and d.left_outcome == REJECTED
            and d.right_outcome != REJECTED
        ),
        witness=_c3_order_clash,
    ),
    CatalogEntry(
        name="eiffel-rejection",
        description=(
            "Eiffel statically rejects a class inheriting features of "
            "the same name from distinct origins (a rename clause "
            "would be required); the other semantics answer the query "
            "(ambiguously or via their tie-break) instead."
        ),
        applies=lambda d: (
            d.left == "eiffel"
            and d.left_outcome == REJECTED
            and d.right_outcome != REJECTED
        ),
        witness=lambda: ambiguous_fan(2),
    ),
    CatalogEntry(
        name="gxx-premature-ambiguity",
        description=(
            "The historical g++ BFS bails out on the first "
            "non-comparable pair it meets, declaring ambiguity where "
            "full dominance resolution finds a unique winner — the "
            "paper's Figure 9 counterexample."
        ),
        applies=lambda d: (
            d.left == "gxx-bfs"
            and d.left_outcome[0] == "ambiguous"
            and d.right_outcome[0] == "unique"
            and d.outcomes.get("cpp-dominance", ("unique",))[0] == "unique"
        ),
        witness=figure9,
    ),
    CatalogEntry(
        name="dominance-blind",
        description=(
            "Self-style lookup unions visible declarations without a "
            "dominance relation, so it reports ambiguity where a "
            "dominated declaration should have been disqualified; the "
            "unique side's declarer is among self's candidates."
        ),
        applies=lambda d: (
            d.left == "self"
            and d.left_outcome[0] == "ambiguous"
            and d.right_outcome[0] == "unique"
            and d.right_outcome[1] in d.left_outcome[1]
        ),
        witness=figure9,
    ),
    CatalogEntry(
        name="class-blind-duplication",
        description=(
            "Subobject-sensitive semantics (dominance, g++ BFS) see "
            "repeated non-virtual subobjects of one declaring class as "
            "distinct ambiguous candidates; class-level semantics "
            "collapse them into one answer.  Signature: self is unique "
            "on the same query."
        ),
        applies=lambda d: (
            d.left in _SUBOBJECT_LEVEL
            and d.left_outcome[0] == "ambiguous"
            and d.right in _CLASS_LEVEL
            and d.right_outcome[0] == "unique"
            and d.outcomes.get("self", ("unique",))[0] == "unique"
        ),
        witness=lambda: nonvirtual_diamond_ladder(1),
    ),
    CatalogEntry(
        name="linearization-resolves-ambiguity",
        description=(
            "C3 totally orders the ancestors, so its MRO walk always "
            "elects a single declarer where dominance (or another "
            "rule) reports a genuine ambiguity."
        ),
        applies=lambda d: (
            d.left == "c3"
            and d.left_outcome[0] == "unique"
            and d.right_outcome[0] == "ambiguous"
        ),
        witness=figure1,
    ),
    CatalogEntry(
        name="topo-resolves-ambiguity",
        description=(
            "Topological numbering always elects the declarer with "
            "the highest topo number, so it answers uniquely where "
            "dominance (or another rule) is ambiguous."
        ),
        applies=lambda d: (
            d.left == "topo-number"
            and d.left_outcome[0] == "unique"
            and d.right_outcome[0] == "ambiguous"
        ),
        witness=figure1,
    ),
    CatalogEntry(
        name="ambiguity-resolution-disagreement",
        description=(
            "Two tie-breaking semantics (C3 / topo-number / Eiffel) "
            "resolve the same clash to different declarers — expected "
            "whenever some subobject-sensitive semantics deems the "
            "query ambiguous (C3 follows local precedence order, topo "
            "numbering follows global declaration order)."
        ),
        applies=lambda d: (
            d.left_outcome[0] == "unique"
            and d.right_outcome[0] == "unique"
            and d.left_outcome[1] != d.right_outcome[1]
            and d.left in ("c3", "topo-number", "eiffel")
            and d.right in ("c3", "topo-number", "eiffel")
            and _vector_not_unique(d)
        ),
        witness=lambda: ambiguous_fan(2),
    ),
)


def catalog_entry_for(
    divergence: PairDivergence,
) -> Optional[CatalogEntry]:
    """The first catalog entry covering ``divergence`` (its predicate
    is tried in both orientations), or ``None`` — an uncatalogued
    divergence, which the campaign treats as a finding."""
    swapped = divergence.swapped()
    for entry in CATALOG:
        if entry.applies(divergence) or entry.applies(swapped):
            return entry
    return None


def semantics_outcomes(
    graph: ClassHierarchyGraph,
    *,
    semantics: Optional[Sequence[str]] = None,
) -> tuple[dict[str, dict], dict[str, SemanticsRejection]]:
    """Build ``graph`` under every requested semantics.

    Returns ``(outcomes, rejections)``: per accepted semantics a map
    ``(class, member) -> outcome`` over the full declared-member query
    surface, and per rejecting semantics the
    :class:`~repro.core.semantics.SemanticsRejection` it raised."""
    names = tuple(semantics) if semantics else SEMANTICS_NAMES
    outcomes: dict[str, dict] = {}
    rejections: dict[str, SemanticsRejection] = {}
    members = graph.member_names()
    for name in names:
        try:
            table = build_lookup_table(graph, mode="batched", semantics=name)
        except SemanticsRejection as exc:
            rejections[name] = exc
            continue
        per_query: dict[tuple[str, str], tuple] = {}
        for class_name in graph.classes:
            for member in members:
                per_query[(class_name, member)] = _outcome(
                    table.lookup(class_name, member)
                )
        outcomes[name] = per_query
    return outcomes, rejections


def cross_semantics_divergences(
    graph: ClassHierarchyGraph,
    *,
    semantics: Optional[Sequence[str]] = None,
) -> list[tuple[PairDivergence, Optional[CatalogEntry]]]:
    """Every pairwise disagreement over ``graph``, each attributed to
    its covering catalog entry (``None`` = uncatalogued).

    Rejection-vs-acceptance yields one divergence per pair; accepted
    pairs are diffed query-by-query over the full surface."""
    names = tuple(semantics) if semantics else SEMANTICS_NAMES
    outcomes, rejections = semantics_outcomes(graph, semantics=names)
    results: list[tuple[PairDivergence, Optional[CatalogEntry]]] = []
    for i, left in enumerate(names):
        for right in names[i + 1 :]:
            left_rejected = left in rejections
            right_rejected = right in rejections
            if left_rejected and right_rejected:
                continue
            if left_rejected or right_rejected:
                exc = rejections[left if left_rejected else right]
                hierarchy_level = {
                    name: REJECTED if name in rejections else ("accepted",)
                    for name in names
                }
                divergence = PairDivergence(
                    left=left,
                    right=right,
                    left_outcome=(
                        REJECTED if left_rejected else ("accepted",)
                    ),
                    right_outcome=(
                        REJECTED if right_rejected else ("accepted",)
                    ),
                    class_name=exc.class_name,
                    member=None,
                    outcomes=hierarchy_level,
                )
                results.append(
                    (divergence, catalog_entry_for(divergence))
                )
                continue
            left_rows = outcomes[left]
            right_rows = outcomes[right]
            for key, left_outcome in left_rows.items():
                right_outcome = right_rows[key]
                if not _differs(left_outcome, right_outcome):
                    continue
                per_query = {
                    name: (
                        REJECTED
                        if name in rejections
                        else outcomes[name][key]
                    )
                    for name in names
                }
                divergence = PairDivergence(
                    left=left,
                    right=right,
                    left_outcome=left_outcome,
                    right_outcome=right_outcome,
                    class_name=key[0],
                    member=key[1],
                    outcomes=per_query,
                )
                results.append(
                    (divergence, catalog_entry_for(divergence))
                )
    return results


def cross_semantics_check(
    graph: ClassHierarchyGraph,
    *,
    semantics: Optional[Sequence[str]] = None,
) -> tuple[list[PairDivergence], int, int]:
    """The campaign leg: diff all semantics pairs over ``graph``.

    Returns ``(uncatalogued, pairs_compared, catalogued_count)`` —
    only the uncatalogued divergences are failures."""
    names = tuple(semantics) if semantics else SEMANTICS_NAMES
    attributed = cross_semantics_divergences(graph, semantics=names)
    uncatalogued = [d for d, entry in attributed if entry is None]
    catalogued = sum(1 for _d, entry in attributed if entry is not None)
    pairs = len(names) * (len(names) - 1) // 2
    return uncatalogued, pairs, catalogued
