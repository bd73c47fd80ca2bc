"""Metamorphic mutation operators over class hierarchies.

Each operator transforms a hierarchy in a way whose effect on member
lookup is *predicted by the paper's definitions* (Definitions 7-9: the
subobject poset, ``Defns(C, m)`` and dominance), so the campaign can
check the lookup table against the prediction without knowing the
expected answer in advance.  The invariants:

* **add-redundant-edge** / **virtualize-join** — ``lookup(C, m)`` is a
  function of ``C``'s *own* subobject graph (Definition 7 ranges over
  the subobjects of the complete type ``C`` only), so a structural
  change at class ``X`` can affect only ``X`` and its transitive
  derived classes; every other entry of the table must be bit-identical.
* **clone-class** — a new leaf class copying ``X``'s bases and member
  names occurs in no other class's subobject graph, so all existing
  entries are preserved; and its own subobject graph is isomorphic to
  ``X``'s, so its results equal ``X``'s with ``ldc = X`` renamed to the
  clone.
* **add-overriding-definition** — declaring ``m`` in ``X`` makes the
  ``X``-subobject of ``X`` an element of ``Defns(X, m)``, and it
  contains every other subobject of ``X``, hence dominates them all
  (Definition 8): ``lookup(X, m)`` becomes UNIQUE with ``ldc = X``.
  Only entries ``(D, m)`` for ``D`` in ``X``'s cone may change.
* **add-ambiguating-definition** — a fresh root ``R`` declaring ``m``
  with a non-virtual edge ``R -> X`` adds the subobject ``[X; X.R]`` to
  ``Defns(X, m)``; it neither contains nor is contained in any other
  definition subobject of ``X`` (its containment chain is ``X -> R``,
  and ``X`` itself declares nothing new), so by Definition 9:
  ``lookup(X, m)`` was NOT_FOUND → becomes UNIQUE at ``R``; ``X``
  declares ``m`` → unchanged (the ``X``-subobject still dominates);
  otherwise → AMBIGUOUS.

``violations`` takes the two lookup functions to check as plain
callables, so the same invariant is used two ways: the campaign passes
the *fast engines* (the invariant the lookup table must preserve), and
``tests/fuzz/test_mutators.py`` passes the definitional
:class:`~repro.subobjects.reference.ReferenceLookup` on both sides,
pinning each operator's prediction at the path level independent of the
kernel it is meant to check.

All operators except **virtualize-join** are pure growth and can also be
applied *in place* to a live graph — the campaign uses that to exercise
the one-shot lookup's per-graph memo and the delta-maintained tables
across real mutations (warm → mutate → re-query).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.results import LookupResult, describe_disagreement
from repro.hierarchy.graph import ClassHierarchyGraph

__all__ = [
    "AppliedMutation",
    "MUTATORS",
    "Mutator",
    "copy_hierarchy",
    "mutate",
]

LookupFn = Callable[[str, str], LookupResult]


def copy_hierarchy(
    graph: ClassHierarchyGraph,
    *,
    virtualize_bases_of: Optional[str] = None,
) -> ClassHierarchyGraph:
    """An independent deep copy of ``graph`` (same classes, members and
    edges, same declaration order).  ``virtualize_bases_of`` names one
    class whose direct-base edges are all flipped to virtual in the copy
    — the one mutation the append-only graph API cannot express in
    place."""
    copy = ClassHierarchyGraph()
    for name in graph.classes:
        copy.add_class(
            name,
            graph.declared_members(name).values(),
            is_struct=graph.is_struct(name),
        )
    # Edges second: a mutation can graft a base class that is *declared*
    # later than its derived class (e.g. the ambiguating root).
    for edge in graph.edges:
        copy.add_edge(
            edge.base,
            edge.derived,
            virtual=edge.virtual or edge.derived == virtualize_bases_of,
            access=edge.access,
        )
    return copy


def _cone(graph: ClassHierarchyGraph, target: str) -> frozenset[str]:
    """``target`` plus its transitive derived classes — the only classes
    whose lookups a mutation at ``target`` is allowed to change."""
    return frozenset({target} | set(graph.descendants(target)))


def _confinement_violations(
    before: ClassHierarchyGraph,
    after: ClassHierarchyGraph,
    lookup_before: LookupFn,
    lookup_after: LookupFn,
    may_change: Callable[[str, str], bool],
) -> list[str]:
    """Compare every pre-existing ``(class, member)`` entry across the
    mutation; entries for which ``may_change`` is false must agree."""
    universe = sorted(set(before.member_names()) | set(after.member_names()))
    out: list[str] = []
    for class_name in before.classes:
        for member in universe:
            if may_change(class_name, member):
                continue
            diff = describe_disagreement(
                lookup_after(class_name, member),
                lookup_before(class_name, member),
            )
            if diff is not None:
                out.append(
                    f"{class_name}::{member} changed outside the "
                    f"operator's cone: {diff}"
                )
    return out


class Mutator:
    """One metamorphic operator: pick a target, apply the transformation
    (to a copy, or in place when the operator is pure growth), and check
    the paper-derived invariant across the mutation."""

    #: Operator name (used in reports and the campaign's counters).
    name: str = "?"
    #: One-line statement of the paper-derived invariant.
    invariant: str = "?"
    #: True when the operator is pure growth (expressible through the
    #: append-only graph API) and so can mutate a live graph in place.
    in_place: bool = True

    def pick(
        self, graph: ClassHierarchyGraph, rng: random.Random
    ) -> Optional[tuple]:
        """Choose a target, deterministically under ``rng``; ``None``
        when the operator does not apply to this hierarchy."""
        raise NotImplementedError

    def apply(
        self, graph: ClassHierarchyGraph, plan: tuple
    ) -> ClassHierarchyGraph:
        """The mutated hierarchy, as a fresh validated copy."""
        copy = copy_hierarchy(graph)
        self.apply_in_place(copy, plan)
        copy.validate()
        return copy

    def apply_in_place(
        self, graph: ClassHierarchyGraph, plan: tuple
    ) -> None:
        """Apply the mutation to ``graph`` itself (only when
        :attr:`in_place` is true)."""
        raise NotImplementedError

    def violations(
        self,
        before: ClassHierarchyGraph,
        after: ClassHierarchyGraph,
        plan: tuple,
        lookup_before: LookupFn,
        lookup_after: LookupFn,
    ) -> list[str]:
        """Every way the two lookup functions violate the operator's
        invariant (empty list = invariant holds)."""
        raise NotImplementedError


class AddRedundantEdge(Mutator):
    """Add a direct edge ``B -> D`` where ``B`` is already a transitive
    base of ``D``: new subobjects appear in ``D``'s cone only."""

    name = "add-redundant-edge"
    invariant = (
        "lookup is confined to the target's cone (Definitions 7-9 range "
        "over the queried class's own subobject graph)"
    )

    def pick(self, graph, rng):
        candidates = [
            (base, derived)
            for derived in graph.classes
            for base in sorted(graph.ancestors(derived))
            if base not in graph.direct_base_names(derived)
        ]
        if not candidates:
            return None
        base, derived = rng.choice(candidates)
        return (base, derived, rng.random() < 0.3)

    def apply_in_place(self, graph, plan):
        base, derived, virtual = plan
        graph.add_edge(base, derived, virtual=virtual)

    def violations(self, before, after, plan, lookup_before, lookup_after):
        _base, derived, _virtual = plan
        cone = _cone(before, derived)
        return _confinement_violations(
            before,
            after,
            lookup_before,
            lookup_after,
            lambda class_name, _member: class_name in cone,
        )


class VirtualizeJoin(Mutator):
    """Flip every direct-base edge of a multiple-inheritance join to
    virtual (the paper's Figure 1 → Figure 2 move): subobjects are
    shared instead of duplicated, in the join's cone only."""

    name = "virtualize-join"
    invariant = (
        "lookup is confined to the join's cone (classes whose subobject "
        "graph does not contain the join are untouched)"
    )
    in_place = False  # edge virtuality is immutable on a live graph

    def pick(self, graph, rng):
        candidates = [
            name
            for name in graph.classes
            if graph.base_count(name) >= 2
            and any(not e.virtual for e in graph.direct_bases(name))
        ]
        if not candidates:
            return None
        return (rng.choice(candidates),)

    def apply(self, graph, plan):
        copy = copy_hierarchy(graph, virtualize_bases_of=plan[0])
        copy.validate()
        return copy

    def violations(self, before, after, plan, lookup_before, lookup_after):
        cone = _cone(before, plan[0])
        return _confinement_violations(
            before,
            after,
            lookup_before,
            lookup_after,
            lambda class_name, _member: class_name in cone,
        )


class CloneClass(Mutator):
    """Add a leaf class duplicating a target's direct bases and member
    names: existing lookups are untouched and the clone's answers are
    isomorphic to the target's."""

    name = "clone-class"
    invariant = (
        "existing entries are preserved verbatim; the clone's results "
        "equal the target's with ldc = target renamed to the clone "
        "(isomorphic subobject graphs)"
    )

    def pick(self, graph, rng):
        candidates = [
            name for name in graph.classes if f"{name}__clone" not in graph
        ]
        if not candidates:
            return None
        target = rng.choice(candidates)
        return (target, f"{target}__clone")

    def apply_in_place(self, graph, plan):
        target, clone = plan
        graph.add_class(
            clone,
            graph.declared_members(target).values(),
            is_struct=graph.is_struct(target),
        )
        for edge in graph.direct_bases(target):
            graph.add_edge(edge.base, clone, virtual=edge.virtual, access=edge.access)

    def violations(self, before, after, plan, lookup_before, lookup_after):
        target, clone = plan
        out = _confinement_violations(
            before,
            after,
            lookup_before,
            lookup_after,
            lambda _class_name, _member: False,  # nothing may change
        )
        for member in sorted(set(after.member_names())):
            original = lookup_after(target, member)
            mirrored = lookup_after(clone, member)
            if original.status is not mirrored.status:
                out.append(
                    f"clone {clone}::{member} has status {mirrored.status}, "
                    f"target has {original.status}"
                )
                continue
            if original.is_unique:
                expected = (
                    clone
                    if original.declaring_class == target
                    else original.declaring_class
                )
                if mirrored.declaring_class != expected:
                    out.append(
                        f"clone {clone}::{member} resolved to "
                        f"{mirrored.declaring_class}, expected {expected}"
                    )
        return out


class AddOverridingDefinition(Mutator):
    """Declare an inherited member name directly in a class: the new
    generated definition hides everything above it."""

    name = "add-overriding-definition"
    invariant = (
        "the target's own subobject contains all others, so its new "
        "definition dominates Defns(target, m) (Definition 8); only "
        "(cone, m) entries may change"
    )

    def pick(self, graph, rng):
        candidates = [
            (name, member)
            for name in graph.classes
            for member in graph.member_names()
            if not graph.declares(name, member)
            and any(
                graph.declares(ancestor, member)
                for ancestor in graph.ancestors(name)
            )
        ]
        if not candidates:
            return None
        return rng.choice(candidates)

    def apply_in_place(self, graph, plan):
        target, member = plan
        graph.add_member(target, member)

    def violations(self, before, after, plan, lookup_before, lookup_after):
        target, member = plan
        cone = _cone(before, target)
        out = _confinement_violations(
            before,
            after,
            lookup_before,
            lookup_after,
            lambda class_name, m: class_name in cone and m == member,
        )
        result = lookup_after(target, member)
        if not result.is_unique or result.declaring_class != target:
            out.append(
                f"lookup({target}, {member}) after overriding is {result}, "
                f"expected UNIQUE at {target}"
            )
        return out


class AddAmbiguatingDefinition(Mutator):
    """Graft a fresh root declaring an existing member name onto a class
    via a non-virtual edge: the new definition is incomparable to every
    existing one, so the target's entry flips exactly as Definitions 7-9
    predict."""

    name = "add-ambiguating-definition"
    invariant = (
        "at the target: NOT_FOUND becomes UNIQUE at the new root, a "
        "direct declaration stays UNIQUE at the target, anything else "
        "becomes AMBIGUOUS; only (cone, m) entries may change"
    )

    def pick(self, graph, rng):
        if "FuzzAmb" in graph:
            return None
        members = graph.member_names()
        member = rng.choice(sorted(members)) if members else "m"
        return (rng.choice(list(graph.classes)), member, "FuzzAmb")

    def apply_in_place(self, graph, plan):
        target, member, root = plan
        graph.add_class(root, [member])
        graph.add_edge(root, target, virtual=False)

    def violations(self, before, after, plan, lookup_before, lookup_after):
        target, member, root = plan
        cone = _cone(before, target)
        out = _confinement_violations(
            before,
            after,
            lookup_before,
            lookup_after,
            lambda class_name, m: class_name in cone and m == member,
        )
        previous = lookup_before(target, member)
        result = lookup_after(target, member)
        if before.declares(target, member):
            if not result.is_unique or result.declaring_class != target:
                out.append(
                    f"lookup({target}, {member}) is {result}, but the "
                    f"target's own declaration must keep dominating"
                )
        elif previous.is_not_found:
            if not result.is_unique or result.declaring_class != root:
                out.append(
                    f"lookup({target}, {member}) is {result}, expected "
                    f"UNIQUE at the new root {root} (sole definition)"
                )
        elif not result.is_ambiguous:
            out.append(
                f"lookup({target}, {member}) is {result}, expected "
                f"AMBIGUOUS (the new root's definition is incomparable "
                f"to the existing ones)"
            )
        return out


#: The operator suite the campaign draws from, in a stable order.
MUTATORS: tuple[Mutator, ...] = (
    AddRedundantEdge(),
    VirtualizeJoin(),
    CloneClass(),
    AddOverridingDefinition(),
    AddAmbiguatingDefinition(),
)


@dataclass(frozen=True)
class AppliedMutation:
    """A mutator together with the concrete plan it was applied with."""

    mutator: Mutator
    plan: tuple

    @property
    def name(self) -> str:
        """The operator's name."""
        return self.mutator.name

    def describe(self) -> str:
        """``operator(plan)`` for reports."""
        return f"{self.name}{self.plan!r}"

    def violations(
        self,
        before: ClassHierarchyGraph,
        after: ClassHierarchyGraph,
        lookup_before: LookupFn,
        lookup_after: LookupFn,
    ) -> list[str]:
        """Check the operator's invariant for this application."""
        return self.mutator.violations(
            before, after, self.plan, lookup_before, lookup_after
        )


def mutate(
    graph: ClassHierarchyGraph,
    rng: random.Random,
    *,
    mutators: tuple[Mutator, ...] = MUTATORS,
    in_place_only: bool = False,
) -> Optional[tuple[ClassHierarchyGraph, AppliedMutation]]:
    """Apply one randomly chosen applicable operator to (a copy of)
    ``graph``; ``None`` when no operator applies.  With
    ``in_place_only`` the choice is restricted to pure-growth operators
    and the mutation is applied to ``graph`` *itself* (the
    memo-staleness leg of the campaign relies on this)."""
    pool = [m for m in mutators if m.in_place] if in_place_only else list(mutators)
    for mutator in rng.sample(pool, len(pool)):
        plan = mutator.pick(graph, rng)
        if plan is None:
            continue
        if in_place_only:
            mutator.apply_in_place(graph, plan)
            return graph, AppliedMutation(mutator, plan)
        return mutator.apply(graph, plan), AppliedMutation(mutator, plan)
    return None
