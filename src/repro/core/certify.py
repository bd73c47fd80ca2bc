"""Independent certification of lookup results.

Given any engine's :class:`~repro.core.results.LookupResult`, re-derive
the answer from the *definitions* (Definitions 7-9 over the materialised
subobject poset) and check the result against it — the translation-
validation pattern: trust the fast algorithm in production, but be able
to certify any single answer on demand.

A certificate for a UNIQUE result additionally checks the carried
witness: it must be a real path of the hierarchy, an element of
``DefnsPath(C, m)``, ≈-equivalent to the true winner, and its
``(ldc, leastVirtual)`` abstraction must match the result's fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.equivalence import subobject_key
from repro.core.results import LookupResult, LookupStatus
from repro.errors import InvalidPathError
from repro.hierarchy.compiled import HierarchyLike, hierarchy_of
from repro.hierarchy.graph import ClassHierarchyGraph
from repro.subobjects.reference import ReferenceLookup


@dataclass
class Certificate:
    """The outcome of certifying one result."""

    result: LookupResult
    valid: bool
    failures: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.valid

    def render(self) -> str:
        head = f"certificate for {self.result}:"
        if self.valid:
            return f"{head} VALID"
        lines = [f"{head} INVALID"]
        lines.extend(f"  - {failure}" for failure in self.failures)
        return "\n".join(lines)


def certify(
    hierarchy: HierarchyLike,
    result: LookupResult,
    *,
    reference: ReferenceLookup | None = None,
) -> Certificate:
    """Check ``result`` against the definitional semantics of
    ``lookup(result.class_name, result.member)``.

    ``result`` may come from *any* engine — the eager table in any build
    mode (per-member or batched), a published snapshot or the
    lazy engine; certification only reads the
    :class:`~repro.core.results.LookupResult` fields, and engines that do
    not track witnesses (e.g. tables built with witness tracking off)
    certify on status and declaring class alone.  ``hierarchy`` may be a
    mutable graph or a compiled snapshot.
    """
    graph = hierarchy_of(hierarchy)
    reference = reference if reference is not None else ReferenceLookup(graph)
    failures: list[str] = []
    truth = reference.lookup(result.class_name, result.member)

    if result.status is not truth.status:
        failures.append(
            f"status is {result.status} but the definition gives "
            f"{truth.status}"
        )
    if result.status is LookupStatus.UNIQUE and truth.is_unique:
        _check_unique(graph, result, truth, failures)
    return Certificate(result=result, valid=not failures, failures=failures)


def _check_unique(
    graph: ClassHierarchyGraph,
    result: LookupResult,
    truth: LookupResult,
    failures: list[str],
) -> None:
    if result.declaring_class != truth.declaring_class:
        failures.append(
            f"resolved to {result.declaring_class}::{result.member} but "
            f"the dominant definition is "
            f"{truth.declaring_class}::{result.member}"
        )
    witness = result.witness
    if witness is None:
        return  # engines without witness tracking certify on status alone
    try:
        witness.check_in(graph)
    except InvalidPathError as exc:
        failures.append(f"witness is not a path of the hierarchy: {exc}")
        return
    if witness.mdc != result.class_name:
        failures.append(
            f"witness ends at {witness.mdc!r}, not at the queried class"
        )
    if not graph.declares(witness.ldc, result.member):
        failures.append(
            f"witness source {witness.ldc!r} does not declare "
            f"{result.member!r}"
        )
    if truth.witness is not None and subobject_key(witness) != subobject_key(
        truth.witness
    ):
        failures.append(
            f"witness names subobject {subobject_key(witness)} but the "
            f"dominant definition lives in {subobject_key(truth.witness)}"
        )
    if result.least_virtual is not None and (
        witness.least_virtual() != result.least_virtual
    ):
        failures.append(
            "the result's leastVirtual abstraction does not match its own "
            "witness"
        )


def certify_table(
    hierarchy: HierarchyLike,
    engine,
    *,
    members: tuple[str, ...] = (),
    queries: Optional[Iterable[tuple[str, str]]] = None,
) -> list[Certificate]:
    """Certify an engine's answer for every (class, member) pair; returns
    only the *invalid* certificates (empty list = fully certified).

    ``engine`` is anything with a ``lookup(class_name, member)`` method —
    the eager table in either build mode (per-member or batched), a
    published snapshot, the lazy engine, or a baseline.  ``members``
    restricts the member names swept; ``queries`` overrides the sweep
    with an explicit iterable of ``(class, member)`` pairs (the fuzzing
    campaign certifies exactly the query surface it compared).  One
    :class:`~repro.subobjects.reference.ReferenceLookup` is shared across
    the whole certification, so subobject posets are materialised once
    per complete type.
    """
    graph = hierarchy_of(hierarchy)
    reference = ReferenceLookup(graph)
    if queries is None:
        names = members or graph.member_names()
        queries = (
            (class_name, member)
            for class_name in graph.classes
            for member in names
        )
    invalid = []
    for class_name, member in queries:
        certificate = certify(
            graph,
            engine.lookup(class_name, member),
            reference=reference,
        )
        if not certificate:
            invalid.append(certificate)
    return invalid
