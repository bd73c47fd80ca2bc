"""The multi-tenant lookup service core (synchronous, transport-free).

A :class:`LookupService` hosts many named hierarchies (*tenants*), each
with its own snapshot chain: the tenant's
:class:`~repro.core.lookup.MemberLookupTable` is the thin writer of
:mod:`repro.core.snapshot`, so every published generation is immutable
and reads are lock-free — a query captures the tenant's chain head once
and answers against that one generation no matter what the writer does
concurrently.  Point and batch reads both answer straight from the
captured snapshot's memoised columnar layout, so the service keeps no
answer cache of its own: a publish or a removed tenant leaves nothing
stale behind.

This module is transport-free on purpose: the asyncio newline-JSON
front lives in :mod:`repro.serve.server` (one writer task per tenant
serializes its deltas), and benchmarks/tests drive the service core
directly without sockets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.core.lookup import MemberLookupTable
from repro.core.semantics import get_semantics
from repro.core.results import LookupResult
from repro.core.snapshot import TableSnapshot
from repro.errors import ReproError
from repro.hierarchy.graph import ClassHierarchyGraph
from repro.hierarchy.serialize import hierarchy_from_dict

__all__ = [
    "DuplicateTenantError",
    "LookupService",
    "Tenant",
    "TenantStats",
    "UnknownTenantError",
]


class UnknownTenantError(ReproError):
    """A tenant name was referenced but never added (or was removed)."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown tenant: {name!r}")
        self.name = name


class DuplicateTenantError(ReproError):
    """The same tenant name was added twice."""

    def __init__(self, name: str) -> None:
        super().__init__(f"tenant {name!r} already exists")
        self.name = name


@dataclass
class TenantStats:
    """Per-tenant serving counters, reported by the ``stats`` op."""

    lookups: int = 0
    batches: int = 0
    deltas_applied: int = 0


@dataclass
class Tenant:
    """One hosted hierarchy: the mutable source graph plus the writer
    that owns its snapshot chain.

    ``table`` is the snapshot-backed
    :class:`~repro.core.lookup.MemberLookupTable`; readers go through
    :attr:`snapshot` (the published chain head), the writer through
    ``table.apply_delta`` — one writer per tenant, serialized by the
    service front."""

    name: str
    graph: ClassHierarchyGraph
    table: MemberLookupTable
    stats: TenantStats = field(default_factory=TenantStats)

    @property
    def snapshot(self) -> TableSnapshot:
        """The tenant's published chain head."""
        return self.table.snapshot


class LookupService:
    """Many tenants, each served from its own published snapshot chain.

    ``add_tenant`` accepts a ready
    :class:`~repro.hierarchy.graph.ClassHierarchyGraph`, a ``repro-chg``
    dict (the :mod:`repro.hierarchy.serialize` wire format), or
    ``None`` for an empty hierarchy to grow through ``apply_delta``.
    Reads (:meth:`lookup` / :meth:`lookup_many`) capture the tenant's
    chain head once and are safe from any thread; writes
    (:meth:`apply_delta`) must be serialized per tenant by the caller —
    the asyncio front does this with one writer task per tenant.
    """

    def __init__(
        self,
        *,
        semantics: Optional[str] = None,
        preload: Optional[dict] = None,
    ) -> None:
        self._tenants: dict[str, Tenant] = {}
        self._semantics = get_semantics(semantics)
        # ``preload`` maps tenant name -> flatpack path: each tenant
        # boots straight off the mmapped file (O(mmap) cold start, no
        # table build) and is immediately writable via apply_delta.
        for tenant_name, pack_path in (preload or {}).items():
            self.add_tenant(tenant_name, pack=pack_path)

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------

    @property
    def tenant_names(self) -> tuple[str, ...]:
        """The currently hosted tenants, in insertion order."""
        return tuple(self._tenants)

    def tenant(self, name: str) -> Tenant:
        """The named tenant; raises :class:`UnknownTenantError`."""
        tenant = self._tenants.get(name)
        if tenant is None:
            raise UnknownTenantError(name)
        return tenant

    def add_tenant(
        self,
        name: str,
        hierarchy=None,
        *,
        semantics: Optional[str] = None,
        pack=None,
    ) -> Tenant:
        """Host a new tenant and build its root snapshot.

        ``hierarchy`` is a :class:`~repro.hierarchy.graph
        .ClassHierarchyGraph`, a ``repro-chg`` dict, or ``None`` (an
        empty hierarchy).  ``pack`` instead boots the tenant from a
        flatpack file (:mod:`repro.core.flatpack`): the root snapshot
        is served off the mmapped buffer with no table build, the
        mutable source graph is rebuilt from the packed arrays, and the
        tenant's dispatch rule comes from the pack header (``semantics``
        must be omitted or agree).  ``semantics`` overrides the
        service-wide dispatch rule for this tenant
        (:mod:`repro.core.semantics`) — tenants under different
        semantics share the service.  The rule may reject the
        hierarchy outright with
        :class:`~repro.core.semantics.SemanticsRejection`, in which
        case the tenant is not added.  Raises
        :class:`DuplicateTenantError` when the name is taken."""
        if name in self._tenants:
            raise DuplicateTenantError(name)
        if pack is not None:
            if hierarchy is not None:
                raise ValueError(
                    "add_tenant takes a hierarchy or a pack, not both"
                )
            from repro.core.flatpack import mmap_table

            packed = mmap_table(pack)
            if (
                semantics is not None
                and get_semantics(semantics) is not packed.semantics
            ):
                raise ValueError(
                    f"pack {str(pack)!r} was built under semantics "
                    f"{packed.semantics.name!r}, not {semantics!r}"
                )
            table = packed.to_table()
            tenant = Tenant(name=name, graph=table.graph, table=table)
            self._tenants[name] = tenant
            return tenant
        if hierarchy is None:
            graph = ClassHierarchyGraph()
        elif isinstance(hierarchy, dict):
            graph = hierarchy_from_dict(hierarchy)
        else:
            graph = hierarchy
        table = MemberLookupTable(
            graph,
            mode="batched",
            fastpath=True,
            semantics=(
                self._semantics if semantics is None else semantics
            ),
        )
        tenant = Tenant(name=name, graph=graph, table=table)
        self._tenants[name] = tenant
        return tenant

    def remove_tenant(self, name: str) -> None:
        """Drop a tenant.  Its whole snapshot chain retires with the
        last reference — no sweep needed."""
        if self._tenants.pop(name, None) is None:
            raise UnknownTenantError(name)

    # ------------------------------------------------------------------
    # Reads (lock-free against one captured snapshot)
    # ------------------------------------------------------------------

    def lookup(
        self, tenant_name: str, class_name: str, member: str
    ) -> LookupResult:
        """``lookup(C, m)`` for one tenant, against its chain head."""
        tenant = self.tenant(tenant_name)
        result = tenant.table.snapshot.lookup(class_name, member)
        tenant.stats.lookups += 1
        return result

    def lookup_many(
        self, tenant_name: str, queries: Iterable[Sequence[str]]
    ) -> list[LookupResult]:
        """A batch of queries answered against **one** captured
        snapshot — a publish cannot split the batch across
        generations — as one vectorized gather over its columnar
        layout (:meth:`TableSnapshot.lookup_many`)."""
        tenant = self.tenant(tenant_name)
        out = tenant.table.snapshot.lookup_many(queries)
        tenant.stats.lookups += len(out)
        tenant.stats.batches += 1
        return out

    # ------------------------------------------------------------------
    # Writes (serialize per tenant!)
    # ------------------------------------------------------------------

    def apply_delta(
        self, tenant_name: str, mutations: Sequence[dict]
    ) -> dict:
        """Apply a batch of mutations to a tenant's source graph and
        publish the child snapshot.

        Each mutation is a dict: ``{"op": "add_class", "name": ...,
        "members": [...]}``, ``{"op": "add_member", "class": ...,
        "member": ...}`` or ``{"op": "add_edge", "base": ...,
        "derived": ..., "virtual": ...}``.  The whole batch lands in
        one publish (one cone re-sweep), and readers see either the old
        generation or the new one.  Returns a summary with the new
        generation and the publish's delta statistics."""
        tenant = self.tenant(tenant_name)
        graph = tenant.graph
        for mutation in mutations:
            op = mutation.get("op")
            if op == "add_class":
                graph.add_class(
                    mutation["name"], mutation.get("members", ())
                )
            elif op == "add_member":
                graph.add_member(mutation["class"], mutation["member"])
            elif op == "add_edge":
                graph.add_edge(
                    mutation["base"],
                    mutation["derived"],
                    virtual=bool(mutation.get("virtual", False)),
                )
            else:
                raise ValueError(f"unknown mutation op {op!r}")
        stats = tenant.table.apply_delta()
        tenant.stats.deltas_applied += 1
        snapshot = tenant.table.snapshot
        return {
            "generation": snapshot.generation,
            "classes": snapshot.ch.n_classes,
            "members": snapshot.ch.n_members,
            "cone_classes": stats.cone_classes,
            "affected_members": stats.affected_members,
            "entries_recomputed": stats.entries_recomputed,
            "entries_reused": stats.entries_reused,
            "full_rebuilds": stats.full_rebuilds,
        }

    def ingest(
        self,
        tenant_name: str,
        paths: Iterable,
        *,
        batch_size: Optional[int] = None,
        keep_going: bool = False,
    ) -> dict:
        """Stream-ingest C++ source files into a tenant's live table.

        The tenant is created empty if it does not exist yet.  Classes
        are lowered as they parse and published every ``batch_size``
        classes through the tenant's normal ``apply_delta`` path —
        readers can query the tenant between batches and see each
        published generation, exactly as with :meth:`apply_delta`.
        Like all writes, ingests must be serialized per tenant by the
        caller.  Returns the ingest report dict (files, classes,
        per-batch delta stats, parse errors when ``keep_going``)."""
        from repro.ingest.pipeline import DEFAULT_BATCH_SIZE, StreamingIngest

        if tenant_name in self._tenants:
            tenant = self._tenants[tenant_name]
        else:
            tenant = self.add_tenant(tenant_name)

        def on_batch(record) -> None:
            tenant.stats.deltas_applied += 1

        pipeline = StreamingIngest(
            table=tenant.table,
            batch_size=(
                DEFAULT_BATCH_SIZE if batch_size is None else batch_size
            ),
            keep_going=keep_going,
            on_batch=on_batch,
        )
        report = pipeline.ingest(paths)
        out = report.to_dict()
        out["generation"] = tenant.table.snapshot.generation
        out["semantic_errors"] = [
            str(d) for d in pipeline.diagnostics.errors
        ]
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self, tenant_name: Optional[str] = None) -> dict:
        """Service-wide (or one tenant's) counters: per-tenant serving
        stats and generations."""
        names = (
            [tenant_name] if tenant_name is not None else list(self._tenants)
        )
        tenants: dict = {}
        for name in names:
            tenant = self.tenant(name)
            snapshot = tenant.table.snapshot
            tenants[name] = {
                "generation": snapshot.generation,
                "classes": snapshot.ch.n_classes,
                "members": snapshot.ch.n_members,
                "entries": snapshot.entry_total,
                "semantics": tenant.table.semantics.name,
                "lookups": tenant.stats.lookups,
                "batches": tenant.stats.batches,
                "deltas_applied": tenant.stats.deltas_applied,
            }
        return {"tenants": tenants}
