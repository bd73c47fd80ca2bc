"""Immutable published lookup tables — the RCU snapshot tier.

The eager table (:mod:`repro.core.lookup`) maintains its rows in
O(delta) and the flat overlay (:mod:`repro.core.fastpath`) serves
unambiguous columns in O(1); this module is the only backing of both
for every row-major table, so neither is ever mutated where a reader
can see it.  A :class:`TableSnapshot` is an
*immutable*, generation-stamped view — the red/blue rows, the
:class:`~repro.core.fastpath.FlatTable` overlay and the
:class:`~repro.core.kernel.AmbiguityCertificate` of one compiled
hierarchy generation — and a delta never rewrites it.  Instead
:meth:`TableSnapshot.apply_delta` builds a **child** snapshot in
O(delta) and the writer publishes it by swapping a single reference
(atomic under the GIL), RCU style:

* **publish** — the child shares every out-of-cone row dict and every
  unaffected :class:`~repro.core.fastpath.FlatColumn` with its parent
  by reference; only the invalidation cone is copied (``cone_sweep``
  emits fresh cone row dicts, ``FlatTable.apply_delta`` emits fresh
  affected columns).  Nothing reachable from the parent is ever
  written.
* **retire** — dropping the last reference to an old snapshot is the
  whole retirement protocol; readers that captured it keep a coherent
  view of its generation for as long as they hold it.

Readers therefore never lock: capture the chain head once, answer any
number of queries against that one generation, and let the reference
go.  A torn read is impossible by construction — there is no state a
reader can observe half-written, because published state is never
written again.

The one deliberate reader-visible mutation is memoisation (flat
columns memoise :class:`~repro.core.results.LookupResult` objects and
the snapshot memoises public Red/Blue conversions).  Both are
idempotent single-reference writes of value-identical objects, so
racing readers can only ever install equal values — the answers are
immutable even though the memo dictionaries are not.

:class:`~repro.core.lookup.MemberLookupTable` is the thin writer over
this tier: it owns the chain head, serializes ``apply_delta`` calls,
and swaps the head atomically.  The multi-tenant service front in
:mod:`repro.serve` hosts one chain per tenant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from repro.core.columnar import ColumnarTable, merge_shards
from repro.core.fastpath import FlatTable, build_flat_table
from repro.core.kernel import (
    AmbiguityCertificate,
    KernelBlue,
    LookupStats,
    TableEntry,
    result_from_entry,
    to_table_entry,
)
from repro.core.results import LookupResult, not_found_result
from repro.core.semantics import DEFAULT_SEMANTICS, Semantics, get_semantics
from repro.errors import UnknownClassError
from repro.hierarchy.compiled import (
    HierarchyDelta,
    HierarchyLike,
    compiled_of,
    describe_delta,
)

__all__ = [
    "COLUMNAR_MODES",
    "DeltaStats",
    "SNAPSHOT_MODES",
    "TableSnapshot",
]

#: The build modes a snapshot can be swept in.  The per-member driver's
#: column-major layout has no row sharing to exploit, so it stays the
#: writer's in-place reference table.
SNAPSHOT_MODES = ("batched", "sharded")

#: The accepted ``columnar=`` settings: ``True`` lays the batch-serving
#: columnar table out lazily on the first ``lookup_many``, ``"eager"``
#: builds it with the snapshot (the sharded mode merges per-worker
#: slabs), ``False`` keeps batches on the per-query loop.
COLUMNAR_MODES = (True, False, "eager")


@dataclass
class DeltaStats:
    """What delta maintenance did to a table — per application and
    accumulated on :attr:`MemberLookupTable.delta_stats`.

    ``entries_reused`` counts the table entries that survived the
    application untouched (the out-of-cone / out-of-member-mask bulk of
    the table); ``boundary_rows`` counts the out-of-cone direct bases
    whose old rows seeded the cone re-sweep — together they make the
    boundary-row-reuse invariant observable."""

    deltas_applied: int = 0
    full_rebuilds: int = 0
    cone_classes: int = 0
    affected_members: int = 0
    entries_recomputed: int = 0
    entries_reused: int = 0
    boundary_rows: int = 0

    def accumulate(self, other: "DeltaStats") -> None:
        self.deltas_applied += other.deltas_applied
        self.full_rebuilds += other.full_rebuilds
        self.cone_classes += other.cone_classes
        self.affected_members += other.affected_members
        self.entries_recomputed += other.entries_recomputed
        self.entries_reused += other.entries_reused
        self.boundary_rows += other.boundary_rows


def _entry_reader(rows: list):
    """The ``entry_at(cid, mid)`` shape over one snapshot's row list,
    tolerant of unfilled rows."""

    def entry_at(cid: int, mid: int):
        row = rows[cid]
        return row.get(mid) if row else None

    return entry_at


class TableSnapshot:
    """One immutable, generation-stamped published lookup table.

    Holds the complete serving state of one compiled hierarchy
    generation: the row-major red/blue kernel rows, the optional flat
    overlay with its persistent ambiguity certificate, and the entry
    count.  Construct one with :meth:`build`; derive the next
    generation with :meth:`apply_delta` — ``self`` is never modified,
    sharing everything outside the invalidation cone with the child.

    Published snapshots are safe to read from any number of threads
    without locking (see the module docstring for why the memo writes
    do not break that).
    """

    __slots__ = (
        "ch",
        "rows",
        "flat",
        "certificate",
        "entry_total",
        "track_witnesses",
        "mode",
        "max_workers",
        "shards",
        "delta_stats",
        "parent_generation",
        "columnar_enabled",
        "semantics",
        "_columnar",
        "_public",
    )

    def __init__(
        self,
        *,
        ch,
        rows: list,
        flat: Optional[FlatTable],
        certificate: Optional[AmbiguityCertificate],
        entry_total: int,
        track_witnesses: bool,
        mode: str,
        max_workers: Optional[int],
        shards: Optional[int],
        public: Optional[dict] = None,
        delta_stats: Optional[DeltaStats] = None,
        parent_generation: Optional[int] = None,
        columnar=True,
        semantics: Optional[Semantics] = None,
    ) -> None:
        self.ch = ch
        self.rows = rows
        self.flat = flat
        self.certificate = certificate
        self.entry_total = entry_total
        self.track_witnesses = track_witnesses
        self.mode = mode
        self.max_workers = max_workers
        self.shards = shards
        self._public = {} if public is None else public
        #: The :class:`DeltaStats` of the publish that created this
        #: snapshot (all zeroes for a fresh :meth:`build`); the writer
        #: accumulates these along the chain.
        self.delta_stats = DeltaStats() if delta_stats is None else delta_stats
        #: Generation of the parent snapshot, or ``None`` for a root.
        self.parent_generation = parent_generation
        #: Whether batches route through the columnar gather (see
        #: :data:`COLUMNAR_MODES`; the table itself is built lazily).
        self.columnar_enabled = bool(columnar)
        #: The dispatch rule whose sweeps produced (and maintain) these
        #: rows (:mod:`repro.core.semantics`); the default is the
        #: paper's dominance kernel.
        self.semantics = (
            get_semantics(None) if semantics is None else semantics
        )
        self._columnar: Optional[ColumnarTable] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        hierarchy: HierarchyLike,
        *,
        mode: str = "batched",
        track_witnesses: bool = True,
        max_workers: Optional[int] = None,
        shards: Optional[int] = None,
        fastpath: bool = True,
        stats: Optional[LookupStats] = None,
        columnar=True,
        semantics: Optional[str | Semantics] = None,
    ) -> "TableSnapshot":
        """Sweep a hierarchy from scratch into a root snapshot.

        ``mode`` is ``"batched"`` (serial row-major sweep) or
        ``"sharded"`` (member-sharded process pool); both certify
        ambiguity per column, so ``fastpath=True`` (the default) also
        builds the flat overlay.  ``columnar`` governs the batch-query
        layout (:data:`COLUMNAR_MODES`): ``True`` builds it lazily on
        first ``lookup_many``, ``"eager"`` with the snapshot — the
        sharded mode then builds per-worker columnar slabs and merges
        them.  ``stats`` receives the sweep's
        :class:`~repro.core.kernel.LookupStats` counters.

        ``semantics`` selects the dispatch rule the rows are swept
        under (:mod:`repro.core.semantics`; name or instance, default
        the paper's ``"cpp-dominance"``).  Non-default semantics are
        batched-only (the sharded worker pool drives the dominance
        kernel) and may raise
        :class:`~repro.core.semantics.SemanticsRejection` for
        hierarchies the rule statically rejects.
        """
        if mode not in SNAPSHOT_MODES:
            raise ValueError(
                f"unknown snapshot mode {mode!r}; "
                f"expected one of {SNAPSHOT_MODES}"
            )
        if isinstance(semantics, str) or semantics is None:
            semantics = get_semantics(semantics)
        if semantics.name != DEFAULT_SEMANTICS and mode != "batched":
            raise ValueError(
                f"semantics {semantics.name!r} only supports the "
                f"'batched' snapshot mode, not {mode!r}"
            )
        if columnar not in COLUMNAR_MODES:
            raise ValueError(
                f"unknown columnar setting {columnar!r}; "
                f"expected one of {COLUMNAR_MODES}"
            )
        ch = compiled_of(hierarchy)
        certificate = AmbiguityCertificate() if fastpath else None
        slabs: Optional[list] = None
        if mode == "sharded":
            from repro.core.parallel import build_sharded_rows

            slabs = [] if columnar == "eager" else None
            rows = build_sharded_rows(
                ch,
                stats=stats,
                track_witnesses=track_witnesses,
                max_workers=max_workers,
                shards=shards,
                certificate=certificate,
                columnar_slabs=slabs,
            )
        else:
            rows = semantics.sweep(
                ch,
                stats=stats,
                track_witnesses=track_witnesses,
                certificate=certificate,
            )
        flat = (
            build_flat_table(ch, certificate, _entry_reader(rows))
            if certificate is not None
            else None
        )
        snapshot = cls(
            ch=ch,
            rows=rows,
            flat=flat,
            certificate=certificate,
            entry_total=sum(len(row) for row in rows if row),
            track_witnesses=track_witnesses,
            mode=mode,
            max_workers=max_workers,
            shards=shards,
            columnar=columnar,
            semantics=semantics,
        )
        if columnar == "eager":
            if slabs:
                snapshot._columnar = merge_shards(ch, slabs)
            else:
                snapshot.columnar_table()
        return snapshot

    def apply_delta(
        self,
        hierarchy: HierarchyLike,
        delta: Optional[HierarchyDelta] = None,
        *,
        stats: Optional[LookupStats] = None,
    ) -> "TableSnapshot":
        """Publish the child snapshot for the hierarchy's current
        generation, in O(delta), without touching ``self``.

        The delta machinery is the eager table's: describe what changed
        (or accept a precomputed :class:`~repro.hierarchy.compiled
        .HierarchyDelta`), copy the row *list* (O(|N|) references),
        re-fold the invalidation cone with the copy-on-write
        ``cone_sweep`` so the cone rows land in fresh dicts, and derive
        the flat overlay with ``FlatTable.apply_delta``.  Everything
        outside ``cone × affected-members`` — row dicts, flat columns,
        memoised results, memoised public conversions — is shared with
        this snapshot by reference.

        Same generation returns ``self``; incomparable snapshots (never
        the case under the append-only graph API) fall back to a full
        :meth:`build` of the child.  The child's
        :attr:`delta_stats` records what this one publish did.
        """
        new = compiled_of(hierarchy)
        old = self.ch
        if new.generation == old.generation:
            return self
        if delta is None:
            delta = describe_delta(old, new)
        if delta is None:
            child = TableSnapshot.build(
                new,
                mode=self.mode,
                track_witnesses=self.track_witnesses,
                max_workers=self.max_workers,
                shards=self.shards,
                fastpath=self.flat is not None,
                stats=stats,
                columnar=self.columnar_enabled,
                semantics=self.semantics,
            )
            child.delta_stats.deltas_applied = 1
            child.delta_stats.full_rebuilds = 1
            child.parent_generation = old.generation
            return child

        result = DeltaStats()
        result.deltas_applied = 1
        result.cone_classes = delta.cone_size
        result.affected_members = delta.member_count
        cone = delta.cone_mask
        mmask = delta.member_mask

        rows = list(self.rows)
        first_new = len(rows)
        if first_new < new.n_classes:
            rows.extend([None] * (new.n_classes - first_new))
        cone_ids = list(delta.cone_ids())
        before = sum(
            len(rows[cid]) for cid in cone_ids if rows[cid] is not None
        )
        certificate = (
            AmbiguityCertificate() if self.flat is not None else None
        )
        if not delta.is_empty:
            if self.mode == "sharded":
                from repro.core.parallel import apply_sharded_delta

                sweep = apply_sharded_delta(
                    new,
                    rows,
                    cone_mask=cone,
                    member_mask=mmask,
                    stats=stats,
                    track_witnesses=self.track_witnesses,
                    max_workers=self.max_workers,
                    shards=self.shards,
                    certificate=certificate,
                )
            else:
                sweep = self.semantics.cone_sweep(
                    new,
                    rows,
                    cone_mask=cone,
                    member_mask=mmask,
                    stats=stats,
                    track_witnesses=self.track_witnesses,
                    certificate=certificate,
                )
            result.entries_recomputed = sweep.entries_recomputed
            result.boundary_rows = sweep.boundary_rows
        for cid in range(first_new, new.n_classes):
            if rows[cid] is None:
                rows[cid] = {}

        flat = None
        cert = None
        if self.flat is not None:
            flat = self.flat.apply_delta(
                new,
                cone_ids,
                list(delta.member_ids()),
                certificate,
                _entry_reader(rows),
            )
            cert = AmbiguityCertificate(
                ambiguous_columns=(
                    self.certificate.ambiguous_columns
                    | certificate.ambiguous_columns
                ),
                blue_cells=(
                    self.certificate.blue_cells + certificate.blue_cells
                ),
            )

        after = sum(len(rows[cid]) for cid in cone_ids)
        entry_total = self.entry_total + (after - before)
        result.entries_reused = max(
            0, entry_total - result.entries_recomputed
        )

        # Carry the warm public conversions across the publish, minus
        # the cone × affected rectangle.  Iterate whichever side is
        # smaller, exactly like the in-place writer's surgical drop.
        public = dict(self._public)
        if public:
            if delta.cone_size * delta.member_count < len(public):
                for cid in delta.cone_ids():
                    for mid in delta.member_ids():
                        public.pop((cid, mid), None)
            else:
                stale = [
                    key
                    for key in public
                    if (cone >> key[0]) & 1 and (mmask >> key[1]) & 1
                ]
                for key in stale:
                    del public[key]

        child = TableSnapshot(
            ch=new,
            rows=rows,
            flat=flat,
            certificate=cert,
            entry_total=entry_total,
            track_witnesses=self.track_witnesses,
            mode=self.mode,
            max_workers=self.max_workers,
            shards=self.shards,
            public=public,
            delta_stats=result,
            parent_generation=old.generation,
            columnar=self.columnar_enabled,
            semantics=self.semantics,
        )
        parent_columnar = self._columnar
        if parent_columnar is not None:
            # Derive the child's columnar layout copy-on-write (O(delta),
            # unaffected columns and warm result memos shared); a parent
            # that never materialised one leaves the child lazy too.
            child._columnar = parent_columnar.apply_delta(
                new,
                cone_ids,
                list(delta.member_ids()),
                _entry_reader(rows),
            )
        return child

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """The compiled-hierarchy generation this snapshot serves."""
        return self.ch.generation

    def lookup(self, class_name: str, member: str) -> LookupResult:
        """``lookup(C, m)`` per Definition 9, answered from this one
        generation — lock-free, never influenced by later publishes.
        Raises :class:`~repro.errors.UnknownClassError` for a class
        this generation has never heard of."""
        ch = self.ch
        cid = ch.class_ids.get(class_name)
        if cid is None:
            raise UnknownClassError(class_name)
        mid = ch.member_ids.get(member)
        if mid is None:
            return not_found_result(class_name, member)
        return self._result(cid, mid, class_name, member)

    def columnar_table(self) -> Optional[ColumnarTable]:
        """The dense batch-serving layout of this generation
        (:class:`~repro.core.columnar.ColumnarTable`), built lazily on
        first use and memoised; ``None`` when ``columnar=False``.

        The lazy install is the snapshot's one memo-class mutation: an
        idempotent single-reference write of a value-equivalent object
        (two racing readers can only ever install equal layouts over
        the same immutable rows), so it keeps the lock-free reader
        contract."""
        if not self.columnar_enabled:
            return None
        table = self._columnar
        if table is None:
            table = ColumnarTable.from_rows(self.ch, self.rows)
            self._columnar = table
        return table

    def columnar_stats(self):
        """The columnar layout's serving counters, or ``None`` when the
        layout is disabled or not yet materialised."""
        table = self._columnar
        return table.stats if table is not None else None

    def lookup_many(
        self, queries: Iterable[tuple[str, str]]
    ) -> list[LookupResult]:
        """Answer a batch of ``(class, member)`` queries against this
        one generation — the coherent multi-query read the service
        tier's ``lookup_many`` op is built on.

        With the columnar layout enabled (the default) the whole batch
        is answered by vectorized per-member gathers over the dense
        entry arrays; ``columnar=False`` snapshots keep the historical
        per-query loop.  Both produce value-identical results."""
        table = self.columnar_table()
        if table is not None:
            return table.lookup_many(self.ch, queries)
        out: list[LookupResult] = []
        ch = self.ch
        class_ids = ch.class_ids
        member_ids = ch.member_ids
        for class_name, member in queries:
            cid = class_ids.get(class_name)
            if cid is None:
                raise UnknownClassError(class_name)
            mid = member_ids.get(member)
            if mid is None:
                out.append(not_found_result(class_name, member))
            else:
                out.append(self._result(cid, mid, class_name, member))
        return out

    def entry(self, class_name: str, member: str) -> Optional[TableEntry]:
        """The raw Red/Blue table entry (``None`` if ``m`` is not a
        member of any subobject of ``C``)."""
        ch = self.ch
        cid = ch.class_ids.get(class_name)
        mid = ch.member_ids.get(member)
        if cid is None or mid is None:
            return None
        return self._entry_at(cid, mid)

    def visible_members(self, class_name: str) -> tuple[str, ...]:
        """``Members[C]`` at this generation, in deterministic order."""
        ch = self.ch
        cid = ch.class_ids[class_name]
        names = ch.member_names
        return tuple(names[mid] for mid in ch.ordered_visible(cid))

    def all_entries(self) -> Mapping[tuple[str, str], TableEntry]:
        """Every table entry, keyed on ``(class, member)`` names."""
        ch = self.ch
        class_names = ch.class_names
        member_names = ch.member_names
        out: dict[tuple[str, str], TableEntry] = {}
        for cid in ch.topo_order:
            cname = class_names[cid]
            for mid in ch.ordered_visible(cid):
                out[(cname, member_names[mid])] = self._entry_at(cid, mid)
        return out

    def ambiguous_queries(self) -> tuple[tuple[str, str], ...]:
        """All ``(class, member)`` pairs whose lookup is ambiguous."""
        ch = self.ch
        class_names = ch.class_names
        member_names = ch.member_names
        return tuple(
            (class_names[cid], member_names[mid])
            for cid in ch.topo_order
            for mid in ch.ordered_visible(cid)
            if type(self._kentry(cid, mid)) is KernelBlue
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _result(
        self, cid: int, mid: int, class_name: str, member: str
    ) -> LookupResult:
        flat = self.flat
        if flat is not None:
            result = flat.serve(self.ch, cid, mid, class_name, member)
            if result is not None:
                return result
        return result_from_entry(
            class_name, member, self._entry_at(cid, mid)
        )

    def _kentry(self, cid: int, mid: int):
        row = self.rows[cid]
        return row.get(mid) if row else None

    def _entry_at(self, cid: int, mid: int) -> Optional[TableEntry]:
        kentry = self._kentry(cid, mid)
        if kentry is None:
            return None
        key = (cid, mid)
        public = self._public.get(key)
        if public is None:
            public = self._public[key] = to_table_entry(self.ch, kentry)
        return public
