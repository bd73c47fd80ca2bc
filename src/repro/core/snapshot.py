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

Every read of a published snapshot — a point :meth:`TableSnapshot
.lookup` or a :meth:`TableSnapshot.lookup_many` batch — answers from
one layout: the dense :class:`~repro.core.columnar.ColumnarTable` laid
out lazily on the first read and derived copy-on-write by each publish
after that.  Point reads try the flat overlay's certified columns
first; everything else is the columnar layout's memoised result cell.

The one deliberate reader-visible mutation is memoisation (the
columnar and flat layouts memoise
:class:`~repro.core.results.LookupResult` objects, the snapshot
memoises its columnar layout and public Red/Blue conversions).  All
are idempotent single-reference writes of value-identical objects, so
racing readers can only ever install equal values — the answers are
immutable even though the memo containers are not.

:class:`~repro.core.lookup.MemberLookupTable` is the thin writer over
this tier: it owns the chain head, serializes ``apply_delta`` calls,
and swaps the head atomically.  The multi-tenant service front in
:mod:`repro.serve` hosts one chain per tenant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from repro.core.columnar import ColumnarTable
from repro.core.fastpath import FlatTable, build_flat_table
from repro.core.kernel import (
    AmbiguityCertificate,
    KernelBlue,
    LookupStats,
    TableEntry,
    to_table_entry,
)
from repro.core.results import LookupResult, not_found_result
from repro.core.semantics import Semantics, get_semantics
from repro.errors import UnknownClassError
from repro.hierarchy.compiled import (
    HierarchyDelta,
    HierarchyLike,
    compiled_of,
    describe_delta,
)

__all__ = [
    "DeltaStats",
    "TableSnapshot",
]


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
    overlay with its persistent ambiguity certificate, the columnar
    layout every read answers from (laid out on the first read), and
    the entry count.  Construct one with :meth:`build`; derive the next
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
        "delta_stats",
        "parent_generation",
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
        delta_stats: Optional[DeltaStats] = None,
        parent_generation: Optional[int] = None,
        semantics: Optional[Semantics] = None,
    ) -> None:
        self.ch = ch
        self.rows = rows
        self.flat = flat
        self.certificate = certificate
        self.entry_total = entry_total
        self.track_witnesses = track_witnesses
        self._public: dict = {}
        #: The :class:`DeltaStats` of the publish that created this
        #: snapshot (all zeroes for a fresh :meth:`build`); the writer
        #: accumulates these along the chain.
        self.delta_stats = DeltaStats() if delta_stats is None else delta_stats
        #: Generation of the parent snapshot, or ``None`` for a root.
        self.parent_generation = parent_generation
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
        track_witnesses: bool = True,
        fastpath: bool = True,
        stats: Optional[LookupStats] = None,
        semantics: Optional[str | Semantics] = None,
    ) -> "TableSnapshot":
        """Sweep a hierarchy from scratch into a root snapshot.

        The row-major sweep certifies ambiguity per column, so
        ``fastpath=True`` (the default) also builds the flat overlay.
        The columnar serving layout is laid out lazily on the first
        read.  ``stats`` receives the sweep's
        :class:`~repro.core.kernel.LookupStats` counters.

        ``semantics`` selects the dispatch rule the rows are swept
        under (:mod:`repro.core.semantics`; name or instance, default
        the paper's ``"cpp-dominance"``).  Checked rules may raise
        :class:`~repro.core.semantics.SemanticsRejection` for
        hierarchies the rule statically rejects.
        """
        if isinstance(semantics, str) or semantics is None:
            semantics = get_semantics(semantics)
        ch = compiled_of(hierarchy)
        certificate = AmbiguityCertificate() if fastpath else None
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
        return cls(
            ch=ch,
            rows=rows,
            flat=flat,
            certificate=certificate,
            entry_total=sum(len(row) for row in rows if row),
            track_witnesses=track_witnesses,
            semantics=semantics,
        )

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
        the flat overlay with ``FlatTable.apply_delta`` and, when this
        snapshot has laid out its columnar layout, the child's with
        ``ColumnarTable.apply_delta``.  Everything outside ``cone ×
        affected-members`` — row dicts, flat and columnar columns,
        memoised results — is shared with this snapshot by reference.

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
                track_witnesses=self.track_witnesses,
                fastpath=self.flat is not None,
                stats=stats,
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
            sweep = self.semantics.cone_sweep(
                new,
                rows,
                cone_mask=delta.cone_mask,
                member_mask=delta.member_mask,
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

        child = TableSnapshot(
            ch=new,
            rows=rows,
            flat=flat,
            certificate=cert,
            entry_total=entry_total,
            track_witnesses=self.track_witnesses,
            delta_stats=result,
            parent_generation=old.generation,
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
        this generation has never heard of.

        A certified-unambiguous column answers from the flat overlay;
        every other cell is the columnar layout's memoised result, so a
        repeated query returns the same object."""
        ch = self.ch
        cid = ch.class_ids.get(class_name)
        if cid is None:
            raise UnknownClassError(class_name)
        mid = ch.member_ids.get(member)
        if mid is None:
            return not_found_result(class_name, member)
        flat = self.flat
        if flat is not None:
            result = flat.serve(ch, cid, mid, class_name, member)
            if result is not None:
                return result
        return self.columnar_table()._result_one(ch, cid, class_name, member)

    def columnar_table(self) -> ColumnarTable:
        """The dense serving layout of this generation
        (:class:`~repro.core.columnar.ColumnarTable`), built lazily on
        first read and memoised.

        The lazy install is an idempotent single-reference write of a
        value-equivalent object (two racing readers can only ever
        install equal layouts over the same immutable rows), so it
        keeps the lock-free reader contract."""
        table = self._columnar
        if table is None:
            table = ColumnarTable.from_rows(self.ch, self.rows)
            self._columnar = table
        return table

    def columnar_stats(self):
        """The columnar layout's serving counters, or ``None`` while
        the layout is not yet materialised."""
        table = self._columnar
        return table.stats if table is not None else None

    def lookup_many(
        self, queries: Iterable[tuple[str, str]]
    ) -> list[LookupResult]:
        """Answer a batch of ``(class, member)`` queries against this
        one generation — the coherent multi-query read the service
        tier's ``lookup_many`` op is built on — by vectorized
        per-member gathers over the columnar layout."""
        return self.columnar_table().lookup_many(self.ch, queries)

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
