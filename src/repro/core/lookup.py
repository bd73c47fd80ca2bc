"""The member lookup algorithm — the paper's Figure 8, eager driver.

This is the primary contribution of the paper: a propagation over the CHG
in topological order that tabulates ``lookup[C, m]`` for every class ``C``
and member name ``m``, manipulating *abstractions* of paths instead of the
(possibly exponentially many) paths themselves.

* A **red** table entry ``Red (L, V)`` means the lookup is unambiguous and
  resolved to a definition with ``ldc = L`` and ``leastVirtual = V``.
* A **blue** entry ``Blue S`` means the lookup is ambiguous; ``S`` is the
  set of ``leastVirtual`` abstractions of the definitions that must still
  be dominated by any would-be winner further down the hierarchy.

Blue definitions must be propagated even though they can never win
(Section 4 explains why: a blue definition can *disqualify* a red one —
see ``lookup(H, bar)`` in the paper's Figure 5/7).

The per-entry fold itself (red/blue extension, candidate selection, the
blue-kill resolution, Lemma 4's dominance test) lives in exactly one
place — :mod:`repro.core.kernel` — operating on the interned ids of a
:class:`~repro.hierarchy.compiled.CompiledHierarchy`.  This module is
the *eager* driver, in three build modes over that one kernel:

* ``"per-member"`` — the historical driver: the Figure-8 fold run once
  per visible ``(class, member)`` pair, re-reading the class's adjacency
  per member.  Keeps full per-edge ``LookupStats`` counters (the
  complexity benchmarks rely on them) and is therefore the default.
* ``"batched"`` — :func:`repro.core.kernel.batched_sweep`: one pass over
  ``topo_order`` carrying whole per-class rows, every CSR row and bitset
  read once *total* instead of once per member (~2-3× faster full-table
  construction; see ``benchmarks/bench_batched.py``).
* ``"sharded"`` — :mod:`repro.core.parallel`: the member-id space split
  into contiguous shards, each built batched in a worker process against
  the pickled frozen snapshot, shard rows merged.
* ``"auto"`` — heuristic choice between batched and sharded by the
  ``|M|·|E|`` work estimate (:func:`resolve_build_mode`).

All modes produce identical tables (differentially tested in
``tests/core/test_engine_equivalence.py``).  The row-major modes always
publish immutable :class:`~repro.core.snapshot.TableSnapshot`
generations, whose columnar layout answers both point and batch reads;
the per-member driver is the one in-place table, kept as the
independent reference build path.

Complexity (Section 5): ``O(|M| * |N| * (|N| + |E|))`` to build the whole
table, dropping to ``O((|M| + |N|) * (|N| + |E|))`` when no entry is
ambiguous; a built table answers each query in O(1).
"""

from __future__ import annotations

import os
from typing import Mapping, Optional

from repro.core.columnar import ColumnarStats, ColumnarTable
from repro.core.fastpath import FastPathStats, FlatTable
from repro.core.kernel import (
    BlueEntry,
    KernelBlue,
    LookupStats,
    RedEntry,
    TableEntry,
    fold_entry,
    result_from_entry,
    to_table_entry,
)
from repro.core.results import LookupResult, not_found_result
from repro.errors import UnknownClassError
from repro.core.semantics import DEFAULT_SEMANTICS, Semantics, get_semantics
from repro.core.snapshot import DeltaStats, TableSnapshot
from repro.hierarchy.compiled import (
    HierarchyDelta,
    HierarchyLike,
    compiled_of,
    describe_delta,
    hierarchy_of,
)
from repro.hierarchy.graph import ClassHierarchyGraph

__all__ = [
    "BUILD_MODES",
    "BlueEntry",
    "DeltaStats",
    "LookupStats",
    "MemberLookupTable",
    "RedEntry",
    "TableEntry",
    "TableSnapshot",
    "build_lookup_table",
    "lookup",
    "resolve_build_mode",
]

#: The accepted ``mode=`` values of :class:`MemberLookupTable` /
#: :func:`build_lookup_table`.
BUILD_MODES = ("per-member", "batched", "sharded", "auto")

#: ``|M| * |E|`` above which ``mode="auto"`` prefers the sharded
#: parallel builder: below it, the serial batched sweep finishes in well
#: under the worker-pool spin-up + snapshot-pickling cost.
AUTO_SHARD_THRESHOLD = 1 << 18


def resolve_build_mode(
    mode: str,
    ch,
    *,
    max_workers: Optional[int] = None,
) -> str:
    """Resolve ``"auto"`` to a concrete build mode for ``ch``.

    The heuristic mirrors the cost model: a batched build does
    ``Θ(|M|·|E|)`` row-extension work serially, so sharding only pays
    once that product is large enough to amortise process start-up and
    snapshot pickling — and never on a single-core machine.
    """
    if mode not in BUILD_MODES:
        raise ValueError(
            f"unknown build mode {mode!r}; expected one of {BUILD_MODES}"
        )
    if mode != "auto":
        return mode
    workers = max_workers if max_workers is not None else os.cpu_count() or 1
    if (
        workers > 1
        and ch.n_members * max(1, len(ch.base_targets)) >= AUTO_SHARD_THRESHOLD
    ):
        return "sharded"
    return "batched"


class MemberLookupTable:
    """Eagerly tabulated member lookup over a class hierarchy graph.

    Building the table runs the Figure 8 algorithm once; afterwards
    :meth:`lookup` answers any query in constant time.  Accepts either a
    mutable :class:`~repro.hierarchy.graph.ClassHierarchyGraph` (compiled
    on demand, memoised) or an already compiled
    :class:`~repro.hierarchy.compiled.CompiledHierarchy`.

    ``mode`` selects the build strategy (see the module docstring):
    ``"per-member"`` (default), ``"batched"``, ``"sharded"`` or
    ``"auto"``.  ``max_workers`` / ``shards`` tune the sharded builder
    and are ignored by the serial modes.  All modes yield identical
    query results; the per-member mode is the only one maintaining the
    full per-edge propagation counters in :attr:`stats`.

    ``fastpath`` controls the unambiguous serving overlay
    (:mod:`repro.core.fastpath`): the row-major sweeps certify per
    member column whether any entry is ambiguous, certified columns are
    flattened into array-backed :class:`~repro.core.fastpath
    .FlatColumn` structures (§5's ``O(|N|+|E|)`` regime), and
    :meth:`lookup` serves them from memoised results, falling back to
    the snapshot's columnar layout only where ambiguity exists.
    Defaults to on for ``mode="auto"``, opt-in for
    ``"batched"``/``"sharded"``, and is rejected for ``"per-member"``
    (that driver's fold does not certify).  Delta maintenance keeps the
    overlay current — see :meth:`apply_delta`.

    Since the snapshot refactor this class is a *thin writer* over the
    RCU tier of :mod:`repro.core.snapshot`: in the row-major modes it
    owns the head of an immutable :class:`TableSnapshot` chain,
    :meth:`apply_delta` publishes a child snapshot built in O(delta)
    and swaps the head with a single reference assignment, and
    :meth:`lookup` captures the head once per query — so readers in
    other threads never need a lock and never observe a half-applied
    delta.  The per-member driver is the one in-place table
    (single-threaded use only).
    """

    def __init__(
        self,
        hierarchy: HierarchyLike,
        *,
        track_witnesses: bool = True,
        mode: str = "per-member",
        max_workers: Optional[int] = None,
        shards: Optional[int] = None,
        fastpath: Optional[bool] = None,
        semantics: Optional[str | Semantics] = None,
    ) -> None:
        self._graph = hierarchy_of(hierarchy)
        self._ch = compiled_of(hierarchy)
        self._track_witnesses = track_witnesses
        self._max_workers = max_workers
        self._shards = shards
        if isinstance(semantics, str) or semantics is None:
            semantics = get_semantics(semantics)
        self.semantics = semantics
        if fastpath is None:
            fastpath = mode == "auto"
        resolved = resolve_build_mode(mode, self._ch, max_workers=max_workers)
        if semantics.name != DEFAULT_SEMANTICS:
            if resolved != "batched":
                raise ValueError(
                    f"semantics {semantics.name!r} only supports "
                    f"mode='batched' (resolved mode here: {resolved!r}); "
                    "the per-member and sharded drivers run the "
                    "dominance kernel"
                )
        if fastpath and resolved == "per-member":
            raise ValueError(
                "fastpath=True requires a row-major build mode "
                "('batched', 'sharded' or 'auto'); the per-member "
                "driver's fold does not certify ambiguity"
            )
        self.fastpath = fastpath
        self._head: Optional[TableSnapshot] = None
        # Per-member mode fills a column-major interned table
        # (member id -> {class id -> entry}); the row-major modes keep
        # their per-class rows in the published snapshot.  Only visible
        # (class, member) pairs are stored either way, exactly like the
        # paper's sparse table.
        self._columns: dict[int, dict[int, object]] = {}
        self._public: dict[tuple[int, int], TableEntry] = {}
        self.stats = LookupStats()
        self.delta_stats = DeltaStats()
        self.mode = resolved
        self._build_full()

    def _build_full(self) -> None:
        """Build the whole table from scratch in the resolved mode."""
        self._columns = {}
        self._public = {}
        self._head = None
        if self.mode != "per-member":
            self._head = TableSnapshot.build(
                self._ch,
                mode=self.mode,
                track_witnesses=self._track_witnesses,
                max_workers=self._max_workers,
                shards=self._shards,
                fastpath=self.fastpath,
                stats=self.stats,
                semantics=self.semantics,
            )
            self._entry_total = self._head.entry_total
            return
        self._build()
        self._entry_total = sum(
            len(column) for column in self._columns.values()
        )

    @classmethod
    def from_snapshot(
        cls,
        snapshot: TableSnapshot,
        *,
        graph: Optional[ClassHierarchyGraph] = None,
    ) -> "MemberLookupTable":
        """Adopt an already-built :class:`TableSnapshot` as the chain
        head without rebuilding anything — how a writer boots from a
        mmapped flatpack base (:meth:`repro.core.flatpack.PackedTable
        .to_table`).

        With ``graph=None`` the table is detached: it serves and can
        chain deltas at the snapshot level, but :meth:`apply_delta`
        (which recompiles the source graph) raises until a graph is
        supplied.  When a graph is passed, its generation counter must
        line up with the snapshot's — ``to_table`` restamps the thawed
        hierarchy to guarantee exactly that."""
        table = cls.__new__(cls)
        table._graph = graph
        table._ch = snapshot.ch
        table._track_witnesses = snapshot.track_witnesses
        table._max_workers = snapshot.max_workers
        table._shards = snapshot.shards
        table.semantics = snapshot.semantics
        table.fastpath = snapshot.flat is not None
        table._head = snapshot
        table._columns = {}
        table._public = {}
        table.stats = LookupStats()
        table.delta_stats = DeltaStats()
        table.mode = snapshot.mode
        table._entry_total = snapshot.entry_total
        return table

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    @property
    def graph(self) -> ClassHierarchyGraph:
        return self._graph

    @property
    def compiled(self):
        """The interned substrate the table was built over."""
        return self._ch

    @property
    def snapshot(self) -> Optional[TableSnapshot]:
        """The published chain head — capture it once to answer any
        number of queries against one coherent generation from any
        thread.  ``None`` for the in-place per-member table, which has
        no published state."""
        return self._head

    @property
    def flat_table(self) -> Optional[FlatTable]:
        """The flat serving overlay (``None`` when the fast path is
        off) — inspect it for certification and routing state."""
        head = self._head
        return head.flat if head is not None else None

    @property
    def fastpath_stats(self) -> Optional[FastPathStats]:
        """Serving/maintenance counters of the fast path, or ``None``
        when it is off."""
        flat = self.flat_table
        return flat.stats if flat is not None else None

    @property
    def columnar_table(self) -> Optional[ColumnarTable]:
        """The head snapshot's dense serving layout
        (:class:`~repro.core.columnar.ColumnarTable`), materialising it
        if still lazy; ``None`` for the in-place per-member table."""
        head = self._head
        if head is None:
            return None
        return head.columnar_table()

    @property
    def columnar_stats(self) -> Optional[ColumnarStats]:
        """The columnar layout's serving counters, or ``None`` for the
        in-place table or while the layout is not yet materialised."""
        head = self._head
        if head is None:
            return None
        return head.columnar_stats()

    def lookup(self, class_name: str, member: str) -> LookupResult:
        """``lookup(C, m)`` per Definition 9, answered from the table.

        Snapshot-backed tables capture the chain head once and answer
        through :meth:`TableSnapshot.lookup`, so the whole query runs
        against one published generation even while a writer races
        ahead."""
        try:
            head = self._head
            if head is not None:
                return head.lookup(class_name, member)
            ch = self._ch
            cid = ch.class_ids.get(class_name)
            if cid is None:
                raise UnknownClassError(class_name)
            mid = ch.member_ids.get(member)
            if mid is None:
                return not_found_result(class_name, member)
            return result_from_entry(
                class_name, member, self._entry_at(cid, mid)
            )
        except UnknownClassError:
            if self._graph is None:
                # Detached table (seeded from a pack or built over a
                # bare compiled hierarchy): it is the only universe of
                # classes.
                raise
            # Unknown to the compiled table: defer to the live graph so
            # the error behaviour matches the mutable API.
            self._graph.direct_bases(class_name)
            return not_found_result(class_name, member)

    def lookup_many(
        self, queries
    ) -> list[LookupResult]:
        """Answer a batch of ``(class, member)`` queries coherently:
        snapshot-backed tables resolve the whole batch against one
        captured head through its columnar vectorized gather, so a
        concurrent publish can never split the batch across
        generations.  In-place tables loop per query."""
        head = self._head
        if head is not None:
            return head.lookup_many(queries)
        return [self.lookup(c, m) for c, m in queries]

    def entry(self, class_name: str, member: str) -> Optional[TableEntry]:
        """The raw Red/Blue table entry (``None`` if ``m`` is not a member
        of any subobject of ``C``) — matches the paper's Figures 6-7."""
        head = self._head
        if head is not None:
            return head.entry(class_name, member)
        ch = self._ch
        cid = ch.class_ids.get(class_name)
        mid = ch.member_ids.get(member)
        if cid is None or mid is None:
            return None
        return self._entry_at(cid, mid)

    def visible_members(self, class_name: str) -> tuple[str, ...]:
        """``Members[C]``: names declared in ``C`` or inherited from any
        base, in the deterministic order the algorithm produced them."""
        ch = self._ch
        cid = ch.class_ids[class_name]
        names = ch.member_names
        return tuple(names[mid] for mid in ch.ordered_visible(cid))

    def all_entries(self) -> Mapping[tuple[str, str], TableEntry]:
        """Every table entry, keyed on ``(class, member)`` names."""
        head = self._head
        if head is not None:
            return head.all_entries()
        ch = self._ch
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
        head = self._head
        if head is not None:
            return head.ambiguous_queries()
        ch = self._ch
        class_names = ch.class_names
        member_names = ch.member_names
        return tuple(
            (class_names[cid], member_names[mid])
            for cid in ch.topo_order
            for mid in ch.ordered_visible(cid)
            if type(self._kentry(cid, mid)) is KernelBlue
        )

    # ------------------------------------------------------------------
    # Delta maintenance (cone-restricted re-sweeps)
    # ------------------------------------------------------------------

    def apply_delta(
        self, delta: Optional[HierarchyDelta] = None
    ) -> DeltaStats:
        """Bring the table up to date with the source graph's current
        generation by re-folding **only** the invalidation cone ×
        affected members, instead of rebuilding all ``|N| × |M|``.

        The machinery: recompile the graph (the delta recompile keeps
        every interned id stable), describe what changed as a
        :class:`~repro.hierarchy.compiled.HierarchyDelta` (or accept
        one precomputed by the caller), and re-run the fold over cone
        classes in topological order seeded from the surviving boundary
        rows.  Entries outside ``cone × affected`` are never touched;
        their memoised public conversions survive too.

        When the snapshots are incomparable (ids would shift — never
        the case under the append-only graph API) the table falls back
        to a full rebuild in its own mode, so ``apply_delta`` is always
        safe to call.  Returns the :class:`DeltaStats` of this one
        application; the running totals accumulate on
        :attr:`delta_stats`.

        The row-major modes publish through
        :meth:`TableSnapshot.apply_delta` (:func:`repro.core.kernel
        .cone_sweep`, or :func:`repro.core.parallel.apply_sharded_delta`
        when sharded): the delta lands in a fresh child snapshot sharing
        all out-of-cone state with the current head, which is then
        published by one atomic reference swap — concurrent readers
        never lock and never see a torn table.  With the fast path on,
        the cone re-sweep also re-certifies the affected flat columns.
        The per-member table instead re-folds each affected column in
        place with a cone-restricted :func:`fold_entry` walk.
        """
        if self._graph is None:
            raise ValueError(
                "apply_delta needs the live source graph; this table was "
                "built over a detached CompiledHierarchy snapshot"
            )
        old = self._ch
        new = self._graph.compile()
        result = DeltaStats()
        if new.generation == old.generation:
            return result  # nothing happened since the last (re)build
        if delta is None:
            delta = describe_delta(old, new)
        head = self._head
        if head is not None:
            # Snapshot mode: build the child off to the side (sharing
            # everything out-of-cone with the parent), then publish it
            # with a single reference swap — readers capturing the head
            # see either the old generation or the new one, never a
            # half-applied delta.
            child = head.apply_delta(new, delta, stats=self.stats)
            self._head = child
            self._ch = new
            self._entry_total = child.entry_total
            result = child.delta_stats
            self.delta_stats.accumulate(result)
            return result
        if delta is None:
            self._ch = new
            self._build_full()
            result.deltas_applied = 1
            result.full_rebuilds = 1
            self.delta_stats.accumulate(result)
            return result

        self._ch = new
        result.deltas_applied = 1
        result.cone_classes = delta.cone_size
        result.affected_members = delta.member_count
        cone = delta.cone_mask
        mmask = delta.member_mask

        # Surgically drop the memoised public conversions of cone ×
        # affected pairs; everything else stays warm.  Iterate whichever
        # side is smaller: the cone × member product or the memo itself.
        if self._public:
            public = self._public
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

        columns = self._columns
        cone_ids = list(delta.cone_ids())
        member_ids = list(delta.member_ids())
        before = sum(
            1
            for mid in member_ids
            for cid in cone_ids
            if cid in columns.get(mid, ())
        )
        if not delta.is_empty:
            result.entries_recomputed = self._refold_columns(delta)
            result.boundary_rows = self._count_boundary(delta)
        after = sum(
            1
            for mid in member_ids
            for cid in cone_ids
            if cid in columns.get(mid, ())
        )
        self._entry_total += after - before
        result.entries_reused = max(
            0, self._entry_total - result.entries_recomputed
        )
        self.delta_stats.accumulate(result)
        return result

    def _refold_columns(self, delta: HierarchyDelta) -> int:
        """Per-member-mode cone refold: for each affected column, rerun
        :func:`fold_entry` over the cone in topo order.  ``column.get``
        hands the fold the out-of-cone boundary entries verbatim — the
        same invariant as :func:`repro.core.kernel.cone_sweep`, one column
        at a time."""
        ch = self._ch
        stats = self.stats
        track = self._track_witnesses
        columns = self._columns
        visible_masks = ch.visible_masks
        cone_ids = sorted(
            delta.cone_ids(), key=ch.topo_positions.__getitem__
        )
        recomputed = 0
        for mid in delta.member_ids():
            column = columns.get(mid)
            if column is None:
                column = columns[mid] = {}
            for cid in cone_ids:
                if not (visible_masks[cid] >> mid) & 1:
                    column.pop(cid, None)
                    continue
                stats.entries_computed += 1
                recomputed += 1
                column[cid] = fold_entry(
                    ch, cid, mid, column.get, stats, track
                )
        return recomputed

    def _count_boundary(self, delta: HierarchyDelta) -> int:
        """Out-of-cone direct bases read as seeds by a cone refold."""
        ch = self._ch
        cone = delta.cone_mask
        count = 0
        for cid in delta.cone_ids():
            for base, _virtual in ch.base_pairs[cid]:
                if not (cone >> base) & 1:
                    count += 1
        return count

    # ------------------------------------------------------------------
    # The eager driver (the fold itself lives in repro.core.kernel)
    # ------------------------------------------------------------------

    def _build(self) -> None:
        ch = self._ch
        stats = self.stats
        track = self._track_witnesses
        columns = self._columns
        visible_masks = ch.visible_masks
        for cid in ch.topo_order:
            stats.classes_visited += 1
            mask = visible_masks[cid]
            while mask:
                low = mask & -mask
                mask ^= low
                mid = low.bit_length() - 1
                column = columns.get(mid)
                if column is None:
                    column = columns[mid] = {}
                stats.entries_computed += 1
                column[cid] = fold_entry(
                    ch, cid, mid, column.get, stats, track
                )

    def _kentry(self, cid: int, mid: int):
        """The raw kernel entry of the column-major table."""
        return self._columns.get(mid, {}).get(cid)

    def _entry_at(self, cid: int, mid: int) -> Optional[TableEntry]:
        kentry = self._kentry(cid, mid)
        if kentry is None:
            return None
        key = (cid, mid)
        public = self._public.get(key)
        if public is None:
            public = self._public[key] = to_table_entry(self._ch, kentry)
        return public


def build_lookup_table(
    hierarchy: HierarchyLike,
    *,
    track_witnesses: bool = True,
    mode: str = "per-member",
    max_workers: Optional[int] = None,
    shards: Optional[int] = None,
    fastpath: Optional[bool] = None,
    semantics: Optional[str | Semantics] = None,
) -> MemberLookupTable:
    """Run the paper's ``doLookup()`` and return the filled table.

    ``mode="auto"`` picks the serial batched sweep or the sharded
    parallel builder by the ``|M|·|E|`` work estimate; see the module
    docstring for the full mode list and the ``fastpath`` default.
    Row-major tables maintain an immutable snapshot chain (lock-free
    concurrent reads) whose columnar layout answers every ``lookup``
    and ``lookup_many``; the per-member table is maintained in place.
    ``semantics`` selects the dispatch rule (:mod:`repro.core.semantics`;
    default the paper's ``"cpp-dominance"``); non-default semantics are
    batched-mode, snapshot-backed only.
    """
    return MemberLookupTable(
        hierarchy,
        track_witnesses=track_witnesses,
        mode=mode,
        max_workers=max_workers,
        shards=shards,
        fastpath=fastpath,
        semantics=semantics,
    )


def lookup(
    graph: HierarchyLike, class_name: str, member: str
) -> LookupResult:
    """One-shot convenience wrapper: answer a single query through a
    generation-keyed LRU cache (:mod:`repro.core.cache`) in front of the
    memoising lazy engine (:mod:`repro.core.lazy`), computing only the
    entries the query actually demands and answering repeats in O(1).

    The cached engine is retained per graph in a weak-keyed registry, so
    repeated module-level calls against the same (possibly mutating)
    hierarchy hit the cache; invalidation is exact, keyed on the graph's
    generation counter.  For heavy query loads, build a
    :class:`MemberLookupTable` once or keep a
    :class:`~repro.core.cache.CachedMemberLookup` /
    :class:`~repro.core.lazy.LazyMemberLookup` around explicitly.
    """
    from repro.core.cache import shared_cached_lookup

    return shared_cached_lookup(graph).lookup(class_name, member)
