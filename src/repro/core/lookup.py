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
the *eager* driver, in two build modes over that one kernel:

* ``"per-member"`` — the historical driver: the Figure-8 fold run once
  per visible ``(class, member)`` pair, re-reading the class's adjacency
  per member.  Keeps full per-edge ``LookupStats`` counters (the
  complexity benchmarks rely on them) and is therefore the default.
* ``"batched"`` — :func:`repro.core.kernel.batched_sweep`: one pass over
  ``topo_order`` carrying whole per-class rows, every CSR row and bitset
  read once *total* instead of once per member (~2-3× faster full-table
  construction; see ``benchmarks/bench_batched.py``).

Both modes produce identical tables (differentially tested in
``tests/core/test_engine_equivalence.py``).  The batched mode always
publishes immutable :class:`~repro.core.snapshot.TableSnapshot`
generations, whose columnar layout answers both point and batch reads;
the per-member driver is the one in-place table, kept as the
independent reference build path (an edit rebuilds it whole).

Complexity (Section 5): ``O(|M| * |N| * (|N| + |E|))`` to build the whole
table, dropping to ``O((|M| + |N|) * (|N| + |E|))`` when no entry is
ambiguous; a built table answers each query in O(1).
"""

from __future__ import annotations

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
from repro.core.lazy import LazyMemberLookup
from repro.core.results import LookupResult, not_found_result
from repro.errors import UnknownClassError
from repro.core.semantics import DEFAULT_SEMANTICS, Semantics, get_semantics
from repro.core.snapshot import DeltaStats, TableSnapshot
from repro.hierarchy.compiled import (
    HierarchyDelta,
    HierarchyLike,
    compiled_of,
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
]

#: The accepted ``mode=`` values of :class:`MemberLookupTable` /
#: :func:`build_lookup_table`.
BUILD_MODES = ("per-member", "batched")


class MemberLookupTable:
    """Eagerly tabulated member lookup over a class hierarchy graph.

    Building the table runs the Figure 8 algorithm once; afterwards
    :meth:`lookup` answers any query in constant time.  Accepts either a
    mutable :class:`~repro.hierarchy.graph.ClassHierarchyGraph` (compiled
    on demand, memoised) or an already compiled
    :class:`~repro.hierarchy.compiled.CompiledHierarchy`.

    ``mode`` selects the build strategy (see the module docstring):
    ``"per-member"`` (default) or ``"batched"``.  Both yield identical
    query results; the per-member mode is the only one maintaining the
    full per-edge propagation counters in :attr:`stats`.

    ``fastpath`` controls the unambiguous serving overlay
    (:mod:`repro.core.fastpath`): the batched sweep certifies per
    member column whether any entry is ambiguous, certified columns are
    flattened into array-backed :class:`~repro.core.fastpath
    .FlatColumn` structures (§5's ``O(|N|+|E|)`` regime), and
    :meth:`lookup` serves them from memoised results, falling back to
    the snapshot's columnar layout only where ambiguity exists.
    Off unless requested, and rejected for ``"per-member"`` (that
    driver's fold does not certify).  Delta maintenance keeps the
    overlay current — see :meth:`apply_delta`.

    Since the snapshot refactor this class is a *thin writer* over the
    RCU tier of :mod:`repro.core.snapshot`: in the batched mode it
    owns the head of an immutable :class:`TableSnapshot` chain,
    :meth:`apply_delta` publishes a child snapshot built in O(delta)
    and swaps the head with a single reference assignment, and
    :meth:`lookup` captures the head once per query — so readers in
    other threads never need a lock and never observe a half-applied
    delta.  The per-member driver is the one in-place table
    (single-threaded use only), rebuilt whole by :meth:`apply_delta`.
    """

    def __init__(
        self,
        hierarchy: HierarchyLike,
        *,
        track_witnesses: bool = True,
        mode: str = "per-member",
        fastpath: bool = False,
        semantics: Optional[str | Semantics] = None,
    ) -> None:
        if mode not in BUILD_MODES:
            raise ValueError(
                f"unknown build mode {mode!r}; expected one of {BUILD_MODES}"
            )
        self._graph = hierarchy_of(hierarchy)
        self._ch = compiled_of(hierarchy)
        self._track_witnesses = track_witnesses
        if isinstance(semantics, str) or semantics is None:
            semantics = get_semantics(semantics)
        self.semantics = semantics
        if semantics.name != DEFAULT_SEMANTICS and mode != "batched":
            raise ValueError(
                f"semantics {semantics.name!r} only supports "
                f"mode='batched', not {mode!r}; the per-member driver "
                "runs the dominance kernel"
            )
        if fastpath and mode == "per-member":
            raise ValueError(
                "fastpath=True requires a row-major build mode "
                "('batched'); the per-member driver's fold does not "
                "certify ambiguity"
            )
        self.fastpath = fastpath
        self._head: Optional[TableSnapshot] = None
        # Per-member mode fills a column-major interned table
        # (member id -> {class id -> entry}); the batched mode keeps
        # its per-class rows in the published snapshot.  Only visible
        # (class, member) pairs are stored either way, exactly like the
        # paper's sparse table.
        self._columns: dict[int, dict[int, object]] = {}
        self._public: dict[tuple[int, int], TableEntry] = {}
        self.stats = LookupStats()
        self.delta_stats = DeltaStats()
        self.mode = mode
        self._build_full()

    def _build_full(self) -> None:
        """Build the whole table from scratch in the table's mode."""
        self._columns = {}
        self._public = {}
        self._head = None
        if self.mode == "batched":
            self._head = TableSnapshot.build(
                self._ch,
                track_witnesses=self._track_witnesses,
                fastpath=self.fastpath,
                stats=self.stats,
                semantics=self.semantics,
            )
            return
        self._build()

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
        table.semantics = snapshot.semantics
        table.fastpath = snapshot.flat is not None
        table._head = snapshot
        table._columns = {}
        table._public = {}
        table.stats = LookupStats()
        table.delta_stats = DeltaStats()
        table.mode = "batched"
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
        generation — the library's one cone-invalidation path.

        The batched mode publishes the child snapshot
        :meth:`TableSnapshot.apply_delta` builds off to the side: it
        re-folds **only** the invalidation cone × affected members of the
        :class:`~repro.hierarchy.compiled.HierarchyDelta` (precomputed
        by the caller or described from the recompile) and shares all
        out-of-cone state with the current head, which is then swapped
        with one reference assignment, so readers never see a torn
        table.  The per-member table is the independent from-scratch
        reference, so every edit rebuilds it whole (``full_rebuilds``).
        Returns this application's :class:`DeltaStats`; running totals
        accumulate on :attr:`delta_stats`.
        """
        if self._graph is None:
            raise ValueError(
                "apply_delta needs the live source graph; this table was "
                "built over a detached CompiledHierarchy snapshot"
            )
        old = self._ch
        new = self._graph.compile()
        if new.generation == old.generation:
            return DeltaStats()  # nothing happened since the last (re)build
        head = self._head
        if head is None:
            self._ch = new
            self._build_full()
            result = DeltaStats(deltas_applied=1, full_rebuilds=1)
        else:
            # A rejection raised while building the child leaves the
            # old head (and its compiled hierarchy) fully published.
            child = head.apply_delta(new, delta, stats=self.stats)
            self._head = child
            self._ch = new
            result = child.delta_stats
        self.delta_stats.accumulate(result)
        return result

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
    fastpath: bool = False,
    semantics: Optional[str | Semantics] = None,
) -> MemberLookupTable:
    """Run the paper's ``doLookup()`` and return the filled table.

    See the module docstring for the two build modes and
    :class:`MemberLookupTable` for the ``fastpath`` overlay.  Batched
    tables maintain an immutable snapshot chain (lock-free
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
        fastpath=fastpath,
        semantics=semantics,
    )


def lookup(
    graph: HierarchyLike, class_name: str, member: str
) -> LookupResult:
    """One-shot convenience wrapper: answer a single query through the
    memoising lazy engine (:mod:`repro.core.lazy`), computing only the
    entries the query actually demands.

    The engine is kept on the graph itself, so repeated module-level
    calls against the same hierarchy share one memo and the engine lives
    exactly as long as the graph.  After an edit the engine drops its
    memo and recomputes the entries the next queries need; for heavy
    query loads, or answers maintained across edits, build a batched
    :class:`MemberLookupTable` and roll it forward with
    :meth:`~MemberLookupTable.apply_delta`.
    """
    source = hierarchy_of(graph)
    engine = getattr(source, "_one_shot_lookup", None)
    if engine is None:
        engine = source._one_shot_lookup = LazyMemberLookup(source)
    return engine.lookup(class_name, member)
