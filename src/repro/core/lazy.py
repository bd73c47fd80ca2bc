"""Memoised lazy member lookup (paper, Section 5).

    "It is easy enough to modify the algorithm into a memoising lazy
    algorithm that does not compute table entries that are unnecessary: a
    request for lookup[C,m] will recursively invoke lookup[B,m] for every
    direct base class B of C if necessary; as long as the algorithm
    caches or memoizes the results of every lookup performed, this will
    not worsen the complexity of the algorithm."

The entry computation is *identical* to the eager engine's — both call
:func:`repro.core.kernel.fold_entry`, the single home of the Figure-8
fold; only the driving order differs (demand-driven recursion instead of
a topological sweep).  The recursion terminates because the CHG is
acyclic.

The engine tolerates mutation of the underlying graph: each query
checks the compiled snapshot against the graph's generation counter and,
when stale, recompiles and drops its whole memo.  After an edit it
therefore recomputes the entries the next queries need; callers who want
answers maintained across edits in O(cone) use a batched
:class:`~repro.core.lookup.MemberLookupTable` and its
:meth:`~repro.core.lookup.MemberLookupTable.apply_delta`.
"""

from __future__ import annotations

from typing import Union

from repro.core.kernel import (
    LookupStats,
    TableEntry,
    fold_entry,
    result_from_entry,
    to_table_entry,
)
from repro.core.results import LookupResult, not_found_result
from repro.hierarchy.compiled import HierarchyLike, compiled_of, hierarchy_of

#: Memo columns are keyed by interned member id; member names the
#: hierarchy has never declared (no id exists) key their column by the
#: raw string — those columns hold only "not visible" results.
ColumnKey = Union[int, str]


class LazyMemberLookup:
    """Demand-driven member lookup with memoisation.

    Produces exactly the same results as
    :class:`~repro.core.lookup.MemberLookupTable`, computing only the
    entries transitively demanded by the queries actually asked.
    """

    def __init__(
        self, hierarchy: HierarchyLike, *, track_witnesses: bool = True
    ) -> None:
        self._graph = hierarchy_of(hierarchy)
        self._ch = compiled_of(hierarchy)
        self._track_witnesses = track_witnesses
        # None is a meaningful cached value: "m not visible in C".
        self._columns: dict[ColumnKey, dict[int, object]] = {}
        self._public: dict[tuple[ColumnKey, int], TableEntry] = {}
        self.stats = LookupStats()

    def lookup(self, class_name: str, member: str) -> LookupResult:
        self._refresh()
        ch = self._ch
        cid = ch.class_ids.get(class_name)
        if cid is None:
            self._graph.direct_bases(class_name)  # raises UnknownClassError
            return not_found_result(class_name, member)
        key = ch.member_ids.get(member, member)
        kentry = self._demand(cid, key)
        if kentry is None:
            return not_found_result(class_name, member)
        public = self._public.get((key, cid))
        if public is None:
            public = self._public[(key, cid)] = to_table_entry(ch, kentry)
        return result_from_entry(class_name, member, public)

    def entries_computed(self) -> int:
        """Number of memoised entries, counting "not visible" results."""
        return sum(len(column) for column in self._columns.values())

    # ------------------------------------------------------------------
    # The demand-driven driver (the fold lives in repro.core.kernel)
    # ------------------------------------------------------------------

    def _refresh(self) -> None:
        """Recompile if the graph mutated, dropping the whole memo: the
        next queries recompute exactly the entries they demand."""
        if self._ch.generation == self._graph.generation:
            return
        self._ch = self._graph.compile()
        self._columns = {}
        self._public = {}

    def _demand(self, cid: int, key: ColumnKey):
        """The cached kernel entry of ``(cid, key)``, computing it — and
        every uncached entry it transitively depends on — on demand.

        Iterative (hierarchies can be deeper than the Python recursion
        limit): expand uncached bases first, then fold the node over its
        now-cached bases.  Bases are expanded regardless of visibility,
        mirroring the recursion the paper describes — "not visible" is a
        memoised result like any other.
        """
        column = self._columns.get(key)
        if column is None:
            column = self._columns[key] = {}
        if cid in column:
            return column[cid]
        ch = self._ch
        mid = key if type(key) is int else None
        base_pairs = ch.base_pairs
        stats = self.stats
        track = self._track_witnesses
        stack: list[tuple[int, bool]] = [(cid, False)]
        while stack:
            node, expanded = stack.pop()
            if node in column:
                continue
            if expanded:
                stats.entries_computed += 1
                column[node] = (
                    fold_entry(ch, node, mid, column.get, stats, track)
                    if mid is not None
                    else None  # a name no class declares is visible nowhere
                )
            else:
                stack.append((node, True))
                for base, _virtual in base_pairs[node]:
                    if base not in column:
                        stack.append((base, False))
        return column[cid]
