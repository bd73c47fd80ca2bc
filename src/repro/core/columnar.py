"""Columnar serving layout — dense entry arrays, one gather per member.

The Red/Blue table is conceptually a dense ``classes × members``
matrix; the sweeps produce it as per-class Python dicts.  This module
re-lays the *full* table — ambiguous (blue) columns included — as
dense per-member arrays of interned entry ids over one shared
:class:`EntryPool`.  It is the one layout a published
:class:`~repro.core.snapshot.TableSnapshot` reads from: batches are
answered with one gather per distinct member, point queries
with one memoised result cell (:meth:`ColumnarTable._result_one`):

* :class:`EntryPool` interns every distinct entry once: a red slot is
  the ``(ldc_id, least_virtual_id)`` int pair, a blue slot is the
  :class:`~repro.core.kernel.KernelBlue` value itself (two int masks,
  interned under a key of its own kind — see :class:`EntryPool`).
  Chains and deep trees intern thousands of classes onto a handful of
  distinct slots, and the pool memoises each slot's public pieces
  (names, sorted candidate tuples) once, shared by every class that
  resolves to it.
* :class:`ColumnarColumn` holds one member's dense ``array('q')`` of
  slot ids (``-1`` = not visible), the per-class witness cons cells,
  and a lazily materialised per-class :class:`~repro.core.results
  .LookupResult` memo list, so a group of query ids gathers with one
  C-level ``map``.
* :class:`ColumnarTable` is built straight off the row list a
  build's or a delta's cone sweep produced
  (:meth:`ColumnarTable.from_rows` — no dict-row detour per query at
  serve time) and maintained copy-on-write in O(delta) by
  :meth:`ColumnarTable.apply_delta` — unaffected columns and their warm
  result memos are shared with the parent by reference, exactly like
  the snapshot tier's row sharing.

Batch semantics match a per-query loop exactly: class names are
interned once per batch (the first unknown class raises
:class:`~repro.errors.UnknownClassError`, like the loop would have),
unknown members answer ``NOT_FOUND`` per query, and every result is
value-identical to the per-member reference table's — differentially
enforced by ``tests/core/test_columnar.py`` and the ``snapshot`` and
``columnar`` legs of the fuzz engine matrix.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from repro.core.kernel import (
    abstraction_name,
    abstraction_names,
    candidate_names,
    witness_path,
)
from repro.core.results import (
    LookupResult,
    ambiguous_result,
    not_found_result,
    unique_result,
)
from repro.errors import UnknownClassError
from repro.hierarchy.compiled import CompiledHierarchy

__all__ = [
    "ColumnarColumn",
    "ColumnarStats",
    "ColumnarTable",
    "EntryPool",
]

#: Below this group size a cold column is served by the guarded
#: per-query path (memoising only the touched cells) instead of
#: materialising the whole column — a 1-query batch over a huge
#: hierarchy should not pay O(|N|).
_MATERIALIZE_MIN = 16

_FIRST = itemgetter(0)
_SECOND = itemgetter(1)


@dataclass
class ColumnarStats:
    """Serving and maintenance counters of one :class:`ColumnarTable`
    (continued across copy-on-write children, like the fast path's).

    ``gathers`` counts group serves from a ready column;
    ``scalar_serves`` counts queries that took the guarded per-query
    path instead (unknown members, short shared columns after a delta,
    small groups over cold columns)."""

    batches: int = 0
    queries: int = 0
    gathers: int = 0
    scalar_serves: int = 0
    columns_materialized: int = 0
    cone_updates: int = 0
    new_columns: int = 0


class EntryPool:
    """The shared append-only intern pool of distinct table entries.

    ``slots[sid]`` is either a red ``(ldc_id, least_virtual_id)`` int
    pair or a blue :class:`~repro.core.kernel.KernelBlue` — told apart
    by exact type (``type(slot) is tuple`` holds only for reds).  Both
    kinds are pairs of ints, and a ``KernelBlue`` is a tuple, so
    ``KernelBlue(6, 5) == (6, 5)`` and the two hash alike; the intern
    dict therefore keys a red as itself and a blue as the 1-tuple
    ``(blue,)``, which never equals a red's 2-tuple.
    ``public[sid]`` memoises the slot's public pieces — red:
    ``(declaring_class_name, least_virtual_name)``; blue:
    ``(abstraction_name_set, sorted_candidate_tuple)`` — computed once
    and shared by every class whose cell interns to the slot.
    """

    __slots__ = ("slots", "public", "_ids")

    def __init__(self) -> None:
        self.slots: list = []
        self.public: list = []
        self._ids: dict = {}

    def __len__(self) -> int:
        return len(self.slots)

    def intern(self, slot) -> int:
        """The slot id of ``slot`` (a red pair or a blue), appending a
        new slot on first sight."""
        key = slot if type(slot) is tuple else (slot,)
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = len(self.slots)
            self.slots.append(slot)
            self.public.append(None)
        return sid

    def copy(self) -> "EntryPool":
        """A private duplicate — taken by copy-on-write delta derivation
        so interning for the child never mutates the parent's pool."""
        dup = EntryPool.__new__(EntryPool)
        dup.slots = list(self.slots)
        dup.public = list(self.public)
        dup._ids = dict(self._ids)
        return dup

    def public_of(self, ch: CompiledHierarchy, sid: int):
        """The memoised public pieces of slot ``sid`` (see class doc).
        Sound to share across generations: interned ids are stable under
        the append-only graph API, so a name never changes meaning."""
        public = self.public[sid]
        if public is None:
            slot = self.slots[sid]
            if type(slot) is tuple:
                public = (
                    ch.class_names[slot[0]],
                    abstraction_name(ch, slot[1]),
                )
            else:
                public = (
                    abstraction_names(ch, slot[0]),
                    candidate_names(ch, slot[1]),
                )
            self.public[sid] = public
        return public


class ColumnarColumn:
    """One member's dense column: interned slot ids, witnesses, and the
    lazily materialised result memo.

    ``cells[cid]`` indexes the owning table's :class:`EntryPool`
    (``-1`` = member not visible in that class); ``witnesses[cid]`` is
    the kernel's witness cons cell (red cells only); ``results[cid]``
    memoises the public :class:`~repro.core.results.LookupResult`.
    ``ready`` is set once *every* cell (not-found included) is
    materialised, which is what licenses the memo-only group gather;
    any cell write clears it.  ``populated`` counts visible cells
    incrementally, so ``len()`` is O(1).
    """

    __slots__ = ("mid", "cells", "witnesses", "results", "ready", "populated")

    def __init__(self, mid: int, n_classes: int) -> None:
        self.mid = mid
        self.cells = array("q", [-1]) * n_classes
        self.witnesses: list = [None] * n_classes
        self.results: list = [None] * n_classes
        self.ready = False
        self.populated = 0

    def __len__(self) -> int:
        """Number of populated (visible) cells — O(1)."""
        return self.populated

    def copy(self) -> "ColumnarColumn":
        """A private duplicate — the copy-on-write unit of delta
        derivation.  Containers are fresh; the witness cons cells and
        memoised results they hold are immutable values and stay shared
        by reference."""
        dup = ColumnarColumn.__new__(ColumnarColumn)
        dup.mid = self.mid
        dup.cells = array("q", self.cells)
        dup.witnesses = list(self.witnesses)
        dup.results = list(self.results)
        dup.ready = self.ready
        dup.populated = self.populated
        return dup

    def ensure_size(self, n_classes: int) -> None:
        """Grow the arrays for class ids appended since the build; new
        classes start invisible and unmemoised (so ``ready`` drops)."""
        grow = n_classes - len(self.cells)
        if grow > 0:
            self.cells.extend(array("q", [-1]) * grow)
            self.witnesses.extend([None] * grow)
            self.results.extend([None] * grow)
            self.ready = False

    def set_cell(self, cid: int, entry, pool: EntryPool) -> None:
        """Write one class's cell from a kernel entry (``None`` = not
        visible; red tuple or blue otherwise), dropping the memoised
        result and the whole-column ``ready`` claim."""
        old = self.cells[cid]
        self.results[cid] = None
        self.ready = False
        if entry is None:
            if old >= 0:
                self.populated -= 1
            self.cells[cid] = -1
            self.witnesses[cid] = None
            return
        if old < 0:
            self.populated += 1
        if type(entry) is tuple:
            self.cells[cid] = pool.intern((entry[0], entry[1]))
            self.witnesses[cid] = entry[2]
        else:
            self.cells[cid] = pool.intern(entry)
            self.witnesses[cid] = None


class ColumnarTable:
    """The whole table as dense per-member columns over one shared
    entry pool, with the batch entry point :meth:`lookup_many`.

    Build one with :meth:`from_rows` (straight off a sweep's row
    list).  Derive the next
    generation with :meth:`apply_delta` — pure copy-on-write, O(delta):
    ``self`` is never written, unaffected columns (and their warm
    result memos) are shared with the child by reference.

    The one reader-visible mutation is memoisation (result cells, slot
    publics, the ``ready`` flag) — idempotent single-reference writes
    of value-identical objects, the same policy the snapshot tier
    documents, so concurrent batch readers never lock.
    """

    __slots__ = (
        "n_classes",
        "pool",
        "columns",
        "absent",
        "stats",
    )

    def __init__(
        self,
        n_classes: int,
        *,
        pool: Optional[EntryPool] = None,
        stats: Optional[ColumnarStats] = None,
    ) -> None:
        self.n_classes = n_classes
        self.pool = EntryPool() if pool is None else pool
        self.columns: dict[int, ColumnarColumn] = {}
        # member name -> all-NOT_FOUND gather source, memoised for
        # names queried in bulk that no class declares (see
        # :meth:`_absent_results`).
        self.absent: dict[str, list] = {}
        self.stats = ColumnarStats() if stats is None else stats

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(cls, ch: CompiledHierarchy, rows: list) -> "ColumnarTable":
        """Re-lay a sweep's row list (``rows[cid]: mid -> kernel
        entry``) as dense columns in one pass — every entry interned
        into the shared pool, blue columns included."""
        table = cls(ch.n_classes)
        columns = table.columns
        pool = table.pool
        ids = pool._ids
        slots = pool.slots
        publics = pool.public
        n_classes = table.n_classes
        for cid, row in enumerate(rows):
            if not row:
                continue
            for mid, entry in row.items():
                column = columns.get(mid)
                if column is None:
                    column = columns[mid] = ColumnarColumn(mid, n_classes)
                if type(entry) is tuple:
                    key = slot = (entry[0], entry[1])
                    column.witnesses[cid] = entry[2]
                else:
                    key, slot = (entry,), entry
                sid = ids.get(key)
                if sid is None:
                    sid = ids[key] = len(slots)
                    slots.append(slot)
                    publics.append(None)
                column.cells[cid] = sid
                column.populated += 1
        return table

    def _flatten_member(
        self, ch: CompiledHierarchy, mid: int, entry_at
    ) -> ColumnarColumn:
        """Materialise one member's column from an ``entry_at(cid,
        mid)`` reader, visiting only classes the member is visible in."""
        column = ColumnarColumn(mid, self.n_classes)
        pool = self.pool
        remaining = ch.classes_with_member(mid)
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            cid = low.bit_length() - 1
            entry = entry_at(cid, mid)
            if entry is not None:
                column.set_cell(cid, entry, pool)
        column.ready = False
        return column

    def apply_delta(
        self,
        ch: CompiledHierarchy,
        cone_ids: Sequence[int],
        member_ids: Sequence[int],
        entry_at,
    ) -> "ColumnarTable":
        """Derive the child table for the next generation in O(delta),
        copy-on-write: affected columns are :meth:`ColumnarColumn.copy`
        duplicates with only their cone cells rewritten, brand-new
        member columns are flattened on the spot, and every unaffected
        column — result memos included — is shared with ``self`` by
        reference (bounds-guarded for appended class ids at gather
        time, sound because the delta's member mask contains every
        member visible in a new class).  The pool is copied only when
        the delta writes any cell; the child's counters continue this
        table's."""
        child = ColumnarTable(
            ch.n_classes,
            pool=self.pool.copy() if member_ids else self.pool,
            stats=ColumnarStats(**vars(self.stats)),
        )
        child.columns = dict(self.columns)
        # Absent-member memos survive unless the delta declared the
        # name (it has a real column now); stale-length containers are
        # rebuilt lazily against the child's class count.
        delta_names = {ch.member_names[mid] for mid in member_ids}
        child.absent = {
            name: results
            for name, results in self.absent.items()
            if name not in delta_names
        }
        pool = child.pool
        stats = child.stats
        for mid in member_ids:
            column = child.columns.get(mid)
            if column is None:
                # Brand-new member: its whole visible footprint lies in
                # the cone, so flatten it against the child's sizing.
                child.columns[mid] = child._flatten_member(ch, mid, entry_at)
                stats.new_columns += 1
                continue
            column = column.copy()
            child.columns[mid] = column
            column.ensure_size(ch.n_classes)
            for cid in cone_ids:
                column.set_cell(cid, entry_at(cid, mid), pool)
            stats.cone_updates += 1
        return child

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def column_count(self) -> int:
        """Number of member columns laid out."""
        return len(self.columns)

    @property
    def populated_cells(self) -> int:
        """Total visible cells across every column — O(|columns|)."""
        return sum(column.populated for column in self.columns.values())

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def lookup_many(
        self, ch: CompiledHierarchy, queries: Iterable[Sequence[str]]
    ) -> list[LookupResult]:
        """Answer a batch of ``(class, member)`` queries with one
        gather per distinct member.

        Names are interned once per batch through C-level ``map``
        chains (the first unknown class raises
        :class:`~repro.errors.UnknownClassError`, exactly where the
        per-query loop would have); query positions are grouped by
        member; each group gathers its memoised results from the memo
        list.  Cold columns are materialised whole on first batch
        touch; tiny groups, unknown members and short shared columns
        take the guarded per-query path instead.  Results are
        value-identical to the per-query row path's."""
        if type(queries) is not list:
            queries = list(queries)
        n = len(queries)
        if n == 0:
            return []
        stats = self.stats
        stats.batches += 1
        stats.queries += n
        try:
            cids = list(map(ch.class_ids.__getitem__, map(_FIRST, queries)))
        except KeyError as exc:
            raise UnknownClassError(exc.args[0]) from None
        members = list(map(_SECOND, queries))
        first = members[0]
        if members.count(first) == n:
            return self._serve_group(ch, first, cids, n)
        return self._serve_grouped(ch, members, cids, n)

    def _serve_grouped(self, ch, members, cids, n):
        """Multi-member batch: group query positions by member with one
        pass, then serve each group with a tight gather/scatter loop
        over the memo list."""
        groups: dict[str, list[int]] = {}
        for qi, member in enumerate(members):
            bucket = groups.get(member)
            if bucket is None:
                groups[member] = [qi]
            else:
                bucket.append(qi)
        out: list = [None] * n
        for member, qidx in groups.items():
            results = self._gather_source(ch, member, len(qidx))
            if results is not None:
                self.stats.gathers += 1
                for qi in qidx:
                    out[qi] = results[cids[qi]]
            else:
                self.stats.scalar_serves += len(qidx)
                names = ch.class_names
                for qi in qidx:
                    cid = cids[qi]
                    out[qi] = self._result_one(ch, cid, names[cid], member)
        return out

    def _serve_group(self, ch, member, cids, size):
        """One single-member group as a flat result list (the whole
        batch when every query names the same member)."""
        results = self._gather_source(ch, member, size)
        if results is None:
            self.stats.scalar_serves += size
            names = ch.class_names
            return [
                self._result_one(ch, cid, names[cid], member) for cid in cids
            ]
        self.stats.gathers += 1
        return list(map(results.__getitem__, cids))

    def _gather_source(self, ch, member: str, group_size: int):
        """The ready result memo to gather a group from, or ``None``
        when the group must take the guarded per-query path (unknown
        member, short shared column, or a group too small to justify
        materialising a cold column)."""
        mid = ch.member_ids.get(member)
        if mid is None:
            if group_size < _MATERIALIZE_MIN:
                return None
            return self._absent_results(ch, member)
        column = self.columns.get(mid)
        if column is None or len(column.cells) < self.n_classes:
            return None
        if not column.ready:
            if group_size < _MATERIALIZE_MIN:
                return None
            self._materialize_column(ch, column, member)
        return column.results

    def _absent_results(self, ch: CompiledHierarchy, member: str):
        """The memoised all-``NOT_FOUND`` gather source for a member no
        class declares — bulk batches of absent names (the common probe
        pattern of speculative tooling) gather like any ready column
        instead of constructing a result per query.  Rebuilt when
        classes were appended since it was memoised; dropped by
        :meth:`apply_delta` when a delta declares the name."""
        results = self.absent.get(member)
        if results is None or len(results) < self.n_classes:
            results = self.absent[member] = [
                not_found_result(name, member) for name in ch.class_names
            ]
        return results

    def _materialize_column(
        self, ch: CompiledHierarchy, column: ColumnarColumn, member: str
    ) -> None:
        """Fill every unmemoised result cell of a column — not-found
        for invisible cells included, which is what makes the memo the
        *complete* gather source — through a memoryview over the cells
        array, then publish the ``ready`` claim."""
        pool = self.pool
        slots = pool.slots
        names = ch.class_names
        witnesses = column.witnesses
        results = column.results
        cells = memoryview(column.cells)
        for cid in range(len(cells)):
            if results[cid] is not None:
                continue
            sid = cells[cid]
            if sid < 0:
                results[cid] = not_found_result(names[cid], member)
                continue
            public = pool.public_of(ch, sid)
            if type(slots[sid]) is tuple:
                cell = witnesses[cid]
                results[cid] = unique_result(
                    names[cid],
                    member,
                    declaring_class=public[0],
                    least_virtual=public[1],
                    witness=(
                        witness_path(ch, cell) if cell is not None else None
                    ),
                )
            else:
                results[cid] = ambiguous_result(
                    names[cid],
                    member,
                    blue_abstractions=public[0],
                    candidates=public[1],
                )
        column.ready = True
        self.stats.columns_materialized += 1

    def _result_one(
        self, ch: CompiledHierarchy, cid: int, class_name: str, member: str
    ) -> LookupResult:
        """The point-read path: one query against one (possibly short,
        possibly cold) column, memoising the touched cell — what
        :meth:`~repro.core.snapshot.TableSnapshot.lookup` answers every
        cell with."""
        mid = ch.member_ids.get(member)
        if mid is None:
            return not_found_result(class_name, member)
        column = self.columns.get(mid)
        if column is None or cid >= len(column.cells):
            # No column ⇔ no visible cell anywhere; a short shared
            # column has no visible cell at an appended class id (the
            # delta's member mask contains every member visible there).
            return not_found_result(class_name, member)
        result = column.results[cid]
        if result is None:
            pool = self.pool
            sid = column.cells[cid]
            if sid < 0:
                result = not_found_result(class_name, member)
            elif type(pool.slots[sid]) is tuple:
                public = pool.public_of(ch, sid)
                cell = column.witnesses[cid]
                result = unique_result(
                    class_name,
                    member,
                    declaring_class=public[0],
                    least_virtual=public[1],
                    witness=(
                        witness_path(ch, cell) if cell is not None else None
                    ),
                )
            else:
                public = pool.public_of(ch, sid)
                result = ambiguous_result(
                    class_name,
                    member,
                    blue_abstractions=public[0],
                    candidates=public[1],
                )
            column.results[cid] = result
        return result

