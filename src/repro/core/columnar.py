"""Columnar serving layout — dense entry arrays, one gather per member.

The Red/Blue table is conceptually a dense ``classes × members``
matrix; the sweeps produce it as per-class Python dicts.  This module
re-lays the *full* table — ambiguous (blue) columns included — as
dense per-member arrays of interned entry ids over one shared
:class:`EntryPool`.  It is the one layout a published
:class:`~repro.core.snapshot.TableSnapshot` reads from, and it answers
two kinds of read from one cell→result function
(:meth:`ColumnarTable._cell_result`):

* **serving reads return bytes.**  A warm cell *is* its wire fragment,
  ``result_json`` of the cell's answer
  (:func:`~repro.core.results.result_json`), memoised per cell:
  :meth:`ColumnarTable.lookup_many_json` answers a batch with one
  gather per distinct member, :meth:`ColumnarTable._json_one` a point
  query; only these move the gather counters of :class:`ColumnarStats`.
* **library reads return a fresh** :class:`~repro.core.results
  .LookupResult` built from the cell on every call
  (:meth:`ColumnarTable.lookup_many`, :meth:`ColumnarTable._result_one`);
  nothing of it is kept.  A warm library read therefore costs the
  cell's decode — an O(depth) witness walk for a red cell, a bit walk
  over the blue mask — where a warm served read is one list index.

The pieces:

* :class:`EntryPool` interns every distinct entry once: a red slot is
  the ``(ldc_id, least_virtual_id)`` int pair, a blue slot is the
  :class:`~repro.core.kernel.KernelBlue` value itself (two int masks,
  interned under a key of its own kind — see :class:`EntryPool`).
  Chains and deep trees intern thousands of classes onto a handful of
  distinct slots.  A slot's names are decoded when a cell naming it is
  answered.
* :class:`ColumnarColumn` holds one member's dense ``array('q')`` of
  slot ids (``-1`` = not visible), the per-class witness cons cells,
  and a lazily materialised per-class fragment memo list, so a group of
  query ids gathers with one C-level ``map``.
* :class:`ColumnarTable` is built straight off the row list a
  build's or a delta's cone sweep produced
  (:meth:`ColumnarTable.from_rows` — no dict-row detour per query at
  serve time) and maintained copy-on-write in O(delta) by
  :meth:`ColumnarTable.apply_delta` — unaffected columns and their warm
  fragments are shared with the parent by reference, exactly like
  the snapshot tier's row sharing.

Batch semantics match a per-query loop exactly: class names are
interned once per batch (the first unknown class raises
:class:`~repro.errors.UnknownClassError`, like the loop would have),
unknown members answer ``NOT_FOUND`` per query, and every result is
value-identical to the per-member reference table's — differentially
enforced by ``tests/core/test_columnar.py`` and the ``snapshot`` and
``columnar`` legs of the fuzz engine matrix (the latter also checks
each fragment against the encoding of the library answer).
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
    result_json,
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
    (continued across copy-on-write children).

    ``batches`` / ``queries`` count every batch, library and bytes
    alike; the gather counters count bytes batches only, because a
    library batch builds fresh results and reads no memo.
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
    """

    __slots__ = ("slots", "_ids")

    def __init__(self) -> None:
        self.slots: list = []
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
        return sid

    def copy(self) -> "EntryPool":
        """A private duplicate — taken by copy-on-write delta derivation
        so interning for the child never mutates the parent's pool."""
        dup = EntryPool.__new__(EntryPool)
        dup.slots = list(self.slots)
        dup._ids = dict(self._ids)
        return dup


class ColumnarColumn:
    """One member's dense column: interned slot ids, witnesses, and the
    lazily materialised fragment memo.

    ``cells[cid]`` indexes the owning table's :class:`EntryPool`
    (``-1`` = member not visible in that class); ``witnesses[cid]`` is
    the kernel's witness cons cell (red cells only); ``fragments[cid]``
    memoises the cell's wire fragment (the ``result_json`` bytes of its
    answer).  ``ready`` is set once *every* cell (not-found included) is
    materialised, which is what licenses the memo-only group gather;
    any cell write clears it.  ``populated`` counts visible cells
    incrementally, so ``len()`` is O(1).
    """

    __slots__ = ("mid", "cells", "witnesses", "fragments", "ready", "populated")

    def __init__(self, mid: int, n_classes: int) -> None:
        self.mid = mid
        self.cells = array("q", [-1]) * n_classes
        self.witnesses: list = [None] * n_classes
        self.fragments: list = [None] * n_classes
        self.ready = False
        self.populated = 0

    def __len__(self) -> int:
        """Number of populated (visible) cells — O(1)."""
        return self.populated

    def copy(self) -> "ColumnarColumn":
        """A private duplicate — the copy-on-write unit of delta
        derivation.  Containers are fresh; the witness cons cells and
        memoised fragments they hold are immutable values and stay
        shared by reference."""
        dup = ColumnarColumn.__new__(ColumnarColumn)
        dup.mid = self.mid
        dup.cells = array("q", self.cells)
        dup.witnesses = list(self.witnesses)
        dup.fragments = list(self.fragments)
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
            self.fragments.extend([None] * grow)
            self.ready = False

    def set_cell(self, cid: int, entry, pool: EntryPool) -> None:
        """Write one class's cell from a kernel entry (``None`` = not
        visible; red tuple or blue otherwise), dropping the memoised
        fragment and the whole-column ``ready`` claim."""
        old = self.cells[cid]
        self.fragments[cid] = None
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
    entry pool, with the batch entry points :meth:`lookup_many_json`
    (serving) and :meth:`lookup_many` (library).

    Build one with :meth:`from_rows` (straight off a sweep's row
    list).  Derive the next
    generation with :meth:`apply_delta` — pure copy-on-write, O(delta):
    ``self`` is never written, unaffected columns (and their warm
    fragments) are shared with the child by reference.

    The one reader-visible mutation is memoisation (fragments, the
    ``ready`` flag) — idempotent single-reference writes of equal
    bytes, the same policy the snapshot tier documents, so concurrent
    batch readers never lock.
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
        # member name -> all-NOT_FOUND fragment list, memoised for
        # names queried in bulk that no class declares (see
        # :meth:`_absent_fragments`).
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
        column — fragments included — is shared with ``self`` by
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
            name: fragments
            for name, fragments in self.absent.items()
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
    # Serving reads (bytes)
    # ------------------------------------------------------------------

    def lookup_many_json(
        self, ch: CompiledHierarchy, queries: Iterable[Sequence[str]]
    ) -> list[bytes]:
        """Answer a batch of ``(class, member)`` queries as wire
        fragments, with one gather per distinct member.

        Names are interned once per batch through C-level ``map``
        chains (the first unknown class raises
        :class:`~repro.errors.UnknownClassError`, exactly where the
        per-query loop would have); query positions are grouped by
        member; each group gathers its memoised fragments from the memo
        list.  Cold columns are materialised whole on first batch
        touch; tiny groups, unknown members and short shared columns
        take the guarded per-query path (:meth:`_json_one`) instead.
        Each fragment equals ``result_json`` of the library answer."""
        if type(queries) is not list:
            queries = list(queries)
        n = len(queries)
        if n == 0:
            return []
        stats = self.stats
        stats.batches += 1
        stats.queries += n
        cids = _class_ids(ch, queries)
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
            fragments = self._gather_source(ch, member, len(qidx))
            if fragments is not None:
                self.stats.gathers += 1
                for qi in qidx:
                    out[qi] = fragments[cids[qi]]
            else:
                self.stats.scalar_serves += len(qidx)
                names = ch.class_names
                for qi in qidx:
                    cid = cids[qi]
                    out[qi] = self._json_one(ch, cid, names[cid], member)
        return out

    def _serve_group(self, ch, member, cids, size):
        """One single-member group as a flat fragment list (the whole
        batch when every query names the same member)."""
        fragments = self._gather_source(ch, member, size)
        if fragments is None:
            self.stats.scalar_serves += size
            names = ch.class_names
            return [
                self._json_one(ch, cid, names[cid], member) for cid in cids
            ]
        self.stats.gathers += 1
        return list(map(fragments.__getitem__, cids))

    def _gather_source(self, ch, member: str, group_size: int):
        """The ready fragment memo to gather a group from, or ``None``
        when the group must take the guarded per-query path (unknown
        member, short shared column, or a group too small to justify
        materialising a cold column)."""
        mid = ch.member_ids.get(member)
        if mid is None:
            if group_size < _MATERIALIZE_MIN:
                return None
            return self._absent_fragments(ch, member)
        column = self._column(mid)
        if column is None or len(column.cells) < self.n_classes:
            return None
        if not column.ready:
            if group_size < _MATERIALIZE_MIN:
                return None
            self._materialize_column(ch, column, member)
        return column.fragments

    def _absent_fragments(self, ch: CompiledHierarchy, member: str):
        """The memoised all-``NOT_FOUND`` gather source for a member no
        class declares — bulk batches of absent names (the common probe
        pattern of speculative tooling) gather like any ready column
        instead of encoding an answer per query.  Rebuilt when classes
        were appended since it was memoised; dropped by
        :meth:`apply_delta` when a delta declares the name."""
        fragments = self.absent.get(member)
        if fragments is None or len(fragments) < self.n_classes:
            fragments = self.absent[member] = [
                result_json(not_found_result(name, member))
                for name in ch.class_names
            ]
        return fragments

    def _materialize_column(
        self, ch: CompiledHierarchy, column: ColumnarColumn, member: str
    ) -> None:
        """Encode every unmemoised cell of a column — not-found for
        invisible cells included, which is what makes the memo the
        *complete* gather source — then publish the ``ready`` claim."""
        names = ch.class_names
        fragments = column.fragments
        cell_result = self._cell_result
        for cid in range(len(fragments)):
            if fragments[cid] is None:
                fragments[cid] = result_json(
                    cell_result(ch, column, cid, names[cid], member)
                )
        column.ready = True
        self.stats.columns_materialized += 1

    def _json_one(
        self, ch: CompiledHierarchy, cid: int, class_name: str, member: str
    ) -> bytes:
        """The point-read path of the server: one query against one
        (possibly short, possibly cold) column, memoising the touched
        cell's fragment — what :meth:`~repro.core.snapshot.TableSnapshot
        .lookup_json` answers every cell with."""
        column = self._cell_column(ch, cid, member)
        if column is None:
            # Not found, and not memoised.
            return result_json(not_found_result(class_name, member))
        fragment = column.fragments[cid]
        if fragment is None:
            fragment = column.fragments[cid] = result_json(
                self._cell_result(ch, column, cid, class_name, member)
            )
        return fragment

    # ------------------------------------------------------------------
    # Library reads (fresh results)
    # ------------------------------------------------------------------

    def lookup_many(
        self, ch: CompiledHierarchy, queries: Iterable[Sequence[str]]
    ) -> list[LookupResult]:
        """Answer a batch of ``(class, member)`` queries with a fresh
        :class:`~repro.core.results.LookupResult` each.  Class names are
        interned first, so the first unknown class raises
        :class:`~repro.errors.UnknownClassError` before any answer is
        built; unknown members answer ``NOT_FOUND``.  Touches no memo;
        counts the batch in ``batches`` / ``queries`` only."""
        if type(queries) is not list:
            queries = list(queries)
        if queries:
            self.stats.batches += 1
            self.stats.queries += len(queries)
        names = ch.class_names
        return [
            self._result_one(ch, cid, names[cid], member)
            for cid, member in zip(
                _class_ids(ch, queries), map(_SECOND, queries)
            )
        ]

    def _result_one(
        self, ch: CompiledHierarchy, cid: int, class_name: str, member: str
    ) -> LookupResult:
        """The library point read: a fresh result for one query — what
        :meth:`~repro.core.snapshot.TableSnapshot.lookup` answers."""
        column = self._cell_column(ch, cid, member)
        if column is None:
            return not_found_result(class_name, member)
        return self._cell_result(ch, column, cid, class_name, member)

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------

    def _column(self, mid: int) -> Optional[ColumnarColumn]:
        """Member ``mid``'s column, or ``None`` when no class sees it."""
        return self.columns.get(mid)

    def _cell_column(
        self, ch: CompiledHierarchy, cid: int, member: str
    ) -> Optional[ColumnarColumn]:
        """The column holding class ``cid``'s cell of ``member``, or
        ``None`` when the answer is not found without reading a cell:
        an unknown member, a member no class sees, or a short shared
        column at an appended class id (the delta's member mask
        contains every member visible in a new class)."""
        mid = ch.member_ids.get(member)
        column = None if mid is None else self._column(mid)
        if column is None or cid >= len(column.cells):
            return None
        return column

    def _cell_result(
        self,
        ch: CompiledHierarchy,
        column: ColumnarColumn,
        cid: int,
        class_name: str,
        member: str,
    ) -> LookupResult:
        """The answer of one cell as a fresh result: the one function
        both library reads return and serving reads encode."""
        sid = column.cells[cid]
        if sid < 0:
            return not_found_result(class_name, member)
        slot = self.pool.slots[sid]
        if type(slot) is tuple:
            cell = column.witnesses[cid]
            return unique_result(
                class_name,
                member,
                declaring_class=ch.class_names[slot[0]],
                least_virtual=abstraction_name(ch, slot[1]),
                witness=witness_path(ch, cell) if cell is not None else None,
            )
        return ambiguous_result(
            class_name,
            member,
            blue_abstractions=abstraction_names(ch, slot[0]),
            candidates=candidate_names(ch, slot[1]),
        )


def _class_ids(ch: CompiledHierarchy, queries: list) -> list[int]:
    """The class ids of a batch's queries; the first unknown class
    raises :class:`~repro.errors.UnknownClassError`."""
    try:
        return list(map(ch.class_ids.__getitem__, map(_FIRST, queries)))
    except KeyError as exc:
        raise UnknownClassError(exc.args[0]) from None
