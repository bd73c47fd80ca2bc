"""Flat serving structures for certified-unambiguous columns (paper, §5).

Section 5 of the paper proves that member lookup costs ``O(|N| + |E|)``
per member *when no lookup of that member is ambiguous*: every visible
entry is red, so the whole blue-set machinery — and with it the general
``O(|M|·|N|·(|N|+|E|))`` bound — is dead weight.  The sweeps already
prove the precondition for free: :class:`repro.core.kernel
.AmbiguityCertificate` records, per member column, whether any blue
entry was ever stored.  This module is what that proof buys at serving
time.

A certified-unambiguous column is *flattened* out of the dict-of-dicts
table into a :class:`FlatColumn`:

* ``cells`` — a dense ``array('q')`` indexed by class id, holding an
  index into the interned slot pool (or ``-1``: not visible).  Chains
  and deep trees intern thousands of classes onto a handful of distinct
  ``(ldc, leastVirtual)`` pairs, so the pool stays tiny.
* ``slots`` — the pool of distinct ``(ldc id, leastVirtual id)`` pairs.
* ``witnesses`` — the per-class witness cons cells, *shared* with the
  kernel rows they came from, so a flattened answer carries the exact
  same representative path the row path would have produced.
* ``results`` — lazily memoised :class:`~repro.core.results
  .LookupResult` objects, one per class.  Serving a warm cell is two
  list indexes; the row path re-materialises a frozen dataclass per
  query.

A :class:`FlatTable` aggregates the flat columns behind a *persistent,
demote-only* ambiguity mask: a delta that ambiguates a column inside
its cone demotes it to the full red/blue rows for good (a cone
certificate proves nothing about out-of-cone cells, so re-promotion
would be unsound); a delta that keeps an affected column red merely
rewrites the cone cells of a copy; columns outside the cone are shared
untouched.  Brand-new columns — member names first declared by the delta,
whose whole visible footprint lies inside the cone — are the one safe
promotion and are flattened on the spot.

The structures here are a pure serving overlay: the owning engine keeps
its rows/columns authoritative (delta maintenance re-folds *them*), and
every flat answer is differentially checked against the row path and
the subobject-poset oracle by ``tests/core/test_fastpath.py`` and the
``repro.fuzz`` engine matrix.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.kernel import (
    AmbiguityCertificate,
    abstraction_name,
    witness_path,
)
from repro.core.results import (
    LookupResult,
    not_found_result,
    unique_result,
)
from repro.hierarchy.compiled import CompiledHierarchy

__all__ = [
    "AmbiguousColumnError",
    "FastPathStats",
    "FlatColumn",
    "FlatTable",
    "build_flat_table",
    "flatten_column",
]

#: ``entry_at(cid, mid)`` — however the owning engine stores its kernel
#: entries (row-major rows or column-major dicts), the fast path reads
#: them through this one shape.
EntryAt = Callable[[int, int], object]


class AmbiguousColumnError(ValueError):
    """Raised when asked to flatten a column that holds a blue entry —
    the certificate said (or should have said) otherwise."""

    def __init__(self, mid: int, cid: int) -> None:
        super().__init__(
            f"column {mid} holds a blue entry at class {cid}; "
            "only certified-unambiguous columns can be flattened"
        )
        self.mid = mid
        self.cid = cid


@dataclass
class FastPathStats:
    """Serving and maintenance counters of one :class:`FlatTable`.

    ``flat_hits`` / ``fallback_hits`` split the queries the owning
    engine answered from a flat column vs. the full red/blue structures
    (ambiguous columns, unknown members); ``demotions`` counts columns
    a delta ambiguated (flat → rows, permanent), ``promotions`` counts
    brand-new columns flattened by a delta, ``cone_updates`` counts
    cone rewrites of columns that stayed red."""

    flat_hits: int = 0
    fallback_hits: int = 0
    demotions: int = 0
    promotions: int = 0
    cone_updates: int = 0


class FlatColumn:
    """One certified-unambiguous member column, array-backed.

    ``cells[cid]`` indexes the interned ``slots`` pool (``-1`` = member
    not visible in that class); ``witnesses[cid]`` is the kernel's
    witness cons cell; ``results[cid]`` memoises the public
    :class:`~repro.core.results.LookupResult`.  All three are indexed
    by dense class id and grown in lockstep by :meth:`ensure_size`.
    """

    __slots__ = (
        "mid",
        "cells",
        "slots",
        "witnesses",
        "results",
        "populated",
        "_slot_ids",
    )

    def __init__(self, mid: int, n_classes: int) -> None:
        self.mid = mid
        self.cells = array("q", [-1]) * n_classes
        self.slots: list[tuple[int, int]] = []
        self.witnesses: list[object] = [None] * n_classes
        self.results: list[Optional[LookupResult]] = [None] * n_classes
        self.populated = 0
        self._slot_ids: dict[tuple[int, int], int] = {}

    def __len__(self) -> int:
        """Number of populated (visible) cells — maintained
        incrementally by :meth:`set_cell`, so this is O(1), not an
        O(|classes|) scan (``FlatTable.flat_cells`` sums it per
        column)."""
        return self.populated

    def copy(self) -> "FlatColumn":
        """A private duplicate — the copy-on-write unit of snapshot
        publishing.  The arrays and the slot pool are fresh containers,
        so mutating the copy never touches this column; the witness cons
        cells and memoised results they hold are immutable values and
        stay shared by reference."""
        dup = FlatColumn.__new__(FlatColumn)
        dup.mid = self.mid
        dup.cells = array("q", self.cells)
        dup.slots = list(self.slots)
        dup.witnesses = list(self.witnesses)
        dup.results = list(self.results)
        dup.populated = self.populated
        dup._slot_ids = dict(self._slot_ids)
        return dup

    def ensure_size(self, n_classes: int) -> None:
        """Extend the arrays for class ids appended since the build;
        new classes start invisible (``-1``) until a cone update or
        flatten writes them."""
        grow = n_classes - len(self.cells)
        if grow > 0:
            self.cells.extend(array("q", [-1]) * grow)
            self.witnesses.extend([None] * grow)
            self.results.extend([None] * grow)

    def set_cell(self, cid: int, entry) -> None:
        """Write one class's cell from a kernel entry (``None`` = not
        visible; red tuple otherwise), dropping any memoised result."""
        old = self.cells[cid]
        self.results[cid] = None
        if entry is None:
            if old >= 0:
                self.populated -= 1
            self.cells[cid] = -1
            self.witnesses[cid] = None
            return
        if type(entry) is not tuple:
            raise AmbiguousColumnError(self.mid, cid)
        if old < 0:
            self.populated += 1
        pair = (entry[0], entry[1])
        slot = self._slot_ids.get(pair)
        if slot is None:
            slot = self._slot_ids[pair] = len(self.slots)
            self.slots.append(pair)
        self.cells[cid] = slot
        self.witnesses[cid] = entry[2]

    def result_at(
        self,
        ch: CompiledHierarchy,
        cid: int,
        class_name: str,
        member: str,
    ) -> LookupResult:
        """Serve ``lookup(C, m)`` from the flat cell — two list indexes
        once memoised; on the first query of a cell, materialise (and
        memoise) the result, sharing the witness cons chain with the
        kernel rows so the answer is value-identical to the row path's."""
        if cid >= len(self.cells):
            # A class id appended after this column's arrays were sized:
            # a snapshot child shares unaffected columns with its parent
            # without regrowing them, which is sound because the delta's
            # member mask contains every member visible in a new class —
            # an unaffected column therefore has no visible cell there.
            return not_found_result(class_name, member)
        result = self.results[cid]
        if result is None:
            slot = self.cells[cid]
            if slot < 0:
                result = not_found_result(class_name, member)
            else:
                ldc_id, lv_id = self.slots[slot]
                cell = self.witnesses[cid]
                result = unique_result(
                    class_name,
                    member,
                    declaring_class=ch.class_names[ldc_id],
                    least_virtual=abstraction_name(ch, lv_id),
                    witness=(
                        witness_path(ch, cell) if cell is not None else None
                    ),
                )
            self.results[cid] = result
        return result


def flatten_column(
    ch: CompiledHierarchy, mid: int, entry_at: EntryAt
) -> FlatColumn:
    """Materialise one certified-unambiguous column into a
    :class:`FlatColumn`, visiting only the classes the member is
    visible in (:meth:`CompiledHierarchy.classes_with_member` — the
    §5 ``O(|N| + |E|)`` per-member footprint, not an ``O(|N|·|M|)``
    scan).  Raises :class:`AmbiguousColumnError` on any blue entry —
    flattening trusts, but verifies, the caller's certificate."""
    column = FlatColumn(mid, ch.n_classes)
    remaining = ch.classes_with_member(mid)
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        cid = low.bit_length() - 1
        entry = entry_at(cid, mid)
        if entry is not None:
            column.set_cell(cid, entry)
    return column


class FlatTable:
    """The flat serving overlay of one table: flat columns keyed by
    member id, behind the persistent demote-only ambiguity mask.

    ``ambiguous_columns`` is monotone under delta maintenance: build
    certificates prove the whole table, but a cone certificate proves
    only the cone, so a bit once set never clears — an out-of-cone blue
    the cone sweep never saw must keep its column demoted forever.
    """

    __slots__ = ("columns", "ambiguous_columns", "stats")

    def __init__(self, ambiguous_columns: int = 0) -> None:
        self.columns: dict[int, FlatColumn] = {}
        self.ambiguous_columns = ambiguous_columns
        self.stats = FastPathStats()

    @property
    def flat_column_count(self) -> int:
        return len(self.columns)

    @property
    def ambiguous_column_count(self) -> int:
        return bin(self.ambiguous_columns).count("1")

    @property
    def flat_cells(self) -> int:
        """Total populated cells across every flat column."""
        return sum(len(column) for column in self.columns.values())

    def column_is_flat(self, mid: int) -> bool:
        return mid in self.columns

    def serve(
        self,
        ch: CompiledHierarchy,
        cid: int,
        mid: int,
        class_name: str,
        member: str,
    ) -> Optional[LookupResult]:
        """The flat answer for ``(cid, mid)``, or ``None`` when the
        column is not flat (the caller falls back to its full path).
        Counts the hit either way."""
        column = self.columns.get(mid)
        if column is None:
            self.stats.fallback_hits += 1
            return None
        self.stats.flat_hits += 1
        return column.result_at(ch, cid, class_name, member)

    def apply_delta(
        self,
        ch: CompiledHierarchy,
        cone_ids: list,
        member_ids,
        certificate: AmbiguityCertificate,
        entry_at: EntryAt,
    ) -> "FlatTable":
        """Bring the overlay current after the owner re-folded its cone.

        Merges the cone certificate into the persistent mask, then per
        affected member: demote (drop the flat column) if its bit is
        now set; rewrite just the cone cells if it stayed red; flatten
        from scratch if it is a brand-new column (first declared by
        this delta — its whole footprint is in the cone, so the cone
        certificate covers it entirely).

        Nothing reachable from ``self`` is written: the returned
        :class:`FlatTable` shares unaffected :class:`FlatColumn` objects
        with this one by reference and replaces affected columns with
        :meth:`FlatColumn.copy` duplicates before rewriting them.
        Shared columns are *not* regrown — :meth:`FlatColumn.result_at`
        bounds-guards appended class ids instead, sound because the
        delta's member mask contains every member visible in a new
        class.  The returned table's counters continue this table's, so
        demotions/promotions/cone-updates stay monotone along a
        snapshot chain.
        """
        target = FlatTable(self.ambiguous_columns)
        target.columns = dict(self.columns)
        target.stats = FastPathStats(**vars(self.stats))
        target.ambiguous_columns |= certificate.ambiguous_columns
        stats = target.stats
        for mid in member_ids:
            if (target.ambiguous_columns >> mid) & 1:
                if target.columns.pop(mid, None) is not None:
                    stats.demotions += 1
                continue
            column = target.columns.get(mid)
            if column is None:
                target.columns[mid] = flatten_column(ch, mid, entry_at)
                stats.promotions += 1
            else:
                column = target.columns[mid] = column.copy()
                column.ensure_size(ch.n_classes)
                for cid in cone_ids:
                    column.set_cell(cid, entry_at(cid, mid))
                stats.cone_updates += 1
        return target


def build_flat_table(
    ch: CompiledHierarchy,
    certificate: AmbiguityCertificate,
    entry_at: EntryAt,
) -> FlatTable:
    """Flatten every column the build certificate proved unambiguous.
    Columns with their certificate bit set stay with the full red/blue
    structures; the returned table's mask seeds the persistent
    demote-only mask."""
    table = FlatTable(ambiguous_columns=certificate.ambiguous_columns)
    for mid in range(ch.n_members):
        if (certificate.ambiguous_columns >> mid) & 1:
            continue
        table.columns[mid] = flatten_column(ch, mid, entry_at)
    return table
