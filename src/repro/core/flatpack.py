"""Memory-mapped flat table format — O(mmap) cold start.

Rebuilding a lookup table is O(table) in interpreter time, and a
serving process that restarts constantly pays that price on every
boot.  This module defines **flatpack**, the persisted form of a
lookup table: a versioned flat binary layout of the complete serving
state, designed so that opening a table is one ``mmap`` call plus a
header validation — no per-entry work at all:

* a fixed header (magic, format version, byte-order mark, the source
  graph's **generation counter**, the dispatch-semantics rule name, the
  structural counts, and a section offset table);
* an interned string pool — class and member names as offset-indexed
  UTF-8 blobs;
* the CSR arrays of the :class:`~repro.hierarchy.compiled
  .CompiledHierarchy` (adjacency, topo order, declaration lists, the
  virtual-base / declared / visible bitmask matrices);
* the :class:`~repro.core.kernel.AmbiguityCertificate` demote mask;
* the :class:`~repro.core.columnar.EntryPool` slots (red ``(ldc, lv)``
  pairs and blue abstraction/candidate sets as flat int runs);
* the shared witness cons-cell pool plus, per member, the dense
  columnar entry-id and witness-id arrays of
  :class:`~repro.core.columnar.ColumnarTable`.

:func:`pack` writes a snapshot-backed table out; :func:`mmap_table`
maps one back in as a :class:`PackedTable` that serves ``lookup`` /
``lookup_many`` straight off the buffer: column cells are zero-copy
``memoryview.cast('q')`` views of the mapped pages (numpy ``frombuffer``
accelerates the bookkeeping when available), columns load lazily on
first touch, and :class:`~repro.core.results.LookupResult` objects and
witness paths materialise lazily through the *same*
:class:`~repro.core.columnar.ColumnarTable` serving code the live table
uses — so answers are value-identical by construction, first-query
latency stays bounded by one column, and pages of untouched members
never fault in.

The embedded generation counter makes a mmapped base a first-class
snapshot-chain parent: :meth:`PackedTable.to_snapshot` wraps the buffer
in a real :class:`~repro.core.snapshot.TableSnapshot` (rows are lazy
pack-backed shells), so a warm process can compare generations against
its live graph and ``apply_delta`` forward copy-on-write — cone slabs
heap-allocated, everything out-of-cone still backed by the file.
:meth:`PackedTable.to_table` goes one step further and rebuilds the
mutable :class:`~repro.hierarchy.graph.ClassHierarchyGraph` (member
*names* only — declaration kinds/access do not influence lookup and are
not stored), returning a ready :class:`~repro.core.lookup
.MemberLookupTable` writer seeded from the pack.

Malformed input (wrong magic, unsupported version, foreign byte order,
truncated sections, an unregistered semantics rule) raises
:class:`TableSerializationError` at open time.
"""

from __future__ import annotations

import mmap
import struct
from typing import Optional, Union

import repro.core.columnar as columnar_mod
from repro.core.columnar import ColumnarColumn, ColumnarTable, EntryPool
from repro.core.kernel import (
    AmbiguityCertificate,
    KernelBlue,
    abstraction_ids,
    abstraction_mask,
)
from repro.core.results import LookupResult
from repro.core.semantics import Semantics, get_semantics
from repro.core.snapshot import TableSnapshot
from repro.errors import ReproError, UnknownClassError
from repro.hierarchy.compiled import CompiledHierarchy
from repro.hierarchy.graph import ClassHierarchyGraph

from array import array

__all__ = [
    "FLATPACK_MAGIC",
    "FLATPACK_VERSION",
    "PackedTable",
    "TableSerializationError",
    "mmap_table",
    "pack",
]


class TableSerializationError(ReproError):
    """The file is not a valid flatpack table."""


FLATPACK_MAGIC = b"RPFLATPK"
FLATPACK_VERSION = 1

#: Written (and checked) as a native u32: a pack produced on a
#: different-endian machine fails the check instead of serving garbage.
_BYTEORDER_MARK = 0x01020304

_FLAG_TRACK_WITNESSES = 1

#: version, byte-order mark, flags, semantics-name length, then the
#: structural counts: generation, n_classes, n_members, n_edges,
#: n_slots, n_slot_values, n_witness_cells, n_columns, entry_total,
#: blue_cells.
_HEAD = struct.Struct("=IIII10q")
_SECTION = struct.Struct("=qq")

# Section indices of the offset table (order is part of the format).
(
    _SEC_CLASS_OFFS,
    _SEC_CLASS_BLOB,
    _SEC_MEMBER_OFFS,
    _SEC_MEMBER_BLOB,
    _SEC_BASE_OFFSETS,
    _SEC_BASE_TARGETS,
    _SEC_BASE_VIRTUAL,
    _SEC_TOPO_ORDER,
    _SEC_DECL_OFFS,
    _SEC_DECL_VALS,
    _SEC_VB_MASKS,
    _SEC_DECL_MASKS,
    _SEC_VIS_MASKS,
    _SEC_CERT_MASK,
    _SEC_SLOT_OFFS,
    _SEC_SLOT_VALS,
    _SEC_WIT_CLASS,
    _SEC_WIT_VIRTUAL,
    _SEC_WIT_PREV,
    _SEC_COLUMN_DIR,
    _SEC_COLUMN_CELLS,
    _SEC_COLUMN_WITS,
) = range(22)
_N_SECTIONS = 22


def _pad8(n: int) -> int:
    return (8 - n % 8) % 8


def _name_pool(names) -> tuple[bytes, bytes]:
    """Offset-indexed UTF-8 string pool: ``offsets[i]:offsets[i+1]``
    slices the blob to name ``i``."""
    offsets = array("q", [0])
    chunks = []
    total = 0
    for name in names:
        raw = name.encode("utf-8")
        chunks.append(raw)
        total += len(raw)
        offsets.append(total)
    return offsets.tobytes(), b"".join(chunks)


def _mask_matrix(masks, stride: int) -> bytes:
    """Python-int bitmasks as fixed-stride little-endian byte rows."""
    return b"".join(mask.to_bytes(stride, "little") for mask in masks)


def _snapshot_of(table) -> TableSnapshot:
    if isinstance(table, TableSnapshot):
        return table
    snapshot = getattr(table, "snapshot", None)
    if snapshot is None:
        raise ValueError(
            "pack() needs a snapshot-backed table (mode 'batched'); "
            "the in-place per-member table has no published snapshot "
            "to pack"
        )
    return snapshot


def pack(table, path) -> int:
    """Write ``table`` (a snapshot-backed
    :class:`~repro.core.lookup.MemberLookupTable` or a
    :class:`~repro.core.snapshot.TableSnapshot`) to ``path`` in the
    flatpack format.  Returns the number of bytes written.

    The ambiguity mask and blue-cell count are recomputed from the
    packed cells (the whole-table truth at this generation, not the
    chain-accumulated diagnostic), so equal tables pack to equal
    certificates regardless of their delta history.
    """
    snapshot = _snapshot_of(table)
    ch = snapshot.ch
    if not isinstance(ch, CompiledHierarchy):
        raise ValueError("pack() needs a CompiledHierarchy-backed snapshot")
    columnar = snapshot.columnar_table()

    n = ch.n_classes
    n_members = ch.n_members
    pool = columnar.pool

    # --- witness cons-cell pool (deduped by identity; chains shared
    # across columns serialize once) --------------------------------
    wit_ids: dict[int, int] = {}
    wit_cells: list = []  # keeps the id()-keyed cells alive
    wit_class = array("q")
    wit_virtual = array("b")
    wit_prev = array("q")

    def wit_index(cell) -> int:
        chain = []
        cursor = cell
        while cursor is not None and id(cursor) not in wit_ids:
            chain.append(cursor)
            cursor = cursor[2]
        prev = -1 if cursor is None else wit_ids[id(cursor)]
        for node in reversed(chain):
            prev = wit_ids[id(node)] = len(wit_cells)
            wit_cells.append(node)
            wit_class.append(node[0])
            wit_virtual.append(1 if node[1] else 0)
            wit_prev.append(-1 if node[2] is None else wit_ids[id(node[2])])
        return prev

    # --- dense columns + the recomputed certificate -----------------
    column_dir = array("q", [-1]) * n_members
    cells_rows = []
    wits_rows = []
    slots = pool.slots
    amb_mask = 0
    blue_cells = 0
    for index, mid in enumerate(sorted(columnar.columns)):
        column = columnar.columns[mid]
        column_dir[mid] = index
        cells = column.cells
        witnesses = column.witnesses
        short = len(cells)  # COW children may share short parent arrays
        row = array("q", [-1]) * n
        wrow = array("q", [-1]) * n
        for cid in range(min(short, n)):
            sid = cells[cid]
            if sid < 0:
                continue
            row[cid] = sid
            if type(slots[sid]) is tuple:
                cell = witnesses[cid] if cid < len(witnesses) else None
                if cell is not None:
                    wrow[cid] = wit_index(cell)
            else:
                amb_mask |= 1 << mid
                blue_cells += 1
        cells_rows.append(row.tobytes())
        wits_rows.append(wrow.tobytes())
    n_columns = len(cells_rows)

    # --- entry-pool slots as flat int runs --------------------------
    slot_offsets = array("q", [0])
    slot_values = array("q")
    for slot in slots:
        if type(slot) is tuple:
            slot_values.extend((0, slot[0], slot[1]))
        else:
            abstractions = abstraction_ids(slot[0])
            candidates = sorted(slot[1])
            slot_values.append(1)
            slot_values.append(len(abstractions))
            slot_values.append(len(candidates))
            slot_values.extend(abstractions)
            slot_values.extend(candidates)
        slot_offsets.append(len(slot_values))

    # --- sections ---------------------------------------------------
    class_offs, class_blob = _name_pool(ch.class_names)
    member_offs, member_blob = _name_pool(ch.member_names)
    decl_offsets = array("q", [0])
    decl_values = array("q")
    for mids in ch.declared_mids:
        decl_values.extend(mids)
        decl_offsets.append(len(decl_values))
    class_stride = (n + 7) // 8
    member_stride = (n_members + 7) // 8 or 1

    sections: list[bytes] = [b""] * _N_SECTIONS
    sections[_SEC_CLASS_OFFS] = class_offs
    sections[_SEC_CLASS_BLOB] = class_blob
    sections[_SEC_MEMBER_OFFS] = member_offs
    sections[_SEC_MEMBER_BLOB] = member_blob
    sections[_SEC_BASE_OFFSETS] = ch.base_offsets.tobytes()
    sections[_SEC_BASE_TARGETS] = ch.base_targets.tobytes()
    sections[_SEC_BASE_VIRTUAL] = ch.base_virtual.tobytes()
    sections[_SEC_TOPO_ORDER] = array("q", ch.topo_order).tobytes()
    sections[_SEC_DECL_OFFS] = decl_offsets.tobytes()
    sections[_SEC_DECL_VALS] = decl_values.tobytes()
    sections[_SEC_VB_MASKS] = _mask_matrix(
        ch.virtual_base_masks, class_stride
    )
    sections[_SEC_DECL_MASKS] = _mask_matrix(
        ch.declared_masks, member_stride
    )
    sections[_SEC_VIS_MASKS] = _mask_matrix(ch.visible_masks, member_stride)
    sections[_SEC_CERT_MASK] = amb_mask.to_bytes(member_stride, "little")
    sections[_SEC_SLOT_OFFS] = slot_offsets.tobytes()
    sections[_SEC_SLOT_VALS] = slot_values.tobytes()
    sections[_SEC_WIT_CLASS] = wit_class.tobytes()
    sections[_SEC_WIT_VIRTUAL] = wit_virtual.tobytes()
    sections[_SEC_WIT_PREV] = wit_prev.tobytes()
    sections[_SEC_COLUMN_DIR] = column_dir.tobytes()
    sections[_SEC_COLUMN_CELLS] = b"".join(cells_rows)
    sections[_SEC_COLUMN_WITS] = b"".join(wits_rows)

    semantics_raw = snapshot.semantics.name.encode("utf-8")
    flags = _FLAG_TRACK_WITNESSES if snapshot.track_witnesses else 0
    head = FLATPACK_MAGIC + _HEAD.pack(
        FLATPACK_VERSION,
        _BYTEORDER_MARK,
        flags,
        len(semantics_raw),
        ch.generation,
        n,
        n_members,
        len(ch.base_targets),
        len(slots),
        len(slot_values),
        len(wit_cells),
        n_columns,
        snapshot.entry_total,
        blue_cells,
    ) + semantics_raw
    head += b"\0" * _pad8(len(head))

    position = len(head) + _N_SECTIONS * _SECTION.size
    directory = []
    body = []
    for section in sections:
        directory.append(_SECTION.pack(position, len(section)))
        body.append(section)
        padding = _pad8(len(section))
        body.append(b"\0" * padding)
        position += len(section) + padding

    blob = b"".join([head, *directory, *body])
    with open(path, "wb") as handle:
        handle.write(blob)
    return len(blob)


def mmap_table(path) -> "PackedTable":
    """Open a flatpack file as a servable :class:`PackedTable` — one
    ``mmap`` plus header validation, no per-entry work."""
    return PackedTable(path)


class _PackInterner:
    """The duck-typed sliver of :class:`~repro.hierarchy.compiled
    .CompiledHierarchy` the columnar serving path reads: dense name
    tables and their inverse id maps.  Decoded once per pack, on the
    first query."""

    __slots__ = ("class_names", "class_ids", "member_names", "member_ids")

    def __init__(self, class_names, member_names) -> None:
        self.class_names = class_names
        self.class_ids = {name: cid for cid, name in enumerate(class_names)}
        self.member_names = member_names
        self.member_ids = {
            name: mid for mid, name in enumerate(member_names)
        }


class _PackColumnarTable(ColumnarTable):
    """A :class:`~repro.core.columnar.ColumnarTable` whose columns load
    lazily from the mmapped buffer: cells are zero-copy views of the
    file, result/witness materialisation is inherited unchanged, so
    answers are value-identical to the live table's.  ``set_cell`` only
    ever runs on :meth:`ColumnarColumn.copy` duplicates (real heap
    arrays), so the read-only mapping is never written."""

    __slots__ = ("_pack",)

    def __init__(self, pack: "PackedTable", use_numpy=None) -> None:
        super().__init__(
            pack.n_classes, use_numpy=use_numpy, pool=pack._entry_pool()
        )
        self._pack = pack

    def _ensure(self, mid: int) -> None:
        if mid not in self.columns:
            column = self._pack._load_column(mid, self.use_numpy)
            if column is not None:
                self.columns[mid] = column

    def load_all(self) -> None:
        """Fault every column in — the price of becoming a delta
        parent: ``apply_delta`` shares unaffected columns by reference,
        so they must all exist first."""
        for mid in self._pack._packed_mids():
            self._ensure(mid)

    def _gather_source(self, ch, member, group_size):
        mid = ch.member_ids.get(member)
        if mid is not None:
            self._ensure(mid)
        return super()._gather_source(ch, member, group_size)

    def _result_one(self, ch, cid, class_name, member):
        mid = ch.member_ids.get(member)
        if mid is not None:
            self._ensure(mid)
        return super()._result_one(ch, cid, class_name, member)

    def apply_delta(self, ch, cone_ids, member_ids, entry_at):
        self.load_all()
        return super().apply_delta(ch, cone_ids, member_ids, entry_at)


class _PackedRow:
    """One class's lazy row shell for :meth:`PackedTable.to_snapshot`:
    quacks like the sweep's ``{mid: kernel entry}`` dict but reads the
    pack on first real access.  ``len``/truthiness answer from the
    visible-mask popcount without materialising; ``dict(row)`` (the
    cone sweep's copy-on-write entry) goes through ``keys`` +
    ``__getitem__`` and lands on a plain heap dict."""

    __slots__ = ("_pack", "_cid", "_data")

    def __init__(self, pack: "PackedTable", cid: int) -> None:
        self._pack = pack
        self._cid = cid
        self._data = None

    def _load(self) -> dict:
        data = self._data
        if data is None:
            data = self._data = self._pack._row_entries(self._cid)
        return data

    def __len__(self) -> int:
        data = self._data
        if data is not None:
            return len(data)
        return self._pack._row_size(self._cid)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __contains__(self, mid) -> bool:
        return mid in self._load()

    def __iter__(self):
        return iter(self._load())

    def __getitem__(self, mid):
        return self._load()[mid]

    def get(self, mid, default=None):
        return self._load().get(mid, default)

    def keys(self):
        return self._load().keys()

    def values(self):
        return self._load().values()

    def items(self):
        return self._load().items()


class PackedTable:
    """A lookup table served straight off a mmapped flatpack file.

    ``lookup`` / ``lookup_many`` run the columnar serving kernel over
    zero-copy views of the mapped pages; names, the entry pool, and
    each member column decode lazily on first touch and stay memoised.
    :meth:`thaw_hierarchy` / :meth:`to_snapshot` / :meth:`to_table`
    promote the pack to progressively more live forms for delta
    roll-forward (see the module docstring).
    """

    def __init__(self, path) -> None:
        self.path = str(path)
        try:
            with open(self.path, "rb") as handle:
                self._mmap = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        except ValueError as exc:  # zero-length file cannot be mapped
            raise TableSerializationError(
                f"not a flatpack table (empty file): {self.path}"
            ) from exc
        self._buf = memoryview(self._mmap)
        self._closed = False
        self._interner_memo: Optional[_PackInterner] = None
        self._pool_memo: Optional[EntryPool] = None
        self._columnar_memo: Optional[_PackColumnarTable] = None
        self._wit_memo: Optional[list] = None
        self._hierarchy_memo: Optional[CompiledHierarchy] = None
        self._snapshot_memo: Optional[TableSnapshot] = None
        self._validate()

    # ------------------------------------------------------------------
    # Open-time validation
    # ------------------------------------------------------------------

    def _corrupt(self, why: str) -> TableSerializationError:
        return TableSerializationError(
            f"corrupt flatpack table ({why}): {self.path}"
        )

    def _validate(self) -> None:
        buf = self._buf
        size = len(buf)
        fixed = len(FLATPACK_MAGIC) + _HEAD.size
        if size < fixed:
            raise self._corrupt("truncated header")
        if bytes(buf[: len(FLATPACK_MAGIC)]) != FLATPACK_MAGIC:
            raise TableSerializationError(
                f"not a flatpack table (bad magic): {self.path}"
            )
        (
            version,
            mark,
            flags,
            semantics_len,
            self.generation,
            self._n_classes,
            self._n_members,
            self._n_edges,
            self._n_slots,
            self._n_slot_values,
            self._n_wit,
            self._n_columns,
            self.entry_total,
            self.blue_cells,
        ) = _HEAD.unpack_from(buf, len(FLATPACK_MAGIC))
        if version != FLATPACK_VERSION:
            raise TableSerializationError(
                f"unsupported flatpack version {version} "
                f"(this build reads version {FLATPACK_VERSION}): {self.path}"
            )
        if mark != _BYTEORDER_MARK:
            raise self._corrupt("foreign byte order")
        counts = (
            self._n_classes,
            self._n_members,
            self._n_edges,
            self._n_slots,
            self._n_slot_values,
            self._n_wit,
            self._n_columns,
            self.entry_total,
            self.blue_cells,
        )
        if any(count < 0 for count in counts) or semantics_len < 0:
            raise self._corrupt("negative count")
        self.track_witnesses = bool(flags & _FLAG_TRACK_WITNESSES)

        cursor = fixed
        if cursor + semantics_len > size:
            raise self._corrupt("truncated semantics name")
        try:
            name = str(bytes(buf[cursor : cursor + semantics_len]), "utf-8")
        except UnicodeDecodeError as exc:
            raise self._corrupt("undecodable semantics name") from exc
        try:
            self.semantics: Semantics = get_semantics(name)
        except ValueError as exc:
            raise TableSerializationError(
                f"flatpack table built under unknown semantics rule "
                f"{name!r}: {self.path}"
            ) from exc
        cursor += semantics_len
        cursor += _pad8(cursor)

        if cursor + _N_SECTIONS * _SECTION.size > size:
            raise self._corrupt("truncated section table")
        self._sections = []
        for index in range(_N_SECTIONS):
            offset, length = _SECTION.unpack_from(
                buf, cursor + index * _SECTION.size
            )
            if offset < 0 or length < 0 or offset + length > size:
                raise self._corrupt(f"section {index} out of bounds")
            self._sections.append((offset, length))

        n = self._n_classes
        m = self._n_members
        self._class_stride = (n + 7) // 8
        self._member_stride = (m + 7) // 8 or 1
        expected = {
            _SEC_CLASS_OFFS: 8 * (n + 1),
            _SEC_MEMBER_OFFS: 8 * (m + 1),
            _SEC_BASE_OFFSETS: 8 * (n + 1),
            _SEC_BASE_TARGETS: 8 * self._n_edges,
            _SEC_BASE_VIRTUAL: self._n_edges,
            _SEC_TOPO_ORDER: 8 * n,
            _SEC_DECL_OFFS: 8 * (n + 1),
            _SEC_VB_MASKS: self._class_stride * n,
            _SEC_DECL_MASKS: self._member_stride * n,
            _SEC_VIS_MASKS: self._member_stride * n,
            _SEC_CERT_MASK: self._member_stride,
            _SEC_SLOT_OFFS: 8 * (self._n_slots + 1),
            _SEC_SLOT_VALS: 8 * self._n_slot_values,
            _SEC_WIT_CLASS: 8 * self._n_wit,
            _SEC_WIT_VIRTUAL: self._n_wit,
            _SEC_WIT_PREV: 8 * self._n_wit,
            _SEC_COLUMN_DIR: 8 * m,
            _SEC_COLUMN_CELLS: 8 * self._n_columns * n,
            _SEC_COLUMN_WITS: 8 * self._n_columns * n,
        }
        for index, length in expected.items():
            if self._sections[index][1] != length:
                raise self._corrupt(f"section {index} has the wrong length")

    # ------------------------------------------------------------------
    # Buffer access
    # ------------------------------------------------------------------

    def _bytes(self, section: int):
        offset, length = self._sections[section]
        return self._buf[offset : offset + length]

    def _ints(self, section: int):
        """A zero-copy int64 view of one section."""
        return self._bytes(section).cast("q")

    @property
    def n_classes(self) -> int:
        return self._n_classes

    @property
    def n_members(self) -> int:
        return self._n_members

    @property
    def certificate(self) -> AmbiguityCertificate:
        """The packed demote mask, as a fresh certificate object."""
        mask = int.from_bytes(bytes(self._bytes(_SEC_CERT_MASK)), "little")
        return AmbiguityCertificate(
            ambiguous_columns=mask, blue_cells=self.blue_cells
        )

    def close(self) -> None:
        """Release the mapping.  Loaded columns hold zero-copy views of
        the buffer; the underlying pages stay alive until those views
        are garbage-collected, so closing a served table is safe — the
        OS unmaps once the last view drops."""
        if self._closed:
            return
        self._closed = True
        self._columnar_memo = None
        self._snapshot_memo = None
        self._buf = None
        try:
            self._mmap.close()
        except BufferError:
            pass  # exported views keep the mapping alive; GC finishes it

    def __enter__(self) -> "PackedTable":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Lazy decoding
    # ------------------------------------------------------------------

    def _decode_names(self, offs_section: int, blob_section: int, count):
        offsets = self._ints(offs_section)
        blob = self._bytes(blob_section)
        return tuple(
            str(bytes(blob[offsets[i] : offsets[i + 1]]), "utf-8")
            for i in range(count)
        )

    def _interner(self) -> _PackInterner:
        interner = self._interner_memo
        if interner is None:
            interner = self._interner_memo = _PackInterner(
                self._decode_names(
                    _SEC_CLASS_OFFS, _SEC_CLASS_BLOB, self._n_classes
                ),
                self._decode_names(
                    _SEC_MEMBER_OFFS, _SEC_MEMBER_BLOB, self._n_members
                ),
            )
        return interner

    def _entry_pool(self) -> EntryPool:
        """The interned entry slots, rebuilt once in slot-id order so
        every packed cell id stays valid."""
        pool = self._pool_memo
        if pool is None:
            pool = EntryPool()
            offsets = self._ints(_SEC_SLOT_OFFS)
            values = self._ints(_SEC_SLOT_VALS)
            for sid in range(self._n_slots):
                at = offsets[sid]
                kind = values[at]
                if kind == 0:
                    key = (values[at + 1], values[at + 2])
                elif kind == 1:
                    n_abs = values[at + 1]
                    n_cand = values[at + 2]
                    split = at + 3 + n_abs
                    key = KernelBlue(
                        abstractions=abstraction_mask(values[at + 3 : split]),
                        candidate_ldcs=frozenset(
                            values[split : split + n_cand]
                        ),
                    )
                else:
                    raise self._corrupt(f"unknown slot kind {kind}")
                pool.intern(key)
            self._pool_memo = pool
        return pool

    def _wit_pool(self) -> list:
        """The decoded witness cons-cell pool, memoised on first touch.

        The writer emits every cell *after* its ``prev`` (the chain walk
        appends parents first), so ``wit_prev[i] < i`` always holds and
        one linear pass rebuilds the whole shared forest — no recursion,
        no per-cell dispatch; shared chain prefixes are physically
        shared tuples, exactly as the live kernel builds them."""
        memo = self._wit_memo
        if memo is None:
            wit_class = self._ints(_SEC_WIT_CLASS)
            wit_virtual = self._bytes(_SEC_WIT_VIRTUAL)
            wit_prev = self._ints(_SEC_WIT_PREV)
            memo = []
            append = memo.append
            for at in range(self._n_wit):
                prev = wit_prev[at]
                if prev >= at:
                    raise self._corrupt("witness pool is not topological")
                append(
                    (
                        wit_class[at],
                        wit_virtual[at] != 0,
                        memo[prev] if prev >= 0 else None,
                    )
                )
            self._wit_memo = memo
        return memo

    def _wit_cell(self, index: int):
        """The witness cons cell at pool index ``index``."""
        return self._wit_pool()[index]

    def _packed_mids(self):
        directory = self._ints(_SEC_COLUMN_DIR)
        return [
            mid for mid in range(self._n_members) if directory[mid] >= 0
        ]

    def _load_column(
        self, mid: int, use_numpy: bool
    ) -> Optional[ColumnarColumn]:
        """One member's :class:`~repro.core.columnar.ColumnarColumn`
        over zero-copy cells: the ``array('q')`` slot ids are served as
        a ``memoryview.cast('q')`` of the mapped pages (every reader —
        gather materialisation, the guarded scalar path, COW ``copy`` —
        already speaks memoryview).  Witness cons cells decode eagerly
        per column from the shared pool; results stay lazy."""
        directory = self._ints(_SEC_COLUMN_DIR)
        index = directory[mid]
        if index < 0:
            return None
        n = self._n_classes
        offset, _length = self._sections[_SEC_COLUMN_CELLS]
        cells = self._buf[
            offset + 8 * index * n : offset + 8 * (index + 1) * n
        ].cast("q")
        woffset, _wlength = self._sections[_SEC_COLUMN_WITS]
        wits = self._buf[
            woffset + 8 * index * n : woffset + 8 * (index + 1) * n
        ].cast("q")

        column = ColumnarColumn.__new__(ColumnarColumn)
        column.mid = mid
        column.cells = cells
        column.ready = False
        if columnar_mod.HAVE_NUMPY and use_numpy:
            arr = columnar_mod._np.frombuffer(cells, dtype=columnar_mod._np.int64)
            column.populated = int((arr >= 0).sum())
            column.results = columnar_mod._np.empty(n, dtype=object)
        else:
            column.populated = sum(1 for sid in cells if sid >= 0)
            column.results = [None] * n
        if self.track_witnesses and self._n_wit:
            pool = self._wit_pool()
            column.witnesses = [
                None if at < 0 else pool[at] for at in wits
            ]
        else:
            column.witnesses = [None] * n
        return column

    def _columnar(self) -> _PackColumnarTable:
        table = self._columnar_memo
        if table is None:
            table = self._columnar_memo = _PackColumnarTable(self)
        return table

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def lookup(self, class_name: str, member: str) -> LookupResult:
        """``lookup(C, m)`` off the mapped buffer; raises
        :class:`~repro.errors.UnknownClassError` for a class the packed
        generation has never heard of, like every snapshot reader."""
        interner = self._interner()
        cid = interner.class_ids.get(class_name)
        if cid is None:
            raise UnknownClassError(class_name)
        return self._columnar()._result_one(
            interner, cid, class_name, member
        )

    def lookup_many(self, queries) -> list[LookupResult]:
        """A batch off the mapped buffer through the columnar gather —
        same grouping, same materialisation, same results as the live
        table's ``lookup_many``."""
        return self._columnar().lookup_many(self._interner(), queries)

    def visible_members(self, class_name: str) -> tuple[str, ...]:
        """``Members[C]`` at the packed generation, in the live table's
        deterministic order (declaration order is preserved by the
        packed declaration lists)."""
        ch = self.thaw_hierarchy()
        cid = ch.class_ids[class_name]
        names = ch.member_names
        return tuple(names[mid] for mid in ch.ordered_visible(cid))

    def stats(self):
        """The serving columnar table's counters (lazy — ``None`` until
        the first query)."""
        table = self._columnar_memo
        return table.stats if table is not None else None

    # ------------------------------------------------------------------
    # Roll-forward: pack -> hierarchy -> snapshot -> writer table
    # ------------------------------------------------------------------

    def thaw_hierarchy(self) -> CompiledHierarchy:
        """Reconstruct the full :class:`~repro.hierarchy.compiled
        .CompiledHierarchy` from the packed CSR arrays — flat ``array``
        memcpys plus per-class mask decodes, no graph traversal.  The
        result is detached (``source is None``) exactly like an
        unpickled snapshot; ``describe_delta`` against an independently
        compiled graph takes its prefix-checking slow path, which is
        what pack roll-forward rides."""
        ch = self._hierarchy_memo
        if ch is not None:
            return ch
        interner = self._interner()
        n = self._n_classes
        ch = CompiledHierarchy()
        ch.source = None
        ch.generation = self.generation
        ch.class_names = interner.class_names
        ch.class_ids = dict(interner.class_ids)
        ch.member_names = interner.member_names
        ch.member_ids = dict(interner.member_ids)

        base_offsets = array("q")
        base_offsets.frombytes(bytes(self._bytes(_SEC_BASE_OFFSETS)))
        base_targets = array("q")
        base_targets.frombytes(bytes(self._bytes(_SEC_BASE_TARGETS)))
        base_virtual = array("b")
        base_virtual.frombytes(bytes(self._bytes(_SEC_BASE_VIRTUAL)))
        ch.base_offsets = base_offsets
        ch.base_targets = base_targets
        ch.base_virtual = base_virtual
        base_pairs = []
        derived_lists: list[list] = [[] for _ in range(n)]
        for cid in range(n):
            low, high = base_offsets[cid], base_offsets[cid + 1]
            pairs = tuple(
                (base_targets[at], base_virtual[at])
                for at in range(low, high)
            )
            base_pairs.append(pairs)
            for target, virtual in pairs:
                derived_lists[target].append((cid, virtual))
        ch.base_pairs = tuple(base_pairs)
        ch.derived_pairs = tuple(tuple(pairs) for pairs in derived_lists)

        ch.topo_order = tuple(self._ints(_SEC_TOPO_ORDER))
        positions = array("q", bytes(8 * n))
        for at, cid in enumerate(ch.topo_order):
            positions[cid] = at
        ch.topo_positions = positions

        decl_offsets = self._ints(_SEC_DECL_OFFS)
        decl_values = self._ints(_SEC_DECL_VALS)
        ch.declared_mids = tuple(
            tuple(decl_values[decl_offsets[cid] : decl_offsets[cid + 1]])
            for cid in range(n)
        )

        ch.virtual_base_masks = self._thaw_masks(
            _SEC_VB_MASKS, self._class_stride
        )
        ch.declared_masks = self._thaw_masks(
            _SEC_DECL_MASKS, self._member_stride
        )
        ch.visible_masks = self._thaw_masks(
            _SEC_VIS_MASKS, self._member_stride
        )
        self._hierarchy_memo = ch
        return ch

    def _thaw_masks(self, section: int, stride: int) -> list[int]:
        raw = bytes(self._bytes(section))
        return [
            int.from_bytes(raw[at : at + stride], "little")
            for at in range(0, len(raw), stride)
        ]

    def to_graph(self) -> ClassHierarchyGraph:
        """Rebuild the mutable source graph: classes and edges replay
        in declaration order, so recompiling the result re-interns
        every id identically to the packed arrays.  Only member *names*
        survive (kinds/access/static-ness never reach the lookup
        kernel and are not stored)."""
        ch = self.thaw_hierarchy()
        graph = ClassHierarchyGraph()
        member_names = ch.member_names
        for cid, name in enumerate(ch.class_names):
            graph.add_class(
                name, [member_names[mid] for mid in ch.declared_mids[cid]]
            )
        for cid, name in enumerate(ch.class_names):
            for base, virtual in ch.base_pairs[cid]:
                graph.add_edge(
                    ch.class_names[base], name, virtual=bool(virtual)
                )
        return graph

    def to_snapshot(self) -> TableSnapshot:
        """Wrap the pack in a real :class:`~repro.core.snapshot
        .TableSnapshot` whose rows are lazy pack-backed shells — a
        first-class snapshot-chain parent.  ``apply_delta`` on it runs
        the ordinary copy-on-write cone machinery: cone rows and
        affected columns land on the heap, everything out-of-cone keeps
        serving from the file."""
        snapshot = self._snapshot_memo
        if snapshot is None:
            ch = self.thaw_hierarchy()
            snapshot = TableSnapshot(
                ch=ch,
                rows=[
                    _PackedRow(self, cid) for cid in range(self._n_classes)
                ],
                flat=None,
                certificate=self.certificate,
                entry_total=self.entry_total,
                track_witnesses=self.track_witnesses,
                semantics=self.semantics,
            )
            snapshot._columnar = self._columnar()
            self._snapshot_memo = snapshot
        return snapshot

    def to_table(self, graph: Optional[ClassHierarchyGraph] = None):
        """A ready :class:`~repro.core.lookup.MemberLookupTable` writer
        seeded from the pack — what service preload boots tenants from.

        With ``graph=None`` the mutable source graph is rebuilt from
        the packed arrays and the thawed hierarchy adopts its
        generation counter (the rebuilt graph counts its own
        mutations), so the first ``apply_delta`` after new mutations
        rolls forward from the mmapped base instead of rebuilding.
        Pass the original live graph only when its generation counter
        still lines up with the packed one."""
        from repro.core.lookup import MemberLookupTable

        snapshot = self.to_snapshot()
        if graph is None:
            graph = self.to_graph()
            snapshot.ch.source = graph
            snapshot.ch.generation = graph.generation
        return MemberLookupTable.from_snapshot(snapshot, graph=graph)

    # ------------------------------------------------------------------
    # Row shells (to_snapshot's lazy substrate)
    # ------------------------------------------------------------------

    def _row_size(self, cid: int) -> int:
        """Visible-member popcount — the row length without touching a
        single column page."""
        stride = self._member_stride
        offset, _length = self._sections[_SEC_VIS_MASKS]
        at = offset + cid * stride
        return int.from_bytes(
            bytes(self._buf[at : at + stride]), "little"
        ).bit_count()

    def _row_entries(self, cid: int) -> dict:
        """One class's ``{mid: kernel entry}`` row, decoded straight
        from the column matrices — O(visible members of the class),
        independent of column count or table size."""
        stride = self._member_stride
        offset, _length = self._sections[_SEC_VIS_MASKS]
        at = offset + cid * stride
        visible = int.from_bytes(
            bytes(self._buf[at : at + stride]), "little"
        )
        directory = self._ints(_SEC_COLUMN_DIR)
        cells_offset, _clen = self._sections[_SEC_COLUMN_CELLS]
        wits_offset, _wlen = self._sections[_SEC_COLUMN_WITS]
        cells = self._buf[cells_offset:].cast("q") if visible else None
        wits = self._buf[wits_offset:].cast("q") if visible else None
        slots = self._entry_pool().slots
        n = self._n_classes
        row: dict[int, object] = {}
        while visible:
            low = visible & -visible
            visible ^= low
            mid = low.bit_length() - 1
            index = directory[mid]
            if index < 0:
                continue
            sid = cells[index * n + cid]
            if sid < 0:
                continue
            slot = slots[sid]
            if type(slot) is tuple:
                wat = wits[index * n + cid]
                cell = self._wit_cell(wat) if wat >= 0 else None
                row[mid] = (slot[0], slot[1], cell)
            else:
                row[mid] = slot
        return row

    def __repr__(self) -> str:
        return (
            f"PackedTable(classes={self._n_classes}, "
            f"members={self._n_members}, generation={self.generation}, "
            f"semantics={self.semantics.name!r}, path={self.path!r})"
        )
