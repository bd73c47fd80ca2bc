"""The Figure-8 red/blue kernel — the paper's per-entry fold, once.

This module is the *single* home of the member-lookup propagation logic
(Figure 8, lines [11]–[44]): red/blue extension across an inheritance
edge (the ⋄ operator on table entries), candidate selection among the
entries arriving from the direct bases, and the blue-set resolution that
decides whether a red candidate survives.  Every engine — the eager
:class:`~repro.core.lookup.MemberLookupTable`, the demand-driven
:class:`~repro.core.lazy.LazyMemberLookup` and the
dataflow framing in :mod:`repro.analysis.lookup_as_dataflow` — is a thin
driver over these functions; none re-implements dominance or
propagation.

The kernel operates on the interned integer ids of a
:class:`~repro.hierarchy.compiled.CompiledHierarchy`:

* A **red** kernel entry is a plain 3-tuple
  ``(ldc_id, least_virtual_id, witness_cell)`` meaning the lookup is
  unambiguous; ``least_virtual_id`` is a class id or
  :data:`~repro.hierarchy.compiled.OMEGA_ID` (the paper's Ω).  A plain
  tuple, deliberately: the drivers construct one entry per propagated
  ``(class, member)`` pair, tuple display is ~45× cheaper than a
  NamedTuple ``__new__`` call, and the batched sweep lives or dies on
  that constant.
* A **blue** kernel entry ``KernelBlue(abstractions, candidate_ldcs)``
  means the lookup is ambiguous; ``abstractions`` is the propagated set
  of ``leastVirtual`` ids that must still be dominated by any would-be
  winner further down (Section 4: a blue definition can *disqualify* a
  red one even though it can never win itself).  The set is an int
  bitmask: bit ``a + 2`` stands for abstraction id ``a``, so
  :data:`~repro.hierarchy.compiled.NONE_ID` is bit 0,
  :data:`~repro.hierarchy.compiled.OMEGA_ID` (Ω) is bit 1 and class
  ``c`` is bit ``c + 2`` (:func:`abstraction_mask`).
  ``candidate_ldcs`` is a frozenset of declaring-class ids, carried
  only for diagnostics.

Reds and blues are told apart by exact type: ``type(entry) is tuple``
holds only for reds, because :class:`KernelBlue` is a tuple *subclass*.

Dominance is Lemma 4's constant-time test, here literally two bit
operations on the precomputed virtual-base masks::

    (L1, V1) dominates (L2, V2)  iff  bit V2 of vb-mask[L1] is set
                                      or V1 == V2 != Ω

Because the blue set is a mask too, both places the algorithm touches
a whole blue set are a handful of big-int operations:

* the ⋄ operator (Definition 15) rewrites only Ω, and only across a
  virtual edge, so a blue crossing an edge is the *same* entry object
  unless the edge is virtual and the Ω bit is set — then the Ω bit is
  cleared and the base's bit set;
* the blue-kill of lines [34]-[44] applies Lemma 4 to every element at
  once: the abstractions a red candidate ``(L1, V1)`` leaves undominated
  are ``blue & ~((vb-mask[L1] << 2) | bit(V1))`` (``bit(V1)`` only when
  ``V1`` is a class).

The boundary conversions (:func:`to_table_entry`,
:func:`to_lookup_result`, the columnar and flatpack layouts) decode the
mask back to the frozenset of ids or names; nothing outside the kernel
sees a mask.

Witnesses are carried as O(1) cons cells ``(class_id, virtual, prev)``
and only materialised into :class:`~repro.core.paths.Path` objects at
the public API boundary — the paper notes the witness rides along for
free because at most one red definition crosses any edge, and the cons
representation keeps that "for free" true at the constant-factor level
too (the seed implementation re-copied the whole path per edge).

The public ``RedEntry`` / ``BlueEntry`` table-entry types and the
``LookupStats`` counters also live here and are re-exported by
:mod:`repro.core.lookup` for backwards compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

from repro.core.paths import OMEGA, Abstraction, Path
from repro.core.results import (
    LookupResult,
    ambiguous_result,
    not_found_result,
    unique_result,
)
from repro.hierarchy.compiled import NONE_ID, OMEGA_ID, CompiledHierarchy

# ----------------------------------------------------------------------
# Public table-entry types (string-keyed, paper notation)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RedEntry:
    """An unambiguous table entry: the abstraction ``(ldc, leastVirtual)``
    of the dominant definition, plus (optionally) a concrete witness path
    — the paper notes the witness can be carried for free since at most
    one red definition crosses any edge."""

    ldc: str
    least_virtual: Abstraction
    witness: Optional[Path] = None

    @property
    def pair(self) -> tuple[str, Abstraction]:
        return (self.ldc, self.least_virtual)

    def __str__(self) -> str:
        return f"Red ({self.ldc}, {self.least_virtual})"


@dataclass(frozen=True)
class BlueEntry:
    """An ambiguous table entry: the propagated blue abstraction set, plus
    the declaring classes of the conflicting definitions (carried only for
    diagnostics; the algorithm itself never reads ``candidate_ldcs``)."""

    abstractions: frozenset[Abstraction]
    candidate_ldcs: frozenset[str] = frozenset()

    def __str__(self) -> str:
        body = ", ".join(sorted(map(str, self.abstractions), key=str))
        return f"Blue {{{body}}}"


TableEntry = Union[RedEntry, BlueEntry]


@dataclass
class LookupStats:
    """Operation counters, used by the benchmarks to exhibit the paper's
    complexity claims independently of wall-clock noise."""

    classes_visited: int = 0
    entries_computed: int = 0
    red_propagations: int = 0
    blue_propagations: int = 0
    dominance_checks: int = 0

    def total_work(self) -> int:
        return (
            self.red_propagations
            + self.blue_propagations
            + self.dominance_checks
        )


# ----------------------------------------------------------------------
# Interned kernel entries
# ----------------------------------------------------------------------

#: Witness cons cell: ``(class_id, edge_was_virtual, previous_cell)``.
#: The least-derived end is the cell whose ``previous_cell`` is None
#: (its flag is meaningless — a trivial path has no edges).
WitnessCell = tuple  # (int, bool, Optional["WitnessCell"])


#: Interned red entry: the plain tuple
#: ``(ldc_id, least_virtual_id, witness_cons)``.  See the module
#: docstring for why this is not a NamedTuple.
KernelRed = tuple


class KernelBlue(NamedTuple):
    """Interned blue entry: the abstraction bitmask (bit ``a + 2`` per
    abstraction id ``a``) + diagnostic ldc ids."""

    abstractions: int
    candidate_ldcs: frozenset[int]


KernelEntry = Union[KernelRed, KernelBlue]


# ----------------------------------------------------------------------
# Lemma 4 and the ⋄ operator on interned values
# ----------------------------------------------------------------------


def dominates(
    ch: CompiledHierarchy,
    l1: int,
    v1: int,
    v2: int,
    stats: Optional[LookupStats] = None,
) -> bool:
    """Lines [1]-[3]: Lemma 4's test — two bit operations on the
    precomputed virtual-base masks."""
    if stats is not None:
        stats.dominance_checks += 1
    if v2 >= 0 and (ch.virtual_base_masks[l1] >> v2) & 1:
        return True
    return v1 >= 0 and v1 == v2


#: The Ω bit of a blue abstraction mask.
OMEGA_BIT = 1 << (OMEGA_ID + 2)

_EMPTY: frozenset = frozenset()


def abstraction_mask(ids) -> int:
    """The blue mask of an iterable of abstraction ids."""
    mask = 0
    for value in ids:
        mask |= 1 << (value + 2)
    return mask


def abstraction_ids(mask: int) -> list[int]:
    """The abstraction ids of a blue mask, ascending.  Walks set bits
    from the top: ``bit_length`` is O(1), so each step is one shift and
    one xor."""
    ids: list[int] = []
    while mask:
        bit = mask.bit_length() - 1
        mask ^= 1 << bit
        ids.append(bit - 2)
    ids.reverse()
    return ids


def generated_entry(cid: int, track_witnesses: bool) -> KernelRed:
    """Lines [11]-[12]: a generated definition ``C::m`` hides everything."""
    return (cid, OMEGA_ID, (cid, False, None) if track_witnesses else None)


def extend_entry(
    ch: CompiledHierarchy,
    entry: KernelEntry,
    base: int,
    virtual: int,
    derived: int,
    stats: Optional[LookupStats] = None,
) -> KernelEntry:
    """Push one entry across the edge ``base -> derived`` — the red
    propagation of lines [15]-[28] / the blue ⋄ of lines [29]-[31]."""
    if type(entry) is tuple:
        if stats is not None:
            stats.red_propagations += 1
        witness = entry[2]
        least = entry[1]
        return (
            entry[0],
            base if virtual and least == OMEGA_ID else least,
            (derived, bool(virtual), witness) if witness is not None else None,
        )
    abstractions = entry[0]
    if stats is not None:
        stats.blue_propagations += abstractions.bit_count()
    if virtual and abstractions & OMEGA_BIT:
        return KernelBlue(
            abstractions ^ OMEGA_BIT | 1 << (base + 2), entry[1]
        )
    return entry


def meet_entries(
    ch: CompiledHierarchy,
    entries: list,
    stats: Optional[LookupStats] = None,
) -> KernelEntry:
    """Lines [14]-[44]: combine the (already extended) entries arriving
    from the direct bases — candidate selection among reds, blue-set
    accumulation, and the final blue-kill resolution."""
    candidate: Optional[KernelRed] = None
    to_be_dominated = 0
    # The declaring classes met so far, as a list of id collections
    # unioned once at the end.
    blue_ldcs: list = []
    for entry in entries:
        if type(entry) is tuple:
            if candidate is None:
                candidate = entry
            elif dominates(
                ch, entry[0], entry[1], candidate[1], stats
            ):
                candidate = entry
            elif not dominates(
                ch, candidate[0], candidate[1], entry[1], stats
            ):
                # Neither dominates: both become blue for now.
                to_be_dominated |= (
                    1 << (candidate[1] + 2) | 1 << (entry[1] + 2)
                )
                blue_ldcs.append((candidate[0], entry[0]))
                candidate = None
        else:
            to_be_dominated |= entry[0]
            blue_ldcs.append(entry[1])

    # Lines [34]-[44]: resolve the candidate against the blue set —
    # Lemma 4 over every abstraction at once.
    if candidate is None:
        return KernelBlue(to_be_dominated, _EMPTY.union(*blue_ldcs))
    ldc, least = candidate[0], candidate[1]
    if stats is not None:
        stats.dominance_checks += to_be_dominated.bit_count()
    dominated = ch.virtual_base_masks[ldc] << 2
    if least >= 0:
        dominated |= 1 << (least + 2)
    surviving = to_be_dominated & ~dominated
    if not surviving:
        return candidate
    blue_ldcs.append((ldc,))
    return KernelBlue(
        surviving | 1 << (least + 2), _EMPTY.union(*blue_ldcs)
    )


def fold_entry(
    ch: CompiledHierarchy,
    cid: int,
    mid: int,
    entry_of: Callable[[int], Optional[KernelEntry]],
    stats: Optional[LookupStats] = None,
    track_witnesses: bool = True,
) -> Optional[KernelEntry]:
    """The whole per-entry fold, lines [11]-[44]: compute the table entry
    of ``(cid, mid)`` from the entries of the direct bases.

    ``entry_of(base_id)`` returns the base's (already computed) kernel
    entry, or ``None`` when the member is not visible in that base.
    Returns ``None`` when the member is visible in no subobject of the
    class — the drivers cache or skip that case as they see fit.
    """
    if ch.declares_id(cid, mid):
        return generated_entry(cid, track_witnesses)
    extended: list[KernelEntry] = []
    for base, virtual in ch.base_pairs[cid]:
        sub_entry = entry_of(base)
        if sub_entry is None:
            continue
        extended.append(extend_entry(ch, sub_entry, base, virtual, cid, stats))
    if not extended:
        return None
    return meet_entries(ch, extended, stats)


# ----------------------------------------------------------------------
# Ambiguity certification (the substrate of the unambiguous fast path)
# ----------------------------------------------------------------------


@dataclass
class AmbiguityCertificate:
    """What a sweep proved about ambiguity, per ``(class, member)`` cell,
    aggregated per member column and over the whole table.

    A cell is *ambiguous* exactly when its kernel entry is blue; the
    sweeps record every blue they store, so after a
    :func:`batched_sweep` the certificate is the whole-table truth:
    bit ``mid`` of :attr:`ambiguous_columns` is set iff **some** visible
    ``(class, mid)`` lookup is ambiguous.  Columns whose bit is clear
    satisfy the paper's Section-5 premise ("no lookup is ambiguous"), so
    they may be served from the flat ``O(|N|+|E|)`` structure of
    :mod:`repro.core.fastpath` — the certification is the proof
    obligation, discharged for free while the table is built anyway.

    After a :func:`cone_sweep` the certificate covers only the entries
    the cone re-folded: a set bit *demotes* a column (a blue appeared in
    the cone), a clear bit says nothing about cells outside the cone —
    which is exactly the monotone demote-only contract delta maintenance
    needs (out-of-cone cells kept whatever colour they had).

    Tracking is O(1) per blue stored and touches none of the red hot
    paths, so certifying a fully-unambiguous table costs nothing.
    """

    #: Bitmask over member ids: bit set ⇔ the sweep stored at least one
    #: blue entry in that member's column.
    ambiguous_columns: int = 0
    #: Total blue cells the sweep stored (diagnostic; a column can
    #: contribute many).
    blue_cells: int = 0

    def column_is_ambiguous(self, mid: int) -> bool:
        """Did the sweep prove this member column ambiguous?"""
        return (self.ambiguous_columns >> mid) & 1 == 1

    @property
    def table_is_unambiguous(self) -> bool:
        """Section 5's premise for the whole table: no blue anywhere."""
        return self.ambiguous_columns == 0

    def record(self, ambiguous_mask: int, blue_cells: int) -> None:
        """Fold in one sweep's locally accumulated counters."""
        self.ambiguous_columns |= ambiguous_mask
        self.blue_cells += blue_cells


# ----------------------------------------------------------------------
# The batched single-sweep driver (whole rows per class)
# ----------------------------------------------------------------------


def batched_sweep(
    ch: CompiledHierarchy,
    *,
    stats: Optional[LookupStats] = None,
    track_witnesses: bool = True,
    certificate: Optional[AmbiguityCertificate] = None,
) -> list:
    """One topological sweep computing *whole rows* at a time.

    The per-member drivers run the Figure-8 fold once per ``(C, m)``
    pair, re-reading ``C``'s adjacency, declared-member bitset and
    virtual-base mask for every member — ``|M|`` passes over the same
    CSR arrays.  This driver makes a single pass over
    ``CompiledHierarchy.topo_order`` carrying, per class, a dense row
    ``member id -> kernel entry`` and extending/meeting entire rows
    across each inheritance edge, so every adjacency list and bitset is
    read once *total*.

    Semantically it is the same fold: the single-base fast path inlines
    :func:`extend_entry` (a meet over one entry is that entry), and the
    multi-base path gathers the extended entries per member in direct-
    base order — exactly the list :func:`fold_entry` hands to
    :func:`meet_entries` — before meeting them.  Sparsity comes for
    free: entries are only ever *seeded* by declarations, so a member
    not visible in a subgraph never occupies a column there.

    ``stats`` receives ``classes_visited`` / ``entries_computed`` and
    the propagation counters of the multi-base meet path; the inlined
    single-base fast path deliberately does *not* count its (trivially
    ``entries_computed``-shaped) propagations — keeping counter probes
    out of that loop is most of what this driver buys.

    ``certificate`` (when given) receives the per-column ambiguity
    certification: every blue entry the sweep stores sets that member's
    bit — O(1) per blue, zero cost on the red paths — so a clear bit
    afterwards *proves* the column unambiguous (see
    :class:`AmbiguityCertificate`).

    Returns a list indexed by class id: ``rows[cid]`` is the dict
    ``member id -> kernel entry`` of every member visible in ``cid``.
    """
    rows: list = [None] * ch.n_classes
    base_pairs = ch.base_pairs
    declared_masks = ch.declared_masks
    declared_mids = ch.declared_mids
    count = stats is not None
    blue = KernelBlue
    entries = 0
    amb_mask = 0
    blue_cells = 0
    for cid in ch.topo_order:
        bases = base_pairs[cid]
        decl = declared_masks[cid]
        row: dict = {}
        if len(bases) == 1:
            # Single direct base (the overwhelmingly common case): the
            # meet over one extended entry is that entry, so extension
            # is fully inlined — no call, plain-tuple construction only.
            # Classes declaring nothing (most of them) also skip the
            # per-entry declared-bit probe entirely.
            base, virtual = bases[0]
            virtual_flag = virtual != 0
            base_bit = 1 << (base + 2)
            for mid, entry in rows[base].items():
                if decl and (decl >> mid) & 1:
                    continue
                if type(entry) is tuple:
                    least = entry[1]
                    if least == OMEGA_ID and virtual_flag:
                        least = base
                    witness = entry[2]
                    row[mid] = (
                        entry[0],
                        least,
                        (cid, virtual_flag, witness)
                        if witness is not None
                        else None,
                    )
                else:
                    if virtual_flag and entry[0] & OMEGA_BIT:
                        entry = blue(entry[0] ^ OMEGA_BIT | base_bit, entry[1])
                    row[mid] = entry
                    amb_mask |= 1 << mid
                    blue_cells += 1
        elif bases:
            # Multiple bases: gather the extended entries per member in
            # direct-base order (the list fold_entry builds), meet them.
            incoming: dict[int, list] = {}
            for base, virtual in bases:
                for mid, entry in rows[base].items():
                    if (decl >> mid) & 1:
                        continue
                    extended = extend_entry(
                        ch, entry, base, virtual, cid, stats
                    )
                    bucket = incoming.get(mid)
                    if bucket is None:
                        incoming[mid] = [extended]
                    else:
                        bucket.append(extended)
            for mid, bucket in incoming.items():
                met = (
                    bucket[0]
                    if len(bucket) == 1
                    else meet_entries(ch, bucket, stats)
                )
                row[mid] = met
                if type(met) is not tuple:
                    amb_mask |= 1 << mid
                    blue_cells += 1
        if declared_mids[cid]:
            cell = (cid, False, None) if track_witnesses else None
            for mid in declared_mids[cid]:
                row[mid] = (cid, OMEGA_ID, cell)
        entries += len(row)
        rows[cid] = row
    if count:
        stats.classes_visited += len(ch.topo_order)
        stats.entries_computed += entries
    if certificate is not None:
        certificate.record(amb_mask, blue_cells)
    return rows


# ----------------------------------------------------------------------
# The cone-restricted delta sweep (re-fold only what a mutation touched)
# ----------------------------------------------------------------------


class ConeSweepStats(NamedTuple):
    """What one cone-restricted sweep actually did — the observable
    shape of the `O(|M_aff|·(|cone|+|E_cone|))` claim."""

    cone_classes: int
    entries_recomputed: int
    boundary_rows: int


def cone_sweep(
    ch: CompiledHierarchy,
    rows: list,
    *,
    cone_mask: int,
    member_mask: int,
    stats: Optional[LookupStats] = None,
    track_witnesses: bool = True,
    certificate: Optional[AmbiguityCertificate] = None,
) -> ConeSweepStats:
    """Re-run the batched fold over *cone classes only*, for *affected
    members only*, seeding from the surviving rows of ``rows``.

    ``rows`` is the row list of a previous :func:`batched_sweep` over an
    older generation of the same id space (``rows[cid]`` is the dict
    ``member id -> kernel entry``, or ``None`` for a class id that did
    not exist yet).  The sweep is copy-on-write: every cone slot of
    ``rows`` is replaced with a *fresh* dict (seeded from a shallow copy
    of the old row) before anything is written into it, so no row dict
    is ever mutated — concurrent readers holding a parent snapshot
    whose list ``rows`` was copied from keep seeing exactly the rows
    they captured, and the parent and child share every out-of-cone
    row by reference.  The soundness argument
    is the boundary-row-reuse invariant: ``lookup(C, m)`` is a function
    of ``C``'s subobject graph alone (Definition 7), so for any class
    outside the cone — i.e. not a descendant of a changed class — that
    subobject graph, its virtual-base mask and hence its whole row are
    byte-for-byte what the old sweep computed.  Those rows are read
    verbatim as the dataflow boundary wherever a cone class derives
    from an out-of-cone base; only ``cone × affected-members`` entries
    are ever re-folded.

    Cone classes are visited in topological order by extracting the set
    cone bits and sorting them by precomputed topological position
    (``ch.topo_positions``) — O(|cone| log |cone|), so a small cone in
    a huge hierarchy never pays an O(|N|) scan per delta.

    The fold itself is member-major :func:`fold_entry` semantics:
    gather each affected member's extended entries in direct-base
    order, meet when more than one base contributes, seed declarations
    last.  Stale masked entries with no surviving contributor are
    dropped (cannot happen under append-only growth, but keeps the
    sweep total).

    ``certificate`` records every blue the re-sweep stores, exactly as
    in :func:`batched_sweep` — but scoped to the re-folded cone: a set
    bit afterwards means the delta *ambiguated* that column inside the
    cone (the fast path demotes it), a clear bit says nothing about
    out-of-cone cells.

    Returns a :class:`ConeSweepStats`; ``boundary_rows`` counts the
    out-of-cone direct bases read as seeds (one per cone edge crossing
    the boundary).
    """
    base_pairs = ch.base_pairs
    declared_masks = ch.declared_masks
    visible_masks = ch.visible_masks
    count = stats is not None
    blue = KernelBlue
    red_propagations = 0
    blue_propagations = 0
    cone_classes = 0
    recomputed = 0
    boundary = 0
    amb_mask = 0
    blue_cells = 0
    cone_ids = []
    remaining = cone_mask
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        cone_ids.append(low.bit_length() - 1)
    cone_ids.sort(key=ch.topo_positions.__getitem__)
    for cid in cone_ids:
        cone_classes += 1
        row = rows[cid]
        row = rows[cid] = dict(row) if row else {}
        # The incoming edges with their (final, earlier-in-topo-order)
        # base rows, hoisted out of the member loop.
        edges = []
        for base, virtual in base_pairs[cid]:
            if not (cone_mask >> base) & 1:
                boundary += 1
            base_row = rows[base]
            if base_row:
                edges.append((base_row, base, virtual != 0))
        decl = declared_masks[cid]
        affected = visible_masks[cid] & member_mask
        pending = affected & ~decl
        while pending:
            low = pending & -pending
            pending ^= low
            mid = low.bit_length() - 1
            # extend_entry inlined across each edge; a meet over one
            # extended entry is that entry.
            met = bucket = None
            for base_row, base, virtual in edges:
                entry = base_row.get(mid)
                if entry is None:
                    continue
                if type(entry) is tuple:
                    red_propagations += 1
                    least = entry[1]
                    if virtual and least == OMEGA_ID:
                        least = base
                    witness = entry[2]
                    entry = (
                        entry[0],
                        least,
                        (cid, virtual, witness)
                        if witness is not None
                        else None,
                    )
                else:
                    if count:
                        blue_propagations += entry[0].bit_count()
                    if virtual and entry[0] & OMEGA_BIT:
                        entry = blue(
                            entry[0] ^ OMEGA_BIT | 1 << (base + 2), entry[1]
                        )
                if met is None:
                    met = entry
                elif bucket is None:
                    bucket = [met, entry]
                else:
                    bucket.append(entry)
            if met is None:
                row.pop(mid, None)
            else:
                if bucket is not None:
                    met = meet_entries(ch, bucket, stats)
                row[mid] = met
                if type(met) is not tuple:
                    amb_mask |= 1 << mid
                    blue_cells += 1
            recomputed += 1
        seed = decl & member_mask
        if seed:
            cell = (cid, False, None) if track_witnesses else None
            while seed:
                low = seed & -seed
                seed ^= low
                row[low.bit_length() - 1] = (cid, OMEGA_ID, cell)
                recomputed += 1
    if count:
        stats.classes_visited += cone_classes
        stats.entries_computed += recomputed
        stats.red_propagations += red_propagations
        stats.blue_propagations += blue_propagations
    if certificate is not None:
        certificate.record(amb_mask, blue_cells)
    return ConeSweepStats(
        cone_classes=cone_classes,
        entries_recomputed=recomputed,
        boundary_rows=boundary,
    )


# ----------------------------------------------------------------------
# Conversion back to the public string-based API
# ----------------------------------------------------------------------


def abstraction_name(ch: CompiledHierarchy, value: int) -> Abstraction:
    """Interned abstraction id back to the public class-name / Ω form.

    :data:`~repro.hierarchy.compiled.NONE_ID` renders as ``None`` — the
    alternative semantics (:mod:`repro.core.semantics`) use it for "no
    least-virtual abstraction tracked", which the string-keyed baselines
    express as ``least_virtual=None``.  Every conversion funnel (rows,
    fastpath, columnar) goes through here, so the sentinel round-trips
    exactly.
    """
    if value == OMEGA_ID:
        return OMEGA
    if value == NONE_ID:
        return None
    return ch.class_names[value]


def abstraction_names(ch: CompiledHierarchy, mask: int) -> frozenset:
    """A blue mask back to the public frozenset of class names, Ω and
    ``None`` (see :func:`abstraction_name`) — the bit walk of
    :func:`abstraction_ids` fused with the name lookup."""
    names = ch.class_names
    public: list = []
    append = public.append
    classes = mask >> 2
    while classes:
        cid = classes.bit_length() - 1
        classes ^= 1 << cid
        append(names[cid])
    if mask & OMEGA_BIT:
        append(OMEGA)
    if mask & 1:
        append(None)
    return frozenset(public)


def witness_path(ch: CompiledHierarchy, cell: WitnessCell) -> Path:
    """Materialise a witness cons chain into a concrete :class:`Path`."""
    nodes: list[str] = []
    virtuals: list[bool] = []
    names = ch.class_names
    while cell is not None:
        cid, virtual, cell = cell
        nodes.append(names[cid])
        virtuals.append(virtual)
    nodes.reverse()
    virtuals.reverse()
    return Path(nodes=tuple(nodes), virtuals=tuple(virtuals[1:]))


def to_table_entry(
    ch: CompiledHierarchy, entry: Optional[KernelEntry]
) -> Optional[TableEntry]:
    """Kernel entry to the public Red/Blue dataclass (``None`` passes
    through: the member is not visible)."""
    if entry is None:
        return None
    if type(entry) is tuple:
        return RedEntry(
            ldc=ch.class_names[entry[0]],
            least_virtual=abstraction_name(ch, entry[1]),
            witness=(
                witness_path(ch, entry[2]) if entry[2] is not None else None
            ),
        )
    names = ch.class_names
    return BlueEntry(
        abstraction_names(ch, entry[0]),
        frozenset([names[ldc] for ldc in entry[1]]),
    )


def result_from_entry(
    class_name: str,
    member: str,
    entry: Optional[TableEntry],
) -> LookupResult:
    """Public Red/Blue entry to the user-facing :class:`LookupResult`."""
    if entry is None:
        return not_found_result(class_name, member)
    if type(entry) is RedEntry:
        return unique_result(
            class_name,
            member,
            declaring_class=entry.ldc,
            least_virtual=entry.least_virtual,
            witness=entry.witness,
        )
    return ambiguous_result(
        class_name,
        member,
        blue_abstractions=entry.abstractions,
        candidates=tuple(sorted(entry.candidate_ldcs)),
    )


def to_lookup_result(
    ch: CompiledHierarchy,
    class_name: str,
    member: str,
    entry: Optional[KernelEntry],
) -> LookupResult:
    """Kernel entry to the user-facing :class:`LookupResult`."""
    if entry is None:
        return not_found_result(class_name, member)
    if type(entry) is tuple:
        return unique_result(
            class_name,
            member,
            declaring_class=ch.class_names[entry[0]],
            least_virtual=abstraction_name(ch, entry[1]),
            witness=(
                witness_path(ch, entry[2]) if entry[2] is not None else None
            ),
        )
    return ambiguous_result(
        class_name,
        member,
        blue_abstractions=abstraction_names(ch, entry[0]),
        candidates=tuple(sorted([ch.class_names[ldc] for ldc in entry[1]])),
    )
