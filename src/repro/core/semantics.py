"""Pluggable dispatch semantics over one compiled substrate.

The paper's dominance rule is *one* member-dispatch semantics among
several the literature defines for multiple inheritance.  The string-
keyed baselines in :mod:`repro.baselines` model five more — C3
linearisation (Python/Dylan), Eiffel's origin-sharing rule, Self-style
visibility, g++ 2.7.2.1's breadth-first subobject scan (bug included)
and the topological-number shortcut — but none of them could be built,
published, batch-gathered or served by the table machinery, because
each carried its own dict-of-dicts representation.

This module ports every one of them onto the interned
:class:`~repro.hierarchy.compiled.CompiledHierarchy` (dense ids, CSR
adjacency, topological order, virtual-base bitmasks) behind a single
:class:`Semantics` interface with the *same contract as the kernel
sweeps*: ``sweep`` produces the ``rows[cid] = {mid: kernel entry}``
list :func:`repro.core.kernel.batched_sweep` produces, and
``cone_sweep`` maintains it under a delta exactly like
:func:`repro.core.kernel.cone_sweep` (same COW discipline, same
:class:`~repro.core.kernel.ConeSweepStats`).  Because the row shape is
shared, everything downstream — :class:`~repro.core.snapshot.TableSnapshot`,
the flat fast path, the columnar batch gather and the
serving tier — works for any registered semantics without knowing which
rule produced the rows.

Entry encodings (all convert exactly to the legacy baselines' public
results through :func:`repro.core.kernel.to_lookup_result`):

* ``cpp-dominance`` — the existing kernel, verbatim.
* ``c3`` — red ``(first_declarer_in_MRO, NONE_ID, None)``; never blue;
  an unlinearisable class rejects the whole build
  (:class:`SemanticsRejection`).
* ``self`` — red when exactly one declarer is visible, otherwise
  ``KernelBlue(∅, declarers)``.
* ``eiffel`` — the rename-free restriction of the Eiffel model: a name
  reaching a class from two distinct origin features is a *static
  error* (:class:`SemanticsRejection`), mirroring
  :class:`repro.baselines.eiffel.EiffelHierarchy`'s clash rule; local
  declarations redefine (become the origin); repeated inheritance of
  one origin shares.
* ``topo-number`` — red ``(argmax top-sort declarer, …)``; only valid
  where the C++ lookup is unambiguous, silently "resolves" elsewhere —
  exactly the Section 7.2 shortcut.
* ``gxx-bfs`` — a per-class breadth-first scan of the *interned*
  subobject graph reproducing g++ 2.7.2.1's unsound early ambiguity
  exit (Section 7.1), Figure 9 wrong answer included.

``NONE_ID`` (:data:`repro.hierarchy.compiled.NONE_ID`) is the second
sentinel these rules need: "no least-virtual abstraction tracked",
rendered as ``None`` (not Ω) at every result boundary.

The registry (:data:`SEMANTICS`, :func:`get_semantics`) is what the
``semantics=`` parameters of :class:`~repro.core.lookup.MemberLookupTable`,
:class:`~repro.core.snapshot.TableSnapshot` and
:class:`~repro.serve.service.LookupService` resolve through, and what
the ``--semantics`` CLI flags validate against.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.kernel import (
    AmbiguityCertificate,
    ConeSweepStats,
    KernelBlue,
    LookupStats,
    batched_sweep,
    cone_sweep,
)
from repro.errors import ReproError
from repro.hierarchy.compiled import NONE_ID, OMEGA_ID, CompiledHierarchy

__all__ = [
    "DEFAULT_SEMANTICS",
    "SEMANTICS",
    "SEMANTICS_NAMES",
    "Semantics",
    "SemanticsRejection",
    "c3_linearization_ids",
    "get_semantics",
    "register_semantics",
]


class SemanticsRejection(ReproError):
    """The semantics *statically rejects* this hierarchy.

    Raised at build/maintenance time by rules that are checked rather
    than resolved: C3 when a class cannot be linearised monotonically
    (Python's "MRO conflict"), Eiffel when a name would denote two
    distinct origin features and the (rename-free) program offers no
    rename clause.  The paper's dominance rule never rejects — it
    answers ⊥ instead — which is itself one of the catalogued
    cross-semantics divergences.
    """

    def __init__(self, semantics: str, class_name: str, reason: str) -> None:
        super().__init__(
            f"semantics {semantics!r} rejects this hierarchy at class "
            f"{class_name!r}: {reason}"
        )
        self.semantics = semantics
        self.class_name = class_name
        self.reason = reason


class Semantics:
    """One dispatch rule, with the kernel sweeps' build/maintain contract.

    ``sweep`` computes the full table rows for one compiled generation;
    ``cone_sweep`` re-folds ``cone × affected-members`` into fresh cone
    row dicts, the same copy-on-write discipline as the kernel's, so
    snapshot publishing works unchanged.  Both may raise
    :class:`SemanticsRejection` (checked rules only).
    """

    #: Registry key; subclasses override.
    name = "abstract"

    def sweep(
        self,
        ch: CompiledHierarchy,
        *,
        stats: Optional[LookupStats] = None,
        track_witnesses: bool = True,
        certificate: Optional[AmbiguityCertificate] = None,
    ) -> list:
        raise NotImplementedError

    def cone_sweep(
        self,
        ch: CompiledHierarchy,
        rows: list,
        *,
        cone_mask: int,
        member_mask: int,
        stats: Optional[LookupStats] = None,
        track_witnesses: bool = True,
        certificate: Optional[AmbiguityCertificate] = None,
    ) -> ConeSweepStats:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Semantics {self.name}>"


class CppDominanceSemantics(Semantics):
    """The paper's algorithm — a direct delegation to the kernel."""

    name = "cpp-dominance"

    def sweep(self, ch, *, stats=None, track_witnesses=True,
              certificate=None):
        return batched_sweep(
            ch,
            stats=stats,
            track_witnesses=track_witnesses,
            certificate=certificate,
        )

    def cone_sweep(self, ch, rows, *, cone_mask, member_mask, stats=None,
                   track_witnesses=True, certificate=None):
        return cone_sweep(
            ch,
            rows,
            cone_mask=cone_mask,
            member_mask=member_mask,
            stats=stats,
            track_witnesses=track_witnesses,
            certificate=certificate,
        )


# ----------------------------------------------------------------------
# The shared local fold (self / eiffel / topo-number)
# ----------------------------------------------------------------------


class _LocalFoldSemantics(Semantics):
    """Rules whose per-class entry is a pure function of the class's
    declarations and its direct bases' entries — no path-dependent
    extension, so the fold is a plain gather + meet in topological
    order, and the cone sweep is sound for exactly the kernel's reason:
    ``lookup(C, m)`` depends only on ``C``'s ancestor closure, which a
    mutation at ``X`` leaves untouched outside ``X``'s descendant cone.

    (For ``topo-number`` the argument needs one more step: the compiled
    delta recompile appends new classes after the existing topological
    prefix, so out-of-cone classes keep both their ancestor sets and
    their relative topological positions — FIFO Kahn never reorders
    classes that are mutually independent of the appended ones.)
    """

    #: Eiffel must see inherited entries even for locally declared
    #: members (a clash between two inherited origins is an error even
    #: when the class redefines the name); the others shadow.
    gather_declared = False

    def _declare_entry(self, cid: int) -> tuple:
        raise NotImplementedError

    def _meet(self, ch, cid, mid, bucket, declares):
        """Combine the direct bases' entries for ``(cid, mid)``; return
        a kernel entry, or ``None`` to let the declaration seed win."""
        raise NotImplementedError

    def sweep(self, ch, *, stats=None, track_witnesses=True,
              certificate=None):
        rows: list = [None] * ch.n_classes
        base_pairs = ch.base_pairs
        declared_masks = ch.declared_masks
        gather_declared = self.gather_declared
        entries = 0
        amb_mask = 0
        blue_cells = 0
        for cid in ch.topo_order:
            decl = declared_masks[cid]
            row: dict = {}
            incoming: dict[int, list] = {}
            for base, _virtual in base_pairs[cid]:
                for mid, entry in rows[base].items():
                    if not gather_declared and decl and (decl >> mid) & 1:
                        continue
                    bucket = incoming.get(mid)
                    if bucket is None:
                        incoming[mid] = [entry]
                    else:
                        bucket.append(entry)
            for mid, bucket in incoming.items():
                met = self._meet(
                    ch, cid, mid, bucket, (decl >> mid) & 1 == 1
                )
                if met is None:
                    continue
                row[mid] = met
                if type(met) is not tuple:
                    amb_mask |= 1 << mid
                    blue_cells += 1
            if decl:
                cell = self._declare_entry(cid)
                seed = decl
                while seed:
                    low = seed & -seed
                    seed ^= low
                    row[low.bit_length() - 1] = cell
            entries += len(row)
            rows[cid] = row
        if stats is not None:
            stats.classes_visited += len(ch.topo_order)
            stats.entries_computed += entries
        if certificate is not None:
            certificate.record(amb_mask, blue_cells)
        return rows

    def cone_sweep(self, ch, rows, *, cone_mask, member_mask, stats=None,
                   track_witnesses=True, certificate=None):
        base_pairs = ch.base_pairs
        declared_masks = ch.declared_masks
        visible_masks = ch.visible_masks
        gather_declared = self.gather_declared
        cone_classes = 0
        recomputed = 0
        boundary = 0
        amb_mask = 0
        blue_cells = 0
        cone_ids = _mask_ids(cone_mask)
        cone_ids.sort(key=ch.topo_positions.__getitem__)
        for cid in cone_ids:
            cone_classes += 1
            row = rows[cid]
            row = rows[cid] = dict(row) if row else {}
            bases = base_pairs[cid]
            for base, _virtual in bases:
                if not (cone_mask >> base) & 1:
                    boundary += 1
            decl = declared_masks[cid]
            affected = visible_masks[cid] & member_mask
            pending = affected if gather_declared else affected & ~decl
            while pending:
                low = pending & -pending
                pending ^= low
                mid = low.bit_length() - 1
                bucket: list = []
                for base, _virtual in bases:
                    base_row = rows[base]
                    if base_row is None:
                        continue
                    sub_entry = base_row.get(mid)
                    if sub_entry is not None:
                        bucket.append(sub_entry)
                declares = (decl >> mid) & 1 == 1
                if not bucket:
                    if not declares:
                        row.pop(mid, None)
                else:
                    met = self._meet(ch, cid, mid, bucket, declares)
                    if met is not None:
                        row[mid] = met
                        if type(met) is not tuple:
                            amb_mask |= 1 << mid
                            blue_cells += 1
                recomputed += 1
            seed = decl & member_mask
            if seed:
                cell = self._declare_entry(cid)
                while seed:
                    low = seed & -seed
                    seed ^= low
                    row[low.bit_length() - 1] = cell
                    recomputed += 1
        if stats is not None:
            stats.classes_visited += cone_classes
            stats.entries_computed += recomputed
        if certificate is not None:
            certificate.record(amb_mask, blue_cells)
        return ConeSweepStats(
            cone_classes=cone_classes,
            entries_recomputed=recomputed,
            boundary_rows=boundary,
        )


class SelfSemantics(_LocalFoldSemantics):
    """Self-style visibility (Section 7.2): every non-shadowed declarer
    is visible; more than one visible declarer is ⊥.  No dominance, no
    virtual/non-virtual distinction — class-level, not subobject-level,
    so a non-virtual diamond's duplicated definition does *not*
    ambiguate it (a catalogued divergence from ``cpp-dominance``)."""

    name = "self"

    def _declare_entry(self, cid):
        return (cid, NONE_ID, None)

    def _meet(self, ch, cid, mid, bucket, declares):
        first = bucket[0]
        declarers = (
            {first[0]} if type(first) is tuple else set(first.candidate_ldcs)
        )
        for entry in bucket[1:]:
            if type(entry) is tuple:
                declarers.add(entry[0])
            else:
                declarers |= entry.candidate_ldcs
        if len(declarers) == 1:
            return (next(iter(declarers)), NONE_ID, None)
        return KernelBlue(0, frozenset(declarers))


class EiffelSemantics(_LocalFoldSemantics):
    """The rename-free Eiffel flattening rule (Section 7.2 / Attali et
    al.): each entry is the *origin* of the feature a name denotes; two
    distinct origins meeting at one class is a static error (Eiffel
    would demand a rename clause), raised as
    :class:`SemanticsRejection` — even when the class redefines the
    name locally, exactly like
    :meth:`repro.baselines.eiffel.EiffelHierarchy.add_class` flattens
    parents before applying local declarations.  Repeated inheritance
    of one origin shares (the rule C++ needs virtual bases for)."""

    name = "eiffel"
    gather_declared = True

    def _declare_entry(self, cid):
        return (cid, NONE_ID, None)

    def _meet(self, ch, cid, mid, bucket, declares):
        origin = bucket[0][0]
        for entry in bucket[1:]:
            if entry[0] != origin:
                names = sorted(
                    ch.class_names[other]
                    for other in {origin, entry[0]}
                )
                raise SemanticsRejection(
                    self.name,
                    ch.class_names[cid],
                    f"name {ch.member_names[mid]!r} would denote features "
                    f"of distinct origins {names[0]} and {names[1]}; "
                    "Eiffel requires a rename clause here",
                )
        if declares:
            return None  # the local redefinition becomes the origin
        return (origin, NONE_ID, None)


class TopoNumberSemantics(_LocalFoldSemantics):
    """The Section 7.2 topological-number shortcut: of the declarers
    reaching a class, the one with maximal top-sort number wins.  Only
    *valid* where the C++ lookup is unambiguous (there the dominant
    declarer provably has the maximal number in any topological
    numbering); elsewhere it silently picks one — the documented
    failure mode the divergence catalog pins."""

    name = "topo-number"

    def _declare_entry(self, cid):
        # Matching the baseline: the abstraction component is only
        # meaningful for the trivial self-definition (Ω), else None.
        return (cid, OMEGA_ID, None)

    def _meet(self, ch, cid, mid, bucket, declares):
        positions = ch.topo_positions
        winner = bucket[0][0]
        best = positions[winner]
        for entry in bucket[1:]:
            candidate = entry[0]
            position = positions[candidate]
            if position > best:
                winner = candidate
                best = position
        return (winner, NONE_ID, None)


# ----------------------------------------------------------------------
# C3 linearisation
# ----------------------------------------------------------------------


def _c3_merge(ch: CompiledHierarchy, cid: int, sequences: list) -> list:
    """The C3 merge over id sequences, with the naive baseline's exact
    selection rule (head of the first sequence that appears in no tail)
    but head-pointer bookkeeping instead of per-round list rebuilds —
    O(result × #sequences) instead of O(result × total-length)."""
    sequences = [seq for seq in sequences if seq]
    heads = [0] * len(sequences)
    tail_count: dict[int, int] = {}
    for seq in sequences:
        for element in seq[1:]:
            tail_count[element] = tail_count.get(element, 0) + 1
    result: list = []
    live = len(sequences)
    while live:
        chosen = None
        for index, seq in enumerate(sequences):
            head_at = heads[index]
            if head_at >= len(seq):
                continue
            head = seq[head_at]
            if not tail_count.get(head):
                chosen = head
                break
        if chosen is None:
            stuck = [
                ch.class_names[seq[heads[index]]]
                for index, seq in enumerate(sequences)
                if heads[index] < len(seq)
            ]
            raise SemanticsRejection(
                "c3",
                ch.class_names[cid],
                f"cannot create a consistent MRO: heads {stuck!r} "
                "all appear in tails",
            )
        result.append(chosen)
        for index, seq in enumerate(sequences):
            head_at = heads[index]
            if head_at < len(seq) and seq[head_at] == chosen:
                head_at += 1
                heads[index] = head_at
                if head_at < len(seq):
                    tail_count[seq[head_at]] -= 1
                else:
                    live -= 1
    return result


def c3_linearization_ids(
    ch: CompiledHierarchy,
    cid: int,
    memo: Optional[dict] = None,
) -> tuple:
    """The C3 MRO of one class as interned ids, memoised in ``memo``
    (pass one dict across calls to share the ancestor linearisations).
    Raises :class:`SemanticsRejection` for the first unlinearisable
    class encountered.  This is also what the delegating
    :class:`repro.baselines.c3_mro.C3Lookup` resolves through."""
    if memo is None:
        memo = {}
    known = memo.get(cid)
    if known is not None:
        return known
    base_pairs = ch.base_pairs
    stack = [(cid, False)]
    while stack:
        node, expanded = stack.pop()
        if node in memo:
            continue
        if expanded:
            bases = [base for base, _virtual in base_pairs[node]]
            sequences = [list(memo[base]) for base in bases]
            sequences.append(list(bases))
            memo[node] = (node, *_c3_merge(ch, node, sequences))
        else:
            stack.append((node, True))
            for base, _virtual in base_pairs[node]:
                if base not in memo:
                    stack.append((base, False))
    return memo[cid]


class C3Semantics(Semantics):
    """Member lookup by MRO scan, Python/Dylan-style: the first
    declaration along ``L(C)`` wins, so nothing is ever ambiguous — but
    hierarchies whose base orders cannot be linearised monotonically
    are rejected outright (:class:`SemanticsRejection`), which C++
    accepts happily.  Both directions are catalogued divergences."""

    name = "c3"

    def _fill_row(self, ch, cid, mro, needed) -> dict:
        declared_masks = ch.declared_masks
        row: dict = {}
        for declarer in mro:
            hit = declared_masks[declarer] & needed
            if not hit:
                continue
            entry = (declarer, NONE_ID, None)
            needed &= ~hit
            while hit:
                low = hit & -hit
                hit ^= low
                row[low.bit_length() - 1] = entry
            if not needed:
                break
        return row

    def sweep(self, ch, *, stats=None, track_witnesses=True,
              certificate=None):
        rows: list = [None] * ch.n_classes
        visible_masks = ch.visible_masks
        memo: dict = {}
        entries = 0
        for cid in ch.topo_order:
            needed = visible_masks[cid]
            if not needed:
                rows[cid] = {}
                continue
            mro = c3_linearization_ids(ch, cid, memo)
            row = self._fill_row(ch, cid, mro, needed)
            entries += len(row)
            rows[cid] = row
        if stats is not None:
            stats.classes_visited += len(ch.topo_order)
            stats.entries_computed += entries
        return rows

    def cone_sweep(self, ch, rows, *, cone_mask, member_mask, stats=None,
                   track_witnesses=True, certificate=None):
        visible_masks = ch.visible_masks
        cone_classes = 0
        recomputed = 0
        boundary = 0
        memo: dict = {}
        cone_ids = _mask_ids(cone_mask)
        cone_ids.sort(key=ch.topo_positions.__getitem__)
        for cid in cone_ids:
            cone_classes += 1
            row = rows[cid]
            row = rows[cid] = dict(row) if row else {}
            for base, _virtual in ch.base_pairs[cid]:
                if not (cone_mask >> base) & 1:
                    boundary += 1
            affected = visible_masks[cid] & member_mask
            if affected:
                mro = c3_linearization_ids(ch, cid, memo)
                fresh = self._fill_row(ch, cid, mro, affected)
                row.update(fresh)
                recomputed += len(fresh)
            stale = member_mask & ~visible_masks[cid]
            if stale and row:
                for mid in [mid for mid in row if (stale >> mid) & 1]:
                    del row[mid]
        if stats is not None:
            stats.classes_visited += cone_classes
            stats.entries_computed += recomputed
        return ConeSweepStats(
            cone_classes=cone_classes,
            entries_recomputed=recomputed,
            boundary_rows=boundary,
        )


# ----------------------------------------------------------------------
# g++ 2.7.2.1 breadth-first subobject scan
# ----------------------------------------------------------------------


class GxxBfsSemantics(Semantics):
    """The g++ 2.7.2.1 strategy (Section 7.1), bug included, computed
    per class over an *interned* subobject enumeration instead of the
    materialised :class:`~repro.subobjects.graph.SubobjectGraph`.

    Per complete type the breadth-first discovery of
    ``SubobjectGraph._build`` is reproduced on ids: a virtual edge to
    ``X`` collapses to the single interning key ``~X`` (all v-paths to
    a virtual base are one ≈-class), a non-virtual edge to ``X`` under
    container subobject ``s`` interns as ``(s, X)`` — O(1) keys where
    the string implementation interned whole fixed-path tuples.  The
    enumeration is shared by every member's scan; dominance is memoised
    base-closure reachability over the containment edges, computed only
    among *declaring* subobjects, so unambiguous columns never pay for
    it.  The scan itself is the baseline's loop verbatim: first
    incomparable pair ⇒ report ambiguity and quit — unsound on
    Figure 9, which is the point.

    Least-virtual comes free from the interning: a subobject's
    ``leastVirtual`` is the last fixed node of its representative, which
    the discovery threads through as a single integer per subobject.
    Witness paths are carried as ldc-headed cons cells (O(1) per edge)
    and converted to kernel witness cells only for winners.
    """

    name = "gxx-bfs"

    def _enumerate(self, ch: CompiledHierarchy, cid: int):
        """BFS-discover the subobjects of complete type ``cid``.

        Returns ``(ldcs, fixed_last, reps, children)``, index-aligned
        lists in discovery order (root first): the subobject's class,
        the last node of its fixed path (``== cid`` ⇔ non-virtual
        subobject), its representative as an ldc-headed cons chain
        ``(class, edge_to_container_virtual, parent)``, and its
        contained (base) subobjects' indices in base-declaration order.
        """
        base_pairs = ch.base_pairs
        interned: dict = {}
        ldcs = [cid]
        fixed_last = [cid]
        reps: list = [(cid, False, None)]
        children: list = [[]]
        queue = deque((0,))
        while queue:
            container = queue.popleft()
            holder = ldcs[container]
            kids = children[container]
            for base, virtual in base_pairs[holder]:
                key = ~base if virtual else (container, base)
                index = interned.get(key)
                if index is None:
                    index = len(ldcs)
                    interned[key] = index
                    ldcs.append(base)
                    fixed_last.append(
                        base if virtual else fixed_last[container]
                    )
                    reps.append((base, bool(virtual), reps[container]))
                    children.append([])
                    queue.append(index)
                if index not in kids:
                    kids.append(index)
        return ldcs, fixed_last, reps, children

    @staticmethod
    def _reach(index: int, children: list, memo: dict) -> int:
        """Reflexive base-closure of one subobject, as a bitmask over
        subobject indices (the containment poset's ``dominated_by``)."""
        known = memo.get(index)
        if known is not None:
            return known
        stack = [(index, False)]
        while stack:
            node, expanded = stack.pop()
            if node in memo:
                continue
            if expanded:
                mask = 1 << node
                for child in children[node]:
                    mask |= memo[child]
                memo[node] = mask
            else:
                stack.append((node, True))
                for child in children[node]:
                    if child not in memo:
                        stack.append((child, False))
        return memo[index]

    @staticmethod
    def _witness_cell(rep) -> tuple:
        """ldc-headed rep chain to a kernel witness cons (mdc-headed,
        each cell flagging the edge *into* its node from below)."""
        nodes: list = []
        cell = rep
        while cell is not None:
            nodes.append(cell)
            cell = cell[2]
        witness = (nodes[0][0], False, None)
        for index in range(1, len(nodes)):
            witness = (nodes[index][0], nodes[index - 1][1], witness)
        return witness

    def _row(self, ch, cid, needed, track_witnesses,
             counters: list) -> dict:
        """One complete type's row over the ``needed`` member mask."""
        ldcs, fixed_last, reps, children = self._enumerate(ch, cid)
        declared_masks = ch.declared_masks
        buckets: dict[int, list] = {}
        for index, ldc in enumerate(ldcs):
            hit = declared_masks[ldc] & needed
            while hit:
                low = hit & -hit
                hit ^= low
                mid = low.bit_length() - 1
                bucket = buckets.get(mid)
                if bucket is None:
                    buckets[mid] = [index]
                else:
                    bucket.append(index)
        row: dict = {}
        reach_memo: dict = {}
        for mid, bucket in buckets.items():
            best = bucket[0]
            entry = None
            for index in bucket[1:]:
                if (self._reach(index, children, reach_memo) >> best) & 1:
                    best = index
                elif not (
                    (self._reach(best, children, reach_memo) >> index) & 1
                ):
                    # The unsound early exit: ambiguity at the first
                    # incomparable pair, later dominators unseen.
                    entry = KernelBlue(
                        0,
                        frozenset({ldcs[best], ldcs[index]}),
                    )
                    break
            if entry is None:
                least = fixed_last[best]
                entry = (
                    ldcs[best],
                    OMEGA_ID if least == cid else least,
                    self._witness_cell(reps[best])
                    if track_witnesses
                    else None,
                )
            else:
                counters[0] |= 1 << mid
                counters[1] += 1
            row[mid] = entry
        return row

    def sweep(self, ch, *, stats=None, track_witnesses=True,
              certificate=None):
        rows: list = [None] * ch.n_classes
        visible_masks = ch.visible_masks
        counters = [0, 0]
        entries = 0
        for cid in ch.topo_order:
            needed = visible_masks[cid]
            if not needed:
                rows[cid] = {}
                continue
            row = self._row(ch, cid, needed, track_witnesses, counters)
            entries += len(row)
            rows[cid] = row
        if stats is not None:
            stats.classes_visited += len(ch.topo_order)
            stats.entries_computed += entries
        if certificate is not None:
            certificate.record(counters[0], counters[1])
        return rows

    def cone_sweep(self, ch, rows, *, cone_mask, member_mask, stats=None,
                   track_witnesses=True, certificate=None):
        visible_masks = ch.visible_masks
        cone_classes = 0
        recomputed = 0
        boundary = 0
        counters = [0, 0]
        cone_ids = _mask_ids(cone_mask)
        cone_ids.sort(key=ch.topo_positions.__getitem__)
        for cid in cone_ids:
            cone_classes += 1
            row = rows[cid]
            row = rows[cid] = dict(row) if row else {}
            for base, _virtual in ch.base_pairs[cid]:
                if not (cone_mask >> base) & 1:
                    boundary += 1
            affected = visible_masks[cid] & member_mask
            if affected:
                fresh = self._row(
                    ch, cid, affected, track_witnesses, counters
                )
                row.update(fresh)
                recomputed += len(fresh)
            stale = member_mask & ~visible_masks[cid]
            if stale and row:
                for mid in [mid for mid in row if (stale >> mid) & 1]:
                    del row[mid]
        if stats is not None:
            stats.classes_visited += cone_classes
            stats.entries_computed += recomputed
        if certificate is not None:
            certificate.record(counters[0], counters[1])
        return ConeSweepStats(
            cone_classes=cone_classes,
            entries_recomputed=recomputed,
            boundary_rows=boundary,
        )


def _mask_ids(mask: int) -> list:
    ids = []
    while mask:
        low = mask & -mask
        mask ^= low
        ids.append(low.bit_length() - 1)
    return ids


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

DEFAULT_SEMANTICS = "cpp-dominance"

SEMANTICS: dict[str, Semantics] = {}


def register_semantics(semantics: Semantics) -> Semantics:
    """Register a semantics instance under its ``name`` (last wins)."""
    SEMANTICS[semantics.name] = semantics
    return semantics


for _semantics in (
    CppDominanceSemantics(),
    C3Semantics(),
    EiffelSemantics(),
    SelfSemantics(),
    GxxBfsSemantics(),
    TopoNumberSemantics(),
):
    register_semantics(_semantics)
del _semantics

#: Registered names, registration order (``cpp-dominance`` first).
SEMANTICS_NAMES: tuple[str, ...] = tuple(SEMANTICS)


def get_semantics(name) -> Semantics:
    """Resolve a semantics by name (``None`` ⇒ the default; an instance
    passes through unchanged); raises ``ValueError`` listing the
    registry on an unknown name."""
    if isinstance(name, Semantics):
        return name
    if name is None:
        name = DEFAULT_SEMANTICS
    try:
        return SEMANTICS[name]
    except KeyError:
        raise ValueError(
            f"unknown semantics {name!r} (choose from "
            f"{', '.join(SEMANTICS)})"
        ) from None
