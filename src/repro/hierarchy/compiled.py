"""A frozen, interned snapshot of a class hierarchy graph.

The paper's complexity results are all phrased over the CHG ``(N, E)``,
but the mutable :class:`~repro.hierarchy.graph.ClassHierarchyGraph` keys
everything on Python strings, and every engine used to re-derive the
topological order and the virtual-base relation per instance.  This
module compiles a hierarchy once into an array-shaped substrate that all
engines share:

* class and member names are interned into dense integer ids (the
  reverse tables ``class_names`` / ``member_names`` keep the public
  string API byte-for-byte identical);
* the direct-base adjacency is stored as flat CSR-style arrays
  (``base_offsets`` / ``base_targets``) with a parallel virtual-edge
  flag array, and both directions get per-class tuple views
  (``base_pairs`` / ``derived_pairs``) for hot loops;
* the topological order, per-class declared-member id sets, the visible
  member sets and the virtual-base relation are precomputed once; the
  virtual-base relation is a per-class *int bitmask*, so Lemma 4's
  dominance test becomes two bit operations
  (see :func:`repro.core.kernel.dominates`);
* ``generation`` mirrors the source graph's mutation counter, and
  :func:`compile_hierarchy` recompiles *deltas* cheaply when the graph
  only grew downward (new classes appended — the common compiler case),
  which delta maintenance and streaming ingest rely on.

Engines accept either a graph (compiled on demand and memoised via
:meth:`ClassHierarchyGraph.compile`) or an already compiled hierarchy.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from repro.errors import CycleError, UnknownClassError
from repro.hierarchy.graph import ClassHierarchyGraph

#: Interned stand-in for the paper's Ω symbol ("no virtual edge on the
#: path").  Any valid class id is >= 0, so -1 is distinct from every
#: abstraction, mirroring Definition 13's requirement.
OMEGA_ID = -1

#: Second sentinel for the alternative dispatch semantics
#: (:mod:`repro.core.semantics`): "this rule does not track a least
#: virtual abstraction at all".  Distinct from every class id *and* from
#: :data:`OMEGA_ID`, and rendered as ``None`` (not Ω) at the result
#: boundary, matching the string-keyed baselines exactly.
NONE_ID = -2


class CompiledHierarchy:
    """An immutable, integer-indexed view of one graph generation.

    Instances are produced by :func:`compile_hierarchy` (or the memoised
    :meth:`ClassHierarchyGraph.compile`); all arrays are index-aligned
    with the dense class ids, which follow declaration order and are
    *stable across recompiles* — recompiling after growth only appends
    ids, so caches keyed on ``(class_id, member_id)`` stay valid.
    """

    __slots__ = (
        "source",
        "generation",
        "class_names",
        "class_ids",
        "member_names",
        "member_ids",
        "base_offsets",
        "base_targets",
        "base_virtual",
        "base_pairs",
        "derived_pairs",
        "topo_order",
        "topo_positions",
        "virtual_base_masks",
        "declared_masks",
        "declared_mids",
        "visible_masks",
        "_lineage",
        "_ordered_visible",
        "_descendant_masks",
        "_member_class_masks",
    )

    def __init__(self) -> None:  # populated by compile_hierarchy
        # Pure-growth ancestry: generation -> n_classes of every earlier
        # snapshot this one extends without touching, so describe_delta
        # can certify prefix stability in O(1) (see _compile_delta).
        self._lineage: dict[int, int] = {}
        self._ordered_visible: dict[int, tuple[int, ...]] = {}
        self._descendant_masks: Optional[list[int]] = None
        self._member_class_masks: Optional[list[int]] = None

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def n_members(self) -> int:
        return len(self.member_names)

    def class_id(self, name: str) -> int:
        """The dense id of ``name``; raises :class:`UnknownClassError`."""
        try:
            return self.class_ids[name]
        except KeyError:
            raise UnknownClassError(name) from None

    def class_name(self, cid: int) -> str:
        return self.class_names[cid]

    def member_id(self, name: str) -> Optional[int]:
        """The dense id of a member name, or ``None`` if no class in the
        hierarchy declares it."""
        return self.member_ids.get(name)

    # ------------------------------------------------------------------
    # Structure queries (all O(1) / O(out-degree))
    # ------------------------------------------------------------------

    def declares_id(self, cid: int, mid: int) -> bool:
        """``m in M[C]`` on interned ids (one shift + one mask)."""
        return (self.declared_masks[cid] >> mid) & 1 == 1

    def visible_id(self, cid: int, mid: int) -> bool:
        """Is ``m`` a member of any subobject of ``C``?"""
        return (self.visible_masks[cid] >> mid) & 1 == 1

    def is_virtual_base_id(self, base: int, derived: int) -> bool:
        """Lemma 4's precomputed relation, as a single bit probe."""
        return (self.virtual_base_masks[derived] >> base) & 1 == 1

    def descendants_ids(self, cid: int) -> set[int]:
        """All transitive derived classes of ``cid`` (strict)."""
        seen: set[int] = set()
        stack = [cid]
        while stack:
            for target, _virtual in self.derived_pairs[stack.pop()]:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return seen

    def descendant_masks(self) -> list[int]:
        """Per-class bitmask of *strict* transitive derived classes —
        the dual of ``virtual_base_masks``, and the substrate of delta
        maintenance: a mutation at ``X`` can only change lookup answers
        inside ``{X} | descendants(X)`` (Definition 7: ``lookup(C, m)``
        is a function of ``C``'s own subobject graph, which mentions no
        class outside ``C``'s base closure).

        Built lazily in one reversed-topological pass, O(|N|·|E|/w)
        word operations, and memoised for the snapshot's lifetime.
        """
        masks = self._descendant_masks
        if masks is None:
            masks = [0] * self.n_classes
            for cid in reversed(self.topo_order):
                acc = 0
                for target, _virtual in self.derived_pairs[cid]:
                    acc |= masks[target] | (1 << target)
                masks[cid] = acc
            self._descendant_masks = masks
        return masks

    def cone_mask_of(self, cid: int) -> int:
        """The invalidation cone of a mutation at ``cid``: the class
        itself plus every transitive derived class, as a bitmask."""
        return self.descendant_masks()[cid] | (1 << cid)

    def member_class_masks(self) -> list[int]:
        """Per-member bitmask of the classes the member is visible in —
        the transpose of ``visible_masks``, and the column footprint the
        columnar layout (:mod:`repro.core.columnar`) materialises:
        flattening a column visits exactly these classes instead of an
        unconditional ``O(|N|)`` scan per column.

        Built lazily in one pass over the visible bitsets (O(visible
        cells)) and memoised for the snapshot's lifetime.
        """
        masks = self._member_class_masks
        if masks is None:
            masks = [0] * self.n_members
            for cid, visible in enumerate(self.visible_masks):
                bit = 1 << cid
                while visible:
                    low = visible & -visible
                    visible ^= low
                    masks[low.bit_length() - 1] |= bit
            self._member_class_masks = masks
        return masks

    def classes_with_member(self, mid: int) -> int:
        """The bitmask of classes in which member id ``mid`` is visible
        (``Members[C] ∋ m`` transposed to the member axis)."""
        return self.member_class_masks()[mid]

    def ordered_visible(self, cid: int) -> tuple[int, ...]:
        """``Members[C]`` as member ids, in the deterministic order the
        seed algorithm produced them: ``C``'s declarations first (in
        declaration order), then each direct base's visible members in
        base-declaration order, duplicates dropped.

        Computed lazily and memoised; iterative so hierarchies deeper
        than the recursion limit are fine.
        """
        cache = self._ordered_visible
        if cid in cache:
            return cache[cid]
        stack: list[tuple[int, bool]] = [(cid, False)]
        while stack:
            node, expanded = stack.pop()
            if node in cache:
                continue
            if expanded:
                merged: dict[int, None] = dict.fromkeys(
                    self.declared_mids[node]
                )
                for base, _virtual in self.base_pairs[node]:
                    merged.update(dict.fromkeys(cache[base]))
                cache[node] = tuple(merged)
            else:
                stack.append((node, True))
                for base, _virtual in self.base_pairs[node]:
                    if base not in cache:
                        stack.append((base, False))
        return cache[cid]

    # ------------------------------------------------------------------
    # Pickling (the frozen arrays only; the source graph stays behind)
    # ------------------------------------------------------------------

    def __getstate__(self):
        """Everything but the mutable ``source`` graph and the lazily
        built memos.  Dropping ``source`` is what makes the snapshot
        picklable at all (the graph is an open-ended object web), and a
        copy must only ever see the frozen arrays, never a graph that
        keeps mutating after the copy was taken."""
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot
            not in (
                "source",
                "_lineage",
                "_ordered_visible",
                "_descendant_masks",
                "_member_class_masks",
            )
        }

    def __setstate__(self, state) -> None:
        self.source = None  # detached: an unpickled snapshot has no graph
        self._lineage = {}
        self._ordered_visible = {}
        self._descendant_masks = None
        self._member_class_masks = None
        for slot, value in state.items():
            setattr(self, slot, value)

    def __repr__(self) -> str:
        return (
            f"CompiledHierarchy(classes={self.n_classes}, "
            f"members={self.n_members}, generation={self.generation})"
        )


#: What the engines accept: the mutable builder graph or its compiled form.
HierarchyLike = Union[ClassHierarchyGraph, CompiledHierarchy]


def hierarchy_of(obj: HierarchyLike) -> ClassHierarchyGraph:
    """The underlying mutable graph of either input form."""
    if isinstance(obj, CompiledHierarchy):
        return obj.source
    return obj


def compiled_of(obj: HierarchyLike) -> CompiledHierarchy:
    """The compiled form of either input, compiling (memoised) if needed."""
    if isinstance(obj, CompiledHierarchy):
        return obj
    return obj.compile()


def compile_hierarchy(
    graph: ClassHierarchyGraph,
    previous: Optional[CompiledHierarchy] = None,
) -> CompiledHierarchy:
    """Compile ``graph`` into a :class:`CompiledHierarchy`.

    When ``previous`` is a compilation of an earlier generation of the
    *same* graph and the graph has only grown downward since (classes
    appended; no members or edges added to pre-existing classes), the
    old arrays are extended instead of rebuilt — O(new work), with
    delta-compatibility answered from the graph's touch bookkeeping
    (:meth:`ClassHierarchyGraph.grew_monotonically_since`) rather than
    an O(old classes) scan.  The acyclicity revalidation is skipped on
    that path too: old classes' base lists are unchanged, so their
    upward closure stays inside the (already validated) old prefix and
    any new cycle must live entirely among the appended classes, where
    the suffix Kahn pass of :func:`_finish` detects it.  Any other
    mutation falls back to a full rebuild that still reuses the
    interner, so ids never shift.
    """
    if previous is not None and previous.source is not graph:
        previous = None

    if (
        previous is not None
        and len(graph) >= previous.n_classes
        and graph.grew_monotonically_since(previous.generation)
    ):
        return _compile_delta(graph, previous)
    graph.validate()
    return _compile_full(graph, previous, graph.classes)


def _compile_full(
    graph: ClassHierarchyGraph,
    previous: Optional[CompiledHierarchy],
    names: tuple[str, ...],
) -> CompiledHierarchy:
    ch = CompiledHierarchy()
    ch.source = graph
    ch.generation = graph.generation

    # --- interning (reuse the previous tables so ids stay stable) -----
    class_ids = dict(previous.class_ids) if previous is not None else {}
    member_ids = dict(previous.member_ids) if previous is not None else {}
    for name in names:
        if name not in class_ids:
            class_ids[name] = len(class_ids)
    declared_mids: list[tuple[int, ...]] = []
    for name in names:
        mids = []
        for member_name in graph.declared_members(name):
            mid = member_ids.setdefault(member_name, len(member_ids))
            mids.append(mid)
        declared_mids.append(tuple(mids))

    ch.class_ids = class_ids
    ch.class_names = tuple(names)
    ch.member_ids = member_ids
    ch.member_names = tuple(member_ids)
    ch.declared_mids = tuple(declared_mids)

    # --- CSR adjacency with parallel virtual-flag arrays --------------
    base_lists = [
        tuple(
            (class_ids[e.base], 1 if e.virtual else 0)
            for e in graph.direct_bases(name)
        )
        for name in names
    ]
    _fill_adjacency(ch, base_lists)
    _finish(graph, ch, base_lists, start=0, previous=None)
    return ch


#: Pure-growth ancestry entries kept per snapshot; older generations
#: fall off and their describe_delta calls take the O(|N|) slow path.
_LINEAGE_CAP = 128


def _compile_delta(
    graph: ClassHierarchyGraph,
    previous: CompiledHierarchy,
) -> CompiledHierarchy:
    """Extend ``previous`` with the appended classes: every shared
    structure is copied by reference or flat memcpy, so the whole
    recompile is O(new classes + new edges) plus O(|N|) pointer copies
    — no per-edge Python loop over the old graph."""
    ch = CompiledHierarchy()
    ch.source = graph
    ch.generation = graph.generation
    old_n = previous.n_classes
    names = graph.classes

    class_ids = dict(previous.class_ids)
    member_ids = dict(previous.member_ids)
    new_names = names[old_n:]
    for name in new_names:
        class_ids[name] = len(class_ids)
    declared_mids = list(previous.declared_mids)
    for name in new_names:
        mids = []
        for member_name in graph.declared_members(name):
            mid = member_ids.setdefault(member_name, len(member_ids))
            mids.append(mid)
        declared_mids.append(tuple(mids))

    ch.class_ids = class_ids
    ch.class_names = names
    ch.member_ids = member_ids
    ch.member_names = tuple(member_ids)
    ch.declared_mids = tuple(declared_mids)

    lineage = dict(previous._lineage)
    lineage[previous.generation] = old_n
    if len(lineage) > _LINEAGE_CAP:
        for generation in sorted(lineage)[: len(lineage) - _LINEAGE_CAP]:
            del lineage[generation]
    ch._lineage = lineage

    new_lists = [
        tuple(
            (class_ids[e.base], 1 if e.virtual else 0)
            for e in graph.direct_bases(name)
        )
        for name in new_names
    ]
    base_lists = list(previous.base_pairs) + new_lists
    _extend_adjacency(ch, previous, new_lists)
    _finish(graph, ch, base_lists, start=old_n, previous=previous)
    return ch


def _fill_adjacency(
    ch: CompiledHierarchy,
    base_lists: list[tuple[tuple[int, int], ...]],
) -> None:
    n = len(base_lists)
    base_offsets = array("q", [0])
    base_targets = array("q")
    base_virtual = array("b")
    offset = 0
    for pairs in base_lists:
        for target, virtual in pairs:
            base_targets.append(target)
            base_virtual.append(virtual)
        offset += len(pairs)
        base_offsets.append(offset)
    ch.base_offsets = base_offsets
    ch.base_targets = base_targets
    ch.base_virtual = base_virtual
    ch.base_pairs = tuple(base_lists)

    derived_lists: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for derived, pairs in enumerate(base_lists):
        for target, virtual in pairs:
            derived_lists[target].append((derived, virtual))
    ch.derived_pairs = tuple(tuple(pairs) for pairs in derived_lists)


def _extend_adjacency(
    ch: CompiledHierarchy,
    previous: CompiledHierarchy,
    new_lists: list[tuple[tuple[int, int], ...]],
) -> None:
    """The delta twin of :func:`_fill_adjacency`: flat-copy the old CSR
    arrays (memcpy), append the new edges, and rebuild only the
    derived-pair tuples of classes that actually gained a derived
    class."""
    base_offsets = array("q", previous.base_offsets)
    base_targets = array("q", previous.base_targets)
    base_virtual = array("b", previous.base_virtual)
    offset = base_offsets[-1]
    for pairs in new_lists:
        for target, virtual in pairs:
            base_targets.append(target)
            base_virtual.append(virtual)
        offset += len(pairs)
        base_offsets.append(offset)
    ch.base_offsets = base_offsets
    ch.base_targets = base_targets
    ch.base_virtual = base_virtual
    ch.base_pairs = previous.base_pairs + tuple(new_lists)

    old_n = previous.n_classes
    added: dict[int, list[tuple[int, int]]] = {}
    for index, pairs in enumerate(new_lists):
        derived = old_n + index
        for target, virtual in pairs:
            added.setdefault(target, []).append((derived, virtual))
    derived_lists = list(previous.derived_pairs) + [()] * len(new_lists)
    for target, pairs in added.items():
        derived_lists[target] = derived_lists[target] + tuple(pairs)
    ch.derived_pairs = tuple(derived_lists)


def _finish(
    graph: ClassHierarchyGraph,
    ch: CompiledHierarchy,
    base_lists: list[tuple[tuple[int, int], ...]],
    *,
    start: int,
    previous: Optional[CompiledHierarchy],
) -> None:
    """Topological order, bitmask relations and staleness snapshots —
    either from scratch (``start == 0``) or extending ``previous``."""
    n = len(base_lists)

    if previous is None:
        prefix: tuple[int, ...] = ()
    else:
        prefix = previous.topo_order
    # Kahn over the (new suffix of the) id graph; ids are declaration
    # order, and the ready queue is drained smallest-id first, matching
    # repro.hierarchy.topo.topological_order's tie-breaking.
    from collections import deque

    indegree = [0] * n
    for cid in range(start, n):
        indegree[cid] = sum(
            1 for base, _v in base_lists[cid] if base >= start
        )
    ready = deque(cid for cid in range(start, n) if indegree[cid] == 0)
    suffix: list[int] = []
    while ready:
        cid = ready.popleft()
        suffix.append(cid)
        for target, _virtual in ch.derived_pairs[cid]:
            if target >= start:
                indegree[target] -= 1
                if indegree[target] == 0:
                    ready.append(target)
    if len(suffix) != n - start:
        # Only reachable on the delta path (the full path validated the
        # graph first): a cycle entirely among the appended classes.
        # Revalidate to raise the canonical CycleError with its trail.
        graph.validate()
        raise CycleError(
            tuple(
                ch.class_names[cid]
                for cid in range(start, n)
                if indegree[cid] > 0
            )
        )
    ch.topo_order = prefix + tuple(suffix)
    if previous is None:
        positions = array("q", bytes(8 * n))
    else:
        positions = array("q", previous.topo_positions)
        positions.extend(bytes(8 * (n - start)))
    for index in range(start, n):
        positions[ch.topo_order[index]] = index
    ch.topo_positions = positions

    if previous is None:
        virtual_base_masks = [0] * n
        declared_masks = [0] * n
        visible_masks = [0] * n
    else:
        virtual_base_masks = list(previous.virtual_base_masks) + [0] * (
            n - start
        )
        declared_masks = list(previous.declared_masks) + [0] * (n - start)
        visible_masks = list(previous.visible_masks) + [0] * (n - start)

    for cid in range(start, n):
        mask = 0
        for mid in ch.declared_mids[cid]:
            mask |= 1 << mid
        declared_masks[cid] = mask

    order = ch.topo_order if previous is None else suffix
    for cid in order:
        vb = 0
        vis = declared_masks[cid]
        for base, virtual in base_lists[cid]:
            vb |= virtual_base_masks[base]
            if virtual:
                vb |= 1 << base
            vis |= visible_masks[base]
        virtual_base_masks[cid] = vb
        visible_masks[cid] = vis

    ch.virtual_base_masks = virtual_base_masks
    ch.declared_masks = declared_masks
    ch.visible_masks = visible_masks


# ----------------------------------------------------------------------
# Delta description (the substrate of cone-restricted maintenance)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HierarchyDelta:
    """What changed between two compiled snapshots of the same graph —
    in the only vocabulary the kernel cares about: a *cone* of class
    ids whose rows may have changed and a mask of *affected* member
    ids.  Everything outside ``cone_mask × member_mask`` is provably
    untouched (rows of out-of-cone classes are exact survivors and
    serve as the boundary seeds of a cone-restricted re-sweep).

    The pair is a sound over-approximation: the cone is the union of
    the per-mutation cones and the member mask the union of the
    per-mutation member sets, so a class in the cone may be re-swept
    for a member only some *other* cone class cares about.  That costs
    wasted folds, never wrong answers.
    """

    old_generation: int
    new_generation: int
    cone_mask: int
    member_mask: int
    changed_classes: tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return self.cone_mask == 0 or self.member_mask == 0

    @property
    def cone_size(self) -> int:
        return self.cone_mask.bit_count()

    @property
    def member_count(self) -> int:
        return self.member_mask.bit_count()

    def cone_ids(self) -> Iterator[int]:
        mask = self.cone_mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def member_ids(self) -> Iterator[int]:
        mask = self.member_mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low


def describe_delta(
    old: CompiledHierarchy,
    new: CompiledHierarchy,
) -> Optional[HierarchyDelta]:
    """The :class:`HierarchyDelta` taking ``old`` to ``new``, or
    ``None`` when the snapshots are incomparable (ids shifted, classes
    vanished, or an existing class's base list was rewritten rather
    than appended to) and only a full rebuild is sound.

    Comparability piggybacks on the id-stability contract of
    :func:`compile_hierarchy`: the graph API is append-only, so a
    well-formed growth step keeps every old class name at its old id,
    keeps each old base list as a prefix of the new one, and only adds
    bits to declared masks.  When ``new``'s pure-growth lineage records
    ``old``'s generation, the prefix is certified unchanged wholesale
    and the delta is produced in O(new classes): the changed set is
    exactly the appended suffix, whose invalidation cone is the suffix
    itself (new classes can only be derived from by newer classes).
    Otherwise the check is O(old classes + old edges).
    """
    old_n = old.n_classes
    if new.n_classes < old_n:
        return None

    if (
        old.source is not None
        and old.source is new.source
        and new._lineage.get(old.generation) == old_n
    ):
        member_mask = 0
        for cid in range(old_n, new.n_classes):
            member_mask |= new.visible_masks[cid]
        if not member_mask:
            return HierarchyDelta(
                old_generation=old.generation,
                new_generation=new.generation,
                cone_mask=0,
                member_mask=0,
                changed_classes=(),
            )
        cone_mask = ((1 << new.n_classes) - 1) ^ ((1 << old_n) - 1)
        return HierarchyDelta(
            old_generation=old.generation,
            new_generation=new.generation,
            cone_mask=cone_mask,
            member_mask=member_mask,
            changed_classes=tuple(range(old_n, new.n_classes)),
        )
    if new.class_names[:old_n] != old.class_names:
        return None
    if new.member_names[: old.n_members] != old.member_names:
        return None

    changed: list[int] = []
    member_mask = 0
    for cid in range(old_n):
        affected = 0
        old_decl = old.declared_masks[cid]
        new_decl = new.declared_masks[cid]
        if old_decl & ~new_decl:
            return None  # a declaration vanished: not a growth step
        affected |= new_decl & ~old_decl
        old_bases = old.base_pairs[cid]
        new_bases = new.base_pairs[cid]
        if len(new_bases) < len(old_bases):
            return None
        if new_bases[: len(old_bases)] != old_bases:
            return None  # an existing edge was rewritten
        for base, _virtual in new_bases[len(old_bases):]:
            # Only members reaching cid through the new edge can change.
            affected |= new.visible_masks[base]
        if affected:
            changed.append(cid)
            member_mask |= affected
    for cid in range(old_n, new.n_classes):
        changed.append(cid)
        member_mask |= new.visible_masks[cid]

    cone_mask = 0
    for cid in changed:
        cone_mask |= new.cone_mask_of(cid)
    if not member_mask:
        cone_mask = 0  # memberless growth affects no lookup answer
        changed = []
    return HierarchyDelta(
        old_generation=old.generation,
        new_generation=new.generation,
        cone_mask=cone_mask,
        member_mask=member_mask,
        changed_classes=tuple(changed),
    )
