"""The Class Hierarchy Graph (CHG) — the paper's central data structure.

Section 2 of the paper: the CHG is a directed acyclic graph ``(N, E)`` whose
nodes are the classes of the program and whose edges denote *direct*
inheritance.  An edge ``X -> Y`` means ``X`` is a direct base of ``Y``;
edges are partitioned into virtual (``E_v``) and non-virtual (``E_nv``)
edges.  Every class carries the set ``M[X]`` of members declared directly
in it.

Edges here therefore point from base to derived, matching the paper's
notation (paths run from the least derived class, ``ldc``, to the most
derived class, ``mdc``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.errors import (
    CycleError,
    DuplicateBaseError,
    DuplicateClassError,
    DuplicateMemberError,
    UnknownClassError,
)
from repro.hierarchy.members import Access, Member, as_member


@dataclass(frozen=True)
class Inheritance:
    """One direct-inheritance edge ``base -> derived``.

    ``virtual`` distinguishes ``E_v`` from ``E_nv``.  ``access`` is the
    access specifier of the inheritance (used only by :mod:`repro.access`;
    lookup itself ignores it, per Section 6 of the paper).
    """

    base: str
    derived: str
    virtual: bool = False
    access: Access = Access.PUBLIC

    def __str__(self) -> str:
        arrow = "-v->" if self.virtual else "--->"
        return f"{self.base} {arrow} {self.derived}"


@dataclass
class _ClassInfo:
    """Internal per-class record."""

    name: str
    members: dict[str, Member] = field(default_factory=dict)
    bases: list[Inheritance] = field(default_factory=list)
    derived: list[Inheritance] = field(default_factory=list)
    is_struct: bool = False
    created_gen: int = 0


class ClassHierarchyGraph:
    """A mutable class hierarchy graph with validation.

    Classes must be declared before they are used as bases (mirroring the
    C++ requirement that base classes be complete types), which makes the
    graph acyclic by construction; :meth:`validate` re-checks all
    invariants regardless, for graphs assembled by other means.

    The graph preserves declaration order of classes, of direct bases, and
    of members — order is semantically relevant in C++ (e.g. for the
    breadth-first g++ baseline and for object layout).
    """

    #: Touch-interval list size past which the oldest intervals are
    #: folded into :attr:`_compat_floor` (see :meth:`_note_touch`).
    _COMPAT_INTERVAL_CAP = 256

    def __init__(self) -> None:
        self._classes: dict[str, _ClassInfo] = {}
        self._edges: list[Inheritance] = []
        self._generation = 0
        # The highest generation ever read through :attr:`generation`:
        # a snapshot can only be named by a generation someone has seen.
        self._observed = 0
        self._compiled = None
        # Delta-compatibility bookkeeping: every mutation that touches a
        # class some observed generation already contains (a new member,
        # a new base edge) records the half-open generation interval
        # [created_gen(C), g_after) of snapshots it breaks; snapshots at
        # or below _compat_floor are conservatively treated as broken
        # once intervals get folded.
        self._compat_breaks: list[tuple[int, int]] = []
        self._compat_floor = -1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_class(
        self,
        name: str,
        members: Iterable[Member | str] = (),
        *,
        is_struct: bool = False,
    ) -> None:
        """Declare a new class with its directly declared members."""
        if not name:
            raise ValueError("class name must be non-empty")
        if name in self._classes:
            raise DuplicateClassError(name)
        self._generation += 1
        info = _ClassInfo(
            name=name, is_struct=is_struct, created_gen=self._generation
        )
        self._classes[name] = info
        for spec in members:
            self.add_member(name, spec)

    def add_member(self, class_name: str, spec: Member | str) -> None:
        """Add a member to an already-declared class."""
        info = self._info(class_name)
        member = as_member(spec)
        if member.name in info.members:
            raise DuplicateMemberError(class_name, member.name)
        info.members[member.name] = member
        self._generation += 1
        self._note_touch(info)

    def add_edge(
        self,
        base: str,
        derived: str,
        *,
        virtual: bool = False,
        access: Access = Access.PUBLIC,
    ) -> Inheritance:
        """Record that ``base`` is a direct (virtual or non-virtual) base
        of ``derived``."""
        base_info = self._info(base)
        derived_info = self._info(derived)
        if base == derived:
            raise CycleError((base, derived))
        for existing in derived_info.bases:
            if existing.base == base:
                raise DuplicateBaseError(derived, base)
        edge = Inheritance(base=base, derived=derived, virtual=virtual, access=access)
        derived_info.bases.append(edge)
        base_info.derived.append(edge)
        self._edges.append(edge)
        self._generation += 1
        # Only the derived side gains a base edge; the base side merely
        # gains a derived-list entry, which no snapshot prefix exposes.
        self._note_touch(derived_info)
        return edge

    def _note_touch(self, info: _ClassInfo) -> None:
        """Record that ``info`` was mutated after creation: snapshots
        taken in ``[info.created_gen, generation)`` can no longer be
        extended as pure downward growth.

        A class created after the last observed generation breaks no
        snapshot: every generation handed out so far predates it, and
        every later one includes this mutation.  Streaming growth fills
        each new class right after declaring it, so it records nothing
        and the interval list never reaches the fold."""
        start = info.created_gen
        if start > self._observed:
            return
        breaks = self._compat_breaks
        breaks.append((start, self._generation))
        if len(breaks) > self._COMPAT_INTERVAL_CAP:
            breaks.sort(key=lambda interval: interval[1])
            half = len(breaks) // 2
            self._compat_floor = max(
                self._compat_floor, breaks[half - 1][1] - 1
            )
            del breaks[:half]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def classes(self) -> tuple[str, ...]:
        """All class names, in declaration order."""
        return tuple(self._classes)

    @property
    def edges(self) -> tuple[Inheritance, ...]:
        """All inheritance edges, in declaration order."""
        return tuple(self._edges)

    def __contains__(self, name: object) -> bool:
        return name in self._classes

    def __len__(self) -> int:
        return len(self._classes)

    def has_edge(self, base: str, derived: str) -> bool:
        return any(e.base == base for e in self._info(derived).bases)

    def edge(self, base: str, derived: str) -> Inheritance:
        for e in self._info(derived).bases:
            if e.base == base:
                return e
        raise UnknownClassError(f"{base} -> {derived}")

    def direct_bases(self, name: str) -> tuple[Inheritance, ...]:
        """Direct-base edges of ``name``, in declaration order."""
        return tuple(self._info(name).bases)

    def direct_base_names(self, name: str) -> tuple[str, ...]:
        return tuple(e.base for e in self._info(name).bases)

    def direct_derived(self, name: str) -> tuple[Inheritance, ...]:
        """Edges from ``name`` to its direct derived classes."""
        return tuple(self._info(name).derived)

    def declared_members(self, name: str) -> Mapping[str, Member]:
        """``M[name]``: members declared directly in the class."""
        return dict(self._info(name).members)

    def declares(self, class_name: str, member: str) -> bool:
        """True iff ``member in M[class_name]``."""
        return member in self._info(class_name).members

    def member(self, class_name: str, member: str) -> Member:
        info = self._info(class_name)
        if member not in info.members:
            raise KeyError(f"{class_name!r} declares no member {member!r}")
        return info.members[member]

    def member_names(self) -> tuple[str, ...]:
        """All member names declared anywhere in the program (``|M|``),
        in first-declaration order."""
        seen: dict[str, None] = {}
        for info in self._classes.values():
            for name in info.members:
                seen.setdefault(name)
        return tuple(seen)

    def is_struct(self, name: str) -> bool:
        return self._info(name).is_struct

    # ------------------------------------------------------------------
    # Derived relations
    # ------------------------------------------------------------------

    def is_base_of(self, base: str, derived: str) -> bool:
        """True iff there is a *nonempty* path ``base -> ... -> derived``
        (the paper's definition of "base class")."""
        self._info(base)
        self._info(derived)
        if base == derived:
            return False
        seen = {derived}
        stack = [derived]
        while stack:
            current = stack.pop()
            for edge in self._info(current).bases:
                if edge.base == base:
                    return True
                if edge.base not in seen:
                    seen.add(edge.base)
                    stack.append(edge.base)
        return False

    def ancestors(self, name: str) -> frozenset[str]:
        """All (strict) base classes of ``name``."""
        result: set[str] = set()
        stack = [name]
        while stack:
            for edge in self._info(stack.pop()).bases:
                if edge.base not in result:
                    result.add(edge.base)
                    stack.append(edge.base)
        return frozenset(result)

    def descendants(self, name: str) -> frozenset[str]:
        """All classes that have ``name`` as a (strict) base."""
        result: set[str] = set()
        stack = [name]
        while stack:
            for edge in self._info(stack.pop()).derived:
                if edge.derived not in result:
                    result.add(edge.derived)
                    stack.append(edge.derived)
        return frozenset(result)

    def roots(self) -> tuple[str, ...]:
        """Classes with no bases, in declaration order."""
        return tuple(n for n, i in self._classes.items() if not i.bases)

    def leaves(self) -> tuple[str, ...]:
        """Classes with no derived classes, in declaration order."""
        return tuple(n for n, i in self._classes.items() if not i.derived)

    def edge_count(self) -> int:
        return len(self._edges)

    def base_count(self, name: str) -> int:
        """Number of direct-base edges of ``name`` (no tuple built)."""
        return len(self._info(name).bases)

    def member_count(self, name: str) -> int:
        """Number of directly declared members of ``name``."""
        return len(self._info(name).members)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Mutation counter: bumped by every class/member/edge addition.

        A :class:`~repro.hierarchy.compiled.CompiledHierarchy` carries
        the generation it was compiled at, so engines can detect
        staleness with a single integer comparison.  Reading it marks
        the generation as observed (see :meth:`_note_touch`).
        """
        generation = self._observed = self._generation
        return generation

    def grew_monotonically_since(self, generation: int) -> bool:
        """True iff every mutation after ``generation`` was pure
        downward growth relative to the state at ``generation``: new
        classes appended (with their members and base edges), nothing
        added to a class that already existed then.

        This is the delta-compatibility precondition of
        :func:`~repro.hierarchy.compiled.compile_hierarchy` answered in
        O(recent touches) from bookkeeping instead of an O(|N|) scan.
        Conservative: may return ``False`` for a compatible snapshot
        (once old touch intervals are folded into the floor), never
        ``True`` for an incompatible one.
        """
        if generation > self._generation:
            return False
        if generation <= self._compat_floor:
            return False
        # Intervals are appended with nondecreasing ``end`` (the
        # generation after each touch), so walking from the back stops
        # at the first interval that predates the snapshot.
        for start, end in reversed(self._compat_breaks):
            if end <= generation:
                break
            if start <= generation:
                return False
        return True

    def compile(self):
        """The interned, array-shaped snapshot of the current generation.

        Memoised: repeated calls between mutations return the same
        :class:`~repro.hierarchy.compiled.CompiledHierarchy` object, and
        recompiling after growth reuses the previous snapshot so interned
        ids stay stable (appended, never shifted) and pure downward
        growth is compiled as a cheap delta.
        """
        from repro.hierarchy.compiled import compile_hierarchy

        if self._compiled is None or self._compiled.generation != self._generation:
            self._compiled = compile_hierarchy(self, previous=self._compiled)
        return self._compiled

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check all structural invariants; raise :class:`HierarchyError`
        subclasses on violation.

        ``add_edge`` already prevents duplicate direct bases and
        self-loops, but graphs can be assembled gradually and this method
        performs a full acyclicity check.
        """
        colour: dict[str, int] = {}  # 0 unvisited / 1 in-progress / 2 done
        for name in self._classes:
            if colour.get(name, 0) == 2:
                continue
            # Iterative DFS (hierarchies can be deeper than the Python
            # recursion limit).
            trail: list[str] = []
            stack: list[tuple[str, bool]] = [(name, False)]
            while stack:
                node, leaving = stack.pop()
                if leaving:
                    trail.pop()
                    colour[node] = 2
                    continue
                state = colour.get(node, 0)
                if state == 2:
                    continue
                if state == 1:
                    start = trail.index(node)
                    raise CycleError(tuple(trail[start:] + [node]))
                colour[node] = 1
                trail.append(node)
                stack.append((node, True))
                for edge in self._info(node).bases:
                    if edge.base not in self._classes:
                        raise UnknownClassError(edge.base)
                    if colour.get(edge.base, 0) != 2:
                        stack.append((edge.base, False))

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def _info(self, name: str) -> _ClassInfo:
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownClassError(name) from None

    def iter_class_members(self) -> Iterator[tuple[str, Member]]:
        """Yield every ``(class, member)`` declaration pair."""
        for name, info in self._classes.items():
            for member in info.members.values():
                yield name, member

    def __repr__(self) -> str:
        return (
            f"ClassHierarchyGraph(classes={len(self._classes)}, "
            f"edges={len(self._edges)})"
        )

    def summary(self) -> str:
        """A short multi-line description, useful in examples and docs."""
        lines = [f"hierarchy with {len(self)} classes, {self.edge_count()} edges"]
        for name, info in self._classes.items():
            bases = ", ".join(
                ("virtual " if e.virtual else "") + e.base for e in info.bases
            )
            head = f"  {name}" + (f" : {bases}" if bases else "")
            members = ", ".join(str(m) for m in info.members.values())
            if members:
                head += f" {{ {members} }}"
            lines.append(head)
        return "\n".join(lines)
