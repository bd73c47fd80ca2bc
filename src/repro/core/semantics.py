"""Pluggable dispatch semantics over one compiled substrate.

The paper's dominance rule is *one* member-dispatch semantics among
several the literature defines for multiple inheritance.  The string-
keyed baselines in :mod:`repro.baselines` model five more — C3
linearisation (Python/Dylan), Eiffel's origin-sharing rule, Self-style
visibility, g++ 2.7.2.1's breadth-first subobject scan (bug included)
and the topological-number shortcut — but none of them could be built,
published, batch-gathered or served by the table machinery, because
each carried its own dict-of-dicts representation.

This module and :mod:`repro.core.rules` (the five rules beside the
paper's, loaded on first use) port every one of them onto the interned
:class:`~repro.hierarchy.compiled.CompiledHierarchy` (dense ids, CSR
adjacency, topological order, virtual-base bitmasks) behind a single
:class:`Semantics` interface with the *same contract as the kernel
sweep*: each rule's one sweep body, ``cone_sweep``, maintains the
``rows[cid] = {mid: kernel entry}`` list under a delta exactly like
:func:`repro.core.kernel.cone_sweep` (same COW discipline, same
:class:`~repro.core.kernel.ConeSweepStats`), and a full build
(:meth:`Semantics.sweep`) is that cone sweep with every class in the
cone (Definition 7: no class lies outside it, so no boundary row is
read).  Because the row shape is
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
  ``KernelBlue(0, declarers)`` (an empty abstraction mask, the
  declarers' class-id mask).
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

from typing import Optional

from repro.core.kernel import (
    AmbiguityCertificate,
    ConeSweepStats,
    LookupStats,
    cone_sweep,
)
from repro.errors import ReproError
from repro.hierarchy.compiled import CompiledHierarchy

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
    """One dispatch rule, with the kernel sweep's build/maintain contract.

    A rule defines one sweep body, ``cone_sweep``: it re-folds ``cone ×
    affected-members`` into fresh cone row dicts, the same copy-on-write
    discipline as the kernel's, so snapshot publishing works unchanged.
    ``sweep`` (a full build) is that cone sweep over every class and
    member.  Both may raise :class:`SemanticsRejection` (checked rules
    only).
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
        """The full table rows of one compiled generation: ``rows[cid]``
        is the dict ``member id -> kernel entry`` of every member visible
        in ``cid``."""
        rows: list = [None] * ch.n_classes
        self.cone_sweep(
            ch,
            rows,
            cone_mask=(1 << ch.n_classes) - 1,
            member_mask=(1 << ch.n_members) - 1,
            stats=stats,
            track_witnesses=track_witnesses,
            certificate=certificate,
        )
        return rows

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
# Registry
# ----------------------------------------------------------------------

DEFAULT_SEMANTICS = "cpp-dominance"

#: The built-in rules' names, in registration order (``cpp-dominance``
#: first).  Only the default is defined here; the other five live in
#: :mod:`repro.core.rules` and register when it loads, on the first
#: request for one of them.
SEMANTICS_NAMES: tuple[str, ...] = (
    DEFAULT_SEMANTICS,
    "c3",
    "eiffel",
    "self",
    "gxx-bfs",
    "topo-number",
)

#: Name -> rule.  Read it as :data:`SEMANTICS`, which registers every
#: built-in rule first.
_REGISTRY: dict[str, Semantics] = {}


def register_semantics(semantics: Semantics) -> Semantics:
    """Register a semantics instance under its ``name`` (last wins)."""
    _REGISTRY[semantics.name] = semantics
    return semantics


register_semantics(CppDominanceSemantics())


def _registry() -> dict[str, Semantics]:
    """The registry with every built-in rule registered."""
    import repro.core.rules  # noqa: F401  (registers on first import)

    return _REGISTRY


def get_semantics(name) -> Semantics:
    """Resolve a semantics by name (``None`` ⇒ the default; an instance
    passes through unchanged); raises ``ValueError`` listing the
    registry on an unknown name."""
    if isinstance(name, Semantics):
        return name
    if name is None:
        name = DEFAULT_SEMANTICS
    semantics = _REGISTRY.get(name)
    if semantics is None:
        semantics = _registry().get(name)
    if semantics is None:
        raise ValueError(
            f"unknown semantics {name!r} (choose from "
            f"{', '.join(_registry())})"
        )
    return semantics


def __getattr__(name: str):
    # PEP 562: the full registry, and the C3 helper the string-keyed
    # baseline shares, load the other rules on first access.
    if name == "SEMANTICS":
        return _registry()
    if name == "c3_linearization_ids":
        from repro.core.rules import c3_linearization_ids

        return c3_linearization_ids
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
