"""Lookup results shared by every engine in the library.

The efficient algorithm's table entries are ``Red (L, V)`` (unambiguous;
``L = ldc`` of the winning definition, ``V = leastVirtual`` of it) or
``Blue S`` (ambiguous; ``S`` abstracts the definitions that created the
ambiguity).  On top of these we expose a single user-facing
:class:`LookupResult` that also covers the "member not found" case and can
carry a full witness path (the paper notes, end of Section 4, that
carrying the path costs nothing because at most one red definition crosses
each edge — compilers need it for code generation).

A result also has one wire form, the JSON object of
:func:`result_to_dict` encoded to UTF-8 by :func:`result_json`.  It
lives here rather than in :mod:`repro.serve.protocol` (which re-exports
it) because the columnar serving layout memoises each cell as exactly
these bytes.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.paths import OMEGA, Abstraction, Path

if TYPE_CHECKING:
    from repro.core.equivalence import SubobjectKey

#: Wire tag for the Ω abstraction (distinct from any plausible class name).
OMEGA_TAG = "Ω!"

#: ``json.dumps(..., ensure_ascii=False)`` without building an encoder
#: per call; the one encoder of the wire.
_ENCODER = json.JSONEncoder(ensure_ascii=False)


class LookupStatus(enum.Enum):
    """Outcome of ``lookup(C, m)``."""

    UNIQUE = "unique"  # resolves to exactly one dominant definition
    AMBIGUOUS = "ambiguous"  # Defns(C, m) has no most-dominant element (⊥)
    NOT_FOUND = "not-found"  # m is not a member of any subobject of C

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class LookupResult:
    """The answer to a single member lookup query.

    For a ``UNIQUE`` result, ``declaring_class`` is the ``ldc`` of the
    dominant definition, ``least_virtual`` its abstraction component, and
    ``witness`` (if the engine tracks paths) a concrete representative
    path of the resolved subobject.  For an ``AMBIGUOUS`` result,
    ``blue_abstractions`` holds the propagated blue set and
    ``candidates`` (when available) lists conflicting declaring classes.
    """

    class_name: str
    member: str
    status: LookupStatus
    declaring_class: Optional[str] = None
    least_virtual: Optional[Abstraction] = None
    witness: Optional[Path] = None
    blue_abstractions: frozenset[Abstraction] = field(default_factory=frozenset)
    candidates: tuple[str, ...] = ()

    @property
    def is_unique(self) -> bool:
        return self.status is LookupStatus.UNIQUE

    @property
    def is_ambiguous(self) -> bool:
        return self.status is LookupStatus.AMBIGUOUS

    @property
    def is_not_found(self) -> bool:
        return self.status is LookupStatus.NOT_FOUND

    @property
    def subobject(self) -> Optional[SubobjectKey]:
        """The subobject the lookup resolved to, when a witness path is
        available."""
        if self.witness is None:
            return None
        from repro.core.equivalence import subobject_key

        return subobject_key(self.witness)

    def qualified_name(self) -> str:
        """``L::m`` for unique results; a diagnostic tag otherwise."""
        if self.is_unique:
            return f"{self.declaring_class}::{self.member}"
        return f"<{self.status}>::{self.member}"

    def __str__(self) -> str:
        if self.is_unique:
            via = f" via {self.witness}" if self.witness is not None else ""
            return (
                f"lookup({self.class_name}, {self.member}) = "
                f"{self.qualified_name()}{via}"
            )
        if self.is_ambiguous:
            who = ", ".join(self.candidates) or "multiple subobjects"
            return (
                f"lookup({self.class_name}, {self.member}) = ⊥ "
                f"(ambiguous between {who})"
            )
        return f"lookup({self.class_name}, {self.member}) = not found"


def unique_result(
    class_name: str,
    member: str,
    declaring_class: str,
    least_virtual: Abstraction,
    witness: Optional[Path] = None,
) -> LookupResult:
    """A UNIQUE result (the lookup resolved to one dominant definition)."""
    return LookupResult(
        class_name=class_name,
        member=member,
        status=LookupStatus.UNIQUE,
        declaring_class=declaring_class,
        least_virtual=least_virtual,
        witness=witness,
    )


def ambiguous_result(
    class_name: str,
    member: str,
    blue_abstractions: frozenset[Abstraction] = frozenset(),
    candidates: tuple[str, ...] = (),
) -> LookupResult:
    """An AMBIGUOUS result (the paper's ⊥)."""
    return LookupResult(
        class_name=class_name,
        member=member,
        status=LookupStatus.AMBIGUOUS,
        blue_abstractions=blue_abstractions,
        candidates=candidates,
    )


def not_found_result(class_name: str, member: str) -> LookupResult:
    """A NOT_FOUND result (no subobject declares the member)."""
    return LookupResult(
        class_name=class_name, member=member, status=LookupStatus.NOT_FOUND
    )


def json_bytes(value) -> bytes:
    """``value`` as UTF-8 JSON bytes (non-ASCII kept as is), through the
    one wire encoder."""
    return _ENCODER.encode(value).encode("utf-8")


def _encode_abstraction(value: Optional[Abstraction]) -> Optional[str]:
    if value is None:
        return None
    return OMEGA_TAG if value is OMEGA else value


def result_to_dict(result: LookupResult) -> dict:
    """A :class:`LookupResult` as a JSON-safe dict.

    ``status`` is the enum's string value (``"unique"``,
    ``"ambiguous"``, ``"not-found"``); the witness path becomes
    ``{"nodes": [...], "virtuals": [...]}``; Ω becomes :data:`OMEGA_TAG`;
    blue abstractions are emitted sorted so output is deterministic."""
    out: dict = {
        "class": result.class_name,
        "member": result.member,
        "status": result.status.value,
    }
    if result.declaring_class is not None:
        out["declaring_class"] = result.declaring_class
    if result.least_virtual is not None:
        out["least_virtual"] = _encode_abstraction(result.least_virtual)
    if result.witness is not None:
        out["witness"] = {
            "nodes": list(result.witness.nodes),
            "virtuals": [bool(v) for v in result.witness.virtuals],
        }
    if result.blue_abstractions:
        out["blue_abstractions"] = sorted(
            _encode_abstraction(a) for a in result.blue_abstractions
        )
    if result.candidates:
        out["candidates"] = list(result.candidates)
    return out


def result_json(result: LookupResult) -> bytes:
    """The wire fragment of ``result``: the UTF-8 JSON encoding of
    :func:`result_to_dict` ``(result)``, encoded afresh on every call
    (the serving layout memoises the fragment per cell, not per
    result)."""
    return json_bytes(result_to_dict(result))


def describe_disagreement(
    left: LookupResult,
    right: LookupResult,
    *,
    compare_subobject: bool = True,
) -> Optional[str]:
    """Explain how two results for the same query disagree — or ``None``
    when they are semantically the same answer.

    Two results agree when their statuses match and, for UNIQUE results,
    they name the same declaring class and (when both carry witnesses)
    the same *subobject* — witnesses may be different representative
    paths of one ≈-class, which is not a disagreement.  This is the
    comparison the differential fuzzing campaign (:mod:`repro.fuzz`) and
    the cross-engine tests are built on.
    """
    if left.status is not right.status:
        return f"status {left.status} != {right.status}"
    if not left.is_unique:
        return None
    if left.declaring_class != right.declaring_class:
        return (
            f"declaring class {left.declaring_class!r} != "
            f"{right.declaring_class!r}"
        )
    if (
        compare_subobject
        and left.witness is not None
        and right.witness is not None
        and left.subobject != right.subobject
    ):
        return f"subobject {left.subobject} != {right.subobject}"
    return None
