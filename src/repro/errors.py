"""Exception hierarchy shared by all subsystems of the reproduction.

Every error raised by the library derives from :class:`ReproError`, so
downstream users can catch a single type.  Subsystem-specific errors
(hierarchy construction, parsing, lookup) refine it.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class HierarchyError(ReproError):
    """A class hierarchy graph is malformed or was used inconsistently."""


class UnknownClassError(HierarchyError):
    """A class name was referenced but never declared."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown class: {name!r}")
        self.name = name


class DuplicateClassError(HierarchyError):
    """The same class name was declared twice."""

    def __init__(self, name: str) -> None:
        super().__init__(f"class {name!r} is already declared")
        self.name = name


class DuplicateBaseError(HierarchyError):
    """A class lists the same direct base twice (ill-formed in C++)."""

    def __init__(self, derived: str, base: str) -> None:
        super().__init__(
            f"class {base!r} appears twice as a direct base of {derived!r}"
        )
        self.derived = derived
        self.base = base


class DuplicateMemberError(HierarchyError):
    """A class declares two members with the same name.

    C++ permits overloads, but the lookup problem of the paper is defined on
    member *names*, so each name may be declared at most once per class.
    """

    def __init__(self, class_name: str, member: str) -> None:
        super().__init__(
            f"class {class_name!r} already declares a member named {member!r}"
        )
        self.class_name = class_name
        self.member = member


class CycleError(HierarchyError):
    """The inheritance relation is cyclic (not a valid C++ hierarchy)."""

    def __init__(self, cycle: tuple[str, ...]) -> None:
        pretty = " -> ".join(cycle)
        super().__init__(f"inheritance cycle detected: {pretty}")
        self.cycle = cycle


class InvalidPathError(ReproError):
    """A path object does not describe a real path in the hierarchy."""


class LookupError_(ReproError):
    """Base for errors raised while answering lookup queries."""


class AmbiguousLookupDetected(LookupError_):
    """Raised by engines that, like the Eiffel-style baseline, assume the
    program has no ambiguous lookups and discover that assumption violated.
    """


class TableSerializationError(ReproError):
    """The file is not a valid flatpack table."""


class FrontendError(ReproError):
    """Base class for lexer/parser/sema diagnostics raised as exceptions."""
