"""Semantic analysis: lower a parsed translation unit to a class
hierarchy graph and resolve the member accesses of the program.

This stage enforces the C++ discipline the CHG construction relies on
(bases must be previously *defined* classes, no duplicate direct bases,
one declaration per member name) and then answers every ``x.m`` /
``p->m`` / ``T::m`` in the program with the paper's lookup algorithm —
using the static-member-aware variant, as a real compiler must.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.results import LookupResult
from repro.errors import HierarchyError
from repro.frontend.cpp_ast import (
    AccessOp,
    ClassDecl,
    MemberAccess,
    TranslationUnit,
    VarDecl,
)
from repro.frontend.errors import DiagnosticBag, SemanticError
from repro.frontend.parser import parse
from repro.hierarchy.graph import ClassHierarchyGraph
from repro.hierarchy.members import Member

if TYPE_CHECKING:
    from repro.core.static_lookup import StaticAwareLookupTable


@dataclass(frozen=True)
class ResolvedAccess:
    """One member access of the program together with its resolution."""

    access: MemberAccess
    class_name: Optional[str]
    result: Optional[LookupResult]

    @property
    def ok(self) -> bool:
        return self.result is not None and self.result.is_unique


@dataclass
class Program:
    """The analysed program: hierarchy, lookup table and resolutions."""

    source: str
    hierarchy: ClassHierarchyGraph
    diagnostics: DiagnosticBag
    variables: dict[str, VarDecl] = field(default_factory=dict)
    resolutions: list[ResolvedAccess] = field(default_factory=list)
    _table: Optional[StaticAwareLookupTable] = None

    @property
    def lookup_table(self) -> StaticAwareLookupTable:
        if self._table is None:
            from repro.core.static_lookup import StaticAwareLookupTable

            self._table = StaticAwareLookupTable(self.hierarchy)
        return self._table

    def resolve(self, class_name: str, member: str) -> LookupResult:
        """Answer ``lookup(class, member)`` over the program's hierarchy."""
        return self.lookup_table.lookup(class_name, member)

    def errors(self) -> list:
        return self.diagnostics.errors


def analyze(source: str) -> Program:
    """Parse and analyse a program; diagnostics are collected, not raised
    (syntax errors do still raise :class:`ParseError`)."""
    unit = parse(source)
    return analyze_unit(unit, source)


def analyze_or_raise(source: str) -> Program:
    """Like :func:`analyze` but raises :class:`SemanticError` if any
    semantic error was diagnosed."""
    program = analyze(source)
    if program.diagnostics.has_errors():
        raise SemanticError(program.diagnostics.errors)
    return program


def analyze_unit(unit: TranslationUnit, source: str = "") -> Program:
    bag = DiagnosticBag()
    graph = ClassHierarchyGraph()
    program = Program(source=source, hierarchy=graph, diagnostics=bag)

    for decl in unit.classes():
        _declare_class(graph, decl, bag)

    for var in unit.file_scope_variables():
        _declare_variable(program, var, bag)

    for function in unit.functions():
        for var in function.variables:
            _declare_variable(program, var, bag)
        for access in function.accesses:
            program.resolutions.append(_resolve_access(program, access, bag))

    return program


class IncrementalSema:
    """Streaming semantic analysis: lower :class:`ClassDecl`\\ s one at
    a time into a *live* :class:`ClassHierarchyGraph`.

    This is the batch-oriented face of :func:`analyze_unit` for the
    ingestion pipeline — the same declaration discipline (bases must be
    previously defined, no duplicate members, using-declarations
    validated against the base), but the graph persists across calls,
    across files, and across the ``apply_delta`` batches that bring a
    served table current while parsing continues.
    """

    def __init__(
        self,
        graph: Optional[ClassHierarchyGraph] = None,
        diagnostics: Optional[DiagnosticBag] = None,
    ) -> None:
        self.graph = graph if graph is not None else ClassHierarchyGraph()
        self.diagnostics = (
            diagnostics if diagnostics is not None else DiagnosticBag()
        )
        self.classes_declared = 0

    def declare(self, decl: ClassDecl) -> None:
        """Lower one completed class declaration (and its nested
        classes) into the live graph.  Errors are collected on
        :attr:`diagnostics`, never raised — one bad class must not
        stall the stream."""
        before = len(self.graph)
        _declare_class(self.graph, decl, self.diagnostics)
        self.classes_declared += len(self.graph) - before


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------


def _declare_class(
    graph: ClassHierarchyGraph,
    decl: ClassDecl,
    bag: DiagnosticBag,
    scope_prefix: str = "",
) -> None:
    name = scope_prefix + decl.name
    if name in graph:
        bag.error(f"redefinition of {name!r}", decl.location)
        return
    graph.add_class(name, is_struct=decl.is_struct)

    for base in decl.bases:
        if base.name not in graph:
            bag.error(
                f"base class {base.name!r} of {name!r} is not a previously "
                "defined class (C++ requires complete base classes)",
                base.location,
            )
            continue
        try:
            graph.add_edge(
                base.name, name, virtual=base.virtual, access=base.access
            )
        except HierarchyError as exc:
            bag.error(str(exc), base.location)

    for member in decl.members:
        if graph.declares(name, member.name):
            bag.error(
                f"class {name!r} already declares a member named "
                f"{member.name!r} (lookup is defined on member names)",
                member.location,
            )
            continue
        kind = member.kind
        is_static = member.is_static
        if member.using_from is not None:
            underlying = _check_using(graph, name, member, bag)
            if underlying is None:
                continue
            kind = underlying.kind
            is_static = underlying.is_static
        graph.add_member(
            name,
            Member(
                name=member.name,
                kind=kind,
                is_static=is_static,
                access=member.access,
                type_text=member.type_text,
                using_from=member.using_from,
            ),
        )

    # Nested classes are declared at an outer-qualified name; the nested
    # name itself was already added as a TYPE member of the enclosing
    # class by the parser.
    for nested in decl.nested:
        _declare_class(graph, nested, bag, scope_prefix=f"{name}::")


def _check_using(graph, class_name, member, bag):
    """Validate ``using Base::name;`` in ``class_name`` and return the
    underlying declaration, or ``None`` after diagnosing."""
    target = member.using_from
    if target not in graph:
        bag.error(
            f"using-declaration names unknown class {target!r}",
            member.location,
        )
        return None
    if not graph.is_base_of(target, class_name):
        bag.error(
            f"using-declaration target {target!r} is not a base class of "
            f"{class_name!r}",
            member.location,
        )
        return None
    if not graph.declares(target, member.name):
        bag.error(
            f"{target!r} declares no member {member.name!r} to bring in",
            member.location,
        )
        return None
    return graph.member(target, member.name)


def _declare_variable(
    program: Program, var: VarDecl, bag: DiagnosticBag
) -> None:
    if var.name in program.variables:
        bag.error(f"redefinition of variable {var.name!r}", var.location)
        return
    if var.type_name not in program.hierarchy:
        bag.warning(
            f"variable {var.name!r} has non-class type {var.type_name!r}; "
            "member accesses through it cannot be resolved",
            var.location,
        )
    program.variables[var.name] = var


# ----------------------------------------------------------------------
# Member access resolution
# ----------------------------------------------------------------------


def _resolve_access(
    program: Program, access: MemberAccess, bag: DiagnosticBag
) -> ResolvedAccess:
    class_name = _class_of_access(program, access, bag)
    if class_name is None:
        return ResolvedAccess(access=access, class_name=None, result=None)
    if access.qualifier is not None:
        # x.Base::m resolves m in Base's scope (the paper's `stat`
        # staging); Base must name the static type or one of its bases.
        qualifier = access.qualifier
        if qualifier not in program.hierarchy:
            bag.error(f"{qualifier!r} is not a class", access.location)
            return ResolvedAccess(access=access, class_name=None, result=None)
        if qualifier != class_name and not program.hierarchy.is_base_of(
            qualifier, class_name
        ):
            bag.error(
                f"{qualifier!r} is not a base of {class_name!r}",
                access.location,
            )
            return ResolvedAccess(access=access, class_name=None, result=None)
        class_name = qualifier
    result = program.resolve(class_name, access.member)
    if result.is_ambiguous:
        candidates = ", ".join(
            f"{c}::{access.member}" for c in result.candidates
        )
        bag.error(
            f"request for member {access.member!r} is ambiguous in "
            f"{class_name!r} (candidates: {candidates})",
            access.location,
        )
    elif result.is_not_found:
        bag.error(
            f"{class_name!r} has no member named {access.member!r}",
            access.location,
        )
    return ResolvedAccess(access=access, class_name=class_name, result=result)


def _class_of_access(
    program: Program, access: MemberAccess, bag: DiagnosticBag
) -> Optional[str]:
    if access.op is AccessOp.SCOPE:
        if access.object_name not in program.hierarchy:
            bag.error(
                f"{access.object_name!r} is not a class", access.location
            )
            return None
        return access.object_name
    var = program.variables.get(access.object_name)
    if var is None:
        bag.error(
            f"use of undeclared variable {access.object_name!r}",
            access.location,
        )
        return None
    if var.type_name not in program.hierarchy:
        bag.error(
            f"variable {access.object_name!r} has non-class type "
            f"{var.type_name!r}",
            access.location,
        )
        return None
    wants_arrow = var.is_pointer
    uses_arrow = access.op is AccessOp.ARROW
    if wants_arrow != uses_arrow:
        expected = "->" if wants_arrow else "."
        bag.warning(
            f"member access on {access.object_name!r} should use "
            f"{expected!r}",
            access.location,
        )
    return var.type_name
