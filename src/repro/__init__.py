"""repro — a reproduction of "A Member Lookup Algorithm for C++".

G. Ramalingam and Harini Srinivasan, PLDI 1997.

The package implements the paper's formalism for C++ multiple inheritance
(paths over the class hierarchy graph, subobjects as path-equivalence
classes, the dominance partial order) and its efficient member lookup
algorithm, together with the reference Rossie-Friedman semantics, the
baselines the paper compares against, and the extensions it sketches.

Quickstart::

    from repro import HierarchyBuilder, build_lookup_table

    g = (HierarchyBuilder()
         .cls("A", members=["m"])
         .cls("B", bases=["A"])
         .cls("C", virtual_bases=["B"])
         .cls("D", virtual_bases=["B"], members=["m"])
         .cls("E", bases=["C", "D"])
         .build())

    table = build_lookup_table(g)
    print(table.lookup("E", "m"))   # resolves to D::m
"""

from repro._lazy import export_lazily

export_lazily(
    __name__,
    {
        "repro.core.lazy": ("LazyMemberLookup",),
        "repro.core.lookup": (
            "MemberLookupTable",
            "build_lookup_table",
            "lookup",
        ),
        "repro.core.paths": ("OMEGA", "Path", "path_in"),
        "repro.core.results": ("LookupResult", "LookupStatus"),
        "repro.core.static_lookup": ("StaticAwareLookupTable",),
        "repro.errors": ("HierarchyError", "ReproError"),
        "repro.hierarchy.builder": ("HierarchyBuilder", "hierarchy_from_spec"),
        "repro.hierarchy.graph": ("ClassHierarchyGraph",),
        "repro.hierarchy.members": ("Access", "Member", "MemberKind"),
        "repro.hierarchy.topo": ("topological_order",),
        "repro.hierarchy.virtual_bases": ("virtual_bases",),
        "repro.subobjects.graph": ("SubobjectGraph",),
        "repro.subobjects.reference": ("ReferenceLookup", "reference_lookup"),
    },
)

__version__ = "1.0.0"

__all__ = [
    "OMEGA",
    "Access",
    "ClassHierarchyGraph",
    "HierarchyBuilder",
    "HierarchyError",
    "LazyMemberLookup",
    "LookupResult",
    "LookupStatus",
    "Member",
    "MemberKind",
    "MemberLookupTable",
    "Path",
    "ReferenceLookup",
    "ReproError",
    "StaticAwareLookupTable",
    "SubobjectGraph",
    "build_lookup_table",
    "hierarchy_from_spec",
    "lookup",
    "path_in",
    "reference_lookup",
    "topological_order",
    "virtual_bases",
]
