"""The class hierarchy graph substrate (paper, Section 2)."""

from repro._lazy import export_lazily

export_lazily(
    __name__,
    {
        "repro.hierarchy.builder": ("HierarchyBuilder", "hierarchy_from_spec"),
        "repro.hierarchy.compiled": (
            "OMEGA_ID",
            "CompiledHierarchy",
            "HierarchyDelta",
            "compile_hierarchy",
            "compiled_of",
            "describe_delta",
            "hierarchy_of",
        ),
        "repro.hierarchy.graph": ("ClassHierarchyGraph", "Inheritance"),
        "repro.hierarchy.members": ("Access", "Member", "MemberKind", "as_member"),
        "repro.hierarchy.serialize": (
            "SerializationError",
            "dumps",
            "hierarchy_from_dict",
            "hierarchy_to_dict",
            "loads",
        ),
        "repro.hierarchy.topo": ("topological_numbers", "topological_order"),
        "repro.hierarchy.virtual_bases": ("is_virtual_base", "virtual_bases"),
    },
)

__all__ = [
    "Access",
    "ClassHierarchyGraph",
    "CompiledHierarchy",
    "HierarchyBuilder",
    "HierarchyDelta",
    "Inheritance",
    "OMEGA_ID",
    "compile_hierarchy",
    "compiled_of",
    "describe_delta",
    "hierarchy_of",
    "SerializationError",
    "dumps",
    "hierarchy_from_dict",
    "hierarchy_to_dict",
    "loads",
    "Member",
    "MemberKind",
    "as_member",
    "hierarchy_from_spec",
    "is_virtual_base",
    "topological_numbers",
    "topological_order",
    "virtual_bases",
]
