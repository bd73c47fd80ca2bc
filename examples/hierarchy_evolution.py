#!/usr/bin/env python3
"""Hierarchy evolution: delta-maintained lookup and lookup-impact diffing.

Simulates a refactoring session on a widget library: the hierarchy is
grown declaration by declaration (as a compiler would see it) under a
batched lookup table that ``apply_delta()`` rolls forward after each
step, re-folding only the invalidation cone of the edit; then a refactor
is applied and the lookup-impact diff reports exactly which call targets
changed.

Run:  python examples/hierarchy_evolution.py
"""

from repro.analysis.diff import diff_hierarchies, render_diff
from repro.core.lookup import MemberLookupTable
from repro.frontend import analyze_or_raise
from repro.hierarchy.graph import ClassHierarchyGraph

VERSION_1 = """
class Object { public: void hash(); };
class Paintable { public: void paint(); };
class Widget : Object { public: void resize(); };
class Button : Widget, Paintable {};
class IconButton : Button {};
"""

# The refactor: Widget gains its own paint() (an override point) and
# Button's bases swap to virtual inheritance of Paintable.
VERSION_2 = """
class Object { public: void hash(); };
class Paintable { public: void paint(); };
class Widget : Object { public: void resize(); void paint(); };
class Button : Widget, virtual Paintable {};
class IconButton : Button {};
"""


def grow_incrementally() -> None:
    print("=== growing version 1 declaration-by-declaration ===")
    graph = ClassHierarchyGraph()
    graph.add_class("Object", ["hash"])
    graph.add_class("Paintable", ["paint"])
    table = MemberLookupTable(graph, mode="batched")

    def step(label: str, class_name: str, member: str) -> None:
        delta = table.apply_delta()
        print(
            f"  {label}: {table.lookup(class_name, member)}  "
            f"(cone {delta.cone_classes} classes, "
            f"{delta.entries_recomputed} entries recomputed, "
            f"{delta.entries_reused} reused)"
        )

    graph.add_class("Widget")
    graph.add_edge("Object", "Widget")
    graph.add_member("Widget", "resize")
    step("so far", "Widget", "hash")

    graph.add_class("Button")
    graph.add_edge("Widget", "Button")
    graph.add_edge("Paintable", "Button")
    step("after Button", "Button", "paint")

    graph.add_class("IconButton")
    graph.add_edge("Button", "IconButton")
    step("after IconButton", "IconButton", "paint")
    totals = table.delta_stats
    print(
        f"  deltas applied: {totals.deltas_applied}, "
        f"entries reused: {totals.entries_reused}, "
        f"full rebuilds: {totals.full_rebuilds}"
    )
    print()


def diff_versions() -> None:
    print("=== lookup-impact of the refactor ===")
    before = analyze_or_raise(VERSION_1).hierarchy
    after = analyze_or_raise(VERSION_2).hierarchy
    changes = diff_hierarchies(before, after)
    print(render_diff(changes))


def main() -> None:
    grow_incrementally()
    diff_versions()


if __name__ == "__main__":
    main()
