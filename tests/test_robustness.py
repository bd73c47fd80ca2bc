"""Robustness tests: hierarchies far beyond the Python recursion limit,
wide fan-ins, and hostile class names.

The spec-level machinery (path enumeration, the reference subobject
semantics) is inherently exponential and recursion-bounded; the
*production* pipeline — validation, topological order, virtual-base
closure, the eager and lazy lookup engines, a lazy engine over a graph
grown in place — must handle arbitrarily deep and wide hierarchies iteratively.
"""

import sys

from repro.core.lazy import LazyMemberLookup
from repro.core.lookup import build_lookup_table
from repro.core.static_lookup import StaticAwareLookupTable
from repro.hierarchy.builder import HierarchyBuilder
from repro.hierarchy.graph import ClassHierarchyGraph
from repro.hierarchy.topo import topological_order
from repro.hierarchy.virtual_bases import virtual_bases
from repro.workloads.generators import chain, wide_unambiguous

DEEP = 3 * sys.getrecursionlimit()


class TestDeepChains:
    def test_validate_is_iterative(self):
        chain(DEEP).validate()

    def test_topological_order(self):
        order = topological_order(chain(DEEP))
        assert len(order) == DEEP

    def test_virtual_bases_closure(self):
        graph = chain(DEEP)
        assert virtual_bases(graph)[f"C{DEEP - 1}"] == frozenset()

    def test_eager_table(self):
        graph = chain(DEEP, member_every=DEEP)
        table = build_lookup_table(graph)
        assert table.lookup(f"C{DEEP - 1}", "m").declaring_class == "C0"

    def test_lazy_engine_is_iterative(self):
        graph = chain(DEEP, member_every=DEEP)
        lazy = LazyMemberLookup(graph)
        assert lazy.lookup(f"C{DEEP - 1}", "m").declaring_class == "C0"

    def test_static_table(self):
        graph = chain(DEEP, member_every=DEEP)
        table = StaticAwareLookupTable(graph)
        assert table.lookup(f"C{DEEP - 1}", "m").is_unique

    def test_incremental_engine(self):
        graph = ClassHierarchyGraph()
        lazy = LazyMemberLookup(graph)
        graph.add_class("C0", ["m"])
        for i in range(1, DEEP):
            graph.add_class(f"C{i}")
            graph.add_edge(f"C{i - 1}", f"C{i}")
            if i == DEEP // 2:  # a warm memo the later growth must drop
                assert lazy.lookup(f"C{i}", "m").declaring_class == "C0"
        assert lazy.lookup(f"C{DEEP - 1}", "m").declaring_class == "C0"

    def test_deep_witness_path_is_complete(self):
        graph = chain(DEEP, member_every=DEEP)
        result = build_lookup_table(graph).lookup(f"C{DEEP - 1}", "m")
        assert len(result.witness) == DEEP - 1


class TestWideFans:
    def test_wide_virtual_fan(self):
        graph = wide_unambiguous(2000)
        table = build_lookup_table(graph)
        assert table.lookup("Join", "m").declaring_class == "R"

    def test_many_members_single_class(self):
        builder = HierarchyBuilder()
        builder.cls("Big", members=[f"m{i}" for i in range(2000)])
        builder.cls("Derived", bases=["Big"])
        table = build_lookup_table(builder.build())
        assert table.lookup("Derived", "m1999").declaring_class == "Big"


class TestHostileNames:
    def test_non_identifier_class_names_work_in_core(self):
        # The core engines treat names as opaque strings; only the C++
        # frontend/emitter require identifiers.
        builder = HierarchyBuilder()
        builder.cls("ns::Widget<int>", members=["operator[]"])
        builder.cls("anonymous $1", bases=["ns::Widget<int>"])
        table = build_lookup_table(builder.build())
        result = table.lookup("anonymous $1", "operator[]")
        assert result.declaring_class == "ns::Widget<int>"

    def test_unicode_names(self):
        builder = HierarchyBuilder()
        builder.cls("Basis", members=["größe"])
        builder.cls("Abgeleitet", bases=["Basis"])
        table = build_lookup_table(builder.build())
        assert table.lookup("Abgeleitet", "größe").is_unique
