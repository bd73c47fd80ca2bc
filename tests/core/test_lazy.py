"""Tests for the memoised lazy lookup engine."""

from repro.core.lazy import LazyMemberLookup
from repro.core.lookup import build_lookup_table
from repro.workloads.generators import chain, nonvirtual_diamond_ladder
from repro.workloads.paper_figures import figure3, figure9

from tests.support import all_queries, assert_same_outcome


def test_matches_eager_on_figure3():
    graph = figure3()
    eager = build_lookup_table(graph)
    lazy = LazyMemberLookup(graph)
    for class_name, member in all_queries(graph):
        assert_same_outcome(
            lazy.lookup(class_name, member), eager.lookup(class_name, member)
        )


def test_figure9_counterexample():
    result = LazyMemberLookup(figure9()).lookup("E", "m")
    assert result.is_unique and result.declaring_class == "C"


def test_computes_only_the_demanded_chain():
    graph = chain(50, member_every=50)
    lazy = LazyMemberLookup(graph)
    lazy.lookup("C10", "m")
    # Only the 11 classes below C10 are touched, not all 50.
    assert lazy.entries_computed() == 11


def test_memoisation_no_recompute():
    graph = chain(20, member_every=20)
    lazy = LazyMemberLookup(graph)
    lazy.lookup("C19", "m")
    first = lazy.stats.entries_computed
    lazy.lookup("C19", "m")
    assert lazy.stats.entries_computed == first


def test_shared_substructure_computed_once():
    graph = nonvirtual_diamond_ladder(6)
    lazy = LazyMemberLookup(graph)
    lazy.lookup("J6", "m")
    # One entry per class at most, despite 2^6 paths to the root.
    assert lazy.stats.entries_computed <= len(graph)


def test_not_found_is_cached():
    graph = chain(5, member_every=5)
    lazy = LazyMemberLookup(graph)
    assert lazy.lookup("C4", "nope").is_not_found
    computed = lazy.entries_computed()
    assert lazy.lookup("C4", "nope").is_not_found
    assert lazy.entries_computed() == computed


def test_demands_less_than_eager():
    graph = chain(100, member_every=100)
    lazy = LazyMemberLookup(graph)
    lazy.lookup("C5", "m")
    eager = build_lookup_table(graph)
    assert lazy.entries_computed() < eager.stats.entries_computed


def test_standalone_engine_survives_in_place_mutation():
    """A bare LazyMemberLookup must not serve stale memo entries after
    the graph mutates: the generation check recompiles and drops the
    memo, and the next queries recompute what they demand."""
    graph = chain(16, member_every=16)  # only C0 declares m
    lazy = LazyMemberLookup(graph)
    for i in range(16):
        assert lazy.lookup(f"C{i}", "m").declaring_class == "C0"

    graph.add_member("C8", "m")  # touches a class with a warm entry
    assert lazy.lookup("C8", "m").declaring_class == "C8"
    assert lazy.lookup("C15", "m").declaring_class == "C8"
    assert lazy.lookup("C7", "m").declaring_class == "C0"

    # A name the old interner never saw, declared mid-flight on a class
    # whose "not visible" result is already memoised.
    assert lazy.lookup("C15", "late").is_not_found
    graph.add_member("C4", "late")
    assert lazy.lookup("C15", "late").declaring_class == "C4"
    assert lazy.lookup("C3", "late").is_not_found


def test_mutated_engine_matches_fresh_table_everywhere():
    from repro.workloads.generators import random_hierarchy

    graph = random_hierarchy(
        14, seed=9, virtual_probability=0.4, member_probability=0.5
    )
    lazy = LazyMemberLookup(graph)
    for class_name, member in all_queries(graph):
        lazy.lookup(class_name, member)
    anchors = list(graph.classes)
    graph.add_member(anchors[2], "fresh")
    graph.add_class("Kx", members=["m"])
    graph.add_edge(anchors[0], "Kx")
    eager = build_lookup_table(graph)
    for class_name, member in all_queries(graph):
        assert_same_outcome(
            lazy.lookup(class_name, member), eager.lookup(class_name, member)
        )
