"""Differential testing of every engine over one shared kernel.

Eager (:class:`MemberLookupTable` — in both build modes: per-member
and batched single-sweep) and lazy
(:class:`LazyMemberLookup`, also over a graph grown in place) are all
thin drivers over :func:`repro.core.kernel.fold_entry` /
:func:`repro.core.kernel.batched_sweep`, so they must return *identical*
:class:`LookupResult` objects — same status, same declaring class, same
least-virtual abstraction, and the very same witness path — for every
``(class, member)`` pair, on every hierarchy.  This file checks that on
the generator families and on seeded random DAGs, including queries for
member names no class declares, with one lazy engine built by
replaying the hierarchy one declaration at a time with queries
interleaved mid-growth (so its memo is dropped on every generation
bump), and across post-mutation generations (so the batched rebuilds
and delta maintenance are exercised too).
"""

import pytest

from repro.core.lazy import LazyMemberLookup
from repro.core.lookup import MemberLookupTable, build_lookup_table, lookup
from repro.hierarchy.graph import ClassHierarchyGraph
from repro.workloads.generators import (
    ambiguous_fan,
    binary_tree,
    blue_heavy_hierarchy,
    chain,
    grid,
    nonvirtual_diamond_ladder,
    random_hierarchy,
    virtual_diamond_ladder,
    wide_unambiguous,
)

#: Queried everywhere: the names the generators declare, plus one that no
#: class declares (the engines must agree on NOT_FOUND too).
QUERY_MEMBERS = ("m", "f", "g", "does_not_exist")


def replay_into_lazy(graph) -> LazyMemberLookup:
    """Rebuild ``graph`` in place under a lazy engine, declaration by
    declaration, interleaving queries so the memo is warm (and therefore
    invalidation actually has something to invalidate)."""
    replay = ClassHierarchyGraph()
    engine = LazyMemberLookup(replay)
    for name in graph.classes:
        replay.add_class(name)
        for edge in graph.direct_bases(name):
            replay.add_edge(edge.base, name, virtual=edge.virtual)
        for member in graph.declared_members(name).values():
            replay.add_member(name, member)
        # Query mid-growth: later mutations must invalidate these.
        engine.lookup(name, "m")
    return engine


def assert_engines_identical(graph) -> None:
    table = build_lookup_table(graph)
    rivals = {
        "batched": build_lookup_table(graph, mode="batched"),
        "fastpath": build_lookup_table(graph, mode="batched", fastpath=True),
        "lazy": LazyMemberLookup(graph),
        "lazy-replay": replay_into_lazy(graph),
    }
    members = set(QUERY_MEMBERS)
    for name in graph.classes:
        members.update(graph.declared_members(name))
    for class_name in graph.classes:
        for member in sorted(members):
            expected = table.lookup(class_name, member)
            for engine_name, engine in rivals.items():
                assert engine.lookup(class_name, member) == expected, (
                    f"{engine_name} disagrees on {class_name}::{member}"
                )


FAMILIES = [
    pytest.param(chain(24, member_every=4), id="chain"),
    pytest.param(binary_tree(4), id="binary_tree"),
    pytest.param(nonvirtual_diamond_ladder(3), id="nonvirtual_ladder"),
    pytest.param(virtual_diamond_ladder(3), id="virtual_ladder"),
    pytest.param(ambiguous_fan(5), id="ambiguous_fan"),
    pytest.param(blue_heavy_hierarchy(4, 3), id="blue_heavy"),
    pytest.param(wide_unambiguous(6), id="wide_unambiguous"),
    pytest.param(grid(4, 3), id="grid"),
]


@pytest.mark.parametrize("graph", FAMILIES)
def test_engines_identical_on_families(graph):
    assert_engines_identical(graph)


@pytest.mark.parametrize("seed", range(12))
def test_engines_identical_on_random_dags(seed):
    graph = random_hierarchy(
        14,
        seed=seed,
        virtual_probability=0.35,
        member_probability=0.5,
    )
    assert_engines_identical(graph)


@pytest.mark.parametrize("seed", [100, 101, 102])
def test_engines_identical_all_virtual(seed):
    graph = random_hierarchy(
        10, seed=seed, virtual_probability=1.0, member_probability=0.7
    )
    assert_engines_identical(graph)


@pytest.mark.parametrize("mode", ["batched"])
def test_full_table_surfaces_match(mode):
    """Not just point queries: the whole-table surfaces (all_entries,
    ambiguous_queries, visible_members) must be identical across build
    modes, witnesses included."""
    graph = blue_heavy_hierarchy(4, 3)
    base = build_lookup_table(graph)
    other = build_lookup_table(graph, mode=mode)
    assert other.all_entries() == base.all_entries()
    assert other.ambiguous_queries() == base.ambiguous_queries()
    assert other.visible_members("Join") == base.visible_members("Join")


@pytest.mark.parametrize("mode", ["sharded", "auto", "warp-speed"])
def test_unknown_build_mode_is_rejected(mode):
    """Two build modes, and the error names both."""
    with pytest.raises(ValueError) as excinfo:
        MemberLookupTable(chain(4), mode=mode)
    assert "'per-member'" in str(excinfo.value)
    assert "'batched'" in str(excinfo.value)


def test_engines_identical_after_mutation():
    """Post-mutation generations: engines warmed before the mutation and
    tables rebuilt after it must all agree."""
    graph = random_hierarchy(
        12, seed=3, virtual_probability=0.4, member_probability=0.5
    )
    lazy = LazyMemberLookup(graph)
    for class_name in graph.classes:
        for member in QUERY_MEMBERS:
            lazy.lookup(class_name, member)

    generation = graph.generation
    graph.add_class("Kx", members=["m", "fresh"])
    graph.add_edge("K0", "Kx")
    graph.add_member("K1", "fresh")
    assert graph.generation > generation

    table = build_lookup_table(graph)
    batched = build_lookup_table(graph, mode="batched")
    flat = build_lookup_table(graph, mode="batched", fastpath=True)
    members = set(QUERY_MEMBERS) | {"fresh"}
    for class_name in graph.classes:
        for member in sorted(members):
            expected = table.lookup(class_name, member)
            assert batched.lookup(class_name, member) == expected
            assert flat.lookup(class_name, member) == expected
            assert lazy.lookup(class_name, member) == expected


@pytest.mark.parametrize(
    "mode", ["per-member", "batched", "fastpath"]
)
def test_apply_delta_matches_fresh_build_in_every_mode(mode):
    """Tables maintained through apply_delta across a burst of
    mutations must answer exactly like tables built from scratch after
    them — in both build modes plus the flat-serving overlay,
    including on the classes whose rows the cone re-sweep recomputed,
    the ones it reused, and the flat columns the delta demoted or
    cone-updated."""
    graph = random_hierarchy(
        14, seed=11, virtual_probability=0.4, member_probability=0.5
    )
    if mode == "fastpath":
        table = build_lookup_table(graph, mode="batched", fastpath=True)
    else:
        table = build_lookup_table(graph, mode=mode)

    anchors = list(graph.classes)
    graph.add_member(anchors[3], "fresh")
    table.apply_delta()
    graph.add_class("Kx", members=["m"])
    graph.add_edge(anchors[0], "Kx")
    graph.add_edge(anchors[5], "Kx", virtual=True)
    table.apply_delta()

    fresh = build_lookup_table(graph)
    members = set(QUERY_MEMBERS) | {"fresh"}
    for class_name in graph.classes:
        for member in sorted(members):
            assert table.lookup(class_name, member) == fresh.lookup(
                class_name, member
            ), f"{mode} drifted on {class_name}::{member}"
    stats = table.delta_stats
    assert stats.deltas_applied == 2
    if mode == "per-member":
        # The independent reference table rebuilds whole on every edit.
        assert stats.full_rebuilds == 2
    else:
        assert stats.cone_classes >= 1
        assert stats.entries_reused > 0  # the out-of-cone bulk survived


def test_apply_delta_on_unchanged_graph_is_a_no_op():
    graph = chain(10, member_every=2)
    table = build_lookup_table(graph, mode="batched")
    result = table.apply_delta()
    assert result.deltas_applied == 0
    assert table.delta_stats.deltas_applied == 0


def test_one_shot_lookup_matches_engines():
    """The one-shot convenience must agree with the table and must not
    build eagerly (it routes through the lazy engine)."""
    graph = random_hierarchy(12, seed=7, member_probability=0.6)
    table = build_lookup_table(graph)
    for class_name in graph.classes:
        for member in QUERY_MEMBERS:
            assert lookup(graph, class_name, member) == table.lookup(
                class_name, member
            )


def test_one_shot_lookup_is_demand_driven():
    """A single one-shot query on a chain touches only the queried cone,
    not the whole table — the documented reason it uses the lazy engine."""
    graph = chain(64, member_every=8)
    lazy = LazyMemberLookup(graph)
    lazy.lookup("C4", "m")
    # C4's cone is C0..C4: five entries, nowhere near the 64-class table.
    assert lazy.entries_computed() == 5
    # The one-shot wrapper keeps exactly such an engine on the graph.
    lookup(graph, "C4", "m")
    assert graph._one_shot_lookup.entries_computed() == 5
