"""Extension benchmark: lookup under hierarchy growth.

A compiler interleaves declarations with lookups.  This bench replays a
random hierarchy declaration-by-declaration with a lookup burst after
every class, comparing (a) rebuilding the eager table each time and (b)
a fresh lazy engine each time.

The ``storm_*`` half measures the delta-maintenance tier at production
scale: grow the 1024-class scaling families one declaration at a time
(a ``STORM_TAIL``-step mutation storm with probe queries interleaved)
and compare a full batched rebuild per step against
``MemberLookupTable.apply_delta`` (cone-restricted re-sweep).
``test_delta_speedup_floor`` pins
the acceptance floor — apply_delta ≥ 5× over the full rebuild for
single-declaration deltas — and ``BENCH_delta.json`` records the
measured ratios (see ``scripts/collect_bench_numbers.py``).
"""

import time

import pytest

from repro.core.lazy import LazyMemberLookup
from repro.core.lookup import build_lookup_table
from repro.workloads.generators import (
    binary_tree,
    chain,
    layered_hierarchy,
    random_hierarchy,
)

MEMBERS = ("m", "f")


def script(n_classes: int):
    """The declaration/query script derived from a random hierarchy."""
    graph = random_hierarchy(
        n_classes,
        seed=31,
        max_bases=2,
        virtual_probability=0.3,
        member_names=MEMBERS,
        member_probability=0.5,
    )
    steps = []
    for name in graph.classes:
        edges = [
            (e.base, e.derived, e.virtual) for e in graph.direct_bases(name)
        ]
        members = list(graph.declared_members(name).values())
        steps.append((name, members, edges))
    return steps


def run_with_rebuild(steps, engine_factory):
    from repro.hierarchy.graph import ClassHierarchyGraph

    graph = ClassHierarchyGraph()
    answers = 0
    for name, members, edges in steps:
        graph.add_class(name, members)
        for base, derived, virtual in edges:
            graph.add_edge(base, derived, virtual=virtual)
        engine = engine_factory(graph)
        for declared in graph.classes:
            for member in MEMBERS:
                engine.lookup(declared, member)
                answers += 1
    return answers


@pytest.mark.parametrize("n", [20, 60])
def test_rebuild_eager_each_step(benchmark, n):
    steps = script(n)
    answers = benchmark(run_with_rebuild, steps, build_lookup_table)
    benchmark.extra_info["answers"] = answers


@pytest.mark.parametrize("n", [20, 60])
def test_fresh_lazy_each_step(benchmark, n):
    steps = script(n)
    answers = benchmark(run_with_rebuild, steps, LazyMemberLookup)
    benchmark.extra_info["answers"] = answers


# ---------------------------------------------------------------------------
# Mutation storms at scale: delta maintenance vs rebuild-the-world.
# ---------------------------------------------------------------------------

STORM_TAIL = 64
STORM_PROBES = 4

STORM_FAMILIES = {
    "storm_chain_1024": lambda: chain(1024, member_every=8),
    "storm_tree_depth10": lambda: binary_tree(10),
    "storm_layered_1024": lambda: layered_hierarchy(32, 32, seed=19),
}


def storm_plan(graph):
    """A deterministic mutation storm over ``graph``: ``STORM_TAIL`` new
    leaf classes, each deriving from a pre-existing anchor class and
    declaring the family's first member name, with ``STORM_PROBES``
    interleaved lookup probes per step (the compile-server shape —
    edits and queries alternate, so the table can never go cold)."""
    anchors = list(graph.classes)
    member = graph.member_names()[0]
    steps = []
    for i in range(STORM_TAIL):
        base = anchors[(i * 131) % len(anchors)]
        probes = [
            anchors[(i * 37 + j * 101) % len(anchors)]
            for j in range(STORM_PROBES)
        ]
        steps.append((f"Storm{i}", base, probes))
    return member, steps


def _storm_setup(family):
    graph = STORM_FAMILIES[family]()
    graph.compile()
    member, steps = storm_plan(graph)
    return (graph, member, steps), {}


def run_storm_full_rebuild(graph, member, steps):
    """Baseline: throw the table away and rebuild after every step."""
    answers = 0
    for name, base, probes in steps:
        graph.add_class(name, [member])
        graph.add_edge(base, name)
        table = build_lookup_table(graph, mode="batched")
        for probe in (name, *probes):
            table.lookup(probe, member)
            answers += 1
    return answers


def run_storm_apply_delta(graph, member, steps):
    """Maintain one table through the storm with cone-restricted
    ``apply_delta`` re-sweeps."""
    table = build_lookup_table(graph, mode="batched")
    answers = 0
    for name, base, probes in steps:
        graph.add_class(name, [member])
        graph.add_edge(base, name)
        table.apply_delta()
        for probe in (name, *probes):
            table.lookup(probe, member)
            answers += 1
    return answers


@pytest.mark.parametrize("family", sorted(STORM_FAMILIES))
def test_storm_full_rebuild(benchmark, family):
    answers = benchmark.pedantic(
        run_storm_full_rebuild,
        setup=lambda: _storm_setup(family),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["workload"] = family
    benchmark.extra_info["baseline"] = True
    benchmark.extra_info["answers"] = answers


@pytest.mark.parametrize("family", sorted(STORM_FAMILIES))
def test_storm_apply_delta(benchmark, family):
    answers = benchmark.pedantic(
        run_storm_apply_delta,
        setup=lambda: _storm_setup(family),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["workload"] = family
    benchmark.extra_info["answers"] = answers


@pytest.mark.parametrize("family", sorted(STORM_FAMILIES))
def test_storm_apply_delta_matches_rebuild(family):
    graph = STORM_FAMILIES[family]()
    member, steps = storm_plan(graph)
    table = build_lookup_table(graph, mode="batched")
    for name, base, _probes in steps:
        graph.add_class(name, [member])
        graph.add_edge(base, name)
        table.apply_delta()
    assert table.delta_stats.deltas_applied == len(steps)
    assert table.delta_stats.full_rebuilds == 0
    fresh = build_lookup_table(graph, mode="batched")
    for declared in graph.classes:
        for name in graph.member_names():
            left = table.lookup(declared, name)
            right = fresh.lookup(declared, name)
            assert left.status == right.status
            if right.is_unique:
                assert left.declaring_class == right.declaring_class


@pytest.mark.parametrize("family", sorted(STORM_FAMILIES))
def test_delta_speedup_floor(family):
    """Acceptance floor for the delta tier: on the 1024-class scaling
    families, absorbing a single-declaration delta via ``apply_delta``
    must be at least 5x faster than a full batched rebuild.  Both sides
    pay for the mutation and the snapshot recompile it forces — the
    comparison is "bring the table current after one declaration", not
    "rebuild an unchanged graph".

    Wall-clock assertion — deliberately loose (measured headroom is
    7-95x depending on family) and excluded from ``--quick`` smoke runs
    by the ``speedup_floor`` name contract in
    ``scripts/collect_bench_numbers.py``.
    """
    import gc
    import itertools

    graph = STORM_FAMILIES[family]()
    graph.compile()
    member = graph.member_names()[0]
    anchors = list(graph.classes)
    table = build_lookup_table(graph, mode="batched")
    counter = itertools.count()

    def declare_leaf():
        i = next(counter)
        name = f"Floor{i}"
        graph.add_class(name, [member])
        graph.add_edge(anchors[(i * 131) % len(anchors)], name)

    def one_delta():
        declare_leaf()
        table.apply_delta()

    def one_rebuild():
        declare_leaf()
        build_lookup_table(graph, mode="batched")

    def best_of(fn, reps=5, iterations=5):
        best = float("inf")
        gc.collect()
        gc.disable()
        try:
            for _ in range(reps):
                start = time.perf_counter()
                for _ in range(iterations):
                    fn()
                best = min(best, (time.perf_counter() - start) / iterations)
        finally:
            gc.enable()
        return best

    delta = best_of(one_delta)
    rebuild = best_of(one_rebuild)
    speedup = rebuild / delta
    assert speedup >= 5.0, (
        f"{family}: apply_delta only {speedup:.2f}x over the full rebuild"
    )
