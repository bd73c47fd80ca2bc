"""Per-member vs batched full-table construction.

The per-member eager driver runs the Figure-8 fold once per visible
``(class, member)`` pair — ``|M|`` topological sweeps re-reading the
same CSR rows.  The batched driver is the cone sweep
(:func:`repro.core.kernel.cone_sweep`) with every class in the cone:
one sweep filling whole per-class rows.  This file measures both on
the scaling families at three sizes each, and pins the headline floor:
the batched build is ≥ 2× the per-member build on ``chain_1024`` and
``tree_depth10``.

A non-benchmark guard asserts both modes return identical tables on
every workload, witnesses included.
"""

import time

import pytest

from repro.core.lookup import MemberLookupTable
from repro.workloads.generators import (
    binary_tree,
    blue_heavy_hierarchy,
    chain,
    random_hierarchy,
    wide_unambiguous,
)

#: The classic scaling families intern a single member name; the
#: ``dense_*`` family gives the sweep a real member space.
MEMBER_NAMES = tuple(f"m{i}" for i in range(24))


def dense(n: int):
    return random_hierarchy(
        n,
        seed=11,
        max_bases=3,
        virtual_probability=0.2,
        member_names=MEMBER_NAMES,
        member_probability=0.25,
    )


WORKLOADS = {
    "chain_256": lambda: chain(256, member_every=8),
    "chain_1024": lambda: chain(1024, member_every=8),
    "chain_4096": lambda: chain(4096, member_every=8),
    "tree_depth8": lambda: binary_tree(8),
    "tree_depth10": lambda: binary_tree(10),
    "tree_depth12": lambda: binary_tree(12),
    "virtual_fan_32": lambda: wide_unambiguous(32),
    "virtual_fan_128": lambda: wide_unambiguous(128),
    "virtual_fan_512": lambda: wide_unambiguous(512),
    "blue_heavy_8": lambda: blue_heavy_hierarchy(8, 8),
    "blue_heavy_16": lambda: blue_heavy_hierarchy(16, 16),
    "blue_heavy_32": lambda: blue_heavy_hierarchy(32, 32),
    "dense_96": lambda: dense(96),
    "dense_192": lambda: dense(192),
    "dense_384": lambda: dense(384),
}


@pytest.fixture(params=sorted(WORKLOADS), ids=sorted(WORKLOADS))
def workload(request):
    graph = WORKLOADS[request.param]()
    graph.compile()  # steady state: snapshot memoised, builds measured alone
    return request.param, graph


def _annotate(benchmark, name, graph, table) -> None:
    benchmark.extra_info["workload"] = name
    benchmark.extra_info["classes"] = len(graph)
    benchmark.extra_info["entries"] = table.stats.entries_computed


def test_build_per_member(benchmark, workload):
    name, graph = workload
    table = benchmark(MemberLookupTable, graph)
    _annotate(benchmark, name, graph, table)
    benchmark.extra_info["baseline"] = True


def test_build_batched(benchmark, workload):
    name, graph = workload
    table = benchmark(MemberLookupTable, graph, mode="batched")
    _annotate(benchmark, name, graph, table)


def test_same_tables_across_modes():
    """The modes exist to differ in *speed* only: identical entries,
    witnesses included, on every workload."""
    for name, factory in WORKLOADS.items():
        graph = factory()
        per_member = MemberLookupTable(graph)
        batched = MemberLookupTable(graph, mode="batched")
        assert batched.all_entries() == per_member.all_entries(), name


def test_batched_speedup_floor():
    """The acceptance floor: the batched single-sweep build is ≥ 2×
    faster than the per-member interned build on chain_1024 and
    tree_depth10 (the PR-1 headline workloads).

    Excluded from the CI ``--quick`` smoke run (no timing assertions
    there); timed as best-of-5 blocks of 5 builds with GC paused, like
    pytest-benchmark does, so a single scheduler hiccup cannot flip the
    verdict on a busy machine.
    """
    import gc

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

    for name in ("chain_1024", "tree_depth10"):
        graph = WORKLOADS[name]()
        graph.compile()
        per_member = best_of(lambda: MemberLookupTable(graph))
        batched = best_of(lambda: MemberLookupTable(graph, mode="batched"))
        speedup = per_member / batched
        assert speedup >= 2.0, (
            f"{name}: only {speedup:.2f}x over the per-member build"
        )
