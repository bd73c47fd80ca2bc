"""Columnar batch serving vs a per-query point-lookup loop.

A published snapshot answers both served point and batch reads from one
columnar layout (:mod:`repro.core.columnar`) whose warm cells are their
wire fragments: a served point read is one memoised fragment, a served
batch is one gather per distinct member over dense interned entry
arrays.  This file measures what the batch entry point saves over
issuing the same queries one at a time.

It times 8192-query batches (mixed members, deterministic
pseudo-random order, all keys distinct) on three 1024-class families —
an 8-member chain, a depth-10 binary tree and an all-virtual layered
DAG — through the bytes gather
:meth:`~repro.serve.service.LookupService.lookup_many_json` (what the
server's ``lookup_many`` op runs) against a per-query
:meth:`~repro.serve.service.LookupService.lookup_json` loop over the
same queries as baseline, and the library batch
:meth:`~repro.serve.service.LookupService.lookup_many` (fresh
``LookupResult`` objects) over them.  The baseline tag makes
``scripts/collect_bench_numbers.py`` report each case's ratio to the
loop; no ratio is asserted.  A non-benchmark guard pins the library batch's
answers to the independent per-member table and the gather's fragments
to their encodings.  Recorded medians land in
``BENCH_columnar.json`` via ``scripts/collect_bench_numbers.py``.
"""

import random

import pytest

from repro.core.lookup import build_lookup_table
from repro.core.results import result_json
from repro.hierarchy.graph import ClassHierarchyGraph
from repro.serve.service import LookupService

BATCH = 8192
MEMBERS = 8


def member_chain(n: int) -> ClassHierarchyGraph:
    """A single-inheritance chain whose first 8 classes each declare a
    distinct member — so every ``m0..m7`` is visible from its declaring
    depth down and a mixed-member batch really exercises the per-member
    grouping, not one column."""
    graph = ClassHierarchyGraph()
    graph.add_class("C0", members=["m0"])
    for i in range(1, n):
        declared = [f"m{i}"] if i < MEMBERS else []
        graph.add_class(f"C{i}", members=declared)
        graph.add_edge(f"C{i - 1}", f"C{i}")
    return graph


def member_tree(depth: int) -> ClassHierarchyGraph:
    """A complete binary tree whose root and its first descendants
    declare ``m0..m7`` — each member visible exactly in its declaring
    node's subtree, so batch groups mix unique and NOT_FOUND answers."""
    graph = ClassHierarchyGraph()
    graph.add_class("N1", members=["m0"])
    for i in range(2, 2**depth):
        declared = [f"m{i - 1}"] if i <= MEMBERS else []
        graph.add_class(f"N{i}", members=declared)
        graph.add_edge(f"N{i // 2}", f"N{i}")
    return graph


def member_layered(
    layers: int, width: int, *, seed: int = 3
) -> ClassHierarchyGraph:
    """One root declaring ``m0..m7``; each layer inherits virtually
    from the one below, so the DAG is wide yet unambiguous (the
    ``bench_snapshot`` layered shape with a full member set)."""
    rng = random.Random(seed)
    graph = ClassHierarchyGraph()
    graph.add_class("R", members=[f"m{i}" for i in range(MEMBERS)])
    previous = ["R"]
    for layer in range(layers):
        current = []
        for index in range(width):
            name = f"L{layer}_{index}"
            graph.add_class(name)
            for base in rng.sample(previous, min(2, len(previous))):
                graph.add_edge(base, name, virtual=True)
            current.append(name)
        previous = current
    return graph


WORKLOADS = {
    "mchain_1024": member_chain(1024),
    "mtree_depth10": member_tree(10),
    "mlayered_16x64": member_layered(16, 64),
}


def batch_queries(graph, size=BATCH, *, seed=7):
    """A deterministic mixed batch: every ``(class, member)`` pair over
    the declared member names (plus one absent name), shuffled and
    truncated — so the batch holds ``size`` *distinct* keys."""
    names = list(graph.classes)
    members = sorted(
        {m for name in names for m in graph.declared_members(name)}
    )
    members.append("does_not_exist")
    pairs = [(name, member) for member in members for name in names]
    random.Random(seed).shuffle(pairs)
    return pairs[:size]


def make_service(graph):
    service = LookupService()
    service.add_tenant("t", graph)
    return service


@pytest.fixture(params=sorted(WORKLOADS), ids=sorted(WORKLOADS))
def workload(request):
    graph = WORKLOADS[request.param]
    graph.compile()
    return request.param, graph, batch_queries(graph)


def _annotate(benchmark, name, graph, queries) -> None:
    benchmark.extra_info["workload"] = name
    benchmark.extra_info["classes"] = len(graph)
    benchmark.extra_info["batch"] = len(queries)


def test_batch_point_lookup_loop(benchmark, workload):
    """Baseline: the same queries as a per-query ``service.lookup_json``
    loop — one memoised fragment read each."""
    name, graph, queries = workload
    service = make_service(graph)
    lookup = service.lookup_json

    def loop():
        return [lookup("t", c, m) for c, m in queries]

    loop()  # steady state: every touched cell memoised
    benchmark(loop)
    _annotate(benchmark, name, graph, queries)
    benchmark.extra_info["baseline"] = True


def test_batch_columnar_gather(benchmark, workload):
    """The same batch as one columnar gather per distinct member."""
    name, graph, queries = workload
    service = make_service(graph)
    service.lookup_many_json("t", queries)  # materialise + memoise columns
    benchmark(service.lookup_many_json, "t", queries)
    _annotate(benchmark, name, graph, queries)
    table = service.tenant("t").table.columnar_table
    benchmark.extra_info["pool_slots"] = len(table.pool)


def test_batch_library_lookup_many(benchmark, workload):
    """The same batch as the library read
    :meth:`~repro.serve.service.LookupService.lookup_many`, which builds
    a fresh ``LookupResult`` per query from the same cells (a warm cell
    keeps only its wire fragment, so a library read decodes it every
    call)."""
    name, graph, queries = workload
    service = make_service(graph)
    service.lookup_many("t", queries)  # lay out the columnar table
    benchmark(service.lookup_many, "t", queries)
    _annotate(benchmark, name, graph, queries)


def test_columnar_batches_match_rows():
    """The gather exists to differ in *speed* only: every batch answer
    is value-identical to the independent per-member table's, witnesses
    included, and every gathered fragment is its encoding, on every
    workload."""
    for name, graph in WORKLOADS.items():
        reference = build_lookup_table(graph)
        service = make_service(graph)
        queries = batch_queries(graph, size=2048)
        for (class_name, member), result, fragment in zip(
            queries,
            service.lookup_many("t", queries),
            service.lookup_many_json("t", queries),
        ):
            assert result == reference.lookup(class_name, member), (
                f"{name}: {class_name}::{member}"
            )
            assert fragment == result_json(result), (
                f"{name}: {class_name}::{member}"
            )
