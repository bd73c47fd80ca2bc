"""Batch/one-shot equivalence of every ``lookup_many`` entry point.

One invariant, pinned across the whole engine matrix: a batch answer is
value-identical (witnesses included) to an independent per-member
reference table's per-query answers — through the columnar gather
(snapshot-backed and mmapped tables), the in-place table's per-query
loop, and the serving tier — and stays so after delta maintenance.  Snapshot point and batch
reads share one columnar layout, so the reference is always a separate
build, never the same table's point path.  Mid-publish coherence is pinned too:
a batch is answered against exactly one captured generation, never
split by a concurrent publish.
"""

import os
import tempfile

import pytest

import repro.core.columnar as columnar_mod
from repro.core.flatpack import mmap_table, pack
from repro.core.lookup import MemberLookupTable, build_lookup_table
from repro.core.snapshot import TableSnapshot
from repro.serve.service import LookupService
from repro.workloads.generators import (
    ambiguous_fan,
    binary_tree,
    chain,
    random_hierarchy,
)


def all_queries(graph, extra=("does_not_exist",)):
    members = set(extra)
    for name in graph.classes:
        members.update(graph.declared_members(name))
    return [
        (class_name, member)
        for class_name in graph.classes
        for member in sorted(members)
    ]


def graphs():
    return [
        ("tree", binary_tree(5)),
        ("fan", ambiguous_fan(5)),
        ("random", random_hierarchy(12, seed=5, member_probability=0.6)),
    ]


TABLE_KINDS = (
    "batched",
    "batched-fastpath",
    "per-member",
    "packed",
)


def build_table(kind, graph):
    if kind == "batched":
        return build_lookup_table(graph, mode="batched")
    if kind == "batched-fastpath":
        return build_lookup_table(graph, mode="batched", fastpath=True)
    if kind == "per-member":
        # The in-place table: lookup_many loops per query (no columnar).
        return build_lookup_table(graph, mode="per-member")
    if kind == "packed":
        # The mmapped flatpack: batch gathers straight off the buffer.
        live = build_lookup_table(graph, mode="batched", fastpath=True)
        with tempfile.NamedTemporaryFile(
            suffix=".pack", delete=False
        ) as handle:
            path = handle.name
        pack(live, path)
        packed = mmap_table(path)
        os.unlink(path)  # the open mapping keeps the inode alive
        return packed
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", TABLE_KINDS)
@pytest.mark.parametrize(
    "name,graph", graphs(), ids=[name for name, _ in graphs()]
)
def test_table_batch_equals_one_shot(kind, name, graph):
    table = build_table(kind, graph)
    reference = build_lookup_table(graph)
    queries = all_queries(graph)
    batch = table.lookup_many(queries)
    assert batch == [reference.lookup(c, m) for c, m in queries]


@pytest.mark.parametrize("fastpath", [True, False])
def test_snapshot_batch_equals_one_shot(fastpath):
    """Point reads (flat overlay first when on) and batch gathers both
    match the reference, with and without the flat overlay."""
    graph = random_hierarchy(12, seed=9, member_probability=0.6)
    snapshot = TableSnapshot.build(graph, fastpath=fastpath)
    reference = build_lookup_table(graph)
    queries = all_queries(graph)
    expected = [reference.lookup(c, m) for c, m in queries]
    assert snapshot.lookup_many(queries) == expected
    assert [snapshot.lookup(c, m) for c, m in queries] == expected


def test_batch_equals_one_shot_after_apply_delta():
    graph = chain(16, member_every=4)
    table = build_lookup_table(graph, mode="batched")
    table.lookup_many(all_queries(graph))  # warm the columnar memos
    graph.add_class("Zed", ["m", "extra"])
    graph.add_edge("C15", "Zed")
    table.apply_delta()
    queries = all_queries(graph)
    fresh = build_lookup_table(graph)
    batch = table.lookup_many(queries)
    assert batch == [fresh.lookup(c, m) for c, m in queries]


def test_batch_equals_one_shot_without_numpy(monkeypatch):
    monkeypatch.setattr(columnar_mod, "HAVE_NUMPY", False)
    graph = ambiguous_fan(6)
    table = build_lookup_table(graph, mode="batched")
    columnar = table.columnar_table
    assert columnar is not None and not columnar.use_numpy
    reference = build_lookup_table(graph)
    queries = all_queries(graph)
    assert table.lookup_many(queries) == [
        reference.lookup(c, m) for c, m in queries
    ]


def test_mid_publish_batch_is_one_generation():
    """A captured snapshot answers its whole batch from its own
    generation even after the writer publishes past it — and the new
    head's batch reflects the whole delta, not a mix."""
    graph = chain(12, member_every=12)
    table = MemberLookupTable(graph, mode="batched")
    captured = table.snapshot
    queries = [(name, "m") for name in graph.classes]
    before = captured.lookup_many(queries)

    # Publish: C6 now hides the root's declaration for its subtree.
    graph.add_member("C6", "m")
    table.apply_delta()

    assert captured.lookup_many(queries) == before
    assert all(r.declaring_class == "C0" for r in before)
    after = table.lookup_many(queries)
    declared = {r.class_name: r.declaring_class for r in after}
    assert declared["C5"] == "C0" and declared["C6"] == "C6"
    assert declared["C11"] == "C6"
    assert table.snapshot.generation > captured.generation


# ----------------------------------------------------------------------
# The serving tier's batch entry point
# ----------------------------------------------------------------------


def test_service_batch_equals_one_shot():
    graph = random_hierarchy(12, seed=4, member_probability=0.6)
    service = LookupService()
    service.add_tenant("t", graph)
    reference = build_lookup_table(graph)
    queries = all_queries(graph)
    batch = service.lookup_many("t", queries)
    assert batch == [reference.lookup(c, m) for c, m in queries]
    assert batch == [service.lookup("t", c, m) for c, m in queries]
    stats = service.stats("t")["tenants"]["t"]
    assert stats["batches"] == 1
    assert stats["lookups"] == 2 * len(queries)


def test_service_batch_tracks_deltas():
    service = LookupService()
    service.add_tenant("t", chain(8, member_every=8))
    queries = [(f"C{i}", "m") for i in range(8)]
    before = service.lookup_many("t", queries)
    assert all(r.declaring_class == "C0" for r in before)
    service.apply_delta(
        "t", [{"op": "add_member", "class": "C4", "member": "m"}]
    )
    after = service.lookup_many("t", queries)
    declared = {r.class_name: r.declaring_class for r in after}
    assert declared["C3"] == "C0" and declared["C4"] == "C4"
