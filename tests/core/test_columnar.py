"""The columnar batch-query kernel (``repro.core.columnar``).

These tests pin the whole contract of the dense layout: entry interning
over the shared pool (blue entries included), strict result equality of
library reads against the per-member reference table on every workload
family, byte equality of the serving gather's wire fragments with the
encoding of those results,
copy-on-write delta derivation (parent untouched, unaffected columns
shared by reference, short shared columns bounds-guarded), and the
batch's error semantics (first unknown class raises, unknown members
answer NOT_FOUND).
"""

import gc
import tracemalloc

import pytest

from repro.core.columnar import ColumnarTable, EntryPool
from repro.core.flatpack import mmap_table, pack
from repro.core.kernel import KernelBlue, batched_sweep
from repro.core.lookup import build_lookup_table
from repro.core.paths import OMEGA
from repro.core.results import LookupResult, result_json
from repro.core.snapshot import TableSnapshot
from repro.errors import UnknownClassError
from repro.serve.service import LookupService
from repro.workloads.generators import (
    ambiguous_fan,
    binary_tree,
    blue_heavy_hierarchy,
    chain,
    grid,
    layered_hierarchy,
    nonvirtual_diamond_ladder,
    random_hierarchy,
    virtual_diamond_ladder,
    wide_unambiguous,
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


def build_columnar(graph):
    ch = graph.compile()
    rows = batched_sweep(ch)
    return ch, ColumnarTable.from_rows(ch, rows)


def assert_batch_matches_rows(graph):
    """Strict equality (witnesses included) of one big library batch
    against the independent per-member reference table, and of the
    serving gather's fragments with the encoding of those answers."""
    ch, table = build_columnar(graph)
    rows = build_lookup_table(graph)
    queries = all_queries(graph)
    batched = table.lookup_many(ch, queries)
    fragments = table.lookup_many_json(ch, queries)
    assert len(batched) == len(fragments) == len(queries)
    for (class_name, member), result, fragment in zip(
        queries, batched, fragments
    ):
        assert result == rows.lookup(class_name, member), (
            f"columnar batch drifted on {class_name}::{member}"
        )
        assert fragment == result_json(result), (
            f"columnar gather drifted on {class_name}::{member}"
        )


# ----------------------------------------------------------------------
# The entry pool
# ----------------------------------------------------------------------


def test_pool_interns_red_and_blue_without_collision():
    pool = EntryPool()
    red = pool.intern((3, 7))
    blue = pool.intern(
        KernelBlue(abstractions=0b1100, candidate_ldcs=1 << 3)
    )
    assert red != blue
    assert pool.intern((3, 7)) == red
    assert (
        pool.intern(KernelBlue(abstractions=0b1100, candidate_ldcs=1 << 3))
        == blue
    )
    assert len(pool) == 2


# A blue is two int masks, so ``KernelBlue(6, 5) == (6, 5)`` and the
# two hash alike: red ``(ldc=6, least=5)`` against the blue with
# abstractions {Ω, class 0} (bits 1, 2) and candidates {0, 2} (bits 0,
# 2).  Every interning path must still give them different slots.
COLLIDING_RED = (6, 5)
COLLIDING_BLUE = KernelBlue(6, 5)
RED_CLASS, BLUE_CLASS = 1, 3


def test_colliding_red_and_blue_intern_apart():
    assert COLLIDING_BLUE == COLLIDING_RED
    assert hash(COLLIDING_BLUE) == hash(COLLIDING_RED)
    pool = EntryPool()
    red = pool.intern(COLLIDING_RED)
    blue = pool.intern(COLLIDING_BLUE)
    assert red != blue
    assert type(pool.slots[red]) is tuple
    assert type(pool.slots[blue]) is KernelBlue
    assert pool.intern(COLLIDING_RED) == red
    assert pool.intern(COLLIDING_BLUE) == blue
    assert pool.copy().intern(COLLIDING_BLUE) == blue


def colliding_fixture():
    """An 8-class hierarchy whose one member column holds the colliding
    red in class 1 and the colliding blue in class 3 (hand-made rows:
    no sweep needs to produce them for the pool to keep them apart)."""
    ch = chain(8, member_every=8).compile()
    rows = [{} for _ in range(ch.n_classes)]
    rows[RED_CLASS][0] = COLLIDING_RED + (None,)
    rows[BLUE_CLASS][0] = COLLIDING_BLUE
    return ch, rows


def assert_colliding_answers(ch, results):
    names = ch.class_names
    red, blue = results
    assert red.is_unique
    assert red.declaring_class == names[6]
    assert red.least_virtual == names[5]
    assert blue.is_ambiguous
    assert blue.candidates == tuple(sorted([names[0], names[2]]))
    assert blue.blue_abstractions == frozenset({OMEGA, names[0]})


def colliding_queries(ch):
    member = ch.member_names[0]
    return [
        (ch.class_names[RED_CLASS], member),
        (ch.class_names[BLUE_CLASS], member),
    ]


def test_colliding_red_and_blue_from_rows():
    ch, rows = colliding_fixture()
    table = ColumnarTable.from_rows(ch, rows)
    cells = table.columns[0].cells
    assert cells[RED_CLASS] != cells[BLUE_CLASS]
    assert len(table.pool) == 2
    assert_colliding_answers(ch, table.lookup_many(ch, colliding_queries(ch)))


def test_colliding_red_and_blue_apply_delta():
    ch, rows = colliding_fixture()
    parent_rows = [dict(row) for row in rows]
    del parent_rows[BLUE_CLASS][0]
    table = ColumnarTable.from_rows(ch, parent_rows)
    child = table.apply_delta(
        ch, [BLUE_CLASS], [0], lambda cid, mid: rows[cid].get(mid)
    )
    cells = child.columns[0].cells
    assert cells[RED_CLASS] != cells[BLUE_CLASS]
    assert len(table.pool) == 1 and len(child.pool) == 2
    assert_colliding_answers(ch, child.lookup_many(ch, colliding_queries(ch)))


def test_colliding_red_and_blue_pack_round_trip(tmp_path):
    ch, rows = colliding_fixture()
    snapshot = TableSnapshot(
        ch=ch,
        rows=rows,
        entry_total=2,
        track_witnesses=False,
    )
    path = tmp_path / "collide.pack"
    pack(snapshot, path)
    with mmap_table(path) as packed:
        queries = colliding_queries(ch)
        assert_colliding_answers(
            ch, [packed.lookup(c, m) for c, m in queries]
        )
        assert_colliding_answers(ch, packed.lookup_many(queries))
        assert len(packed._entry_pool()) == 2


def test_pool_copy_is_private():
    pool = EntryPool()
    pool.intern((0, 0))
    dup = pool.copy()
    dup.intern((1, 1))
    assert len(pool) == 1 and len(dup) == 2


def test_chain_interns_one_red_slot():
    """A 64-class chain with one declaration has 64 populated cells but
    a single distinct entry — the columnar win the pool encodes."""
    ch, table = build_columnar(chain(64, member_every=64))
    assert len(table.pool) == 1
    assert table.populated_cells == 64
    assert table.column_count == 1


def test_blue_columns_are_laid_out():
    """Ambiguous columns live in the same dense layout — the point of
    generalizing past the certified-red fast path."""
    graph = ambiguous_fan(5)
    ch, table = build_columnar(graph)
    (column,) = table.columns.values()
    slots = table.pool.slots
    assert any(type(slots[sid]) is not tuple for sid in column.cells if sid >= 0)
    join = ch.class_ids["Join"]
    result = table.lookup_many(ch, [("Join", "m")])[0]
    assert result.is_ambiguous
    assert column.cells[join] >= 0


# ----------------------------------------------------------------------
# Gather vs row path, every workload family
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "graph_factory",
    [
        lambda: chain(40, member_every=5),
        lambda: binary_tree(5),
        lambda: ambiguous_fan(6),
        lambda: nonvirtual_diamond_ladder(3),
        lambda: virtual_diamond_ladder(3),
        lambda: wide_unambiguous(8),
        lambda: blue_heavy_hierarchy(4, 6),
        lambda: grid(4, 4),
        lambda: random_hierarchy(14, seed=7, member_probability=0.6),
    ],
    ids=[
        "chain",
        "tree",
        "fan",
        "nonvirtual-ladder",
        "virtual-ladder",
        "wide",
        "blue-heavy",
        "grid",
        "random",
    ],
)
def test_gather_matches_row_path(graph_factory):
    assert_batch_matches_rows(graph_factory())


def test_large_single_member_batch_uses_one_gather():
    ch, table = build_columnar(chain(64))
    queries = [(name, "m") for name in ch.class_names]
    out = table.lookup_many_json(ch, queries)
    assert out == [
        result_json(result) for result in table.lookup_many(ch, queries)
    ]
    assert table.stats.gathers == 1
    assert table.stats.scalar_serves == 0
    # The column is now fully memoised; a repeat gather reuses it, bytes
    # object for bytes object.
    again = table.lookup_many_json(ch, queries)
    assert all(a is b for a, b in zip(again, out))
    assert table.stats.columns_materialized == 1
    assert table.stats.gathers == 2
    # The library batch counts as a batch, and gathers nothing.
    assert table.stats.batches == 3
    assert table.stats.queries == 3 * len(queries)


def test_small_batch_stays_scalar():
    """A tiny batch over a huge cold column must not pay O(|N|)
    materialisation — the guarded per-query path serves it."""
    ch, table = build_columnar(chain(200))
    queries = [("C199", "m"), ("C0", "m")]
    out = table.lookup_many_json(ch, queries)
    assert out == [result_json(r) for r in table.lookup_many(ch, queries)]
    assert table.stats.columns_materialized == 0
    assert table.stats.scalar_serves == 2


def test_unknown_member_is_not_found_per_query():
    ch, table = build_columnar(binary_tree(3))
    out = table.lookup_many(ch, [("N1", "ghost"), ("N2", "m")])
    assert out[0].is_not_found and out[1].is_unique


def test_unknown_class_raises():
    ch, table = build_columnar(binary_tree(3))
    with pytest.raises(UnknownClassError) as exc:
        table.lookup_many(ch, [("N1", "m"), ("Ghost", "m")])
    assert exc.value.name == "Ghost"


def test_empty_batch():
    ch, table = build_columnar(binary_tree(3))
    assert table.lookup_many(ch, []) == []
    assert table.lookup_many(ch, iter(())) == []


# ----------------------------------------------------------------------
# Copy-on-write delta derivation
# ----------------------------------------------------------------------


def delta_fixture():
    """A two-member graph, its columnar table, and a mutation that
    touches only one member — so sharing is observable per column."""
    graph = chain(20, member_every=4)
    for i in range(0, 20, 5):
        graph.add_member(f"C{i}", "other")
    ch, table = build_columnar(graph)
    # Warm both columns' memos so sharing of warm results is visible.
    table.lookup_many(ch, [(n, "m") for n in ch.class_names] * 2)
    table.lookup_many(ch, [(n, "other") for n in ch.class_names])
    return graph, ch, table


def test_apply_delta_shares_unaffected_columns():
    graph, ch, table = delta_fixture()
    # A new root: its only visible member is "m", so the delta's member
    # mask is exactly {m} and the "other" column stays shared (short).
    graph.add_class("Zed", ["m"])
    new_ch = graph.compile()
    snap_rows = batched_sweep(new_ch)

    def entry_at(cid, mid):
        return snap_rows[cid].get(mid)

    mid_m = new_ch.member_ids["m"]
    mid_other = new_ch.member_ids["other"]
    child = table.apply_delta(
        new_ch, [new_ch.class_ids["Zed"]], [mid_m], entry_at
    )
    # The untouched column is the same object; the touched one is not.
    assert child.columns[mid_other] is table.columns[mid_other]
    assert child.columns[mid_m] is not table.columns[mid_m]
    # Parent answers its own generation unchanged.
    parent_rows = build_lookup_table(chainless_copy(graph, "Zed"))
    for name in ch.class_names:
        assert (
            table.lookup_many(ch, [(name, "m")])[0]
            == parent_rows.lookup(name, "m")
        )
    # Child matches a fresh build of the mutated graph, short shared
    # column ("other" never grew to include Zed) bounds-guarded.
    fresh = build_lookup_table(graph)
    queries = all_queries(graph)
    for (class_name, member), result in zip(
        queries, child.lookup_many(new_ch, queries)
    ):
        assert result == fresh.lookup(class_name, member)
    assert child.stats.cone_updates == table.stats.cone_updates + 1


def chainless_copy(graph, dropped):
    """The graph as it was before ``dropped`` was appended (append-only
    API: rebuild the prefix)."""
    from repro.hierarchy.graph import ClassHierarchyGraph

    prefix = ClassHierarchyGraph()
    for name in graph.classes:
        if name != dropped:
            prefix.add_class(name, graph.declared_members(name).values())
    for name in graph.classes:
        if name == dropped:
            continue
        for edge in graph.direct_bases(name):
            prefix.add_edge(
                edge.base, name, virtual=edge.virtual, access=edge.access
            )
    return prefix


def test_apply_delta_new_member_column():
    graph, ch, table = delta_fixture()
    # A new root declaring a new member: the delta mask is exactly the
    # brand-new member, so the column is flattened from scratch.
    graph.add_class("Fresh", ["brand_new"])
    new_ch = graph.compile()
    rows = batched_sweep(new_ch)
    child = table.apply_delta(
        new_ch,
        [new_ch.class_ids["Fresh"]],
        [new_ch.member_ids["brand_new"]],
        lambda cid, mid: rows[cid].get(mid),
    )
    assert child.stats.new_columns == table.stats.new_columns + 1
    result = child.lookup_many(new_ch, [("Fresh", "brand_new")])[0]
    assert result.is_unique and result.declaring_class == "Fresh"
    # Classes outside the new member's footprint answer NOT_FOUND.
    assert child.lookup_many(new_ch, [("C0", "brand_new")])[0].is_not_found


def test_apply_delta_without_members_shares_pool():
    _, ch, table = delta_fixture()
    child = table.apply_delta(ch, [], [], lambda cid, mid: None)
    assert child.pool is table.pool


# ----------------------------------------------------------------------
# The snapshot integration point
# ----------------------------------------------------------------------


def test_snapshot_lazy_columnar_is_memoised():
    snapshot = TableSnapshot.build(binary_tree(4))
    table = snapshot.columnar_table()
    assert table is not None
    assert snapshot.columnar_table() is table


def test_point_reads_return_the_memoised_cell(tmp_path):
    """A served point read answers an ambiguous cell from the columnar
    layout's memo — the same fragment bytes object every time, on a
    built snapshot and on a tenant booted from a pack — while a library
    read builds an equal result afresh on every call."""
    graph = ambiguous_fan(5)
    expected = build_lookup_table(graph)
    snapshot = TableSnapshot.build(graph)
    class_name, member = snapshot.ambiguous_queries()[0]
    want = expected.lookup(class_name, member)
    assert want.is_ambiguous

    path = tmp_path / "fan.pack"
    pack(snapshot, path)
    service = LookupService()
    service.add_tenant("t", pack=path)
    booted = service.tenant("t").snapshot
    for reader in (snapshot, booted):
        first = reader.lookup_json(class_name, member)
        assert first == result_json(want)
        assert reader.lookup_json(class_name, member) is first
        result = reader.lookup(class_name, member)
        assert result == want
        assert reader.lookup(class_name, member) is not result


# ----------------------------------------------------------------------
# What a warm cell keeps alive
# ----------------------------------------------------------------------

#: Bound on the ``tracemalloc`` bytes one warm cell keeps alive.  On the
#: hierarchy below a warm cell read 2048 B while the memo held a
#: ``LookupResult`` (with its names, witness path and memoised wire
#: bytes) and reads 220 B now that it holds the wire fragment alone.
WARM_CELL_BYTES = 700


def _live_results() -> int:
    return sum(1 for o in gc.get_objects() if type(o) is LookupResult)


def test_warm_cells_keep_only_their_wire_bytes():
    """Warming every cell through the serving gather leaves no
    ``LookupResult`` alive, and each warm cell costs about its fragment
    bytes — on a layered DAG where half the cells are ambiguous."""
    vocab = tuple(f"m{i:02d}" for i in range(12))
    graph = layered_hierarchy(
        16, 16, seed=0, member_names=vocab, member_probability=0.2
    )
    snapshot = TableSnapshot.build(graph)
    snapshot.columnar_table()  # the cold layout is not the memo
    queries = [(c, m) for c in graph.classes for m in vocab]
    assert len(snapshot.ambiguous_queries()) > len(queries) // 3
    gc.collect()
    results_before = _live_results()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        fragments = snapshot.lookup_many_json(queries)
        assert len(fragments) == len(queries)
        del fragments
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert _live_results() == results_before
    stats = snapshot.columnar_stats()
    assert stats.columns_materialized == len(vocab)
    assert kept / len(queries) < WARM_CELL_BYTES, (
        f"{kept / len(queries):.0f} B kept per warm cell"
    )
