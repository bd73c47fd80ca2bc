"""The columnar batch-query kernel (``repro.core.columnar``).

These tests pin the whole contract of the dense layout: entry interning
over the shared pool (blue entries included — the generalization past
:mod:`repro.core.fastpath`), strict result equality of the vectorized
gather against the per-member reference table on every workload
family, the numpy and no-numpy gathers producing identical answers,
copy-on-write delta derivation (parent untouched, unaffected columns
shared by reference, short shared columns bounds-guarded), and the
batch's error semantics (first unknown class raises, unknown members
answer NOT_FOUND).
"""

import pytest

import repro.core.columnar as columnar_mod
from repro.core.columnar import ColumnarTable, EntryPool
from repro.core.flatpack import pack
from repro.core.kernel import KernelBlue, batched_sweep
from repro.core.lookup import build_lookup_table
from repro.core.snapshot import TableSnapshot
from repro.errors import UnknownClassError
from repro.serve.service import LookupService
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

MODES = (
    [True, False] if columnar_mod.HAVE_NUMPY else [False]
)


@pytest.fixture(params=MODES, ids=lambda v: "numpy" if v else "fallback")
def use_numpy(request, monkeypatch):
    """Run the test under both gather implementations; on machines
    without numpy only the fallback leg exists (CI's no-numpy job)."""
    if not request.param:
        monkeypatch.setattr(columnar_mod, "HAVE_NUMPY", False)
    return request.param


def all_queries(graph, extra=("does_not_exist",)):
    members = set(extra)
    for name in graph.classes:
        members.update(graph.declared_members(name))
    return [
        (class_name, member)
        for class_name in graph.classes
        for member in sorted(members)
    ]


def build_columnar(graph, *, use_numpy=None):
    ch = graph.compile()
    rows = batched_sweep(ch)
    return ch, ColumnarTable.from_rows(ch, rows, use_numpy=use_numpy)


def assert_batch_matches_rows(graph, *, use_numpy=None):
    """Strict equality (witnesses included) of one big gather against
    the independent per-member reference table."""
    ch, table = build_columnar(graph, use_numpy=use_numpy)
    rows = build_lookup_table(graph)
    queries = all_queries(graph)
    batched = table.lookup_many(ch, queries)
    assert len(batched) == len(queries)
    for (class_name, member), result in zip(queries, batched):
        assert result == rows.lookup(class_name, member), (
            f"columnar gather drifted on {class_name}::{member}"
        )


# ----------------------------------------------------------------------
# The entry pool
# ----------------------------------------------------------------------


def test_pool_interns_red_and_blue_without_collision():
    pool = EntryPool()
    red = pool.intern((3, 7))
    blue = pool.intern(
        KernelBlue(
            abstractions=frozenset({1, 2}), candidate_ldcs=frozenset({3})
        )
    )
    assert red != blue
    assert pool.intern((3, 7)) == red
    assert (
        pool.intern(
            KernelBlue(
                abstractions=frozenset({1, 2}), candidate_ldcs=frozenset({3})
            )
        )
        == blue
    )
    assert len(pool) == 2


def test_pool_copy_is_private():
    pool = EntryPool()
    pool.intern((0, 0))
    dup = pool.copy()
    dup.intern((1, 1))
    assert len(pool) == 1 and len(dup) == 2


def test_chain_interns_one_red_slot(use_numpy):
    """A 64-class chain with one declaration has 64 populated cells but
    a single distinct entry — the columnar win the pool encodes."""
    ch, table = build_columnar(
        chain(64, member_every=64), use_numpy=use_numpy
    )
    assert len(table.pool) == 1
    assert table.populated_cells == 64
    assert table.column_count == 1


def test_blue_columns_are_laid_out(use_numpy):
    """Ambiguous columns live in the same dense layout — the point of
    generalizing past the certified-red fast path."""
    graph = ambiguous_fan(5)
    ch, table = build_columnar(graph, use_numpy=use_numpy)
    (column,) = table.columns.values()
    slots = table.pool.slots
    assert any(type(slots[sid]) is not tuple for sid in column.cells if sid >= 0)
    join = ch.class_ids["Join"]
    result = table.lookup_many(ch, [("Join", "m")])[0]
    assert result.is_ambiguous
    assert column.cells[join] >= 0


# ----------------------------------------------------------------------
# Gather vs row path, every workload family, both gather modes
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
def test_gather_matches_row_path(graph_factory, use_numpy):
    assert_batch_matches_rows(graph_factory(), use_numpy=use_numpy)


def test_numpy_and_fallback_agree():
    if not columnar_mod.HAVE_NUMPY:
        pytest.skip("numpy not installed; single-mode environment")
    graph = random_hierarchy(12, seed=3, member_probability=0.7)
    ch, fast = build_columnar(graph, use_numpy=True)
    _, slow = build_columnar(graph, use_numpy=False)
    assert fast.use_numpy and not slow.use_numpy
    queries = all_queries(graph)
    assert fast.lookup_many(ch, queries) == slow.lookup_many(ch, queries)


def test_large_single_member_batch_uses_one_gather(use_numpy):
    ch, table = build_columnar(chain(64), use_numpy=use_numpy)
    queries = [(name, "m") for name in ch.class_names]
    out = table.lookup_many(ch, queries)
    assert all(result.is_unique for result in out)
    assert table.stats.gathers == 1
    assert table.stats.scalar_serves == 0
    # The column is now fully memoised; a repeat gather reuses it.
    table.lookup_many(ch, queries)
    assert table.stats.columns_materialized == 1


def test_small_batch_stays_scalar(use_numpy):
    """A tiny batch over a huge cold column must not pay O(|N|)
    materialisation — the guarded per-query path serves it."""
    ch, table = build_columnar(chain(200), use_numpy=use_numpy)
    out = table.lookup_many(ch, [("C199", "m"), ("C0", "m")])
    assert [r.is_unique for r in out] == [True, True]
    assert table.stats.columns_materialized == 0
    assert table.stats.scalar_serves == 2


def test_unknown_member_is_not_found_per_query(use_numpy):
    ch, table = build_columnar(binary_tree(3), use_numpy=use_numpy)
    out = table.lookup_many(ch, [("N1", "ghost"), ("N2", "m")])
    assert out[0].is_not_found and out[1].is_unique


def test_unknown_class_raises(use_numpy):
    ch, table = build_columnar(binary_tree(3), use_numpy=use_numpy)
    with pytest.raises(UnknownClassError) as exc:
        table.lookup_many(ch, [("N1", "m"), ("Ghost", "m")])
    assert exc.value.name == "Ghost"


def test_empty_batch(use_numpy):
    ch, table = build_columnar(binary_tree(3), use_numpy=use_numpy)
    assert table.lookup_many(ch, []) == []
    assert table.lookup_many(ch, iter(())) == []


# ----------------------------------------------------------------------
# Copy-on-write delta derivation
# ----------------------------------------------------------------------


def delta_fixture(use_numpy):
    """A two-member graph, its columnar table, and a mutation that
    touches only one member — so sharing is observable per column."""
    graph = chain(20, member_every=4)
    for i in range(0, 20, 5):
        graph.add_member(f"C{i}", "other")
    ch, table = build_columnar(graph, use_numpy=use_numpy)
    # Warm both columns' memos so sharing of warm results is visible.
    table.lookup_many(ch, [(n, "m") for n in ch.class_names] * 2)
    table.lookup_many(ch, [(n, "other") for n in ch.class_names])
    return graph, ch, table


def test_apply_delta_shares_unaffected_columns(use_numpy):
    graph, ch, table = delta_fixture(use_numpy)
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


def test_apply_delta_new_member_column(use_numpy):
    graph, ch, table = delta_fixture(use_numpy)
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


def test_apply_delta_without_members_shares_pool(use_numpy):
    _, ch, table = delta_fixture(use_numpy)
    child = table.apply_delta(ch, [], [], lambda cid, mid: None)
    assert child.pool is table.pool


# ----------------------------------------------------------------------
# The snapshot integration point
# ----------------------------------------------------------------------


def test_snapshot_lazy_columnar_is_memoised(use_numpy):
    snapshot = TableSnapshot.build(binary_tree(4))
    table = snapshot.columnar_table()
    assert table is not None
    assert snapshot.columnar_table() is table


def test_point_reads_return_the_memoised_cell(tmp_path):
    """An ambiguous cell lies outside the flat overlay, so point reads
    answer it from the columnar layout's memo — the same object every
    time, on a built snapshot and on a tenant booted from a pack."""
    graph = ambiguous_fan(5)
    expected = build_lookup_table(graph)
    snapshot = TableSnapshot.build(graph)
    class_name, member = snapshot.ambiguous_queries()[0]
    first = snapshot.lookup(class_name, member)
    assert first.is_ambiguous
    assert first == expected.lookup(class_name, member)
    assert snapshot.lookup(class_name, member) is first

    path = tmp_path / "fan.pack"
    pack(snapshot, path)
    service = LookupService()
    service.add_tenant("t", pack=path)
    booted = service.tenant("t").snapshot
    first = booted.lookup(class_name, member)
    assert first == expected.lookup(class_name, member)
    assert booted.lookup(class_name, member) is first
