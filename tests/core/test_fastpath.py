"""The unambiguous-hierarchy fast path (paper, §5).

The sweeps certify per member column whether any visible entry is blue
(:class:`repro.core.kernel.AmbiguityCertificate`); certified columns are
flattened into array-backed :class:`repro.core.fastpath.FlatColumn`
structures served ahead of the full red/blue rows.  These tests pin the
whole contract: certification at build time, strict result equality
against the row path and the subobject-poset oracle, and all four
delta-maintenance behaviours — demotion on ambiguation (permanent, the
cone certificate proves nothing out of cone), in-place cone updates of
columns that stayed red, promotion of brand-new columns, and array
growth for appended classes.
"""

from collections import namedtuple

import pytest

from repro.core.certify import certify_table
from repro.core.fastpath import AmbiguousColumnError, FlatColumn
from repro.core.lookup import build_lookup_table
from repro.core.results import LookupStatus
from repro.hierarchy.graph import ClassHierarchyGraph
from repro.workloads.generators import (
    ambiguous_fan,
    binary_tree,
    chain,
    random_hierarchy,
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


def assert_flat_matches_rows(graph) -> None:
    """Strict equality (witnesses included) of the fast-path table
    against the plain batched table, plus the Definition-7 oracle."""
    flat = build_lookup_table(graph, mode="batched", fastpath=True)
    rows = build_lookup_table(graph, mode="batched")
    for class_name, member in all_queries(graph):
        assert flat.lookup(class_name, member) == rows.lookup(
            class_name, member
        ), f"fast path drifted on {class_name}::{member}"
    assert certify_table(graph, flat) == []


# ----------------------------------------------------------------------
# Build-time certification and routing
# ----------------------------------------------------------------------


def test_unambiguous_build_flattens_every_column():
    graph = chain(16, member_every=4)
    table = build_lookup_table(graph, mode="batched", fastpath=True)
    flat = table.flat_table
    assert flat is not None
    assert flat.ambiguous_column_count == 0
    assert flat.flat_column_count == 1  # the single member "m"
    assert flat.flat_cells == 16  # visible in every chain class


def test_ambiguous_column_stays_on_the_rows():
    graph = ambiguous_fan(4)
    table = build_lookup_table(graph, mode="batched", fastpath=True)
    flat = table.flat_table
    mid = table.compiled.member_ids["m"]
    assert not flat.column_is_flat(mid)
    assert flat.ambiguous_column_count == 1
    # ...and the fallback still answers AMBIGUOUS, identically to rows.
    result = table.lookup("Join", "m")
    assert result.status is LookupStatus.AMBIGUOUS
    assert_flat_matches_rows(graph)


def test_serving_splits_flat_and_fallback_hits():
    graph = ambiguous_fan(3)
    graph.add_member("Join", "own")  # unambiguous column alongside "m"
    table = build_lookup_table(graph, mode="batched", fastpath=True)
    table.lookup("Join", "own")  # flat
    table.lookup("Join", "m")  # ambiguous -> fallback
    table.lookup("B0", "m")  # still the ambiguous column -> fallback
    stats = table.fastpath_stats
    assert stats.flat_hits == 1
    assert stats.fallback_hits == 2


def test_fastpath_off_unless_requested():
    graph = chain(4)
    assert build_lookup_table(graph).flat_table is None  # per-member
    assert build_lookup_table(graph, mode="batched").flat_table is None
    assert (
        build_lookup_table(graph, mode="batched", fastpath=True).flat_table
        is not None
    )


def test_per_member_mode_rejects_fastpath():
    with pytest.raises(ValueError):
        build_lookup_table(chain(4), mode="per-member", fastpath=True)


@pytest.mark.parametrize(
    "graph",
    [
        pytest.param(chain(24, member_every=4), id="chain"),
        pytest.param(binary_tree(4), id="binary_tree"),
        pytest.param(wide_unambiguous(6), id="wide_unambiguous"),
        pytest.param(ambiguous_fan(5), id="ambiguous_fan"),
    ],
)
def test_flat_serving_matches_rows_and_oracle(graph):
    assert_flat_matches_rows(graph)


@pytest.mark.parametrize("seed", range(6))
def test_flat_serving_matches_rows_on_random_dags(seed):
    graph = random_hierarchy(
        14, seed=seed, virtual_probability=0.35, member_probability=0.5
    )
    assert_flat_matches_rows(graph)


# ----------------------------------------------------------------------
# Delta maintenance: demote / promote / cone-update / grow
# ----------------------------------------------------------------------


def test_delta_that_ambiguates_demotes_the_column():
    graph = ClassHierarchyGraph()
    graph.add_class("A", members=["m"])
    graph.add_class("B", members=["m"])
    graph.add_class("C")
    graph.add_edge("A", "C")
    table = build_lookup_table(graph, mode="batched", fastpath=True)
    mid = table.compiled.member_ids["m"]
    assert table.flat_table.column_is_flat(mid)

    graph.add_edge("B", "C")  # C now sees A::m and B::m -> ambiguous
    table.apply_delta()
    assert not table.flat_table.column_is_flat(mid)
    assert table.fastpath_stats.demotions == 1
    assert table.lookup("C", "m").status is LookupStatus.AMBIGUOUS
    fresh = build_lookup_table(graph)
    for class_name, member in all_queries(graph):
        assert table.lookup(class_name, member) == fresh.lookup(
            class_name, member
        )


def test_delta_promotes_brand_new_columns():
    graph = chain(8, member_every=8)
    table = build_lookup_table(graph, mode="batched", fastpath=True)
    graph.add_member("C4", "fresh")
    table.apply_delta()
    mid = table.compiled.member_ids["fresh"]
    assert table.flat_table.column_is_flat(mid)
    assert table.fastpath_stats.promotions == 1
    assert table.lookup("C7", "fresh").declaring_class == "C4"
    assert certify_table(graph, table) == []


def test_delta_cone_updates_columns_that_stay_red():
    graph = chain(6, member_every=6)
    table = build_lookup_table(graph, mode="batched", fastpath=True)
    graph.add_class("D", members=["m"])  # hides C0::m below it
    graph.add_edge("C5", "D")
    graph.add_class("E")
    graph.add_edge("D", "E")
    table.apply_delta()
    stats = table.fastpath_stats
    assert stats.cone_updates >= 1
    assert stats.demotions == 0
    assert table.lookup("E", "m").declaring_class == "D"
    fresh = build_lookup_table(graph)
    for class_name, member in all_queries(graph):
        assert table.lookup(class_name, member) == fresh.lookup(
            class_name, member
        )


def test_memberless_growth_extends_flat_arrays():
    graph = chain(4)
    table = build_lookup_table(graph, mode="batched", fastpath=True)
    graph.add_class("Lonely")  # empty delta: no member ids affected
    table.apply_delta()
    result = table.lookup("Lonely", "m")
    assert result.status is LookupStatus.NOT_FOUND


def test_demotion_is_permanent_across_later_deltas():
    """The mask is monotone: a later cone sweep that happens to see only
    red cells must not resurrect a demoted column (its certificate says
    nothing about out-of-cone blues)."""
    graph = ambiguous_fan(3)
    graph.add_member("Join", "own")
    table = build_lookup_table(graph, mode="batched", fastpath=True)
    mid = table.compiled.member_ids["m"]
    assert not table.flat_table.column_is_flat(mid)
    graph.add_class("Leaf", members=["m"])  # unambiguous *in its cone*
    graph.add_edge("Join", "Leaf")
    table.apply_delta()
    assert not table.flat_table.column_is_flat(mid)
    fresh = build_lookup_table(graph)
    for class_name, member in all_queries(graph):
        assert table.lookup(class_name, member) == fresh.lookup(
            class_name, member
        )


# ----------------------------------------------------------------------
# The structures themselves
# ----------------------------------------------------------------------


def test_flat_column_rejects_blue_entries():
    Blue = namedtuple("Blue", "abstractions witness")
    column = FlatColumn(0, 2)
    with pytest.raises(AmbiguousColumnError):
        column.set_cell(1, Blue((), None))


def test_flat_column_interns_slots_and_grows():
    column = FlatColumn(0, 3)
    column.set_cell(0, (0, 0, None))
    column.set_cell(1, (0, 0, None))
    column.set_cell(2, (2, 1, None))
    assert len(column.slots) == 2  # two distinct (ldc, lv) pairs
    assert len(column) == 3
    column.ensure_size(5)
    assert len(column.cells) == 5
    assert column.cells[4] == -1
    column.set_cell(1, None)  # cell can be cleared again
    assert len(column) == 2


def test_flat_column_len_is_incremental():
    """``len(FlatColumn)`` is the incrementally maintained populated
    count — every ``set_cell`` transition keeps it equal to the actual
    number of visible cells, with no O(|classes|) scan."""
    column = FlatColumn(mid=0, n_classes=8)
    assert len(column) == 0
    column.set_cell(0, (0, 0, None))  # red entries are plain tuples
    column.set_cell(3, (0, 0, None))
    assert len(column) == 2
    column.set_cell(3, (1, 0, None))  # overwrite: still one cell
    assert len(column) == 2
    column.set_cell(0, None)  # visible -> invisible
    assert len(column) == 1
    column.set_cell(5, None)  # invisible -> invisible (no-op)
    assert len(column) == 1
    column.ensure_size(12)
    assert len(column) == 1
    with pytest.raises(AmbiguousColumnError):
        column.set_cell(2, object())  # blue never corrupts the count
    assert len(column) == 1
    assert len(column) == sum(1 for sid in column.cells if sid >= 0)
    assert len(column.copy()) == len(column)
