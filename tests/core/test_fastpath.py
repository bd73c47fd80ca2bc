"""The flat column structures of :mod:`repro.core.fastpath` (paper, §5).

No published table serves from these structures; the module is tested
on its own.  A dominance sweep run with ``certificate=`` records per
member column whether any visible entry is blue
(:class:`repro.core.kernel.AmbiguityCertificate`), and
:func:`~repro.core.fastpath.build_flat_table` flattens the certified
columns into array-backed :class:`~repro.core.fastpath.FlatColumn`
structures.  These tests pin certification at build time, strict
result equality of every flat answer against a fresh snapshot and the
subobject-poset oracle, the four behaviours of
:meth:`~repro.core.fastpath.FlatTable.apply_delta` after a certified
cone sweep — demotion on ambiguation (permanent, the cone certificate
proves nothing out of cone), cone updates of columns that stayed red,
promotion of brand-new columns, and array growth for appended classes
— and the column structure itself.
"""

from collections import namedtuple

import pytest

from repro.core.certify import certify_table
from repro.core.fastpath import (
    AmbiguousColumnError,
    FlatColumn,
    build_flat_table,
)
from repro.core.kernel import AmbiguityCertificate, cone_sweep
from repro.core.results import LookupStatus
from repro.core.semantics import get_semantics
from repro.core.snapshot import TableSnapshot
from repro.hierarchy.compiled import describe_delta
from repro.hierarchy.graph import ClassHierarchyGraph
from repro.workloads.generators import (
    ambiguous_fan,
    binary_tree,
    chain,
    random_hierarchy,
    wide_unambiguous,
)


class Overlay:
    """A :class:`~repro.core.fastpath.FlatTable` over the rows of a
    dominance sweep run with ``certificate=``, kept current by
    :meth:`apply_delta`.  :meth:`lookup` answers a flat column from the
    overlay and anything else from a fresh snapshot of the graph."""

    def __init__(self, graph: ClassHierarchyGraph) -> None:
        self.graph = graph
        self.ch = graph.compile()
        certificate = AmbiguityCertificate()
        self.rows = get_semantics(None).sweep(
            self.ch, certificate=certificate
        )
        self.flat = build_flat_table(self.ch, certificate, self.entry_at)
        self.fallback = TableSnapshot.build(self.ch)

    def entry_at(self, cid: int, mid: int):
        row = self.rows[cid]
        return row.get(mid) if row else None

    def lookup(self, class_name: str, member: str):
        ch = self.ch
        mid = ch.member_ids.get(member)
        cid = ch.class_ids.get(class_name)
        if mid is not None and cid is not None:
            result = self.flat.serve(ch, cid, mid, class_name, member)
            if result is not None:
                return result
        return self.fallback.lookup(class_name, member)

    def apply_delta(self) -> None:
        """Re-fold the delta's cone with a certificate and bring the
        overlay current from the re-folded rows."""
        new = self.graph.compile()
        delta = describe_delta(self.ch, new)
        rows = self.rows + [None] * (new.n_classes - len(self.rows))
        certificate = AmbiguityCertificate()
        if not delta.is_empty:
            cone_sweep(
                new,
                rows,
                cone_mask=delta.cone_mask,
                member_mask=delta.member_mask,
                certificate=certificate,
            )
        self.ch, self.rows = new, rows
        self.flat = self.flat.apply_delta(
            new,
            list(delta.cone_ids()),
            list(delta.member_ids()),
            certificate,
            self.entry_at,
        )
        self.fallback = TableSnapshot.build(new)


def all_queries(graph, extra=("does_not_exist",)):
    members = set(extra)
    for name in graph.classes:
        members.update(graph.declared_members(name))
    return [
        (class_name, member)
        for class_name in graph.classes
        for member in sorted(members)
    ]


def assert_matches_fresh_build(overlay: Overlay) -> None:
    """Strict equality (witnesses included) of every overlay answer
    against a fresh snapshot, plus the Definition-7 oracle."""
    graph = overlay.graph
    fresh = TableSnapshot.build(graph)
    for class_name, member in all_queries(graph):
        assert overlay.lookup(class_name, member) == fresh.lookup(
            class_name, member
        ), f"flat column drifted on {class_name}::{member}"
    assert certify_table(graph, overlay) == []


# ----------------------------------------------------------------------
# Build-time certification and routing
# ----------------------------------------------------------------------


def test_unambiguous_build_flattens_every_column():
    flat = Overlay(chain(16, member_every=4)).flat
    assert flat.ambiguous_column_count == 0
    assert flat.flat_column_count == 1  # the single member "m"
    assert flat.flat_cells == 16  # visible in every chain class


def test_ambiguous_column_stays_on_the_rows():
    overlay = Overlay(ambiguous_fan(4))
    flat = overlay.flat
    assert not flat.column_is_flat(overlay.ch.member_ids["m"])
    assert flat.ambiguous_column_count == 1
    # ...and the fallback still answers AMBIGUOUS.
    assert overlay.lookup("Join", "m").status is LookupStatus.AMBIGUOUS
    assert_matches_fresh_build(overlay)


def test_serving_splits_flat_and_fallback_hits():
    graph = ambiguous_fan(3)
    graph.add_member("Join", "own")  # unambiguous column alongside "m"
    overlay = Overlay(graph)
    overlay.lookup("Join", "own")  # flat
    overlay.lookup("Join", "m")  # ambiguous -> fallback
    overlay.lookup("B0", "m")  # still the ambiguous column -> fallback
    stats = overlay.flat.stats
    assert stats.flat_hits == 1
    assert stats.fallback_hits == 2


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
    assert_matches_fresh_build(Overlay(graph))


@pytest.mark.parametrize("seed", range(6))
def test_flat_serving_matches_rows_on_random_dags(seed):
    graph = random_hierarchy(
        14, seed=seed, virtual_probability=0.35, member_probability=0.5
    )
    assert_matches_fresh_build(Overlay(graph))


# ----------------------------------------------------------------------
# Delta maintenance: demote / promote / cone-update / grow
# ----------------------------------------------------------------------


def test_delta_that_ambiguates_demotes_the_column():
    graph = ClassHierarchyGraph()
    graph.add_class("A", members=["m"])
    graph.add_class("B", members=["m"])
    graph.add_class("C")
    graph.add_edge("A", "C")
    overlay = Overlay(graph)
    mid = overlay.ch.member_ids["m"]
    assert overlay.flat.column_is_flat(mid)

    graph.add_edge("B", "C")  # C now sees A::m and B::m -> ambiguous
    overlay.apply_delta()
    assert not overlay.flat.column_is_flat(mid)
    assert overlay.flat.stats.demotions == 1
    assert overlay.lookup("C", "m").status is LookupStatus.AMBIGUOUS
    assert_matches_fresh_build(overlay)


def test_delta_promotes_brand_new_columns():
    graph = chain(8, member_every=8)
    overlay = Overlay(graph)
    graph.add_member("C4", "fresh")
    overlay.apply_delta()
    assert overlay.flat.column_is_flat(overlay.ch.member_ids["fresh"])
    assert overlay.flat.stats.promotions == 1
    assert overlay.lookup("C7", "fresh").declaring_class == "C4"
    assert_matches_fresh_build(overlay)


def test_delta_cone_updates_columns_that_stay_red():
    graph = chain(6, member_every=6)
    overlay = Overlay(graph)
    graph.add_class("D", members=["m"])  # hides C0::m below it
    graph.add_edge("C5", "D")
    graph.add_class("E")
    graph.add_edge("D", "E")
    overlay.apply_delta()
    stats = overlay.flat.stats
    assert stats.cone_updates >= 1
    assert stats.demotions == 0
    assert overlay.lookup("E", "m").declaring_class == "D"
    assert_matches_fresh_build(overlay)


def test_memberless_growth_extends_flat_arrays():
    graph = chain(4)
    overlay = Overlay(graph)
    graph.add_class("Lonely")  # empty delta: no member ids affected
    overlay.apply_delta()
    result = overlay.lookup("Lonely", "m")
    assert result.status is LookupStatus.NOT_FOUND


def test_demotion_is_permanent_across_later_deltas():
    """The mask is monotone: a later cone sweep that happens to see only
    red cells must not resurrect a demoted column (its certificate says
    nothing about out-of-cone blues)."""
    graph = ambiguous_fan(3)
    graph.add_member("Join", "own")
    overlay = Overlay(graph)
    mid = overlay.ch.member_ids["m"]
    assert not overlay.flat.column_is_flat(mid)
    graph.add_class("Leaf", members=["m"])  # unambiguous *in its cone*
    graph.add_edge("Join", "Leaf")
    overlay.apply_delta()
    assert not overlay.flat.column_is_flat(mid)
    assert_matches_fresh_build(overlay)


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
