"""The blue ⋄ and the meet on bitmasks.

A blue entry is two int bitmasks: the abstractions (bit ``a + 2`` for
abstraction id ``a``) and the candidate declaring classes (bit ``c``
for class id ``c``).  The ⋄ operator only ever rewrites Ω across a
virtual edge, so everywhere else a blue crosses an edge as the *same*
object; the meet applies Lemma 4 to a whole blue set with one mask
operation.  The property tests hold the mask meet to a set-based
reference written here from :func:`~repro.core.kernel.dominates`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import (
    OMEGA_BIT,
    KernelBlue,
    LookupStats,
    abstraction_ids,
    abstraction_mask,
    abstraction_names,
    batched_sweep,
    dominates,
    extend_entry,
    mask_ids,
    meet_entries,
)
from repro.core.paths import OMEGA
from repro.hierarchy.compiled import NONE_ID, OMEGA_ID
from repro.workloads.generators import layered_hierarchy
from repro.workloads.paper_figures import figure3


def bit(value):
    return abstraction_mask([value])


def test_bit_layout():
    assert bit(NONE_ID) == 1
    assert bit(OMEGA_ID) == OMEGA_BIT == 2
    assert bit(5) == 1 << 7
    ids = [NONE_ID, OMEGA_ID, 0, 3, 64, 200]
    assert abstraction_ids(abstraction_mask(ids)) == ids
    assert abstraction_ids(0) == []


def test_mask_ids_ascending():
    assert mask_ids(0) == []
    assert mask_ids(0b1011) == [0, 1, 3]
    ids = [0, 5, 63, 64, 200]
    mask = 0
    for cid in ids:
        mask |= 1 << cid
    assert mask_ids(mask) == ids


def test_abstraction_names_decode():
    ch = figure3().compile()
    d = ch.class_ids["D"]
    mask = abstraction_mask([NONE_ID, OMEGA_ID, d])
    assert abstraction_names(ch, mask) == frozenset({None, OMEGA, "D"})


class TestBlueDiamond:
    """Definition 15 on a blue: Ω becomes the base, and only across a
    virtual edge."""

    ch = figure3().compile()
    base = ch.class_ids["D"]
    derived = ch.class_ids["F"]
    ldcs = 0b11  # candidates: classes 0 and 1

    def extend(self, abstractions, virtual):
        entry = KernelBlue(abstractions, self.ldcs)
        return entry, extend_entry(
            self.ch, entry, self.base, virtual, self.derived
        )

    def test_non_virtual_edge_returns_same_entry(self):
        entry, extended = self.extend(OMEGA_BIT | bit(2), 0)
        assert extended is entry

    def test_virtual_edge_without_omega_returns_same_entry(self):
        entry, extended = self.extend(bit(2), 1)
        assert extended is entry

    def test_virtual_edge_rewrites_only_omega(self):
        entry, extended = self.extend(OMEGA_BIT | bit(2), 1)
        assert extended is not entry
        assert extended.abstractions == (
            bit(2) | bit(self.base)
        )
        assert extended.candidate_ldcs is entry.candidate_ldcs

    def test_counts_one_blue_propagation_per_abstraction(self):
        stats = LookupStats()
        entry = KernelBlue(OMEGA_BIT | bit(2), self.ldcs)
        extend_entry(self.ch, entry, self.base, 0, self.derived, stats)
        assert stats.blue_propagations == 2


def reference_meet(ch, entries, stats):
    """Lines [14]-[44] over explicit sets, one dominates() per test."""
    candidate = None
    to_be_dominated = set()
    ldcs = set()
    for entry in entries:
        if type(entry) is tuple:
            if candidate is None:
                candidate = entry
            elif dominates(ch, entry[0], entry[1], candidate[1], stats):
                candidate = entry
            elif not dominates(
                ch, candidate[0], candidate[1], entry[1], stats
            ):
                to_be_dominated |= {candidate[1], entry[1]}
                ldcs |= {candidate[0], entry[0]}
                candidate = None
        else:
            to_be_dominated |= set(abstraction_ids(entry.abstractions))
            ldcs |= set(mask_ids(entry.candidate_ldcs))
    if candidate is None:
        return ("blue", frozenset(to_be_dominated), frozenset(ldcs))
    surviving = {
        a
        for a in to_be_dominated
        if not dominates(ch, candidate[0], candidate[1], a, stats)
    }
    if not surviving:
        return ("red", candidate)
    return (
        "blue",
        frozenset(surviving | {candidate[1]}),
        frozenset(ldcs | {candidate[0]}),
    )


def as_reference(entry):
    if type(entry) is tuple:
        return ("red", entry)
    return (
        "blue",
        frozenset(abstraction_ids(entry.abstractions)),
        frozenset(mask_ids(entry.candidate_ldcs)),
    )


def assert_meets_agree(ch, entries):
    mask_stats, set_stats = LookupStats(), LookupStats()
    got = meet_entries(ch, list(entries), mask_stats)
    assert as_reference(got) == reference_meet(ch, entries, set_stats)
    assert mask_stats.dominance_checks == set_stats.dominance_checks


hierarchies = st.builds(
    lambda layers, width, seed: layered_hierarchy(
        layers, width, seed=seed, max_bases=3, virtual_probability=0.4
    ),
    st.integers(2, 5),
    st.integers(2, 5),
    st.integers(0, 10_000),
)


@settings(max_examples=60)
@given(hierarchies)
def test_meet_on_swept_entries_matches_set_reference(graph):
    """Every multi-base meet of a real sweep, replayed against the
    reference."""
    ch = graph.compile()
    rows = batched_sweep(ch)
    for cid in ch.topo_order:
        bases = ch.base_pairs[cid]
        if len(bases) < 2:
            continue
        for mid in range(ch.n_members):
            if ch.declares_id(cid, mid):
                continue
            entries = [
                extend_entry(ch, rows[base][mid], base, virtual, cid)
                for base, virtual in bases
                if mid in rows[base]
            ]
            if len(entries) > 1:
                assert_meets_agree(ch, entries)


@settings(max_examples=80)
@given(hierarchies, st.data())
def test_meet_on_arbitrary_entries_matches_set_reference(graph, data):
    """Meets of drawn reds and blues, whether or not a sweep could
    produce them: the mask form is Lemma 4 over the whole set."""
    ch = graph.compile()
    classes = st.integers(0, ch.n_classes - 1)
    # A small shared pool of abstractions, so reds' leastVirtuals and
    # blue-set members collide often (the V1 == V2 arm of Lemma 4).
    pool = data.draw(
        st.lists(
            st.one_of(st.just(OMEGA_ID), st.just(NONE_ID), classes),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    abstractions = st.sampled_from(pool)
    red = st.tuples(classes, abstractions, st.none())
    blue = st.builds(
        lambda ids, ldcs: KernelBlue(abstraction_mask(ids), ldcs),
        st.sets(abstractions, min_size=1),
        st.integers(1, (1 << ch.n_classes) - 1),
    )
    entries = data.draw(st.lists(st.one_of(red, blue), min_size=1, max_size=6))
    assert_meets_agree(ch, entries)
