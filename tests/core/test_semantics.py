"""Conformance of every registered dispatch semantics against its
independent legacy baseline.

The :mod:`repro.core.semantics` registry reimplements each comparison
rule of the paper's Section 7 over the interned
:class:`~repro.hierarchy.compiled.CompiledHierarchy` — the same rows,
snapshots and serving tier as the ``cpp-dominance`` kernel.  Each rule
here is pinned, query by query, against the original string-keyed
baseline it grew out of (``compiled=False`` keeps those baselines
running as references), on the paper's figures plus nine deterministic
generator families; rejecting rules (``c3``, ``eiffel``) must also
agree with their baselines on *which hierarchies they refuse*.
"""

import pytest
from hypothesis import given, settings

from repro.baselines.c3_mro import C3Lookup, InconsistentMROError
from repro.baselines.eiffel import EiffelHierarchy
from repro.baselines.gxx import gxx_lookup
from repro.baselines.self_lookup import SelfStyleLookup
from repro.baselines.topo_number import TopoNumberLookup
from repro.core.lookup import MemberLookupTable, build_lookup_table
from repro.core.semantics import (
    DEFAULT_SEMANTICS,
    SEMANTICS_NAMES,
    CppDominanceSemantics,
    SemanticsRejection,
    get_semantics,
)
from repro.core.snapshot import TableSnapshot
from repro.errors import AmbiguousLookupDetected
from repro.hierarchy.compiled import describe_delta
from repro.hierarchy.topo import topological_order
from repro.workloads.generators import (
    ambiguous_fan,
    binary_tree,
    blue_heavy_hierarchy,
    chain,
    deep_ambiguous_ladder,
    grid,
    layered_hierarchy,
    nonvirtual_diamond_ladder,
    random_hierarchy,
    virtual_diamond_ladder,
    wide_unambiguous,
)
from repro.workloads.paper_figures import ALL_FIGURES
from tests.support import all_queries, hierarchies

FAMILIES = {
    "chain": lambda: chain(12, member_every=3),
    "binary_tree": lambda: binary_tree(4),
    "grid": lambda: grid(4, 4),
    "ambiguous_fan": lambda: ambiguous_fan(3),
    "wide_unambiguous": lambda: wide_unambiguous(8),
    "virtual_diamond_ladder": lambda: virtual_diamond_ladder(3),
    "nonvirtual_diamond_ladder": lambda: nonvirtual_diamond_ladder(3),
    "deep_ambiguous_ladder": lambda: deep_ambiguous_ladder(3),
    "blue_heavy": lambda: blue_heavy_hierarchy(4, 3),
    "layered": lambda: layered_hierarchy(4, 6, seed=11),
}

GRAPH_BUILDERS = {**{f"fig:{k}": v for k, v in ALL_FIGURES.items()}, **FAMILIES}

GRAPH_PARAMS = pytest.mark.parametrize(
    "builder", GRAPH_BUILDERS.values(), ids=GRAPH_BUILDERS.keys()
)


def build_semantics_table(graph, semantics):
    """A batched table of the given semantics, or the
    :class:`SemanticsRejection` it raised."""
    try:
        return build_lookup_table(graph, mode="batched", semantics=semantics)
    except SemanticsRejection as exc:
        return exc


def assert_agrees(table, baseline_lookup, graph, *, context):
    for class_name, member in all_queries(graph):
        left = table.lookup(class_name, member)
        right = baseline_lookup(class_name, member)
        where = f"{context}: {class_name}::{member}: {left} vs {right}"
        assert left.status == right.status, where
        if left.is_unique:
            assert left.declaring_class == right.declaring_class, where
        if left.is_ambiguous:
            assert set(left.candidates) == set(right.candidates), where


# ----------------------------------------------------------------------
# Registry surface
# ----------------------------------------------------------------------


def test_registry_names_and_default():
    assert SEMANTICS_NAMES[0] == DEFAULT_SEMANTICS == "cpp-dominance"
    assert set(SEMANTICS_NAMES) == {
        "cpp-dominance",
        "c3",
        "eiffel",
        "self",
        "gxx-bfs",
        "topo-number",
    }


def test_get_semantics_resolution():
    assert isinstance(get_semantics(None), CppDominanceSemantics)
    for name in SEMANTICS_NAMES:
        semantics = get_semantics(name)
        assert semantics.name == name
        # An instance passes through unchanged.
        assert get_semantics(semantics) is semantics
    with pytest.raises(ValueError, match="unknown semantics"):
        get_semantics("smalltalk")


# ----------------------------------------------------------------------
# Per-semantics conformance against the legacy baselines
# ----------------------------------------------------------------------


@GRAPH_PARAMS
def test_cpp_dominance_is_the_default_table(builder):
    """``semantics="cpp-dominance"`` is the kernel itself: identical
    answers to a default-mode table on the full query domain."""
    graph = builder()
    table = build_semantics_table(graph, "cpp-dominance")
    default = build_lookup_table(graph)
    assert_agrees(
        table, default.lookup, graph, context="cpp-dominance vs default"
    )


@GRAPH_PARAMS
def test_self_semantics_matches_naive_fold(builder):
    graph = builder()
    table = build_semantics_table(graph, "self")
    assert not isinstance(table, SemanticsRejection)
    baseline = SelfStyleLookup(graph, compiled=False)
    assert_agrees(table, baseline.lookup, graph, context="self")


@GRAPH_PARAMS
def test_topo_number_semantics_matches_naive_fold(builder):
    graph = builder()
    table = build_semantics_table(graph, "topo-number")
    assert not isinstance(table, SemanticsRejection)
    baseline = TopoNumberLookup(graph, compiled=False)
    assert_agrees(table, baseline.lookup, graph, context="topo-number")


@GRAPH_PARAMS
def test_gxx_semantics_matches_subobject_bfs(builder):
    """The interned ``gxx-bfs`` rule answers exactly what the faithful
    subobject-graph reimplementation of g++ 2.7.2.1 answers — bug
    included."""
    graph = builder()
    table = build_semantics_table(graph, "gxx-bfs")
    assert not isinstance(table, SemanticsRejection)
    assert_agrees(
        table,
        lambda c, m: gxx_lookup(graph, c, m),
        graph,
        context="gxx-bfs",
    )


@GRAPH_PARAMS
def test_c3_semantics_matches_mro_scan(builder):
    """Where the naive C3 linearises, the table agrees on every query;
    where any class fails to linearise, the build rejects at the
    topologically-first such class — exactly the class the naive merge
    trips on."""
    graph = builder()
    table = build_semantics_table(graph, "c3")
    baseline = C3Lookup(graph, compiled=False)
    if isinstance(table, SemanticsRejection):
        with pytest.raises(InconsistentMROError):
            baseline.mro(table.class_name)
        # No earlier class (topologically) is unlinearisable.
        for class_name in topological_order(graph):
            if class_name == table.class_name:
                break
            baseline.mro(class_name)
        return
    for class_name in graph.classes:
        baseline.mro(class_name)  # must not raise
    assert_agrees(table, baseline.lookup, graph, context="c3")


def eiffel_flatten(graph):
    """Adapt a C++ hierarchy to the rename-free Eiffel model: each class
    inherits every direct base with an empty rename map and declares its
    own members as features.  Returns the flattened hierarchy, or the
    name of the first class (bases-first order) whose flattening
    clashes."""
    eiffel = EiffelHierarchy()
    for class_name in topological_order(graph):
        parents = tuple(
            (edge.base, {}) for edge in graph.direct_bases(class_name)
        )
        features = tuple(graph.declared_members(class_name))
        try:
            eiffel.add_class(class_name, features=features, parents=parents)
        except AmbiguousLookupDetected:
            return class_name
    return eiffel


@GRAPH_PARAMS
def test_eiffel_semantics_matches_flattening(builder):
    """Accept/reject agreement with the rename-carrying baseline under
    empty rename maps, down to the class the flattening clashes at;
    where both accept, every resolved name maps to the same origin
    class."""
    graph = builder()
    table = build_semantics_table(graph, "eiffel")
    flattened = eiffel_flatten(graph)
    if isinstance(table, SemanticsRejection):
        assert isinstance(flattened, str), (
            f"table rejected at {table.class_name} but the baseline "
            "flattened the whole hierarchy"
        )
        assert flattened == table.class_name
        return
    assert isinstance(flattened, EiffelHierarchy), (
        f"baseline clashed at {flattened} but the table accepted"
    )
    members = graph.member_names()
    for class_name in graph.classes:
        for member in members:
            result = table.lookup(class_name, member)
            feature = flattened.lookup(class_name, member)
            where = f"eiffel: {class_name}::{member}"
            if feature is None:
                assert result.status.name == "NOT_FOUND", where
            else:
                assert result.is_unique, where
                assert result.declaring_class == feature.origin_class, where


# ----------------------------------------------------------------------
# The delegating baselines equal their naive references
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(graph=hierarchies(max_classes=7))
def test_delegating_baselines_match_naive(graph):
    """``compiled=True`` (the default) must be observationally identical
    to the retained naive path on random hierarchies."""
    for baseline_cls in (SelfStyleLookup, TopoNumberLookup):
        fast = baseline_cls(graph)
        naive = baseline_cls(graph, compiled=False)
        assert_agrees(
            fast, naive.lookup, graph, context=baseline_cls.__name__
        )
    fast = C3Lookup(graph)
    naive = C3Lookup(graph, compiled=False)
    for class_name in graph.classes:
        try:
            expected = naive.mro(class_name)
        except InconsistentMROError:
            with pytest.raises(InconsistentMROError):
                fast.mro(class_name)
            continue
        assert fast.mro(class_name) == expected, class_name
        for member in graph.member_names():
            left = fast.lookup(class_name, member)
            right = naive.lookup(class_name, member)
            assert left.status == right.status
            assert left.declaring_class == right.declaring_class


def test_c3_delegation_error_message_matches():
    """A merge failure through the interned path raises the same
    ``InconsistentMROError`` text as the naive merge."""
    entry = {e.name: e for e in __import__(
        "repro.fuzz.cross_semantics", fromlist=["CATALOG"]
    ).CATALOG}["c3-rejection"]
    graph = entry.witness()
    messages = []
    for compiled in (True, False):
        with pytest.raises(InconsistentMROError) as excinfo:
            lookup = C3Lookup(graph, compiled=compiled)
            for class_name in graph.classes:
                lookup.mro(class_name)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]


# ----------------------------------------------------------------------
# Figure pins: the catalogued headline disagreements, exactly
# ----------------------------------------------------------------------


def outcome(engine, class_name, member):
    if isinstance(engine, SemanticsRejection):
        return "rejected"
    result = engine.lookup(class_name, member)
    if result.is_unique:
        return f"unique:{result.declaring_class}"
    if result.is_ambiguous:
        return "ambiguous"
    return "not-found"


@pytest.mark.parametrize(
    "figure, class_name, member, expected",
    [
        # Figure 9 E::m — the g++ counterexample: dominance resolves
        # through the shared virtual bases, BFS bails out early.
        ("figure9", "E", "m", {
            "cpp-dominance": "unique:C",
            "gxx-bfs": "ambiguous",
            "self": "ambiguous",
            "topo-number": "unique:C",
            "c3": "rejected",
            "eiffel": "rejected",
        }),
        # Figure 1 E::m — genuinely ambiguous in C++; the linearising
        # rules silently pick D.
        ("figure1", "E", "m", {
            "cpp-dominance": "ambiguous",
            "gxx-bfs": "ambiguous",
            "self": "ambiguous",
            "topo-number": "unique:D",
            "c3": "unique:D",
            "eiffel": "rejected",
        }),
    ],
)
def test_figure_outcomes_per_semantics(figure, class_name, member, expected):
    graph = ALL_FIGURES[figure]()
    for semantics, want in expected.items():
        engine = build_semantics_table(graph, semantics)
        got = outcome(engine, class_name, member)
        assert got == want, f"{figure} {class_name}::{member} [{semantics}]"


# ----------------------------------------------------------------------
# Maintenance: apply_delta under every semantics == from-scratch rebuild
# ----------------------------------------------------------------------


@pytest.mark.parametrize("semantics", SEMANTICS_NAMES)
def test_apply_delta_matches_rebuild(semantics):
    graph = virtual_diamond_ladder(2)
    table = MemberLookupTable(graph, mode="batched", semantics=semantics)
    graph.add_class("Probe", members=("m",))
    top = graph.classes[-2]
    graph.add_edge(top, "Probe")
    graph.add_member(graph.classes[0], "fresh")
    table.apply_delta()
    fresh = build_lookup_table(graph, mode="batched", semantics=semantics)
    assert_agrees(
        table, fresh.lookup, graph, context=f"delta[{semantics}]"
    )


def test_mid_delta_rejection_preserves_parent_snapshot():
    """A delta that makes the hierarchy unflattenable under Eiffel must
    raise without corrupting the published snapshot: the table keeps
    serving the last accepted generation."""
    graph = chain(3)
    table = MemberLookupTable(graph, mode="batched", semantics="eiffel")
    before = {
        (c, m): table.lookup(c, m).status.name
        for c, m in all_queries(graph)
    }
    generation = table.snapshot.generation
    # Two unrelated declarers of one name meeting at a join: rejected.
    graph.add_class("Other", members=("m",))
    graph.add_class("Clash")
    graph.add_edge("C2", "Clash")
    graph.add_edge("Other", "Clash")
    with pytest.raises(SemanticsRejection) as excinfo:
        table.apply_delta()
    assert excinfo.value.class_name == "Clash"
    assert table.snapshot.generation == generation
    for (c, m), status in before.items():
        assert table.lookup(c, m).status.name == status


@pytest.mark.parametrize(
    "builder, class_name, member",
    [
        (
            lambda: random_hierarchy(23, seed=3, member_probability=0.5),
            "K3",
            "m",
        ),
        (
            # 1024 classes over 32 names: the serve benchmark's tenant.
            lambda: layered_hierarchy(
                32,
                32,
                seed=0,
                member_names=tuple(f"m{i:02d}" for i in range(32)),
                member_probability=0.15,
            ),
            "L1_29",
            "m25",
        ),
    ],
    ids=["random23", "layered32"],
)
def test_eiffel_rejection_names_lowest_member_at_first_class(
    builder, class_name, member
):
    """With several clashes, the rejection names the first clashing
    class in topological order and, there, the clashing member of
    lowest member id — whatever order the base rows hold entries in."""
    graph = builder()
    with pytest.raises(SemanticsRejection) as excinfo:
        MemberLookupTable(graph, mode="batched", semantics="eiffel")
    assert excinfo.value.class_name == class_name
    assert excinfo.value.reason.startswith(f"name {member!r} ")


@pytest.mark.parametrize(
    "semantics",
    SEMANTICS_NAMES,
    ids=[f"{name}-batched" for name in SEMANTICS_NAMES],
)
def test_delta_never_writes_a_parent_row(semantics):
    """Publishing a child snapshot is copy-on-write under every rule:
    the parent's row dicts stay the same objects with the same
    content, its answers do not move, and the child's cone rows are
    fresh dicts while every out-of-cone row is shared."""
    graph = virtual_diamond_ladder(2)
    parent = TableSnapshot.build(
        graph.compile(), semantics=semantics
    )
    parent_rows = list(parent.rows)
    row_copies = [dict(row) for row in parent_rows]
    entries = dict(parent.all_entries())
    answers = {key: parent.lookup(*key) for key in entries}

    graph.add_member(graph.classes[0], "fresh")
    graph.add_class("Probe", members=("m",))
    graph.add_edge(graph.classes[-2], "Probe")
    new = graph.compile()
    delta = describe_delta(parent.ch, new)
    child = parent.apply_delta(new, delta)

    assert child.generation > parent.generation
    assert all(a is b for a, b in zip(parent.rows, parent_rows, strict=True))
    assert [dict(row) for row in parent.rows] == row_copies
    assert parent.all_entries() == entries
    assert {key: parent.lookup(*key) for key in entries} == answers
    cone = set(delta.cone_ids())
    assert cone
    for cid, row in enumerate(parent_rows):
        if cid in cone:
            assert child.rows[cid] is not row
        else:
            assert child.rows[cid] is row


# ----------------------------------------------------------------------
# Mode restrictions
# ----------------------------------------------------------------------


def test_non_default_semantics_require_batched_mode():
    graph = chain(3)
    with pytest.raises(ValueError, match="batched"):
        MemberLookupTable(graph, mode="per-member", semantics="self")
    # The default semantics keeps every mode.
    MemberLookupTable(graph, mode="per-member", semantics="cpp-dominance")
