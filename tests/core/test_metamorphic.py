"""Metamorphic properties of member lookup: transformations of the
hierarchy with predictable effects on the lookup table."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lookup import build_lookup_table
from repro.hierarchy.graph import ClassHierarchyGraph

from tests.support import all_queries, assert_same_outcome, hierarchies


def rebuild_with(graph, *, rename=None, extra_class=None, extra_member=None):
    """Copy a hierarchy applying the requested transformation."""
    rename = rename or (lambda name: name)
    copy = ClassHierarchyGraph()
    for name in graph.classes:
        copy.add_class(
            rename(name),
            graph.declared_members(name).values(),
            is_struct=graph.is_struct(name),
        )
        if extra_member is not None and name == extra_member[0]:
            copy.add_member(rename(name), extra_member[1])
        for edge in graph.direct_bases(name):
            copy.add_edge(
                rename(edge.base),
                rename(edge.derived),
                virtual=edge.virtual,
                access=edge.access,
            )
    if extra_class is not None:
        copy.add_class(extra_class, ["unrelated_member"])
    return copy


@given(hierarchies(max_classes=8))
@settings(max_examples=40, deadline=None)
def test_property_unrelated_class_changes_nothing(graph):
    """Adding a fresh root class (nothing derives from it) cannot affect
    any existing lookup."""
    extended = rebuild_with(graph, extra_class="Island")
    before = build_lookup_table(graph)
    after = build_lookup_table(extended)
    for class_name, member in all_queries(graph):
        assert_same_outcome(
            after.lookup(class_name, member),
            before.lookup(class_name, member),
        )


@given(hierarchies(max_classes=8), st.data())
@settings(max_examples=40, deadline=None)
def test_property_new_member_affects_only_its_cone(graph, data):
    """Declaring a brand-new member name in class X changes only the
    entries (D, that-name) for X and its descendants — the invariant
    delta maintenance's cone × affected-members re-fold relies on."""
    target = data.draw(st.sampled_from(list(graph.classes)))
    extended = rebuild_with(graph, extra_member=(target, "fresh_name"))
    before = build_lookup_table(graph)
    after = build_lookup_table(extended)
    affected = {target} | set(graph.descendants(target))
    for class_name, member in all_queries(graph):
        assert_same_outcome(
            after.lookup(class_name, member),
            before.lookup(class_name, member),
        )
    for class_name in graph.classes:
        result = after.lookup(class_name, "fresh_name")
        if class_name in affected:
            # Visible everywhere in the cone; unique unless the target
            # occurs as several subobject copies (non-virtual diamonds),
            # in which case the new name is ambiguous — but still only
            # between copies of the target itself.
            assert not result.is_not_found
            if result.is_unique:
                assert result.declaring_class == target
            else:
                assert result.candidates == (target,)
        else:
            assert result.is_not_found


@given(hierarchies(max_classes=8), st.data())
@settings(max_examples=40, deadline=None)
def test_property_shadowing_member_affects_only_its_cone(graph, data):
    """Re-declaring an *existing* member name in X changes lookups only
    within X's cone; everything outside is bit-identical."""
    target = data.draw(st.sampled_from(list(graph.classes)))
    member_names = graph.member_names()
    if not member_names:
        return
    name = data.draw(st.sampled_from(list(member_names)))
    if graph.declares(target, name):
        return
    extended = rebuild_with(graph, extra_member=(target, name))
    before = build_lookup_table(graph)
    after = build_lookup_table(extended)
    affected = {target} | set(graph.descendants(target))
    for class_name, member in all_queries(graph):
        if member == name and class_name in affected:
            continue  # allowed to change
        assert_same_outcome(
            after.lookup(class_name, member),
            before.lookup(class_name, member),
        )
    # Within the cone, the new declaration wins at the target itself.
    assert after.lookup(target, name).declaring_class == target


@given(hierarchies(max_classes=8))
@settings(max_examples=40, deadline=None)
def test_property_renaming_is_a_functor(graph):
    """Bijectively renaming every class leaves the table isomorphic."""
    rename = lambda name: f"X_{name}_Y"
    renamed = rebuild_with(graph, rename=rename)
    before = build_lookup_table(graph)
    after = build_lookup_table(renamed)
    for class_name, member in all_queries(graph):
        old = before.lookup(class_name, member)
        new = after.lookup(rename(class_name), member)
        assert old.status == new.status
        if old.is_unique:
            assert new.declaring_class == rename(old.declaring_class)
            assert new.witness.nodes == tuple(
                rename(node) for node in old.witness.nodes
            )


@given(hierarchies(max_classes=8))
@settings(max_examples=40, deadline=None)
def test_property_declaration_order_of_members_is_irrelevant(graph):
    """Lookup is defined on sets of declarations; permuting the member
    declaration order within classes changes nothing."""
    copy = ClassHierarchyGraph()
    for name in graph.classes:
        members = list(graph.declared_members(name).values())
        copy.add_class(name, reversed(members), is_struct=graph.is_struct(name))
        for edge in graph.direct_bases(name):
            copy.add_edge(
                edge.base, edge.derived, virtual=edge.virtual,
                access=edge.access,
            )
    before = build_lookup_table(graph)
    after = build_lookup_table(copy)
    for class_name, member in all_queries(graph):
        assert_same_outcome(
            after.lookup(class_name, member),
            before.lookup(class_name, member),
        )
