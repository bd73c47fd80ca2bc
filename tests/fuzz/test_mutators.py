"""Property tests pinning each metamorphic operator's invariant at the
path level: both sides of the check are the definitional
:class:`~repro.subobjects.reference.ReferenceLookup` (Definitions 7-9
over the materialised subobject poset), so these tests hold *independent
of the kernel* the campaign uses the operators to hunt."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz import MUTATORS, copy_hierarchy, mutate
from repro.fuzz.mutators import (
    AddAmbiguatingDefinition,
    AddOverridingDefinition,
    AddRedundantEdge,
    CloneClass,
    VirtualizeJoin,
)
from repro.hierarchy.serialize import hierarchy_to_dict
from repro.subobjects.reference import ReferenceLookup
from repro.workloads import figure1, figure9
from tests.support import hierarchies

BY_NAME = {mutator.name: mutator for mutator in MUTATORS}


def reference_violations(mutator, before, plan):
    """Apply ``mutator`` and check its invariant with the definitional
    oracle on both sides."""
    after = mutator.apply(before, plan)
    left = ReferenceLookup(before)
    right = ReferenceLookup(after)
    return after, mutator.violations(
        before, after, plan, left.lookup, right.lookup
    )


@pytest.mark.parametrize("mutator", MUTATORS, ids=lambda m: m.name)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_invariant_holds_at_path_level(mutator, data):
    graph = data.draw(hierarchies(min_classes=1, max_classes=7))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    plan = mutator.pick(graph, rng)
    if plan is None:  # operator not applicable to this draw
        return
    _after, violations = reference_violations(mutator, graph, plan)
    assert violations == []


@pytest.mark.parametrize(
    "mutator",
    [m for m in MUTATORS if m.in_place],
    ids=lambda m: m.name,
)
def test_in_place_matches_copy_apply(mutator):
    """Pure-growth operators produce the identical hierarchy whether
    applied to a copy or to the live graph (the memo-staleness
    leg relies on the in-place path)."""
    graph = figure9()
    plan = mutator.pick(graph, random.Random(3))
    assert plan is not None
    applied = mutator.apply(graph, plan)
    live = copy_hierarchy(graph)
    mutator.apply_in_place(live, plan)
    assert hierarchy_to_dict(applied) == hierarchy_to_dict(live)


def test_pick_is_deterministic_under_seed():
    graph = figure9()
    for mutator in MUTATORS:
        plans = {mutator.pick(graph, random.Random(42)) for _ in range(3)}
        assert len(plans) == 1


def test_overriding_definition_wins_on_figure1():
    """Figure 1's join inherits ``f`` ambiguously in the paper's
    non-virtual variant; overriding at the join must always yield a
    unique answer at the join itself."""
    graph = figure1()
    mutator = BY_NAME["add-overriding-definition"]
    plan = mutator.pick(graph, random.Random(0))
    assert plan is not None
    target, member = plan
    after, violations = reference_violations(mutator, graph, plan)
    assert violations == []
    result = ReferenceLookup(after).lookup(target, member)
    assert result.is_unique and result.declaring_class == target


def test_ambiguating_definition_three_cases():
    """The three predicted outcomes of grafting an incomparable root:
    declared-at-target stays unique, not-found becomes unique at the
    root, anything else becomes ambiguous."""
    mutator = BY_NAME["add-ambiguating-definition"]
    graph = figure9()
    oracle = ReferenceLookup(graph)
    for target in graph.classes:
        for member in graph.member_names():
            plan = (target, member, "FuzzAmb")
            after, violations = reference_violations(mutator, graph, plan)
            assert violations == []
            result = ReferenceLookup(after).lookup(target, member)
            previous = oracle.lookup(target, member)
            if graph.declares(target, member):
                assert result.is_unique
                assert result.declaring_class == target
            elif previous.is_not_found:
                assert result.is_unique
                assert result.declaring_class == "FuzzAmb"
            else:
                assert result.is_ambiguous


def test_mutate_helper_in_place_only_restricts_pool():
    rng = random.Random(5)
    graph = figure9()
    generation = graph.generation
    applied = mutate(graph, rng, in_place_only=True)
    assert applied is not None
    mutated, mutation = applied
    assert mutated is graph  # mutated the live graph
    assert graph.generation > generation
    assert mutation.mutator.in_place


def test_mutator_classes_are_registered():
    assert {type(m) for m in MUTATORS} == {
        AddRedundantEdge,
        VirtualizeJoin,
        CloneClass,
        AddOverridingDefinition,
        AddAmbiguatingDefinition,
    }
