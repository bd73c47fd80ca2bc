"""Hypothesis stateful tests: random interleavings of mutations and
queries against from-scratch oracles."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.lazy import LazyMemberLookup
from repro.core.lookup import MemberLookupTable, build_lookup_table, lookup
from repro.core.semantics import SemanticsRejection
from repro.errors import CycleError, DuplicateBaseError, DuplicateMemberError
from repro.fuzz import copy_hierarchy
from repro.hierarchy.builder import HierarchyBuilder
from repro.hierarchy.graph import ClassHierarchyGraph
from repro.runtime.objects import AmbiguousAccessError, Runtime

MEMBERS = ("m", "f")


class IncrementalMachine(RuleBasedStateMachine):
    """Grow a hierarchy in place step by step under a bare
    :class:`LazyMemberLookup`, querying between mutations; at every step
    its answers must equal a freshly built table's."""

    def __init__(self):
        super().__init__()
        self.graph = ClassHierarchyGraph()
        self.engine = LazyMemberLookup(self.graph)
        self.counter = 0

    @rule(member_mask=st.integers(0, 3))
    def add_class(self, member_mask):
        members = [m for i, m in enumerate(MEMBERS) if member_mask & (1 << i)]
        self.graph.add_class(f"K{self.counter}", members)
        self.counter += 1

    @precondition(lambda self: self.counter >= 2)
    @rule(data=st.data(), virtual=st.booleans())
    def add_edge(self, data, virtual):
        derived_index = data.draw(st.integers(1, self.counter - 1))
        base_index = data.draw(st.integers(0, derived_index - 1))
        try:
            self.graph.add_edge(
                f"K{base_index}", f"K{derived_index}", virtual=virtual
            )
        except (DuplicateBaseError, CycleError):
            pass

    @precondition(lambda self: self.counter >= 1)
    @rule(data=st.data(), member=st.sampled_from(MEMBERS))
    def add_member(self, data, member):
        target = f"K{data.draw(st.integers(0, self.counter - 1))}"
        try:
            self.graph.add_member(target, member)
        except DuplicateMemberError:
            pass

    @precondition(lambda self: self.counter >= 1)
    @rule(data=st.data(), member=st.sampled_from(MEMBERS))
    def query(self, data, member):
        target = f"K{data.draw(st.integers(0, self.counter - 1))}"
        self.engine.lookup(target, member)

    @invariant()
    def matches_fresh_table(self):
        if self.counter == 0:
            return
        fresh = build_lookup_table(self.graph)
        for class_name in self.graph.classes:
            for member in MEMBERS:
                left = self.engine.lookup(class_name, member)
                assert left == fresh.lookup(class_name, member), (
                    class_name,
                    member,
                )


IncrementalMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestIncrementalMachine = IncrementalMachine.TestCase


class RuntimeStorageMachine(RuleBasedStateMachine):
    """Random field writes through random base pointers of a fixed
    diamond object; a shadow model keyed by resolved storage slot must
    always agree with subsequent reads — exercising subobject identity
    (sharing vs duplication) under the runtime's stat staging."""

    def __init__(self):
        super().__init__()
        graph = (
            HierarchyBuilder()
            .cls("A", members=["x"])
            .cls("B", bases=["A"], members=["y"])
            .cls("CShared", virtual_bases=["B"])
            .cls("DShared", virtual_bases=["B"])
            .cls("CDup", bases=["B"])
            .cls("DDup", bases=["B"])
            .cls(
                "Everything",
                bases=["CShared", "DShared", "CDup", "DDup"],
                members=["own"],
            )
            .build()
        )
        self.runtime = Runtime(graph=graph)
        self.instance = self.runtime.construct("Everything")
        self.model: dict[int, int] = {}
        self.next_value = 1
        root = self.runtime.pointer(self.instance)
        self.pointers = [root]
        for chain in (
            ("CShared",),
            ("DShared",),
            ("CDup",),
            ("DDup",),
            ("CShared", "B"),
            ("CDup", "B"),
            ("DDup", "B"),
            ("CDup", "B", "A"),
            ("CShared", "B", "A"),
        ):
            pointer = root
            for step in chain:
                pointer = self.runtime.upcast(pointer, step)
            self.pointers.append(pointer)

    @rule(data=st.data(), member=st.sampled_from(["x", "y", "own"]))
    def write(self, data, member):
        pointer = data.draw(st.sampled_from(self.pointers))
        try:
            slot = self.runtime._locate_field(pointer, member)
        except (AmbiguousAccessError, KeyError):
            return
        value = self.next_value
        self.next_value += 1
        self.runtime.write(pointer, member, value)
        self.model[slot] = value

    @rule(data=st.data(), member=st.sampled_from(["x", "y", "own"]))
    def read(self, data, member):
        pointer = data.draw(st.sampled_from(self.pointers))
        try:
            slot = self.runtime._locate_field(pointer, member)
        except (AmbiguousAccessError, KeyError):
            return
        assert self.runtime.read(pointer, member) == self.model.get(slot, 0)

    @invariant()
    def storage_matches_model_everywhere(self):
        for slot, value in self.model.items():
            assert self.instance.storage[slot] == value


RuntimeStorageMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
TestRuntimeStorageMachine = RuntimeStorageMachine.TestCase


class CachedLookupMachine(RuleBasedStateMachine):
    """Random mutation sequences interleaved with queries through the
    one-shot :func:`repro.core.lookup.lookup`: the per-graph lazy engine
    behind it must never serve a row memoised before a mutation, so
    every one-shot answer must equal a freshly built table's."""

    def __init__(self):
        super().__init__()
        self.graph = ClassHierarchyGraph()
        self.counter = 0

    @rule(member_mask=st.integers(0, 3))
    def add_class(self, member_mask):
        members = [m for i, m in enumerate(MEMBERS) if member_mask & (1 << i)]
        self.graph.add_class(f"K{self.counter}", members)
        self.counter += 1

    @precondition(lambda self: self.counter >= 2)
    @rule(data=st.data(), virtual=st.booleans())
    def add_edge(self, data, virtual):
        derived_index = data.draw(st.integers(1, self.counter - 1))
        base_index = data.draw(st.integers(0, derived_index - 1))
        try:
            self.graph.add_edge(
                f"K{base_index}", f"K{derived_index}", virtual=virtual
            )
        except (DuplicateBaseError, CycleError):
            pass

    @precondition(lambda self: self.counter >= 1)
    @rule(data=st.data(), member=st.sampled_from(MEMBERS))
    def add_member(self, data, member):
        target = f"K{data.draw(st.integers(0, self.counter - 1))}"
        try:
            self.graph.add_member(target, member)
        except DuplicateMemberError:
            pass

    @precondition(lambda self: self.counter >= 1)
    @rule(data=st.data(), member=st.sampled_from(MEMBERS))
    def query(self, data, member):
        # Interleaved queries warm the memo *between* mutations, so the
        # invariant below really checks invalidation, not cold misses.
        target = f"K{data.draw(st.integers(0, self.counter - 1))}"
        lookup(self.graph, target, member)

    @invariant()
    def never_serves_stale_rows(self):
        if self.counter == 0:
            return
        fresh = build_lookup_table(self.graph)
        for class_name in self.graph.classes:
            for member in MEMBERS:
                answer = lookup(self.graph, class_name, member)
                assert answer == fresh.lookup(class_name, member), (
                    class_name,
                    member,
                )


CachedLookupMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestCachedLookupMachine = CachedLookupMachine.TestCase


class SnapshotChainMachine(RuleBasedStateMachine):
    """Random mutate/publish/retire sequences along a snapshot chain:
    every snapshot still retained must keep answering exactly what a
    from-scratch table answered at its publish, no matter how far the
    writer has moved on or which other snapshots were retired."""

    def __init__(self):
        super().__init__()
        self.graph = ClassHierarchyGraph()
        self.table = MemberLookupTable(
            self.graph, mode="batched", fastpath=True
        )
        self.counter = 0
        # generation -> (snapshot, {(class, member): expected result})
        self.retained = {}
        self._record_head()

    def _record_head(self):
        snapshot = self.table.snapshot
        fresh = build_lookup_table(self.graph)
        expected = {
            (class_name, member): fresh.lookup(class_name, member)
            for class_name in self.graph.classes
            for member in MEMBERS
        }
        self.retained[snapshot.generation] = (snapshot, expected)

    @rule(member_mask=st.integers(0, 3))
    def add_class(self, member_mask):
        members = [m for i, m in enumerate(MEMBERS) if member_mask & (1 << i)]
        self.graph.add_class(f"K{self.counter}", members)
        self.counter += 1

    @precondition(lambda self: self.counter >= 2)
    @rule(data=st.data(), virtual=st.booleans())
    def add_edge(self, data, virtual):
        derived_index = data.draw(st.integers(1, self.counter - 1))
        base_index = data.draw(st.integers(0, derived_index - 1))
        try:
            self.graph.add_edge(
                f"K{base_index}", f"K{derived_index}", virtual=virtual
            )
        except (DuplicateBaseError, CycleError):
            pass

    @precondition(lambda self: self.counter >= 1)
    @rule(data=st.data(), member=st.sampled_from(MEMBERS))
    def add_member(self, data, member):
        target = f"K{data.draw(st.integers(0, self.counter - 1))}"
        try:
            self.graph.add_member(target, member)
        except DuplicateMemberError:
            pass

    @rule()
    def publish(self):
        self.table.apply_delta()
        self._record_head()

    @precondition(lambda self: len(self.retained) > 1)
    @rule(data=st.data())
    def retire(self, data):
        # Drop one retained snapshot; the survivors must be unaffected
        # (retirement is just releasing a reference).
        generations = sorted(self.retained)
        victim = data.draw(st.sampled_from(generations))
        del self.retained[victim]

    @invariant()
    def retained_snapshots_answer_their_generation(self):
        for generation, (snapshot, expected) in self.retained.items():
            assert snapshot.generation == generation
            for (class_name, member), want in expected.items():
                got = snapshot.lookup(class_name, member)
                assert got.status == want.status, (class_name, member)
                assert got.declaring_class == want.declaring_class
                assert got.witness == want.witness
                assert got.blue_abstractions == want.blue_abstractions


SnapshotChainMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestSnapshotChainMachine = SnapshotChainMachine.TestCase


class SemanticsTableMachine(RuleBasedStateMachine):
    """Random mutation/query interleavings against a snapshot-backed
    table running a *non-default* dispatch semantics.

    The maintained table must always answer exactly what a from-scratch
    build of the same semantics answers for the generation it last
    accepted; a rejecting semantics (``c3``, ``eiffel``) whose
    ``apply_delta`` raises must agree with the from-scratch build on
    the rejection *and* keep serving the pre-delta generation
    untouched — the copy-on-write publish contract."""

    def __init__(self):
        super().__init__()
        self.graph = ClassHierarchyGraph()
        self.counter = 0
        self.semantics = None
        self.table = None
        self.accepted = None  # copy of the last generation the table holds

    @initialize(
        semantics=st.sampled_from(
            ("self", "topo-number", "c3", "eiffel", "gxx-bfs")
        )
    )
    def pick_semantics(self, semantics):
        self.semantics = semantics
        self.graph.add_class("K0", ["m"])
        self.counter = 1
        self.table = MemberLookupTable(
            self.graph, mode="batched", semantics=semantics
        )
        self.accepted = copy_hierarchy(self.graph)

    @rule(member_mask=st.integers(0, 3))
    def add_class(self, member_mask):
        members = [m for i, m in enumerate(MEMBERS) if member_mask & (1 << i)]
        self.graph.add_class(f"K{self.counter}", members)
        self.counter += 1

    @precondition(lambda self: self.counter >= 2)
    @rule(data=st.data(), virtual=st.booleans())
    def add_edge(self, data, virtual):
        derived_index = data.draw(st.integers(1, self.counter - 1))
        base_index = data.draw(st.integers(0, derived_index - 1))
        try:
            self.graph.add_edge(
                f"K{base_index}", f"K{derived_index}", virtual=virtual
            )
        except (DuplicateBaseError, CycleError):
            pass

    @precondition(lambda self: self.counter >= 1)
    @rule(data=st.data(), member=st.sampled_from(MEMBERS))
    def add_member(self, data, member):
        target = f"K{data.draw(st.integers(0, self.counter - 1))}"
        try:
            self.graph.add_member(target, member)
        except DuplicateMemberError:
            pass

    @rule()
    def sync(self):
        generation = self.table.snapshot.generation
        try:
            self.table.apply_delta()
        except SemanticsRejection as rejected:
            # The from-scratch build must reject too, and the table must
            # still serve the last accepted generation (checked by the
            # invariant against self.accepted).
            with pytest.raises(SemanticsRejection) as fresh:
                build_lookup_table(
                    self.graph, mode="batched", semantics=self.semantics
                )
            assert fresh.value.semantics == rejected.semantics
            assert self.table.snapshot.generation == generation
        else:
            self.accepted = copy_hierarchy(self.graph)

    @precondition(lambda self: self.table is not None)
    @rule(data=st.data(), member=st.sampled_from(MEMBERS))
    def query(self, data, member):
        target = f"K{data.draw(st.integers(0, self.counter - 1))}"
        if target in self.accepted.classes:
            self.table.lookup(target, member)

    @invariant()
    def matches_fresh_build_of_accepted_generation(self):
        if self.table is None:
            return
        fresh = build_lookup_table(
            self.accepted, mode="batched", semantics=self.semantics
        )
        queries = [
            (class_name, member)
            for class_name in self.accepted.classes
            for member in MEMBERS
        ]
        batched = self.table.lookup_many(queries)
        for (class_name, member), got in zip(queries, batched):
            want = fresh.lookup(class_name, member)
            assert got.status == want.status, (
                self.semantics,
                class_name,
                member,
            )
            assert got.declaring_class == want.declaring_class
            assert got.candidates == want.candidates


SemanticsTableMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestSemanticsTableMachine = SemanticsTableMachine.TestCase


class TestSnapshotThreadedStorm:
    """Readers racing a writer's delta storm over one snapshot chain:
    no torn rows, no answer from a generation other than the one the
    reader captured, and captured generations never run backwards."""

    READERS = 4
    DELTAS = 25

    def test_readers_never_observe_torn_or_stale_rows(self):
        import threading

        graph = ClassHierarchyGraph()
        graph.add_class("K0", ["m"])
        table = MemberLookupTable(graph, mode="batched", fastpath=True)
        expected = {}  # generation -> {(class, member): result}

        def record(generation_table):
            return {
                (class_name, member): generation_table.lookup(
                    class_name, member
                )
                for class_name in graph.classes
                for member in MEMBERS
            }

        expected[table.snapshot.generation] = record(
            build_lookup_table(graph)
        )
        stop = threading.Event()
        failures = []

        def reader():
            last_generation = -1
            while not stop.is_set():
                snapshot = table.snapshot
                answers = expected.get(snapshot.generation)
                if answers is None:
                    failures.append(
                        f"generation {snapshot.generation} published "
                        "before its oracle was recorded"
                    )
                    return
                if snapshot.generation < last_generation:
                    failures.append("captured generations ran backwards")
                    return
                last_generation = snapshot.generation
                for (class_name, member), want in answers.items():
                    got = snapshot.lookup(class_name, member)
                    if (
                        got.status != want.status
                        or got.declaring_class != want.declaring_class
                        or got.witness != want.witness
                    ):
                        failures.append(
                            f"gen {snapshot.generation} "
                            f"{class_name}::{member}: {got} != {want}"
                        )
                        return

        threads = [
            threading.Thread(target=reader) for _ in range(self.READERS)
        ]
        for thread in threads:
            thread.start()
        try:
            for step in range(self.DELTAS):
                name = f"K{step + 1}"
                graph.add_class(name, ["m"] if step % 3 == 0 else [])
                graph.add_edge(f"K{step}", name, virtual=step % 2 == 0)
                if step % 4 == 2:
                    graph.add_member(f"K{step}", "f")
                # Record the oracle BEFORE publishing so no reader can
                # capture a generation whose answers aren't known yet.
                expected[graph.compile().generation] = record(
                    build_lookup_table(graph)
                )
                table.apply_delta()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not failures, failures[0]
