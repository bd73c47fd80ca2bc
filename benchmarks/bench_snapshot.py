"""Snapshot-chain serving under concurrent reader threads.

The snapshot tier's claim: because every publish is an immutable
generation-stamped :class:`~repro.core.snapshot.TableSnapshot` swapped
in with a single reference assignment, readers never take a lock — a
reader that captured the chain head keeps a self-consistent table while
the writer storms.

The scenario: 4 reader threads each sweep the full class list of a
1024-class family a fixed number of times while a writer thread storms
deltas that declare fresh members near the root — worst-case cones
covering nearly every class.  Measured: wall-clock until the *readers*
finish (the writer keeps storming throughout).

The scenario runs with a 200 µs interpreter switch interval instead of
CPython's default 5 ms: the default quantum is tuned for batch
throughput and lets whichever thread holds the GIL run far past any
serving-latency budget.  The setting is restored after each scenario.

Recorded medians land in ``BENCH_snapshot.json`` via
``scripts/collect_bench_numbers.py``.  That file also keeps the
historical comparison against a lock-guarded in-place table, a mode
the table no longer has; reads under a live writer are gated end to
end by the ``serve-batch-writes`` workload of ``perfbench/``.
"""

import itertools
import random
import sys
import threading
import time

import pytest

from repro.core.lookup import build_lookup_table
from repro.hierarchy.graph import ClassHierarchyGraph
from repro.workloads.generators import chain

READERS = 4
SWEEPS = 4
#: A serving-latency-budget quantum (CPython's default is 5 ms).
SWITCH_INTERVAL = 2e-4


def layered_virtual(
    layers: int, width: int, *, seed: int = 3
) -> ClassHierarchyGraph:
    """An all-virtual layered DAG: one root
    declaring ``m``, every class virtually joining two classes of the
    previous layer — 1025 classes whose root cone is the whole graph."""
    rng = random.Random(seed)
    graph = ClassHierarchyGraph()
    graph.add_class("R", members=["m"])
    previous = ["R"]
    for layer in range(layers):
        current = []
        for index in range(width):
            name = f"L{layer}_{index}"
            graph.add_class(name)
            for base in rng.sample(previous, min(2, len(previous))):
                graph.add_edge(base, name, virtual=True)
            current.append(name)
        previous = current
    return graph


WORKLOADS = {
    "chain_1024": lambda: (chain(1024, member_every=8), "C1"),
    "layered_16x64": lambda: (layered_virtual(16, 64), "R"),
}


def _storm_scenario(name: str) -> float:
    """Run one reader-storm session and return the time the last reader
    needed to finish its sweeps (the writer storms until then)."""
    graph, storm_target = WORKLOADS[name]()
    graph.compile()
    table = build_lookup_table(graph, mode="batched")
    names = list(graph.classes)
    for class_name in names:
        table.lookup(class_name, "m")  # steady state before the storm
    done = threading.Event()
    finished: list[float] = []

    def reader() -> None:
        for _ in range(SWEEPS):
            snapshot = table.snapshot  # capture once per sweep
            lookup = snapshot.lookup
            for class_name in names:
                lookup(class_name, "m")
        finished.append(time.perf_counter())

    fresh_members = itertools.count()

    def writer() -> None:
        # Each delta declares a fresh member near the root: the
        # invalidation cone is (nearly) the whole hierarchy.
        while not done.is_set():
            member = f"storm{next(fresh_members)}"
            graph.add_member(storm_target, member)
            table.apply_delta()

    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL)
    try:
        threads = [threading.Thread(target=reader) for _ in range(READERS)]
        writer_thread = threading.Thread(target=writer)
        start = time.perf_counter()
        writer_thread.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        done.set()
        writer_thread.join()
    finally:
        sys.setswitchinterval(previous_interval)
    assert len(finished) == READERS
    assert next(fresh_members) > 0  # the storm really applied deltas
    assert table.snapshot.generation > 0
    return max(finished) - start


@pytest.fixture(params=sorted(WORKLOADS), ids=sorted(WORKLOADS))
def workload(request):
    return request.param


def test_storm_reads_snapshot(benchmark, workload):
    """Lock-free readers capturing the published chain head while the
    writer swaps in child snapshots."""
    benchmark.pedantic(
        _storm_scenario,
        args=(workload,),
        rounds=5,
        warmup_rounds=1,
    )
    benchmark.extra_info["workload"] = workload
    benchmark.extra_info["readers"] = READERS

