"""Cold start: flatpack mmap vs full rebuild.

A serving process that restarts constantly pays its table's start-up
cost on every boot.  Rebuilding runs the whole sweep in interpreter
time — O(table).  The flatpack path (:mod:`repro.core.flatpack`) is
one ``mmap`` plus a header validation: columns decode lazily on first
touch, so *open-to-first-answer* is O(header + one column), not
O(table).

This file measures, on a 4096-class / 8-member binary-tree family:
open-to-first-answer for a full ``build_lookup_table`` rebuild
(baseline) and ``mmap_table``; plus the first-100-queries leg off the
pack (does lazy decoding stay cheap once real traffic arrives).  A
non-benchmark guard pins answer equality between the pack and the live
table.  Recorded medians land in ``BENCH_coldstart.json`` via
``scripts/collect_bench_numbers.py``.
"""

import random

import pytest

from repro.core.flatpack import mmap_table, pack
from repro.core.lookup import build_lookup_table
from repro.hierarchy.graph import ClassHierarchyGraph

CLASSES = 4096
MEMBERS = 8
FIRST_QUERIES = 100


def coldstart_family(n: int = CLASSES) -> ClassHierarchyGraph:
    """A binary tree of ``n`` classes whose root and first descendants
    declare ``m0..m7`` — single-inheritance (every column certifies
    unambiguous) with member visibility scoped per declaring
    subtree."""
    graph = ClassHierarchyGraph()
    graph.add_class("N1", members=["m0"])
    for i in range(2, n + 1):
        declared = [f"m{i - 1}"] if i <= MEMBERS else []
        graph.add_class(f"N{i}", members=declared)
        graph.add_edge(f"N{i // 2}", f"N{i}")
    return graph


def first_queries(size=FIRST_QUERIES, *, seed=13):
    """The first ``size`` queries a freshly booted process answers:
    deterministic, mixed members, spread over the whole class space."""
    rng = random.Random(seed)
    members = [f"m{i}" for i in range(MEMBERS)] + ["does_not_exist"]
    return [
        (f"N{rng.randrange(1, CLASSES + 1)}", rng.choice(members))
        for _ in range(size)
    ]


@pytest.fixture(scope="session")
def artifacts(tmp_path_factory):
    """The family, built and persisted once per session: the live
    table and its flatpack file."""
    graph = coldstart_family()
    table = build_lookup_table(graph, mode="batched")
    path = tmp_path_factory.mktemp("coldstart") / "table.pack"
    pack(table, path)
    return graph, table, str(path)


def _annotate(benchmark, artifacts) -> None:
    _graph, table, _path = artifacts
    benchmark.extra_info["workload"] = f"coldstart_{CLASSES}"
    benchmark.extra_info["classes"] = CLASSES
    benchmark.extra_info["entries"] = table.snapshot.entry_total


PROBE = ("N4096", "m0")  # deepest leaf: the longest witness chain


def test_coldstart_pack_mmap(benchmark, artifacts):
    """``mmap_table`` + first answer — one mmap, one header check, one
    lazily decoded column."""
    _graph, _table, path = artifacts

    def boot():
        with mmap_table(path) as packed:
            return packed.lookup(*PROBE)

    result = benchmark(boot)
    assert result.is_unique
    _annotate(benchmark, artifacts)


def test_coldstart_full_rebuild(benchmark, artifacts):
    """Baseline: no persistence — re-run the full table sweep, then
    answer.  The session graph's compile memo is warm here, so this is
    the rebuild's *lower* bound — a real process restart also pays
    parsing and compilation on top."""
    graph, _table, _path = artifacts

    def boot():
        table = build_lookup_table(graph, mode="batched")
        return table.lookup(*PROBE)

    result = benchmark(boot)
    assert result.is_unique
    _annotate(benchmark, artifacts)
    benchmark.extra_info["baseline"] = True


def test_coldstart_first100_pack(benchmark, artifacts):
    """Boot + the first 100 mixed queries off the mmapped buffer —
    lazy column decoding amortised over real traffic."""
    _graph, _table, path = artifacts
    queries = first_queries()

    def boot_and_serve():
        with mmap_table(path) as packed:
            return packed.lookup_many(queries)

    out = benchmark(boot_and_serve)
    assert len(out) == FIRST_QUERIES
    _annotate(benchmark, artifacts)
    benchmark.extra_info["first_queries"] = FIRST_QUERIES


def test_coldstart_answers_match(artifacts):
    """The pack answers exactly like the live table — witnesses
    included — over the boot query mix."""
    _graph, table, path = artifacts
    queries = first_queries(512, seed=29)
    expected = [table.lookup(c, m) for c, m in queries]
    with mmap_table(path) as packed:
        assert [packed.lookup(c, m) for c, m in queries] == expected
        assert packed.lookup_many(queries) == expected
        assert packed.generation == table.compiled.generation
