"""Golden kernel counters and pack bytes, pinned across kernel rewrites.

The ``LookupStats`` totals are the paper's operation counts (one red or
blue propagation per abstraction pushed across an edge, one dominance
check per Lemma-4 test), so a change to how the kernel *represents* its
entries must leave every one of them unchanged.  The flatpack digest
pins the on-disk format of a table built from scratch: the blue slots
are written as sorted id runs whatever the in-memory encoding.
"""

import hashlib

import pytest

from repro.core.flatpack import pack
from repro.core.lookup import MemberLookupTable
from repro.workloads.generators import layered_hierarchy
from repro.workloads.paper_figures import figure1, figure2, figure3, figure9

HIERARCHIES = {
    "figure1": figure1,
    "figure2": figure2,
    "figure3": figure3,
    "figure9": figure9,
    "layered16": lambda: layered_hierarchy(16, 16, seed=0),
}

# (red_propagations, blue_propagations, dominance_checks, entries_computed)
# Both build modes count every propagation, so they agree on every row.
GOLDEN_STATS = {
    "figure1": (4, 0, 2, 5),
    "figure2": (4, 0, 1, 5),
    "figure3": (8, 4, 7, 12),
    "figure9": (4, 0, 4, 6),
    "layered16": (450, 1403, 723, 715),
}

# The layered16 build above plus the delta's own (383, 1449, 707, 593).
GOLDEN_DELTA_STATS = (833, 2852, 1430, 1308)

GOLDEN_PACK_SHA256 = {
    "cpp-dominance": (
        "36cf19795b30913e625f8707ce03d211c7480074d11ac714d0f7589ef578b771"
    ),
    "self": "0e61ab7b9f8a3545752b9884637fa1bac39a6f324ac9a400eab0b2f304a0d25c",
}


def counters(stats):
    return (
        stats.red_propagations,
        stats.blue_propagations,
        stats.dominance_checks,
        stats.entries_computed,
    )


@pytest.mark.parametrize("mode", ["batched", "per-member"])
@pytest.mark.parametrize("name", sorted(GOLDEN_STATS))
def test_build_counters_are_golden(name, mode):
    table = MemberLookupTable(HIERARCHIES[name](), mode=mode)
    assert counters(table.stats) == GOLDEN_STATS[name]


def test_cone_sweep_counters_are_golden():
    """A build plus one delta: growth below old classes (virtual and
    non-virtual edges) and a member added to an existing class."""
    graph = layered_hierarchy(16, 16, seed=0)
    table = MemberLookupTable(graph, mode="batched")
    names = list(graph.classes)
    for i in range(8):
        graph.add_class(f"X{i}", ["m"] if i % 2 else [])
        graph.add_edge(names[i * 7], f"X{i}", virtual=i % 3 == 0)
        graph.add_edge(names[i * 11 + 3], f"X{i}")
    graph.add_member(names[5], "f")
    table.apply_delta()
    assert counters(table.stats) == GOLDEN_DELTA_STATS


@pytest.mark.parametrize("semantics", sorted(GOLDEN_PACK_SHA256))
def test_pack_bytes_are_golden(tmp_path, semantics):
    table = MemberLookupTable(
        layered_hierarchy(16, 16, seed=0),
        mode="batched",
        semantics=semantics,
    )
    path = tmp_path / "table.pack"
    pack(table, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_PACK_SHA256[semantics]
