"""Snapshot picklability: a pickled :class:`CompiledHierarchy` drops its
``source`` graph and still sweeps to the same rows.

The process-sharded builder this file once covered is deleted; only the
pickling contract it relied on remains, and it is pinned here.
"""

import pickle

from repro.core.kernel import batched_sweep
from repro.workloads.generators import random_hierarchy


def test_compiled_hierarchy_pickles_without_source():
    graph = random_hierarchy(12, seed=9, member_probability=0.6)
    ch = graph.compile()
    clone = pickle.loads(pickle.dumps(ch))
    assert clone.source is None, "a copy must never see the mutable graph"
    assert clone.generation == ch.generation
    assert clone.class_names == ch.class_names
    assert clone.topo_order == ch.topo_order
    # The clone is fully sweepable — same rows as the original.
    assert batched_sweep(clone) == batched_sweep(ch)
