"""The bounded LRU mapping (:mod:`repro.core.cache`) and the contract
of the one-shot :func:`repro.core.lookup.lookup` across mutations.

The differential matrix in ``test_engine_equivalence.py`` pins the
*results*; this file pins the LRU's observable mechanics — recency
order and its hit/miss/eviction counters.
"""

import pytest

from repro.core.cache import LookupCache
from repro.core.lookup import lookup
from repro.workloads.generators import chain


def test_lookup_cache_lru_eviction_order():
    cache = LookupCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a": "b" is now the LRU entry
    cache.put("c", 3)
    assert cache.stats.evictions == 1
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert cache.stats.hits == 3 and cache.stats.misses == 1


def test_lookup_cache_rejects_silly_sizes():
    with pytest.raises(ValueError):
        LookupCache(maxsize=0)


def test_one_shot_lookup_survives_mutation():
    """The documented contract of repro.core.lookup.lookup(): correct
    answers across mutations of the same graph object."""
    graph = chain(8, member_every=8)
    assert lookup(graph, "C7", "m").declaring_class == "C0"
    graph.add_member("C7", "m")
    assert lookup(graph, "C7", "m").declaring_class == "C7"
