"""A bounded LRU mapping with hit/miss/eviction counters.

No lookup engine reads through this class any more: cone invalidation
after an edit has one home, :meth:`repro.core.lookup.MemberLookupTable
.apply_delta` → :meth:`repro.core.snapshot.TableSnapshot.apply_delta`,
and the one-shot :func:`repro.core.lookup.lookup` keeps a per-graph
:class:`~repro.core.lazy.LazyMemberLookup` instead.  :class:`LookupCache`
stays only because the ``perfbench`` tracer wraps ``LookupCache.get`` as
its ``cache.get`` layer; it goes with that layer.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["CacheStats", "LookupCache"]


@dataclass
class CacheStats:
    """Counters for the cache's observable behaviour."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


class LookupCache:
    """A bounded LRU mapping with explicit counters.

    Deliberately minimal: ``get`` / ``put`` / ``clear`` over an
    :class:`~collections.OrderedDict`, recency updated on every hit.
    This class does not know what its keys mean.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._data: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key):
        """The cached value, or ``None`` — counting the hit or miss and
        marking the entry most recently used."""
        value = self._data.get(key)
        if value is None:
            self.stats.misses += 1
            return None
        self._data.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key, value) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        elif len(data) >= self.maxsize:
            data.popitem(last=False)
            self.stats.evictions += 1
        data[key] = value

    def clear(self) -> None:
        """Drop every entry."""
        self._data = OrderedDict()
