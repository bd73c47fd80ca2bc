"""A generation-keyed LRU query cache in front of the lazy engine.

The lazy engine (:mod:`repro.core.lazy`) memoises *kernel entries* — the
interned red/blue values the fold computes — but every query still pays
interning, memo probing and the kernel-entry → :class:`LookupResult`
conversion.  For the module-level one-shot :func:`repro.core.lookup.lookup`
(the "millions of users hammering the same hot queries" path) this module
adds the missing O(1) front: :class:`LookupCache`, a plain LRU over
``(class, member) -> LookupResult`` with hit/miss/evict counters, wrapped
by :class:`CachedMemberLookup`.

Invalidation is *surgical* and piggybacks on the substrate's existing
staleness protocol: every mutation of a
:class:`~repro.hierarchy.graph.ClassHierarchyGraph` bumps its generation
counter, and the first query after a bump compares the compiled snapshot
the cache was filled under against the fresh one
(:func:`~repro.hierarchy.compiled.describe_delta`).  Whenever the
change is a recognisable growth step, only the keys inside
``invalidation-cone × affected-members`` are dropped — everything else
provably still answers to the same subobject graph (Definition 7) and
survives the bump, in the LRU and in the lazy engine's memo alike.
Only when the snapshots are incomparable (never the case under the
append-only graph API) does the cache fall back to the old
flush-everything policy, so a cached result still can never outlive
the hierarchy shape it was computed from.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.core.lazy import LazyMemberLookup
from repro.core.results import LookupResult
from repro.core.semantics import DEFAULT_SEMANTICS, Semantics, get_semantics
from repro.hierarchy.compiled import (
    HierarchyLike,
    describe_delta,
    hierarchy_of,
)

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "CacheStats",
    "CachedMemberLookup",
    "LookupCache",
    "shared_cached_lookup",
]

#: Default LRU capacity of :class:`CachedMemberLookup` — comfortably
#: larger than the hot query set of any realistic translation unit while
#: bounding worst-case memory for adversarial query streams.
DEFAULT_CACHE_SIZE = 4096


@dataclass
class CacheStats:
    """Counters for the cache's observable behaviour (reported by the
    CLI ``build`` command and asserted on by the tests).

    ``invalidations`` counts invalidation *events* — one per observed
    generation bump that found any computed state to reconcile, in the
    LRU **or** in the lazy engine's memo — whether the event was
    surgical or a full flush.  (A bump over a completely cold engine is
    not an observable event; a bump that only evicts warm memo entries
    through an empty LRU is.)  The surgical counters break an event
    down across a retirement (:meth:`LookupCache.retire` swaps in a
    fresh mapping rather than deleting out of the served one):
    ``entries_evicted`` counts the keys *retired* with the old
    snapshot's mapping because they lay inside the mutation's cone ×
    affected-members rectangle, ``entries_survived`` the keys that
    provably could not have changed and were *retained* — carried warm
    into the new snapshot's mapping — ``memo_entries_evicted`` the
    lazy-memo entries dropped from the same rectangle, and
    ``full_flushes`` the events that had to retire everything because
    the snapshots were incomparable."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    entries_evicted: int = 0
    entries_survived: int = 0
    memo_entries_evicted: int = 0
    full_flushes: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LookupCache:
    """A bounded LRU mapping with explicit counters.

    Deliberately minimal: ``get`` / ``put`` / ``clear`` over an
    :class:`~collections.OrderedDict`, recency updated on every hit.
    Generation logic lives in :class:`CachedMemberLookup`; this class
    does not know what its keys mean.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
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
        """Retire every entry, counting one invalidation (only if there
        was anything to drop — an empty flush is not an observable
        event).  The old mapping is replaced wholesale rather than
        emptied in place, so a reader still holding it keeps a coherent
        view of the retired contents."""
        if self._data:
            self._data = OrderedDict()
            self.stats.invalidations += 1

    def retire(self, stale) -> tuple[int, int]:
        """Retire the current mapping into a fresh one, dropping every
        key for which ``stale(key)`` is true and carrying every other
        entry across in LRU order.

        This is the snapshot-publishing shape of invalidation: instead
        of deleting stale keys out of the mapping being served, the
        survivors are copied into a new mapping and the old one is
        swapped out with a single attribute assignment — a concurrent
        reader sees either the fully-old or the fully-new contents,
        never a half-retired hybrid, and the retired mapping stays
        coherent for as long as anyone holds it.  Returns the
        ``(retired, retained)`` counts."""
        fresh: OrderedDict = OrderedDict()
        retired = 0
        for key, value in self._data.items():
            if stale(key):
                retired += 1
            else:
                fresh[key] = value
        self._data = fresh
        return retired, len(fresh)

    def resize(self, maxsize: int) -> None:
        """Change the capacity in place, evicting least-recently-used
        entries (counted in ``evictions``) if the cache has to shrink
        below its current population.  Growing never drops anything."""
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        data = self._data
        while len(data) > maxsize:
            data.popitem(last=False)
            self.stats.evictions += 1


class CachedMemberLookup:
    """The lazy engine fronted by a generation-keyed :class:`LookupCache`.

    Produces exactly the same :class:`LookupResult` objects as every
    other engine; repeated queries under an unchanged hierarchy are one
    dict probe.  The invalidation contract:

    * every graph mutation bumps ``graph.generation``;
    * the first query after a bump diffs the compiled snapshots
      (:func:`~repro.hierarchy.compiled.describe_delta`) and evicts
      **only** the keys inside the mutation's invalidation cone ×
      affected member names — from the LRU and from the lazy memo —
      leaving every other cached answer warm (one event, counted in
      ``cache_stats.invalidations``; the surgical breakdown lands in
      ``entries_evicted`` / ``entries_survived``);
    * if the snapshots are incomparable (impossible through the
      append-only graph API, but the cache does not assume its callers)
      the whole cache and the lazy memo are flushed instead, counted in
      ``full_flushes`` — correctness never rides on the delta being
      recognisable;
    * queries between mutations never recompute.

    The one-at-a-time surgical twin of this policy lives in
    :class:`~repro.core.incremental.IncrementalLookupEngine`, which is
    told *which* mutation happened instead of diffing snapshots.

    ``fastpath_threshold`` opts a second tier in below the LRU: once a
    member name has accumulated that many LRU misses, its whole column
    is promoted onto the lazy engine's unambiguous fast path
    (:meth:`~repro.core.lazy.LazyMemberLookup.flatten_column`) — one
    ``O(|N|+|E|)`` flatten buys O(1) array serving for every future
    miss on that column, LRU evictions included.  Ambiguous columns
    simply fail the promotion and stay general; an invalidation that
    demotes a column resets its miss counter so it can earn promotion
    again.

    ``semantics`` selects the dispatch rule (:mod:`repro.core
    .semantics`).  The default ``"cpp-dominance"`` keeps the lazy
    engine behind the LRU; a non-default semantics has no lazy/
    incremental engine, so the cache fronts a snapshot-backed batched
    :class:`~repro.core.lookup.MemberLookupTable` under that semantics
    instead (``fastpath=True``, so certified columns are already O(1)
    below the LRU — ``fastpath_threshold`` is meaningless there and
    rejected).  Invalidation then rides
    :meth:`~repro.core.lookup.MemberLookupTable.apply_delta` — O(cone)
    at the table — plus the same surgical LRU retirement.
    """

    def __init__(
        self,
        hierarchy: HierarchyLike,
        *,
        maxsize: int = DEFAULT_CACHE_SIZE,
        track_witnesses: bool = True,
        fastpath_threshold: Optional[int] = None,
        semantics: Optional[str | Semantics] = None,
    ) -> None:
        self._graph = hierarchy_of(hierarchy)
        self._track_witnesses = track_witnesses
        if isinstance(semantics, str) or semantics is None:
            semantics = get_semantics(semantics)
        self.semantics = semantics
        self._lazy: Optional[LazyMemberLookup] = None
        self._table = None
        if semantics.name == DEFAULT_SEMANTICS:
            self._lazy = LazyMemberLookup(
                hierarchy, track_witnesses=track_witnesses
            )
        else:
            if fastpath_threshold is not None:
                raise ValueError(
                    f"semantics {semantics.name!r} fronts a batched "
                    "table whose certified columns already serve O(1) "
                    "through the flat fast path; fastpath_threshold "
                    "only tunes the lazy-engine promotion tier"
                )
            from repro.core.lookup import MemberLookupTable

            self._table = MemberLookupTable(
                hierarchy,
                track_witnesses=track_witnesses,
                mode="batched",
                fastpath=True,
                semantics=semantics,
            )
        self._cache = LookupCache(maxsize)
        self._snapshot = self._graph.compile()
        self._generation = self._graph.generation
        if fastpath_threshold is not None and fastpath_threshold < 1:
            raise ValueError("fastpath_threshold must be >= 1")
        self._fastpath_threshold = fastpath_threshold
        self._member_misses: dict[str, int] = {}

    @property
    def cache_stats(self) -> CacheStats:
        return self._cache.stats

    @property
    def lazy(self) -> Optional[LazyMemberLookup]:
        """The underlying lazy engine (its ``stats`` count the actual
        kernel work; the cache's counters count what was *avoided*).
        ``None`` under a non-default semantics — see :attr:`table`."""
        return self._lazy

    @property
    def table(self):
        """The snapshot-backed batched table a non-default semantics
        fronts instead of the lazy engine; ``None`` under the default
        ``cpp-dominance`` semantics."""
        return self._table

    @property
    def generation(self) -> int:
        """The graph generation the current cache contents belong to."""
        return self._generation

    def __len__(self) -> int:
        return len(self._cache)

    def lookup(self, class_name: str, member: str) -> LookupResult:
        if self._graph.generation != self._generation:
            self._invalidate()
        key = (class_name, member)
        result = self._cache.get(key)
        if result is None:
            engine = self._lazy if self._lazy is not None else self._table
            result = engine.lookup(class_name, member)
            self._cache.put(key, result)
            threshold = self._fastpath_threshold
            if threshold is not None:
                misses = self._member_misses.get(member, 0) + 1
                self._member_misses[member] = misses
                if misses == threshold:
                    self._lazy.flatten_column(member)
        return result

    def lookup_many(self, queries) -> list[LookupResult]:
        """The batch entry point: one generation check up front, then
        split the batch into LRU hits and misses and bulk-fill the
        misses — each *distinct* missing ``(class, member)`` pair is
        computed once through the lazy engine and scattered to every
        query position that asked for it, so a batch with repeats never
        recomputes inside itself.  Results are exactly what per-query
        :meth:`lookup` calls would have produced; the fast-path
        promotion counter advances once per distinct missing member
        pair (not once per repeated query), so promotion thresholds
        measure distinct cold traffic."""
        if self._graph.generation != self._generation:
            self._invalidate()
        if type(queries) is not list:
            queries = list(queries)
        cache = self._cache
        get = cache.get
        out: list[Optional[LookupResult]] = [None] * len(queries)
        misses: dict[tuple[str, str], list[int]] = {}
        for qi, query in enumerate(queries):
            key = (query[0], query[1])
            result = get(key)
            if result is None:
                bucket = misses.get(key)
                if bucket is None:
                    misses[key] = [qi]
                else:
                    bucket.append(qi)
            else:
                out[qi] = result
        if misses:
            lazy = self._lazy
            engine = lazy if lazy is not None else self._table
            threshold = self._fastpath_threshold
            member_misses = self._member_misses
            for (class_name, member), positions in misses.items():
                result = engine.lookup(class_name, member)
                cache.put((class_name, member), result)
                for qi in positions:
                    out[qi] = result
                if threshold is not None:
                    count = member_misses.get(member, 0) + 1
                    member_misses[member] = count
                    if count == threshold:
                        lazy.flatten_column(member)
        return out

    def resize(self, maxsize: int) -> None:
        """Rebound the LRU in place (see :meth:`LookupCache.resize`);
        shrinking evicts LRU-first, growing keeps everything warm."""
        self._cache.resize(maxsize)

    def _invalidate(self) -> None:
        """Reconcile the cache with the graph's current generation.

        Diffs the snapshot the cache contents were computed under
        against a fresh compile.  A recognisable growth step evicts
        exactly the ``cone × affected-member`` keys (and the same
        rectangle from the lazy memo — by string name, which also
        catches columns the old interner never saw); anything else
        flushes everything.  Either way the cache's snapshot pointer
        advances, so one bump costs one reconciliation no matter how
        many mutations it covered.

        The event is counted whenever the bump found *any* computed
        state to reconcile — LRU entries or warm memo entries alike: a
        bump observed through an empty LRU over a warm memo still
        evicts from the memo, and that work must not be invisible in
        the counters.
        """
        new = self._graph.compile()
        old = self._snapshot
        delta = describe_delta(old, new)
        stats = self._cache.stats
        if self._table is not None:
            # Table-backed (non-default semantics): the table reconciles
            # itself in O(cone) — and a SemanticsRejection raised by the
            # cone re-sweep propagates *before* any cache state moves,
            # leaving the old generation fully served.  Then retire the
            # same cone × affected rectangle from the LRU.
            self._table.apply_delta(delta)
            if delta is None:
                had_lru = len(self._cache) > 0
                self._cache.clear()  # counts the event when warm
                if had_lru:
                    stats.full_flushes += 1
            elif not delta.is_empty and len(self._cache) > 0:
                cone_names = {
                    new.class_names[cid] for cid in delta.cone_ids()
                }
                member_names = {
                    new.member_names[mid] for mid in delta.member_ids()
                }
                retired, retained = self._cache.retire(
                    lambda key: key[0] in cone_names
                    and key[1] in member_names
                )
                stats.entries_evicted += retired
                stats.entries_survived += retained
                stats.invalidations += 1
            self._snapshot = new
            self._generation = new.generation
            return
        if delta is None:
            # Incomparable snapshots: retire the whole computed state.
            memo_entries = self._lazy.entries_computed()
            had_lru = len(self._cache) > 0
            self._cache.clear()  # counts the event when the LRU was warm
            if not had_lru and memo_entries:
                stats.invalidations += 1  # memo-only state: still an event
            self._lazy = LazyMemberLookup(
                self._graph, track_witnesses=self._track_witnesses
            )
            stats.memo_entries_evicted += memo_entries
            if had_lru or memo_entries:
                stats.full_flushes += 1
            self._member_misses.clear()
        elif not delta.is_empty:
            cone_names = {
                new.class_names[cid] for cid in delta.cone_ids()
            }
            member_names = {
                new.member_names[mid] for mid in delta.member_ids()
            }
            memo_evicted = 0
            for member in member_names:
                memo_evicted += len(
                    self._lazy._evict(cone_names, member=member)
                )
                self._member_misses.pop(member, None)
            had_lru = len(self._cache) > 0
            if had_lru:
                # Retire the old snapshot's mapping: survivors (keys
                # provably outside the cone × affected rectangle) are
                # carried into the new snapshot's mapping, the rest
                # retire with the old one.
                retired, retained = self._cache.retire(
                    lambda key: key[0] in cone_names
                    and key[1] in member_names
                )
                stats.entries_evicted += retired
                stats.entries_survived += retained
            if had_lru or memo_evicted:
                stats.invalidations += 1
            stats.memo_entries_evicted += memo_evicted
        # An empty delta (memberless growth) changes no lookup answer:
        # nothing to evict, no observable event.
        self._snapshot = new
        self._generation = new.generation


def shared_cached_lookup(
    hierarchy: HierarchyLike, *, maxsize: Optional[int] = None
) -> CachedMemberLookup:
    """The per-graph shared :class:`CachedMemberLookup`, created on first
    use and stored *on the graph itself* — so its lifetime is exactly the
    graph's (no global registry to leak) and every module-level
    :func:`repro.core.lookup.lookup` call against the same hierarchy
    shares one cache.

    ``maxsize=None`` (the default, and what the one-shot ``lookup()``
    passes) means "whatever bound the cache already has" —
    :data:`DEFAULT_CACHE_SIZE` on first creation.  An *explicit*
    ``maxsize`` is honored even when the engine already exists: the
    shared LRU is resized in place (shrinking evicts LRU-first), so a
    caller asking for a small bound actually gets one instead of
    silently inheriting the first caller's capacity."""
    graph = hierarchy_of(hierarchy)
    engine = getattr(graph, "_shared_cached_lookup", None)
    if engine is None:
        engine = CachedMemberLookup(
            graph,
            maxsize=DEFAULT_CACHE_SIZE if maxsize is None else maxsize,
        )
        graph._shared_cached_lookup = engine
    elif maxsize is not None and engine._cache.maxsize != maxsize:
        engine.resize(maxsize)
    return engine
