"""Sharded parallel table construction over the batched sweep.

The batched driver (:func:`repro.core.kernel.batched_sweep`) already
amortises the CHG traversal across members; this module parallelises it
across *processes* by partitioning the member-id space into contiguous
shards.  Member columns are completely independent — the fold for
``(C, m)`` never reads another member's entries — so each worker can run
the full topological sweep restricted (via ``member_mask``) to its shard
and the shard rows merge by plain dict union, with no synchronisation
and no double work: the visible-member bitsets let a worker skip every
class in whose subgraph none of its members occur.

The frozen :class:`~repro.hierarchy.compiled.CompiledHierarchy` snapshot
is pickled once and shipped to each worker through the pool initializer
(not per task), so the per-shard marginal cost is one mask integer out
and one rows list back.  Workers never see the mutable source graph —
the snapshot's ``__getstate__`` drops it — which is also what makes the
snapshot picklable in the first place.

If a process pool cannot be created at all (sandboxes, missing
semaphores), the builder degrades to the serial batched sweep rather
than failing: sharding is an optimisation, never a semantic change.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from repro.core.kernel import (
    AmbiguityCertificate,
    ConeSweepStats,
    LookupStats,
    batched_sweep,
    cone_sweep,
)
from repro.hierarchy.compiled import CompiledHierarchy

__all__ = [
    "apply_sharded_delta",
    "build_sharded_rows",
    "shard_delta_masks",
    "shard_member_masks",
]

#: Set by :func:`_init_worker` in each pool process: the unpickled
#: snapshot every shard task of that worker sweeps against.
_WORKER_CH: Optional[CompiledHierarchy] = None


def shard_member_masks(n_members: int, shards: int) -> list[int]:
    """Partition the member-id space ``0..n_members-1`` into ``shards``
    contiguous bitmasks (sizes differing by at most one).

    Contiguity matters: the generators intern related members with
    adjacent ids, so contiguous shards keep each worker's visible-class
    footprint (and hence its skip rate) coherent.
    """
    if n_members <= 0:
        return []
    shards = max(1, min(shards, n_members))
    base, extra = divmod(n_members, shards)
    masks: list[int] = []
    low = 0
    for index in range(shards):
        high = low + base + (1 if index < extra else 0)
        masks.append(((1 << high) - 1) ^ ((1 << low) - 1))
        low = high
    return masks


def shard_delta_masks(member_mask: int, shards: int) -> list[int]:
    """Partition the *set bits* of ``member_mask`` into at most
    ``shards`` contiguous bitmasks of near-equal population.

    The full-build sharder splits ``0..|M|-1``; a delta touches only
    ``|M_aff|`` member ids, so splitting the raw id range would leave
    most workers with empty shards.  Splitting the affected set keeps
    every worker busy on real columns.
    """
    bits: list[int] = []
    mask = member_mask
    while mask:
        low = mask & -mask
        mask ^= low
        bits.append(low)
    if not bits:
        return []
    shards = max(1, min(shards, len(bits)))
    base, extra = divmod(len(bits), shards)
    masks: list[int] = []
    index = 0
    for shard in range(shards):
        take = base + (1 if shard < extra else 0)
        acc = 0
        for low in bits[index : index + take]:
            acc |= low
        masks.append(acc)
        index += take
    return masks


def _init_worker(payload: bytes) -> None:
    global _WORKER_CH
    _WORKER_CH = pickle.loads(payload)


def _init_worker_pack(path: str) -> None:
    """Pool initializer that boots the worker's snapshot from a
    flatpack file instead of an unpickled payload: the hierarchy CSR
    arrays thaw straight out of the page cache, which every sibling
    worker shares — the parent ships one short path string per worker
    rather than one pickled hierarchy each."""
    global _WORKER_CH
    from repro.core.flatpack import mmap_table

    with mmap_table(path) as packed:
        _WORKER_CH = packed.thaw_hierarchy()


def _sweep_shard(member_mask: int, track_witnesses: bool):
    stats = LookupStats()
    certificate = AmbiguityCertificate()
    rows = batched_sweep(
        _WORKER_CH,
        member_mask=member_mask,
        stats=stats,
        track_witnesses=track_witnesses,
        certificate=certificate,
    )
    return rows, stats, certificate


def _sweep_delta_shard(task):
    """One worker's slice of a cone re-sweep: a fresh row list holding
    only the (shard-restricted) boundary rows, cone-swept for the
    shard's member bits.  Returns just the cone rows — everything else
    is either empty or the boundary the parent already has."""
    cone_mask, shard_mask, boundary, track_witnesses = task
    ch = _WORKER_CH
    rows: list = [None] * ch.n_classes
    for bid, row in boundary.items():
        rows[bid] = row
    stats = LookupStats()
    certificate = AmbiguityCertificate()
    sweep = cone_sweep(
        ch,
        rows,
        cone_mask=cone_mask,
        member_mask=shard_mask,
        stats=stats,
        track_witnesses=track_witnesses,
        certificate=certificate,
    )
    cone_rows: dict[int, dict] = {}
    mask = cone_mask
    while mask:
        low = mask & -mask
        mask ^= low
        cid = low.bit_length() - 1
        row = rows[cid]
        if row:
            cone_rows[cid] = row
    return cone_rows, sweep, stats, certificate


def _merge_stats(into: LookupStats, shard: LookupStats) -> None:
    """Sum the per-shard counters.  ``classes_visited`` therefore counts
    one full sweep per shard — the honest cost model of the sharded
    build, not a bug: each worker really does walk ``topo_order``."""
    into.classes_visited += shard.classes_visited
    into.entries_computed += shard.entries_computed
    into.red_propagations += shard.red_propagations
    into.blue_propagations += shard.blue_propagations
    into.dominance_checks += shard.dominance_checks


def build_sharded_rows(
    ch: CompiledHierarchy,
    *,
    stats: Optional[LookupStats] = None,
    track_witnesses: bool = True,
    max_workers: Optional[int] = None,
    shards: Optional[int] = None,
    certificate: Optional[AmbiguityCertificate] = None,
    pack_path=None,
) -> list:
    """Build the full per-class rows (``rows[cid]: member id -> kernel
    entry``) by sharding the member space across a process pool.

    ``pack_path`` names a flatpack file (:mod:`repro.core.flatpack`)
    holding the same hierarchy: workers then mmap it read-only and thaw
    their snapshot from the shared page cache instead of receiving a
    pickled copy each — the caller must guarantee the pack matches
    ``ch`` (same generation), since workers sweep whatever the file
    holds.

    ``certificate`` merges each worker's per-shard ambiguity record —
    shards partition the member-id space, so the union is exactly what
    a serial :func:`batched_sweep` would have certified.

    ``max_workers`` defaults to ``os.cpu_count()``; ``shards`` defaults
    to the worker count (one mask per worker — more shards only help
    when member densities are very skewed).  Degenerate inputs (no
    members, one shard, one worker) and pool-creation failures all fall
    back to the serial batched sweep, so the result is identical in
    every case.
    """
    workers = max_workers if max_workers is not None else os.cpu_count() or 1
    masks = shard_member_masks(
        ch.n_members, shards if shards is not None else workers
    )
    if workers < 2 or len(masks) < 2:
        return batched_sweep(
            ch,
            stats=stats,
            track_witnesses=track_witnesses,
            certificate=certificate,
        )

    if pack_path is not None:
        initializer, initargs = _init_worker_pack, (str(pack_path),)
    else:
        payload = pickle.dumps(ch, protocol=pickle.HIGHEST_PROTOCOL)
        initializer, initargs = _init_worker, (payload,)
    try:
        executor = ProcessPoolExecutor(
            max_workers=min(workers, len(masks)),
            initializer=initializer,
            initargs=initargs,
        )
    except (OSError, ValueError):  # no fork/semaphores available here
        return batched_sweep(
            ch,
            stats=stats,
            track_witnesses=track_witnesses,
            certificate=certificate,
        )
    with executor:
        results = list(
            executor.map(
                _sweep_shard, masks, [track_witnesses] * len(masks)
            )
        )

    merged: list = [{} for _ in range(ch.n_classes)]
    for rows, shard_stats, shard_cert in results:
        for cid, row in enumerate(rows):
            if row:
                if merged[cid]:
                    merged[cid].update(row)
                else:
                    merged[cid] = row
        if stats is not None:
            _merge_stats(stats, shard_stats)
        if certificate is not None:
            certificate.merge(shard_cert)
    return merged


def apply_sharded_delta(
    ch: CompiledHierarchy,
    rows: list,
    *,
    cone_mask: int,
    member_mask: int,
    stats: Optional[LookupStats] = None,
    track_witnesses: bool = True,
    max_workers: Optional[int] = None,
    shards: Optional[int] = None,
    certificate: Optional[AmbiguityCertificate] = None,
) -> ConeSweepStats:
    """The sharded builder's delta mode: shard the *affected* member
    set (not all of ``|M|``) across workers, each running
    :func:`repro.core.kernel.cone_sweep` against the frozen snapshot
    with only the shard-restricted boundary rows shipped in, then merge
    the recomputed cone rows into fresh cone row dicts of ``rows``.

    The boundary payload per shard is tiny by construction: the
    out-of-cone direct bases of cone classes, each row filtered to the
    shard's member bits — the cone sweep never reads anything else from
    the old table.  Degenerate shapes (one affected member, one worker)
    and pool-creation failures fall back to the serial
    :func:`cone_sweep`, identical result guaranteed.

    Copy-on-write like :func:`cone_sweep`: every cone row dict is
    replaced with a fresh copy *before* the stale-entry drop and the
    merge write into it, so the dicts of the list ``rows`` was copied
    from are never mutated and a parent snapshot sharing them stays
    coherent for concurrent readers.
    """
    workers = max_workers if max_workers is not None else os.cpu_count() or 1
    masks = shard_delta_masks(
        member_mask, shards if shards is not None else workers
    )
    if workers < 2 or len(masks) < 2:
        return cone_sweep(
            ch,
            rows,
            cone_mask=cone_mask,
            member_mask=member_mask,
            stats=stats,
            track_witnesses=track_witnesses,
            certificate=certificate,
        )

    # Boundary: the out-of-cone direct bases cone classes read from.
    boundary_ids: set[int] = set()
    cone_ids: list[int] = []
    mask = cone_mask
    while mask:
        low = mask & -mask
        mask ^= low
        cid = low.bit_length() - 1
        cone_ids.append(cid)
        for base, _virtual in ch.base_pairs[cid]:
            if not (cone_mask >> base) & 1:
                boundary_ids.add(base)

    # Drop the stale masked entries from the cone rows up front: the
    # workers return only what they recomputed and the merge below is
    # update-only, so this is what keeps removed entries removed.  The
    # cone rows are first swapped for fresh copies so the drop (and the
    # merge below) never touches a dict a parent snapshot still serves
    # from.
    for cid in cone_ids:
        row = rows[cid]
        row = rows[cid] = dict(row) if row else {}
        if not row:
            continue
        pending = member_mask
        while pending:
            low = pending & -pending
            pending ^= low
            row.pop(low.bit_length() - 1, None)

    def _serial() -> ConeSweepStats:
        return cone_sweep(
            ch,
            rows,
            cone_mask=cone_mask,
            member_mask=member_mask,
            stats=stats,
            track_witnesses=track_witnesses,
            certificate=certificate,
        )

    payload = pickle.dumps(ch, protocol=pickle.HIGHEST_PROTOCOL)
    try:
        executor = ProcessPoolExecutor(
            max_workers=min(workers, len(masks)),
            initializer=_init_worker,
            initargs=(payload,),
        )
    except (OSError, ValueError):  # no fork/semaphores available here
        return _serial()
    tasks = []
    for shard_mask in masks:
        boundary = {}
        for bid in boundary_ids:
            row = rows[bid]
            if not row:
                continue
            restricted = {
                mid: entry
                for mid, entry in row.items()
                if (shard_mask >> mid) & 1
            }
            if restricted:
                boundary[bid] = restricted
        tasks.append((cone_mask, shard_mask, boundary, track_witnesses))
    with executor:
        results = list(executor.map(_sweep_delta_shard, tasks))

    cone_classes = 0
    recomputed = 0
    boundary_reads = 0
    for cone_rows, sweep, shard_stats, shard_cert in results:
        for cid, row in cone_rows.items():
            rows[cid].update(row)
        cone_classes = max(cone_classes, sweep.cone_classes)
        recomputed += sweep.entries_recomputed
        boundary_reads += sweep.boundary_rows
        if stats is not None:
            _merge_stats(stats, shard_stats)
        if certificate is not None:
            certificate.merge(shard_cert)
    return ConeSweepStats(
        cone_classes=cone_classes,
        entries_recomputed=recomputed,
        boundary_rows=boundary_reads,
    )
