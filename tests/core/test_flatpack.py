"""Flatpack round trips: the mmapped table is the live table.

The format contract, pinned over the full benchmark-family sweep: every
answer a :class:`~repro.core.flatpack.PackedTable` serves off the
buffer — scalar, batch, witness paths included — is value-identical to
the live table it was packed from; malformed files are rejected at open
time with :class:`~repro.core.flatpack.TableSerializationError`; and a
pack is a first-class snapshot-chain parent (``to_table`` +
``apply_delta`` converge on the same answers as a fresh build).
"""

import struct

import pytest

import repro.core.columnar as columnar_mod
from repro.core.flatpack import (
    FLATPACK_MAGIC,
    FLATPACK_VERSION,
    TableSerializationError,
    mmap_table,
    pack,
)
from repro.core.lookup import MemberLookupTable, build_lookup_table
from repro.errors import UnknownClassError
from repro.serve.service import LookupService
from repro.workloads.generators import (
    ambiguous_fan,
    binary_tree,
    blue_heavy_hierarchy,
    chain,
    grid,
    nonvirtual_diamond_ladder,
    random_hierarchy,
    virtual_diamond_ladder,
    wide_unambiguous,
)

FAMILIES = [
    ("ambiguous_fan", lambda: ambiguous_fan(8)),
    ("binary_tree", lambda: binary_tree(5)),
    ("blue_heavy", lambda: blue_heavy_hierarchy(4, 6)),
    ("chain", lambda: chain(24, member_every=6)),
    ("grid", lambda: grid(5, 5)),
    ("nonvirtual_diamond", lambda: nonvirtual_diamond_ladder(5)),
    ("random", lambda: random_hierarchy(40, seed=11, member_probability=0.5)),
    ("virtual_diamond", lambda: virtual_diamond_ladder(5)),
    ("wide_unambiguous", lambda: wide_unambiguous(16)),
]


def all_queries(table):
    ch = table.compiled
    members = list(ch.member_names) + ["does_not_exist"]
    return [(c, m) for c in ch.class_names for m in members]


def packed_pair(graph, tmp_path, **build_kwargs):
    build_kwargs.setdefault("mode", "batched")
    build_kwargs.setdefault("fastpath", True)
    table = build_lookup_table(graph, **build_kwargs)
    path = tmp_path / "table.pack"
    pack(table, path)
    return table, mmap_table(path)


@pytest.mark.parametrize(
    "name,maker", FAMILIES, ids=[name for name, _ in FAMILIES]
)
def test_round_trip_equals_live_table(name, maker, tmp_path):
    table, packed = packed_pair(maker(), tmp_path)
    queries = all_queries(table)
    # Scalar parity — LookupResult equality covers declaring class,
    # leastVirtual, ambiguity sets, and the full witness paths.
    assert [packed.lookup(c, m) for c, m in queries] == [
        table.lookup(c, m) for c, m in queries
    ]
    # Batch parity through the columnar gather.
    assert packed.lookup_many(queries) == table.lookup_many(queries)
    assert packed.generation == table.compiled.generation
    assert packed.entry_total == table.snapshot.entry_total
    assert packed.semantics is table.semantics
    stats = packed.stats()
    assert stats is not None and stats.queries == len(queries)
    packed.close()


@pytest.mark.parametrize(
    "name,maker", FAMILIES[:3], ids=[name for name, _ in FAMILIES[:3]]
)
def test_visible_members_parity(name, maker, tmp_path):
    table, packed = packed_pair(maker(), tmp_path)
    for class_name in table.compiled.class_names:
        assert packed.visible_members(class_name) == tuple(
            table.visible_members(class_name)
        )


def test_certificate_round_trip(tmp_path):
    table, packed = packed_pair(ambiguous_fan(6), tmp_path)
    certificate = packed.certificate
    assert certificate.ambiguous_columns == table.flat_table.ambiguous_columns
    assert certificate.blue_cells > 0
    unamb_dir = tmp_path / "unamb"
    unamb_dir.mkdir()
    unamb, packed2 = packed_pair(wide_unambiguous(8), unamb_dir)
    assert packed2.certificate.table_is_unambiguous


def test_unknown_class_raises_unknown_member_misses(tmp_path):
    table, packed = packed_pair(binary_tree(3), tmp_path)
    with pytest.raises(UnknownClassError):
        packed.lookup("NoSuchClass", "m")
    result = packed.lookup(table.compiled.class_names[0], "no_such_member")
    assert not result.is_unique and not result.is_ambiguous


def test_pack_is_deterministic(tmp_path):
    graph = random_hierarchy(30, seed=3, member_probability=0.5)
    table = build_lookup_table(graph, mode="batched", fastpath=True)
    pack(table, tmp_path / "a.pack")
    pack(table, tmp_path / "b.pack")
    assert (tmp_path / "a.pack").read_bytes() == (
        tmp_path / "b.pack"
    ).read_bytes()


def test_pack_rejects_in_place_tables(tmp_path):
    table = build_lookup_table(binary_tree(3), mode="per-member")
    with pytest.raises(ValueError):
        pack(table, tmp_path / "nope.pack")


def test_non_default_semantics_round_trip(tmp_path):
    graph = virtual_diamond_ladder(4)
    table, packed = packed_pair(graph, tmp_path, semantics="c3")
    assert packed.semantics.name == "c3"
    queries = all_queries(table)
    assert packed.lookup_many(queries) == table.lookup_many(queries)


# ----------------------------------------------------------------------
# Malformed files are rejected at open time
# ----------------------------------------------------------------------


def _packed_bytes(tmp_path) -> bytes:
    table = build_lookup_table(
        ambiguous_fan(4), mode="batched", fastpath=True
    )
    path = tmp_path / "good.pack"
    pack(table, path)
    return path.read_bytes()


def _expect_reject(tmp_path, raw: bytes):
    path = tmp_path / "bad.pack"
    path.write_bytes(raw)
    with pytest.raises(TableSerializationError):
        mmap_table(path)


def test_rejects_empty_file(tmp_path):
    _expect_reject(tmp_path, b"")


def test_rejects_wrong_magic(tmp_path):
    raw = _packed_bytes(tmp_path)
    _expect_reject(tmp_path, b"NOTAPACK" + raw[8:])


def test_rejects_future_version(tmp_path):
    raw = bytearray(_packed_bytes(tmp_path))
    struct.pack_into("=I", raw, len(FLATPACK_MAGIC), FLATPACK_VERSION + 1)
    _expect_reject(tmp_path, bytes(raw))


def test_rejects_truncation(tmp_path):
    raw = _packed_bytes(tmp_path)
    for cut in (4, len(raw) // 4, len(raw) // 2, len(raw) - 8):
        _expect_reject(tmp_path, raw[:cut])


def test_rejects_corrupt_count(tmp_path):
    raw = bytearray(_packed_bytes(tmp_path))
    # n_classes is the second q of the count block.
    struct.pack_into("=q", raw, len(FLATPACK_MAGIC) + 16 + 8, -5)
    _expect_reject(tmp_path, bytes(raw))


def test_rejects_out_of_bounds_section(tmp_path):
    raw = bytearray(_packed_bytes(tmp_path))
    # The section table starts right after the padded fixed header;
    # point section 0 past the end of the file.
    head = len(FLATPACK_MAGIC) + 16 + 80
    (sem_len,) = struct.unpack_from("=I", raw, len(FLATPACK_MAGIC) + 12)
    head += sem_len + (8 - (head + sem_len) % 8) % 8
    struct.pack_into("=qq", raw, head, len(raw) + 64, 8)
    _expect_reject(tmp_path, bytes(raw))


def test_rejects_unknown_semantics_rule(tmp_path):
    raw = bytearray(_packed_bytes(tmp_path))
    at = len(FLATPACK_MAGIC) + 12
    (sem_len,) = struct.unpack_from("=I", raw, at)
    name_at = len(FLATPACK_MAGIC) + 16 + 80
    garbage = (b"z" * sem_len)[:sem_len]
    raw[name_at : name_at + sem_len] = garbage
    _expect_reject(tmp_path, bytes(raw))


# ----------------------------------------------------------------------
# Generation roll-forward: the pack as a snapshot-chain parent
# ----------------------------------------------------------------------


def test_roll_forward_matches_fresh_build(tmp_path):
    graph = random_hierarchy(40, seed=17, member_probability=0.5)
    table = build_lookup_table(graph, mode="batched", fastpath=True)
    path = tmp_path / "base.pack"
    pack(table, path)

    packed = mmap_table(path)
    warm = packed.to_table()
    base_generation = warm.compiled.generation
    root = warm.compiled.class_names[0]
    live = warm.graph
    live.add_class("RolledA", ["rolled_member"])
    live.add_edge(root, "RolledA")
    live.add_class("RolledB", ["m0"])
    live.add_edge("RolledA", "RolledB")
    stats = warm.apply_delta()
    # The mutation rolled forward from the mmapped base, not a rebuild.
    assert stats.full_rebuilds == 0 and stats.deltas_applied == 1
    assert warm.compiled.generation > base_generation

    fresh = build_lookup_table(live, mode="batched", fastpath=True)
    queries = all_queries(fresh)
    assert [warm.lookup(c, m) for c, m in queries] == [
        fresh.lookup(c, m) for c, m in queries
    ]
    assert warm.lookup_many(queries) == fresh.lookup_many(queries)
    assert warm.snapshot.entry_total == fresh.snapshot.entry_total


def test_to_snapshot_serves_and_chains(tmp_path):
    table, packed = packed_pair(virtual_diamond_ladder(4), tmp_path)
    snapshot = packed.to_snapshot()
    queries = all_queries(table)
    assert snapshot.lookup_many(queries) == table.lookup_many(queries)
    assert [snapshot.lookup(c, m) for c, m in queries] == [
        table.lookup(c, m) for c, m in queries
    ]
    assert snapshot.generation == table.compiled.generation


def test_detached_from_snapshot_serves_without_graph(tmp_path):
    table, packed = packed_pair(binary_tree(4), tmp_path)
    detached = MemberLookupTable.from_snapshot(packed.to_snapshot())
    queries = all_queries(table)
    assert detached.lookup_many(queries) == table.lookup_many(queries)
    with pytest.raises(UnknownClassError):
        detached.lookup("NoSuchClass", "m")
    with pytest.raises(ValueError):
        detached.apply_delta()  # no source graph to recompile


def test_to_graph_recompiles_identically(tmp_path):
    graph = random_hierarchy(30, seed=23, member_probability=0.5)
    table, packed = packed_pair(graph, tmp_path)
    rebuilt = packed.to_graph().compile()
    ch = table.compiled
    assert rebuilt.class_names == ch.class_names
    assert rebuilt.member_names == ch.member_names
    assert rebuilt.base_pairs == ch.base_pairs
    assert rebuilt.visible_masks == ch.visible_masks
    assert tuple(rebuilt.topo_order) == tuple(ch.topo_order)


# ----------------------------------------------------------------------
# The no-numpy leg (the main CI job has no numpy; this pins the
# fallback explicitly even where numpy is installed)
# ----------------------------------------------------------------------


def test_round_trip_without_numpy(monkeypatch, tmp_path):
    monkeypatch.setattr(columnar_mod, "HAVE_NUMPY", False)
    table, packed = packed_pair(
        random_hierarchy(25, seed=5, member_probability=0.6), tmp_path
    )
    columnar = packed._columnar()
    assert not columnar.use_numpy
    queries = all_queries(table)
    assert packed.lookup_many(queries) == table.lookup_many(queries)
    assert [packed.lookup(c, m) for c, m in queries] == [
        table.lookup(c, m) for c, m in queries
    ]


# ----------------------------------------------------------------------
# End-to-end wiring
# ----------------------------------------------------------------------


def test_service_preload_boots_and_writes(tmp_path):
    table, _packed = packed_pair(grid(4, 4), tmp_path)
    path = tmp_path / "table.pack"
    service = LookupService(preload={"grid": str(path)})
    queries = all_queries(table)
    assert service.lookup_many("grid", queries) == table.lookup_many(
        queries
    )
    generation = service.tenant("grid").snapshot.generation
    service.apply_delta(
        "grid", [{"op": "add_class", "name": "Fresh", "members": ["m"]}]
    )
    assert service.tenant("grid").snapshot.generation > generation
    assert service.lookup("grid", "Fresh", "m").declaring_class == "Fresh"


def test_add_tenant_rejects_mismatched_semantics(tmp_path):
    table, _packed = packed_pair(binary_tree(3), tmp_path)
    service = LookupService()
    with pytest.raises(ValueError):
        service.add_tenant(
            "t", pack=str(tmp_path / "table.pack"), semantics="c3"
        )
