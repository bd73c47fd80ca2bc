"""Flatpack round trips: the mmapped table is the live table.

The format contract, pinned over the full benchmark-family sweep: every
answer a :class:`~repro.core.flatpack.PackedTable` serves off the
buffer — scalar, batch, witness paths included — is value-identical to
the live table it was packed from; malformed files are rejected at open
time with :class:`~repro.core.flatpack.TableSerializationError`; and a
pack is a first-class snapshot-chain parent (``to_table`` +
``apply_delta`` converge on the same answers as a fresh build).
"""

import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.core import flatpack
from repro.core.flatpack import (
    _SEC_COLUMN_CELLS,
    _SEC_COLUMN_DIR,
    _SEC_COLUMN_WITS,
    _SEC_SLOT_OFFS,
    _SEC_SLOT_VALS,
    _SEC_WIT_PREV,
    FLATPACK_MAGIC,
    FLATPACK_VERSION,
    TableSerializationError,
    mmap_table,
    pack,
)
from repro.core.kernel import mask_ids
from repro.core.lookup import MemberLookupTable, build_lookup_table
from repro.errors import UnknownClassError
from repro.ingest import StreamingIngest
from repro.serve.service import LookupService
from repro.workloads.corpus import gui_corpus
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
from repro.workloads.paper_figures import figure3, iostream_like

SRC = Path(__file__).resolve().parents[2] / "src"

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
    ambiguous = table.snapshot.ambiguous_queries()
    member_ids = table.compiled.member_ids
    columns = 0
    for _, member in ambiguous:
        columns |= 1 << member_ids[member]
    assert certificate.ambiguous_columns == columns
    assert certificate.blue_cells == len(ambiguous) > 0
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
    table = build_lookup_table(graph, mode="batched")
    pack(table, tmp_path / "a.pack")
    pack(table, tmp_path / "b.pack")
    assert (tmp_path / "a.pack").read_bytes() == (
        tmp_path / "b.pack"
    ).read_bytes()


def _streamed_gui_table():
    """A small GUI corpus streamed batch by batch, so the packed blues
    went through many cone sweeps rather than one build."""
    pipeline = StreamingIngest(batch_size=16)
    for file in gui_corpus(layers=8, width=8, files=4, seed=3):
        pipeline.ingest_source(file.text, filename=file.name)
    pipeline.flush()
    return pipeline.table


#: sha256 of ``pack()`` output — the format's pin.  A change to the
#: kernel's entry representation must leave every packed byte as is.
PINNED_PACKS = {
    "figure3": (
        lambda: build_lookup_table(figure3(), mode="batched"),
        "fbce3f194d2eefc629d9401b09664b5473af2bca6c077a78953f3231c32ecb69",
    ),
    "iostream_like": (
        lambda: build_lookup_table(iostream_like(), mode="batched"),
        "b01394653a9de9d32cca41d084f4cbcc8d511887dacd86f81863645eb02d8958",
    ),
    "streamed_gui": (
        _streamed_gui_table,
        "3531355a8f6ef67363be0ff640fbb667c8b75db2d78792b66c6b8ed276224081",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_PACKS))
def test_pack_bytes_are_pinned(name, tmp_path):
    build, digest = PINNED_PACKS[name]
    path = tmp_path / f"{name}.pack"
    pack(build(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_pack_rejects_in_place_tables(tmp_path):
    table = build_lookup_table(binary_tree(3), mode="per-member")
    with pytest.raises(ValueError):
        pack(table, tmp_path / "nope.pack")


@pytest.mark.parametrize("name", sorted(PINNED_PACKS))
def test_pack_returns_the_file_size(name, tmp_path):
    build, _digest = PINNED_PACKS[name]
    path = tmp_path / f"{name}.pack"
    assert pack(build(), path) == os.path.getsize(path)


# ----------------------------------------------------------------------
# The streamed writer: bounded memory, atomic replacement
# ----------------------------------------------------------------------


def test_pack_peak_memory_stays_below_the_file(tmp_path):
    """The slot-value run (most of a blue-heavy pack) is streamed in
    chunks and no section is held twice, so pack() allocates less than
    it writes."""
    pipeline = StreamingIngest(batch_size=16)
    for file in gui_corpus(layers=24, width=32, files=4, seed=1):
        pipeline.ingest_source(file.text, filename=file.name)
    pipeline.flush()
    table = pipeline.table
    table.snapshot.columnar_table()  # the table's own state, not pack's
    tracemalloc.start()
    try:
        written = pack(table, tmp_path / "gui.pack")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert written > 1 << 20
    assert peak < written, f"peak {peak} bytes for a {written}-byte pack"


_REPACK_UNDER_A_MAPPING = """
import json, sys
from repro.core.flatpack import mmap_table, pack
from repro.core.lookup import build_lookup_table
from repro.workloads.generators import chain

path = sys.argv[1]
pack(build_lookup_table(chain(512), mode="batched"), path)
with mmap_table(path) as packed:
    pack(build_lookup_table(chain(8), mode="batched"), path)
    queries = [(f"C{i}", m) for i in range(512) for m in ("m", "nope")]
    rows = [
        [r.status.value, r.declaring_class, str(r.witness)]
        for r in packed.lookup_many(queries)
    ]
    rows += [
        [r.status.value, r.declaring_class, str(r.witness)]
        for r in (packed.lookup(c, m) for c, m in queries[::7])
    ]
print(json.dumps(rows))
"""


def test_repack_keeps_a_live_mapping_serving(tmp_path):
    """Re-packing onto a path another table has mapped replaces the
    file rather than truncating it under the mapping (which would kill
    the reader with SIGBUS): the old mapping answers as it did."""
    path = tmp_path / "live.pack"
    completed = subprocess.run(
        [sys.executable, "-c", _REPACK_UNDER_A_MAPPING, str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    table = build_lookup_table(chain(512), mode="batched")
    queries = [(f"C{i}", m) for i in range(512) for m in ("m", "nope")]
    expected = [
        [r.status.value, r.declaring_class, str(r.witness)]
        for r in [table.lookup(c, m) for c, m in queries]
        + [table.lookup(c, m) for c, m in queries[::7]]
    ]
    assert json.loads(completed.stdout) == expected
    with mmap_table(path) as packed:
        assert packed.n_classes == 8
    assert os.listdir(tmp_path) == ["live.pack"]


def _failing_mask_ids(mask):
    raise RuntimeError("injected mid-stream failure")


def _short_mask_ids(mask):
    return mask_ids(mask)[:-1]


@pytest.mark.parametrize(
    "mode,decode,error",
    [
        ("per-member", None, ValueError),
        ("batched", _failing_mask_ids, RuntimeError),
        ("batched", _short_mask_ids, RuntimeError),
    ],
    ids=["unpackable-table", "failure-mid-stream", "short-slot-run"],
)
def test_failed_pack_leaves_the_old_file_and_no_temp(
    mode, decode, error, tmp_path, monkeypatch
):
    """A pack that fails — before writing, while streaming, or because
    the streamed slot-value run disagrees with the popcount-derived
    length in its header — removes its temporary file and leaves
    ``path`` holding the previous pack."""
    path = tmp_path / "table.pack"
    pack(build_lookup_table(figure3(), mode="batched"), path)
    before = path.read_bytes()
    if decode is not None:
        monkeypatch.setattr(flatpack, "mask_ids", decode)
    table = build_lookup_table(ambiguous_fan(6), mode=mode)
    with pytest.raises(error):
        pack(table, path)
    assert os.listdir(tmp_path) == ["table.pack"]
    assert path.read_bytes() == before


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
    table = build_lookup_table(ambiguous_fan(4), mode="batched")
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


def _figure3_slot(tmp_path, kind):
    """The bytes of a ``figure3()`` pack plus the byte offset of the
    first slot value of ``kind``: ``"ldc"`` of the red ``H::foo``, or
    ``"abstraction"`` / ``"candidate"`` of the blue ``H::bar``."""
    table = build_lookup_table(figure3(), mode="batched")
    columnar = table.snapshot.columnar_table()
    ch = table.compiled
    member = "foo" if kind == "ldc" else "bar"
    column = columnar.columns[ch.member_ids[member]]
    sid = column.cells[ch.class_ids["H"]]
    path = tmp_path / "good.pack"
    pack(table, path)
    packed = mmap_table(path)
    offs_at, _ = packed._sections[_SEC_SLOT_OFFS]
    vals_at, _ = packed._sections[_SEC_SLOT_VALS]
    packed.close()
    raw = bytearray(path.read_bytes())
    (at,) = struct.unpack_from("=q", raw, offs_at + 8 * sid)
    kind_at, n_abs = struct.unpack_from("=qq", raw, vals_at + 8 * at)
    assert kind_at == (0 if kind == "ldc" else 1)
    value_at = at + {"ldc": 1, "abstraction": 3, "candidate": 3 + n_abs}[kind]
    return raw, vals_at + 8 * value_at


def _serve_corrupt(tmp_path, raw):
    path = tmp_path / "bad.pack"
    path.write_bytes(bytes(raw))
    with mmap_table(path) as packed:
        return packed.lookup("H", "bar"), packed.lookup("H", "foo")


@pytest.mark.parametrize("kind", ["ldc", "abstraction", "candidate"])
@pytest.mark.parametrize("value", ["n_classes", -3, -7])
def test_rejects_out_of_range_slot_ids(kind, value, tmp_path):
    """A slot value outside the class-id range (or, for abstractions,
    the two sentinels) raises instead of serving a wrong answer."""
    raw, at = _figure3_slot(tmp_path, kind)
    struct.pack_into(
        "=q", raw, at, figure3().compile().n_classes
        if value == "n_classes" else value
    )
    with pytest.raises(TableSerializationError):
        _serve_corrupt(tmp_path, raw)


def test_rejects_slot_counts_overrunning_the_run(tmp_path):
    raw, at = _figure3_slot(tmp_path, "abstraction")
    # n_cand sits one int64 before the first abstraction id.
    struct.pack_into("=q", raw, at - 8, 5)
    with pytest.raises(TableSerializationError):
        _serve_corrupt(tmp_path, raw)


def test_sentinel_abstractions_still_read(tmp_path):
    """Ω and NONE_ID are valid abstraction ids: rewriting one of
    ``H::bar``'s to Ω still serves a blue."""
    raw, at = _figure3_slot(tmp_path, "abstraction")
    struct.pack_into("=q", raw, at, -1)
    bar, foo = _serve_corrupt(tmp_path, raw)
    assert bar.is_ambiguous and foo.is_unique


@pytest.mark.parametrize(
    "section,value",
    [
        (_SEC_COLUMN_CELLS, "_n_slots"),
        (_SEC_COLUMN_CELLS, -3),
        (_SEC_COLUMN_WITS, "_n_wit"),
        (_SEC_COLUMN_WITS, -3),
        (_SEC_COLUMN_DIR, "_n_columns"),
        (_SEC_WIT_PREV, -3),
    ],
    ids=[
        "cell=n_slots",
        "cell=-3",
        "witness=n_wit",
        "witness=-3",
        "column=n_columns",
        "witness_prev=-3",
    ],
)
def test_rejects_out_of_range_column_ids(section, value, tmp_path):
    """A column cell, witness index or directory entry naming something
    the pack does not hold raises on both read paths (the columnar
    serve and the per-class rows of a thawed snapshot)."""
    table = build_lookup_table(figure3(), mode="batched")
    path = tmp_path / "good.pack"
    pack(table, path)
    with mmap_table(path) as packed:
        offset, length = packed._sections[section]
        if isinstance(value, str):
            value = getattr(packed, value)
    raw = bytearray(path.read_bytes())
    at = next(
        at
        for at in range(offset, offset + length, 8)
        if struct.unpack_from("=q", raw, at)[0] >= 0
    )
    struct.pack_into("=q", raw, at, value)
    bad = tmp_path / "bad.pack"
    bad.write_bytes(bytes(raw))
    queries = all_queries(table)
    with mmap_table(bad) as packed:
        with pytest.raises(TableSerializationError):
            [packed.lookup(c, m) for c, m in queries]
    with mmap_table(bad) as packed:
        with pytest.raises(TableSerializationError):
            [packed._row_entries(cid) for cid in range(packed.n_classes)]


# ----------------------------------------------------------------------
# Generation roll-forward: the pack as a snapshot-chain parent
# ----------------------------------------------------------------------


def test_roll_forward_matches_fresh_build(tmp_path):
    graph = random_hierarchy(40, seed=17, member_probability=0.5)
    table = build_lookup_table(graph, mode="batched")
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

    fresh = build_lookup_table(live, mode="batched")
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


def test_round_trip_point_and_batch_reads(tmp_path):
    table, packed = packed_pair(
        random_hierarchy(25, seed=5, member_probability=0.6), tmp_path
    )
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
