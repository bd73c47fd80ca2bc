"""Seeded inputs for the workloads.

Everything here is a pure function of the benchmark seed: the same seed
gives the same Zipf lookup trace, the same uniform batches, the same
delta mix and the same corpus files.  The program under test only ever
receives the generated hierarchy JSON, the encoded requests and
mutations, and the corpus files on disk.

The *shape* of each hierarchy is fixed (``SHAPE_SEED``): random layered
DAGs of the same size differ in table size and publish cost by up to a
third from one draw to the next, which would swamp any bound.  The seed
draws what the shape does not fix: the lookup sequence, the batches,
the deltas, and the class names of the ingest corpus.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

#: The tenant's member vocabulary: 32 names, each declared by a class
#: with probability ``MEMBER_P``.
VOCAB = tuple(f"m{i:02d}" for i in range(32))
MEMBER_P = 0.15
LAYERS = WIDTH = 32  # 1024 classes
TENANT = "bench"
#: Generator seed of the tenant and corpus shapes.
SHAPE_SEED = 0

#: ``serve-batch-writes``: queries per ``lookup_many`` request and the
#: share of deltas that are new leaf classes (the rest are add_member).
BATCH = 256
LEAF_SHARE = 0.8
VIRTUAL_P = 0.3

#: ``ingest-gui``: the 2016-class GUI corpus.
CORPUS = {"layers": 42, "width": 48, "files": 16}


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent deterministic stream per (seed, purpose)."""
    return random.Random(f"{seed}:{purpose}")


def tenant_hierarchy():
    """The serve tenant: ``layered_hierarchy(32, 32)`` over the 32-name
    vocabulary at p=0.15, as a graph."""
    from repro.workloads.generators import layered_hierarchy

    return layered_hierarchy(
        LAYERS,
        WIDTH,
        seed=SHAPE_SEED,
        member_names=VOCAB,
        member_probability=MEMBER_P,
    )


def key_space(graph) -> list[tuple[str, str]]:
    """All (class, member) pairs of the tenant, in a fixed order."""
    return [(c, m) for c in graph.classes for m in VOCAB]


def zipf_trace(keys: list, seed: int, length: int, s: float = 1.0) -> list:
    """``length`` keys drawn Zipf(s) over a fixed permutation of
    ``keys``: rank ``r`` has weight ``1 / r**s``.  Which keys are hot is
    part of the workload's shape; the seed draws the sequence."""
    rng = rng_for(seed, "zipf")
    ranked = list(keys)
    rng_for(SHAPE_SEED, "zipf-ranks").shuffle(ranked)
    weights = (1.0 / r**s for r in range(1, len(ranked) + 1))
    cum = list(itertools.accumulate(weights))
    total = cum[-1]
    rand = rng.random
    return [ranked[bisect.bisect(cum, rand() * total)] for _ in range(length)]


def uniform_batches(keys: list, seed: int, size: int = BATCH):
    """Batches of ``size`` keys, uniform over ``keys``, without end."""
    rng = rng_for(seed, "batches")
    while True:
        yield [rng.choice(keys) for _ in range(size)]


@dataclass(frozen=True)
class Delta:
    """One ``apply_delta`` request: its mutations plus, for an
    ``add_member``, the class whose cone it invalidates."""

    mutations: tuple
    member_class: str | None = None
    member: str | None = None


def delta_mix(graph, seed: int, count: int) -> list[Delta]:
    """``count`` seeded deltas against ``graph`` (which is not
    modified): ~80% a new leaf class with 1-2 bases and one member,
    ~20% ``add_member`` of a vocabulary name the chosen class does not
    declare yet."""
    rng = rng_for(seed, "deltas")
    classes = list(graph.classes)
    declared = {c: set(graph.declared_members(c)) for c in classes}
    out: list[Delta] = []
    for index in range(count):
        if rng.random() < LEAF_SHARE:
            name = f"D{index}"
            member = rng.choice(VOCAB)
            mutations = [{"op": "add_class", "name": name, "members": [member]}]
            for base in rng.sample(classes, rng.randint(1, 2)):
                mutations.append({
                    "op": "add_edge", "base": base, "derived": name,
                    "virtual": rng.random() < VIRTUAL_P,
                })
            classes.append(name)
            declared[name] = {member}
            out.append(Delta(tuple(mutations)))
            continue
        while True:
            target = rng.choice(classes)
            free = [m for m in VOCAB if m not in declared[target]]
            if free:
                break
        member = rng.choice(free)
        declared[target].add(member)
        out.append(Delta(
            ({"op": "add_member", "class": target, "member": member},),
            member_class=target, member=member,
        ))
    return out


def replay(graph, deltas) -> None:
    """Apply ``deltas`` to a client-side ``graph`` in order, exactly as
    ``LookupService.apply_delta`` applies them to the tenant."""
    for delta in deltas:
        for mutation in delta.mutations:
            op = mutation["op"]
            if op == "add_class":
                graph.add_class(mutation["name"], mutation["members"])
            elif op == "add_member":
                graph.add_member(mutation["class"], mutation["member"])
            else:
                graph.add_edge(
                    mutation["base"], mutation["derived"],
                    virtual=mutation["virtual"],
                )


_CLASS_NAME = re.compile(r"\bL\d+_\d+\b")


def write_gui_corpus(seed: int, out_dir: Path) -> list[Path]:
    """Render ``gui_corpus(layers=42, width=48, files=16)`` into
    ``out_dir`` with its classes renamed by a seeded bijection onto
    ``W0000``..``W2015``; returns the header paths in ingest order."""
    from repro.workloads.corpus import CorpusFile, gui_corpus, write_corpus

    corpus = gui_corpus(seed=SHAPE_SEED, **CORPUS)
    names = sorted({m for f in corpus for m in _CLASS_NAME.findall(f.text)})
    order = list(range(len(names)))
    rng_for(seed, "names").shuffle(order)
    renamed = {old: f"W{new:04d}" for old, new in zip(names, order)}
    corpus = [
        CorpusFile(f.name, _CLASS_NAME.sub(lambda m: renamed[m.group(0)], f.text))
        for f in corpus
    ]
    return write_corpus(corpus, out_dir)


def encode(payload: dict) -> bytes:
    """One newline-JSON request line."""
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def lookup_line(rid: int, key: tuple) -> bytes:
    return encode({"id": rid, "op": "lookup", "tenant": TENANT,
                   "class": key[0], "member": key[1]})


def cyclic_lookup_lines(keys: list):
    """``line(i)``: the ``lookup`` of ``keys[i % len(keys)]`` with id
    ``i``, for any ``i``, so a closed loop never runs out of requests.
    Only the id is encoded per call."""
    head = b'{"id":0'
    tails = [lookup_line(0, key)[len(head):] for key in keys]
    count = len(tails)

    def line(rid: int) -> bytes:
        return b'{"id":%d' % rid + tails[rid % count]

    return line


def batch_line(rid: int, keys: list) -> bytes:
    return encode({"id": rid, "op": "lookup_many", "tenant": TENANT,
                   "queries": [{"class": c, "member": m} for c, m in keys]})


def delta_line(rid: int, delta: Delta) -> bytes:
    return encode({"id": rid, "op": "apply_delta", "tenant": TENANT,
                   "mutations": list(delta.mutations)})
