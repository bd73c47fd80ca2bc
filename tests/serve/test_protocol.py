"""Byte identity of the tabulated wire form.

A ``lookup`` reply is ``ok_line(id, fragment)`` around the cell's
memoised wire fragment and a ``lookup_many`` reply joins the cells'
fragments; both must equal the
dict path ``encode_line(ok_response(id, result_to_dict(...)))`` byte for
byte, for every cell of the paper figures and of a seeded random
family under every dispatch rule."""

import asyncio
import copy
import pickle

from repro.core.semantics import SEMANTICS_NAMES, SemanticsRejection
from repro.hierarchy.graph import ClassHierarchyGraph
from repro.serve.protocol import (
    encode_line,
    ok_line,
    ok_response,
    result_json,
    result_to_dict,
)
from repro.serve.service import LookupService
from repro.workloads.generators import random_hierarchy
from repro.workloads.paper_figures import ALL_FIGURES, iostream_like
from tests.serve.wire import serving
from tests.support import all_queries

#: Request ids of every JSON kind a client may send.
IDS = (0, 7, -12, 2**70, 1.5, -0.25, "r-1", "ключ-Ω", "", None, True)

#: A member no hierarchy declares: its point answer is a not-found
#: fragment that no layout memoises.
ABSENT = "no_such_member"


def non_ascii() -> ClassHierarchyGraph:
    graph = ClassHierarchyGraph()
    graph.add_class("Größe", ["maß"])
    graph.add_class("Ω", ["maß"])
    graph.add_class("Kind", [])
    graph.add_edge("Größe", "Kind")
    graph.add_edge("Ω", "Kind", virtual=True)
    return graph


GRAPHS = {
    **ALL_FIGURES,
    "iostream_like": iostream_like,
    "random": lambda: random_hierarchy(24, seed=18),
    "non_ascii": non_ascii,
}

#: Rules with catalogued static rejections (an unlinearisable class,
#: an Eiffel name clash); every other rule hosts every graph.
REJECTING = ("c3", "eiffel")


def hosted():
    """A service hosting every graph under every rule, with each
    tenant's query keys; a graph a rule rejects is skipped."""
    service = LookupService()
    keys = {}
    for graph_name, build in GRAPHS.items():
        for rule in SEMANTICS_NAMES:
            tenant = f"{graph_name}/{rule}"
            graph = build()
            try:
                service.add_tenant(tenant, graph, semantics=rule)
            except SemanticsRejection:
                assert rule in REJECTING, tenant
                continue
            queries = list(all_queries(graph))
            keys[tenant] = queries + [(queries[0][0], ABSENT)]
    return service, keys


def dict_line(request_id, result) -> bytes:
    return encode_line(ok_response(request_id, result_to_dict(result)))


def test_every_rule_hosts_cells():
    _, keys = hosted()
    for rule in SEMANTICS_NAMES:
        hosted_here = [t for t in keys if t.endswith(f"/{rule}")]
        expected = 1 if rule in REJECTING else len(GRAPHS)
        assert len(hosted_here) >= expected, rule


def test_point_reply_bytes_equal_the_dict_path():
    service, keys = hosted()
    for tenant, queries in keys.items():
        for class_name, member in queries:
            result = service.lookup(tenant, class_name, member)
            cold = service.lookup_json(tenant, class_name, member)
            assert cold == result_json(result)
            for request_id in IDS:
                assert ok_line(request_id, cold) == dict_line(
                    request_id, result
                ), (tenant, class_name, member, request_id)
            again = service.lookup_json(tenant, class_name, member)
            if member == ABSENT:
                assert again == cold
            else:
                assert again is cold


def test_batch_reply_bytes_equal_the_dict_path():
    service, keys = hosted()

    async def scenario():
        async with serving(service) as wire:
            for index, (tenant, queries) in enumerate(keys.items()):
                request_id = IDS[index % len(IDS)]
                reply = await wire.call(
                    {
                        "id": request_id,
                        "op": "lookup_many",
                        "tenant": tenant,
                        "queries": [
                            {"class": c, "member": m} for c, m in queries
                        ],
                    }
                )
                results = service.lookup_many(tenant, queries)
                expected = encode_line(
                    ok_response(
                        request_id, [result_to_dict(r) for r in results]
                    )
                )
                assert reply == expected, tenant
                class_name, member = queries[-2]
                reply = await wire.call(
                    {
                        "id": request_id,
                        "op": "lookup",
                        "tenant": tenant,
                        "class": class_name,
                        "member": member,
                    }
                )
                result = service.lookup(tenant, class_name, member)
                assert reply == dict_line(request_id, result), tenant

    asyncio.run(scenario())


def test_empty_batch_reply():
    service = LookupService()
    service.add_tenant("t", ALL_FIGURES["figure1"]())

    async def scenario():
        async with serving(service) as wire:
            request = {"id": 3, "op": "lookup_many", "tenant": "t", "queries": []}
            assert await wire.call(request) == encode_line(ok_response(3, []))

    asyncio.run(scenario())


def test_warm_memo_is_invisible_to_value_semantics():
    """Equality, hash, repr, copies and pickling of a result read from
    a warm cell (its fragment memoised) match those of an equal result
    from a cell that never was."""
    service, keys = hosted()
    twin, _ = hosted()
    tenant = "figure9/cpp-dominance"
    for class_name, member in keys[tenant]:
        service.lookup_json(tenant, class_name, member)
        warm = service.lookup(tenant, class_name, member)
        cold = twin.lookup(tenant, class_name, member)
        result_json(warm)
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold) and str(warm) == str(cold)
        assert pickle.dumps(warm) == pickle.dumps(cold)
        clone = pickle.loads(pickle.dumps(warm))
        assert clone == cold
        assert pickle.dumps(clone) == pickle.dumps(cold)
        assert pickle.dumps(copy.copy(warm)) == pickle.dumps(cold)
