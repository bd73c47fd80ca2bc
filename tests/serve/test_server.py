"""The asyncio front over real TCP: wire-level behaviour of
:class:`repro.serve.server.ServeFront`, run in-process on port 0."""

import asyncio
import json

import repro.serve.server as server
from repro.hierarchy.serialize import hierarchy_to_dict
from repro.serve.protocol import (
    encode_line,
    ok_response,
    result_json,
    result_to_dict,
)
from repro.serve.server import ServeFront
from repro.serve.service import LookupService
from tests.serve.wire import serving

HIERARCHY = {
    "format": "repro-chg",
    "version": 1,
    "classes": [
        {"name": "Base", "members": [{"name": "run"}]},
        {
            "name": "Middle",
            "bases": [{"name": "Base"}],
            "members": [{"name": "run"}],
        },
        {"name": "Leaf", "bases": [{"name": "Middle", "virtual": True}]},
    ],
}

TIMEOUT = 10


async def _oversized_line_scenario() -> None:
    service = LookupService()
    service.add_tenant("t", HIERARCHY)
    front = ServeFront(service, port=0)
    await front.start()
    serving = asyncio.ensure_future(front.serve())
    try:
        reader, writer = await asyncio.open_connection(front.host, front.port)
        writer.write(encode_line({"id": 7, "op": "ping", "pad": "x" * 1024}))
        await writer.drain()
        # The front answers once and then drops the connection, so
        # everything it ever sends arrives before EOF.
        replies = await asyncio.wait_for(reader.read(), TIMEOUT)
        writer.close()
        await writer.wait_closed()
        lines = replies.splitlines()
        assert len(lines) == 1, replies
        reply = json.loads(lines[0])
        assert reply["ok"] is False
        assert reply["id"] is None
        assert reply["error"]["type"] == "ValueError"

        reader, writer = await asyncio.open_connection(front.host, front.port)
        writer.write(
            encode_line(
                {
                    "id": 1,
                    "op": "lookup",
                    "tenant": "t",
                    "class": "Leaf",
                    "member": "run",
                }
            )
        )
        await writer.drain()
        reply = json.loads(await asyncio.wait_for(reader.readline(), TIMEOUT))
        writer.close()
        await writer.wait_closed()
        assert reply["ok"] is True
        assert reply["id"] == 1
        assert reply["result"]["status"] == "unique"
        assert reply["result"]["declaring_class"] == "Middle"
    finally:
        front.stop()
        await asyncio.wait_for(serving, TIMEOUT)


def test_oversized_line_gets_one_error_and_front_keeps_serving(monkeypatch):
    monkeypatch.setattr(server, "_LINE_LIMIT", 256)
    asyncio.run(_oversized_line_scenario())


def lookup_request(request_id, class_name="Leaf", member="run"):
    return {
        "id": request_id,
        "op": "lookup",
        "tenant": "t",
        "class": class_name,
        "member": member,
    }


MALFORMED = [
    (
        {"id": 1, "op": "lookup", "tenant": "t", "class": "Leaf"},
        "lookup request has no 'member' field",
    ),
    (
        {"id": 2, "op": "lookup_many", "tenant": "t", "queries": [["B", "x"]]},
        "lookup_many field 'queries[0]' must be an object",
    ),
    (
        {"id": 3, "op": "lookup_many", "tenant": "t", "queries": "abc"},
        "lookup_many field 'queries' must be a list of objects, not str",
    ),
    (
        {"id": 4, "op": "apply_delta", "tenant": "t", "mutations": "abc"},
        "apply_delta field 'mutations' must be a list of objects, not str",
    ),
    (
        {
            "id": 5,
            "op": "apply_delta",
            "tenant": "t",
            "mutations": [{"op": "add_class", "name": "X"}, "abc"],
        },
        "apply_delta field 'mutations[1]' must be an object, not str",
    ),
    (
        {
            "id": 6,
            "op": "apply_delta",
            "tenant": "t",
            "mutations": [{"op": "add_edge", "base": "Leaf"}],
        },
        "apply_delta field 'mutations[0]' (add_edge) has no 'derived'",
    ),
    (
        {"id": 7, "op": "add_tenant"},
        "add_tenant request has no 'tenant' field",
    ),
]


def test_malformed_requests_get_errors_naming_the_op_and_field():
    service = LookupService()
    service.add_tenant("t", HIERARCHY)
    generation = service.tenant("t").snapshot.generation

    async def scenario():
        async with serving(service) as wire:
            expected = await wire.call(lookup_request(99))
            for request, message in MALFORMED:
                reply = json.loads(await wire.call(request))
                assert reply["id"] == request["id"]
                assert reply["ok"] is False, reply
                assert reply["error"]["type"] == "ValueError", reply
                assert reply["error"]["message"].startswith(message), reply
                assert await wire.call(lookup_request(99)) == expected

    asyncio.run(scenario())
    # A batch of the wrong shape is refused before it touches the graph.
    assert "X" not in service.tenant("t").graph.classes
    assert service.tenant("t").snapshot.generation == generation


def test_fragment_memo_across_a_publish():
    """A delta whose cone covers the first key re-encodes that key only:
    the second key's cell, shared by reference with the parent
    generation, keeps its encoded bytes object."""
    service = LookupService()
    service.add_tenant("t", HIERARCHY)
    first = ("Leaf", "run")
    second = ("Base", "run")

    async def both(wire):
        return [
            await wire.call(lookup_request(0, *first)),
            await wire.call(lookup_request(1, *second)),
        ]

    async def scenario():
        async with serving(service) as wire:
            before = await both(wire)
            old = service.tenant("t").snapshot
            old_fragment = old.lookup_json(*second)
            assert old_fragment == result_json(old.lookup(*second))
            applied = json.loads(
                await wire.call(
                    {
                        "id": "d",
                        "op": "apply_delta",
                        "tenant": "t",
                        "mutations": [
                            {"op": "add_member", "class": "Leaf", "member": "run"}
                        ],
                    }
                )
            )
            assert applied["ok"] is True, applied
            assert applied["result"]["cone_classes"] == 1
            after = await both(wire)
            new = service.tenant("t").snapshot
            assert new.generation > old.generation
            assert new.lookup_json(*second) is old_fragment
            return before, after

    before, after = asyncio.run(scenario())
    assert after[0] != before[0]
    fresh = LookupService()
    fresh.add_tenant("t", hierarchy_to_dict(service.tenant("t").graph))
    assert after[0] == encode_line(
        ok_response(0, result_to_dict(fresh.lookup("t", *first)))
    )
    assert json.loads(after[0])["result"]["declaring_class"] == "Leaf"
    assert after[1] == before[1]
