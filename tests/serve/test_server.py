"""The asyncio front over real TCP: wire-level behaviour of
:class:`repro.serve.server.ServeFront`, run in-process on port 0."""

import asyncio
import json

import repro.serve.server as server
from repro.serve.protocol import encode_line
from repro.serve.server import ServeFront
from repro.serve.service import LookupService

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
