"""Faults, framing, order and backpressure at the wire, over real
sockets: malformed lines, requests split across or packed into socket
chunks, ``\\r\\n`` endings, an unterminated last line, clients that
vanish mid-conversation, lines held behind an ``apply_delta``, a
``remove_tenant`` queued behind deltas, an over-limit ``lookup_many``,
and a client that does not read its replies.

Every reply is compared byte for byte with the dict-path encoding of an
in-process :class:`LookupService` built from the same hierarchy."""

import asyncio
import json
import threading

import repro.serve.server as server
from repro.hierarchy.serialize import hierarchy_to_dict
from repro.serve.protocol import encode_line, ok_response, result_to_dict
from repro.serve.service import LookupService
from tests.serve.wire import (
    TIMEOUT,
    connect,
    record_connections,
    running,
    wait_until,
)

#: ``Größe`` spells its name in multi-byte UTF-8.
HIERARCHY = {
    "format": "repro-chg",
    "version": 1,
    "classes": [
        {"name": "Base", "members": [{"name": "run"}, {"name": "stop"}]},
        {
            "name": "Middle",
            "bases": [{"name": "Base"}],
            "members": [{"name": "run"}],
        },
        {"name": "Größe", "bases": [{"name": "Middle", "virtual": True}]},
        {"name": "X", "bases": [{"name": "Base"}]},
    ],
}

KEYS = [
    (class_name, member)
    for class_name in ("Base", "Middle", "Größe", "X")
    for member in ("run", "stop", "fresh")
]


def hosting(hierarchy=HIERARCHY) -> LookupService:
    service = LookupService()
    service.add_tenant("t", hierarchy)
    return service


def lookup_request(request_id, class_name, member) -> dict:
    return {
        "id": request_id,
        "op": "lookup",
        "tenant": "t",
        "class": class_name,
        "member": member,
    }


def lookup_reply(reference, request_id, class_name, member) -> bytes:
    result = reference.lookup("t", class_name, member)
    return encode_line(ok_response(request_id, result_to_dict(result)))


def many_request(request_id, keys) -> dict:
    return {
        "id": request_id,
        "op": "lookup_many",
        "tenant": "t",
        "queries": [{"class": c, "member": m} for c, m in keys],
    }


def many_reply(reference, request_id, keys) -> bytes:
    results = reference.lookup_many("t", keys)
    return encode_line(
        ok_response(request_id, [result_to_dict(r) for r in results])
    )


def delta_request(request_id, class_name, member) -> dict:
    return {
        "id": request_id,
        "op": "apply_delta",
        "tenant": "t",
        "mutations": [
            {"op": "add_member", "class": class_name, "member": member}
        ],
    }


PONG = encode_line(ok_response("after", "pong"))

#: Lines no request can be read from, each answered with one error of
#: the named type.
BAD_LINES = [
    (b"garbage \x00\x01 ]]} not json", "JSONDecodeError"),
    (b"[1, 2, 3]", "ValueError"),
    (b'"just a string"', "ValueError"),
    (b"\xff\xfe\xfa{}", "UnicodeDecodeError"),
    (b'{"id": 5, "op": "ping"', "JSONDecodeError"),
    (b'{"id": 6, "op": "lookup", "tenant": "t", "class": "Gr\xc3', "UnicodeDecodeError"),
]


def test_malformed_lines_get_one_error_each_and_the_connection_keeps_serving():
    reference = hosting()
    expected = lookup_reply(reference, 1, "Größe", "run")

    async def scenario():
        async with running(hosting()) as front:
            wire = await connect(front)
            for line, error in BAD_LINES:
                wire.writer.write(line + b"\n")
                reply = json.loads(await wire.readline())
                assert reply["ok"] is False, (line, reply)
                assert reply["id"] is None, (line, reply)
                assert reply["error"]["type"] == error, (line, reply)
                # The very next line answers the next request: one error
                # line per bad line, and the connection still serves.
                assert await wire.call({"id": "after", "op": "ping"}) == PONG
                assert await wire.call(
                    lookup_request(1, "Größe", "run")
                ) == expected
            await wire.close()

    asyncio.run(scenario())


def test_request_dribbled_a_byte_per_write_gets_the_bytes_of_a_whole_one(
    monkeypatch,
):
    connections = record_connections(monkeypatch)
    request = encode_line(lookup_request("dribble", "Größe", "run"))
    # Every byte travels alone, so the two-byte "ö" and "ß" are split.
    assert "Größe".encode("utf-8") in request

    async def scenario():
        async with running(hosting()) as front:
            wire = await connect(front)
            await wait_until(lambda: connections)
            (connection,) = connections
            for sent in range(1, len(request) + 1):
                wire.writer.write(request[sent - 1 : sent])
                await wait_until(lambda: connection.received == sent)
            dribbled = await wire.readline()
            assert connection.chunks == len(request)
            wire.writer.write(request)
            whole = await wire.readline()
            await wire.close()
        return dribbled, whole

    dribbled, whole = asyncio.run(scenario())
    assert dribbled == whole
    assert whole == lookup_reply(hosting(), "dribble", "Größe", "run")


def test_several_requests_in_one_write_are_all_answered_in_order():
    reference = hosting()
    requests = [lookup_request(i, *key) for i, key in enumerate(KEYS)]
    requests.append(many_request("many", KEYS))
    expected = [lookup_reply(reference, i, *key) for i, key in enumerate(KEYS)]
    expected.append(many_reply(reference, "many", KEYS))
    # Blank and whitespace-only lines get no reply.
    burst = b"\n   \n".join(map(encode_line, requests)) + b"\n\t\n"
    burst += encode_line({"id": "after", "op": "ping"})

    async def scenario():
        async with running(hosting()) as front:
            wire = await connect(front)
            wire.writer.write(burst)
            got = [await wire.readline() for _ in range(len(expected) + 1)]
            await wire.close()
        return got

    assert asyncio.run(scenario()) == expected + [PONG]


def test_crlf_line_endings_are_answered_like_lf():
    reference = hosting()
    requests = [lookup_request(i, *key) for i, key in enumerate(KEYS)]
    expected = [lookup_reply(reference, i, *key) for i, key in enumerate(KEYS)]
    burst = b"".join(encode_line(r)[:-1] + b"\r\n" for r in requests)

    async def scenario():
        async with running(hosting()) as front:
            wire = await connect(front)
            wire.writer.write(burst)
            got = [await wire.readline() for _ in expected]
            await wire.close()
        return got

    assert asyncio.run(scenario()) == expected


def test_unterminated_last_line_is_answered_then_the_connection_closes():
    expected = lookup_reply(hosting(), 9, "X", "stop")

    async def scenario():
        async with running(hosting()) as front:
            wire = await connect(front)
            wire.writer.write(encode_line(lookup_request(9, "X", "stop"))[:-1])
            wire.writer.write_eof()
            # read() returns once the server has closed its side.
            everything = await asyncio.wait_for(wire.reader.read(), TIMEOUT)
            await wire.close()
        return everything

    assert asyncio.run(scenario()) == expected


def test_disconnect_with_lookup_many_replies_pending_leaves_the_server_up(
    monkeypatch,
):
    connections = record_connections(monkeypatch, sndbuf=4096)
    batch = [KEYS[i % len(KEYS)] for i in range(256)]
    reference = hosting()

    async def scenario():
        async with running(hosting()) as front:
            gone = await connect(front, rcvbuf=4096)
            gone.writer.write(
                b"".join(encode_line(many_request(i, batch)) for i in range(32))
            )
            await wait_until(lambda: connections)
            (connection,) = connections
            await wait_until(
                lambda: connection._transport.get_write_buffer_size() > 0
            )
            gone.writer.transport.abort()
            await wait_until(connection._transport.is_closing)

            wire = await connect(front)
            for i, key in enumerate(KEYS):
                assert await wire.call(lookup_request(i, *key)) == (
                    lookup_reply(reference, i, *key)
                )
            assert await wire.call(many_request("m", batch)) == many_reply(
                reference, "m", batch
            )
            await wire.close()

    asyncio.run(scenario())


def test_disconnect_with_apply_delta_in_flight_still_publishes(monkeypatch):
    connections = record_connections(monkeypatch)
    service = hosting()
    generation = service.tenant("t").snapshot.generation
    # The delta waits at the gate until its client has gone.
    gate = threading.Event()
    apply_delta = service.apply_delta

    def gated(*args):
        assert gate.wait(TIMEOUT)
        return apply_delta(*args)

    monkeypatch.setattr(service, "apply_delta", gated)

    async def scenario():
        async with running(service) as front:
            gone = await connect(front)
            gone.writer.write(
                encode_line(delta_request("gone", "X", "fresh"))
                + encode_line(lookup_request("held", "X", "fresh"))
            )
            await wait_until(lambda: connections)
            (connection,) = connections
            await wait_until(lambda: connection._write is not None)
            gone.writer.transport.abort()
            gate.set()

            wire = await connect(front)
            # One writer per tenant serves deltas in order: once this
            # one has published, the vanished client's delta has too.
            applied = json.loads(
                await wire.call(delta_request("d", "Middle", "extra"))
            )
            assert applied["ok"] is True, applied
            assert applied["result"]["generation"] > generation
            # The vanished client's connection is closed by now.
            assert connection._transport.is_closing()
            replies = [
                await wire.call(lookup_request(i, *key))
                for i, key in enumerate(KEYS)
            ]
            await wire.close()
        return applied, replies

    applied, replies = asyncio.run(scenario())
    tenant = service.tenant("t")
    assert tenant.snapshot.generation == applied["result"]["generation"]
    reference = hosting(hierarchy_to_dict(tenant.graph))
    assert replies == [
        lookup_reply(reference, i, *key) for i, key in enumerate(KEYS)
    ]
    fresh = json.loads(replies[KEYS.index(("X", "fresh"))])["result"]
    assert fresh["declaring_class"] == "X"
    extra = reference.lookup("t", "Größe", "extra")
    assert extra.declaring_class == "Middle"


def test_lines_behind_an_apply_delta_see_its_publish():
    """One write carries a lookup, a delta that adds the looked-up
    member, the same lookup again, a batch and a ping: the replies come
    back in request order, and only the lookups after the delta see the
    new member."""
    service = hosting()
    before = hosting()
    fresh = ("X", "fresh")
    batch = [fresh, ("Base", "run"), ("Größe", "run")]
    burst = b"".join(
        map(
            encode_line,
            [
                lookup_request(1, *fresh),
                delta_request(2, *fresh),
                lookup_request(3, *fresh),
                many_request(4, batch),
                {"id": 5, "op": "ping"},
            ],
        )
    )

    async def scenario():
        async with running(service) as front:
            wire = await connect(front)
            wire.writer.write(burst)
            got = [await wire.readline() for _ in range(5)]
            await wire.close()
        return got

    replies = asyncio.run(scenario())
    assert [json.loads(r)["id"] for r in replies] == [1, 2, 3, 4, 5]
    after = hosting(hierarchy_to_dict(service.tenant("t").graph))
    assert replies[0] == lookup_reply(before, 1, *fresh)
    assert json.loads(replies[0])["result"]["status"] == "not-found"
    applied = json.loads(replies[1])
    assert applied["ok"] is True, applied
    assert applied["result"]["generation"] == service.tenant("t").snapshot.generation
    assert replies[2] == lookup_reply(after, 3, *fresh)
    assert json.loads(replies[2])["result"]["declaring_class"] == "X"
    assert replies[3] == many_reply(after, 4, batch)
    assert replies[4] == encode_line(ok_response(5, "pong"))


def test_a_client_that_does_not_read_pauses_its_connection(monkeypatch):
    """Pipelined 256-query batches from a client that reads nothing fill
    the server's write buffer past its high-water mark: the connection
    stops reading until the client catches up, then every reply arrives
    in order, byte for byte."""
    connections = record_connections(monkeypatch, sndbuf=4096)
    batch = [KEYS[i % len(KEYS)] for i in range(256)]
    requests = 64
    reference = hosting()

    async def scenario():
        async with running(hosting()) as front:
            wire = await connect(front, rcvbuf=4096)
            wire.writer.write(
                b"".join(
                    encode_line(many_request(i, batch)) for i in range(requests)
                )
            )
            await wait_until(lambda: connections)
            (connection,) = connections
            await wait_until(lambda: connection._write_paused)
            assert connection.reading_when_paused == [False]
            assert not connection._transport.is_reading()
            received = connection.received
            replies = [await wire.readline() for _ in range(requests)]
            assert len(connection.reading_when_paused) >= 1
            assert not any(connection.reading_when_paused)
            # Reading resumed: the rest of the burst arrived, and the
            # connection answers a new request.
            assert connection.received > received
            assert await wire.call({"id": "after", "op": "ping"}) == (
                encode_line(ok_response("after", "pong"))
            )
            assert connection._transport.is_reading()
            await wire.close()
        return replies

    replies = asyncio.run(scenario())
    assert replies == [many_reply(reference, i, batch) for i in range(requests)]


def test_remove_tenant_replies_after_the_deltas_queued_before_it(monkeypatch):
    """One gated ``apply_delta`` in flight, one queued from a second
    connection, then ``remove_tenant`` from a third: both deltas publish
    and reply before the removal runs and replies, and a delta sent
    after the removal request is refused at once."""
    service = hosting()
    events = []
    sent = []
    started = threading.Event()
    gate = threading.Event()
    apply_delta = service.apply_delta
    remove_tenant = service.remove_tenant

    def gated(tenant, mutations):
        started.set()
        assert gate.wait(TIMEOUT)
        summary = apply_delta(tenant, mutations)
        events.append(("published", mutations[0]["class"]))
        return summary

    def removing(tenant):
        events.append(("removed", tenant))
        remove_tenant(tenant)

    def send(connection, reply):
        sent.append(json.loads(reply)["id"])
        send_reply(connection, reply)

    send_reply = server._Connection._send
    monkeypatch.setattr(service, "apply_delta", gated)
    monkeypatch.setattr(service, "remove_tenant", removing)
    monkeypatch.setattr(server._Connection, "_send", send)

    async def scenario():
        async with running(service) as front:
            first, second, third, late = [await connect(front) for _ in range(4)]
            first.writer.write(encode_line(delta_request("a", "X", "fresh")))
            await wait_until(started.is_set)
            second.writer.write(
                encode_line(delta_request("b", "Middle", "extra"))
            )
            await wait_until(lambda: front._writers["t"].queue.qsize() == 1)
            third.writer.write(
                encode_line({"id": "r", "op": "remove_tenant", "tenant": "t"})
                + encode_line({"id": "after", "op": "ping"})
            )
            await wait_until(lambda: front._writers["t"].closed)
            refused = json.loads(
                await late.call(delta_request("late", "Base", "late"))
            )
            assert events == []
            gate.set()
            replies = [
                json.loads(await wire.readline())
                for wire in (first, second, third, third)
            ]
            for wire in (first, second, third, late):
                await wire.close()
        return refused, replies

    refused, replies = asyncio.run(asyncio.wait_for(scenario(), 3 * TIMEOUT))
    assert refused["ok"] is False
    assert refused["error"]["type"] == "UnknownTenantError"
    assert [reply["id"] for reply in replies] == ["a", "b", "r", "after"]
    assert all(reply["ok"] for reply in replies), replies
    assert replies[0]["result"]["generation"] < replies[1]["result"]["generation"]
    assert replies[2]["result"] == {"tenant": "t", "removed": True}
    assert events == [("published", "X"), ("published", "Middle"), ("removed", "t")]
    assert sent == ["late", "a", "b", "r", "after"]
    assert service.tenant_names == ()


def test_over_limit_lookup_many_gets_one_error_and_the_connection_keeps_serving():
    limit = server._BATCH_LIMIT
    reference = hosting()
    batch = [KEYS[i % len(KEYS)] for i in range(256)]

    async def scenario():
        async with running(hosting()) as front:
            wire = await connect(front)
            over = json.loads(
                await wire.call(many_request("over", [KEYS[0]] * (limit + 1)))
            )
            after = await wire.call(many_request("m", batch))
            pong = await wire.call({"id": "after", "op": "ping"})
            await wire.close()
        return over, after, pong

    over, after, pong = asyncio.run(scenario())
    assert over["id"] == "over"
    assert over["ok"] is False
    assert over["error"]["type"] == "ValueError"
    assert str(limit) in over["error"]["message"]
    assert after == many_reply(reference, "m", batch)
    assert pong == PONG
