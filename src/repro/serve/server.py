"""The asyncio newline-JSON front over :class:`~repro.serve.service
.LookupService`.

Concurrency model
-----------------

*One protocol object per connection.*  The front is an
``asyncio.Protocol`` server (``loop.create_server``): each connection
appends what it receives to its own buffer and answers every complete
line inside ``data_received``, one ``transport.write`` per reply, with
no task, future or stream in between.  The newline scan resumes where
the previous chunk's scan stopped, so a long line is scanned once.

*Reads stay on the event loop.*  A ``lookup`` / ``lookup_many`` op
captures the tenant's published snapshot and answers directly — no
locks, no executor hop, because snapshots are immutable and their memo
writes are single-reference stores, atomic under the GIL.

*Writes go through one writer task per tenant.*  Each tenant owns an
``asyncio.Queue``; its writer task dequeues one delta at a time and
runs the graph mutation + publish in the default executor, so deltas to
one tenant are strictly serialized (the ``MemberLookupTable`` writer's
contract) while reads — and other tenants' writes — keep flowing.
``apply_delta`` requests resolve with the publish summary once their
delta lands.

*Removal is the writer's last queue item.*  A ``remove_tenant``
request closes the tenant's queue to new deltas and enqueues the
removal behind the deltas already queued: those publish and get their
replies first, then the tenant is removed and the removal replies.  A
delta that arrives after the removal request gets
:class:`~repro.serve.service.UnknownTenantError`.

*Per-connection order.*  Replies go out in request order.
``apply_delta`` and ``remove_tenant`` are the ops that wait: while one
is in flight its connection stops reading and holds its later lines, so
a request sent after a write sees what that write did
(read-your-writes).  Other connections keep being served meanwhile.

*Backpressure.*  When the transport's write buffer passes its
high-water mark (``pause_writing``), the connection stops answering and
stops reading until the buffer drains (``resume_writing``), so a
client that does not read its replies cannot make the server buffer
without bound.

*Line limit.*  A line longer than ``_LINE_LIMIT`` bytes gets one error
reply with ``"id": null`` and type ``ValueError``, and its connection
is closed: the rest of that stream cannot be framed reliably.

*Batch limit.*  A ``lookup_many`` request of more than
``_BATCH_LIMIT`` queries gets one ``ValueError`` reply naming the
limit, and its connection keeps serving.

At EOF an unterminated last line is still answered before the
connection closes, and once ``shutdown`` has been requested every
connection closes after its next reply.

Replies
-------

A ``lookup`` / ``lookup_many`` reply is assembled from bytes: the
service's bytes reads (:meth:`~repro.serve.service.LookupService
.lookup_json` / ``lookup_many_json``) return each answer's wire
fragment, which the snapshot's columnar layout memoises per cell, so a
repeated query costs a byte join around the request id
(:func:`~repro.serve.protocol.ok_line`), and a batch joins its
fragments.  No :class:`~repro.core.results.LookupResult` is kept for a
warm cell.  The memo rides on the cells, which copy-on-write publishes
share outside a delta's cone, so no publish invalidates anything.
Every other op encodes its reply dict with
:func:`~repro.serve.protocol.encode_line`.

Blank lines are skipped.  A line that is not a JSON object, and a
malformed request (a missing field, a query or mutation of the wrong
shape), is answered with an error reply — a ``ValueError`` naming the
op and the field for the latter; the connection keeps serving.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Optional

from repro.serve.protocol import (
    decode_line,
    encode_line,
    error_response,
    ok_line,
    ok_response,
)
from repro.serve.service import LookupService, UnknownTenantError

__all__ = ["ServeFront"]

#: Refuse lines longer than this many bytes (one ``add_tenant``
#: hierarchy payload can be large).  Read at check time.
_LINE_LIMIT = 16 * 1024 * 1024

#: Refuse ``lookup_many`` requests of more than this many queries.
_BATCH_LIMIT = 65536

#: The ops a tenant's writer task runs, in queue order.
_WRITES = ("apply_delta", "remove_tenant")

#: The queue item that removes the tenant, in place of a delta's
#: mutations; always a writer's last item.
_REMOVAL = object()


@dataclass
class _Writer:
    """One tenant's write queue and the task draining it.  ``closed``
    is set once the tenant's removal is queued: it is the last item."""

    queue: asyncio.Queue = field(default_factory=asyncio.Queue)
    task: Optional[asyncio.Task] = None
    closed: bool = False


class ServeFront:
    """Host a :class:`~repro.serve.service.LookupService` on a TCP
    newline-JSON endpoint.

    ``await front.start()`` binds the socket (``port=0`` picks an
    ephemeral port, exposed as :attr:`port`); ``await front.serve()``
    additionally prints the bound address and blocks until a
    ``shutdown`` op or :meth:`stop`.  Ops: ``add_tenant``,
    ``remove_tenant``, ``lookup``, ``lookup_many``, ``apply_delta``,
    ``stats``, ``ping``, ``shutdown``.
    """

    def __init__(
        self,
        service: Optional[LookupService] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service if service is not None else LookupService()
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: dict[str, _Writer] = {}
        self._shutdown = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and record the actual port."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve(self) -> None:
        """Start (if needed), announce the address, and run until
        shutdown."""
        if self._server is None:
            await self.start()
        print(f"serving on {self.host}:{self.port}", flush=True)
        await self._shutdown.wait()
        await self._shutdown_writers()
        self._server.close()
        await self._server.wait_closed()

    def stop(self) -> None:
        """Request shutdown (idempotent)."""
        self._shutdown.set()

    async def _shutdown_writers(self) -> None:
        for writer in self._writers.values():
            if writer.task is not None:
                writer.task.cancel()
        for writer in self._writers.values():
            if writer.task is not None:
                try:
                    await writer.task
                except asyncio.CancelledError:
                    pass
        self._writers.clear()

    # ------------------------------------------------------------------
    # Per-tenant writer tasks
    # ------------------------------------------------------------------

    def _writer_for(self, tenant: str) -> _Writer:
        """The tenant's open writer, started on first use.  An unknown
        tenant, or one whose removal is queued, raises
        :class:`~repro.serve.service.UnknownTenantError`."""
        writer = self._writers.get(tenant)
        if writer is None:
            # Validate the tenant before starting a writer task.
            self.service.tenant(tenant)
            writer = _Writer()
            writer.task = asyncio.ensure_future(
                self._writer_loop(tenant, writer)
            )
            self._writers[tenant] = writer
        elif writer.closed:
            raise UnknownTenantError(tenant)
        return writer

    async def _writer_loop(self, tenant: str, writer: _Writer) -> None:
        """Run the tenant's queued writes one at a time: each delta's
        publish in the executor, then the removal, which ends the
        loop."""
        loop = asyncio.get_running_loop()
        while True:
            mutations, future = await writer.queue.get()
            removal = mutations is _REMOVAL
            try:
                if removal:
                    self._writers.pop(tenant, None)
                    self.service.remove_tenant(tenant)
                    result = {"tenant": tenant, "removed": True}
                else:
                    result = await loop.run_in_executor(
                        None, self.service.apply_delta, tenant, mutations
                    )
            except asyncio.CancelledError:
                raise
            except BaseException as exc:  # propagate to the requester
                if not future.cancelled():
                    future.set_exception(exc)
            else:
                if not future.cancelled():
                    future.set_result(result)
            if removal:
                return

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def _reply(self, request_id, request: dict) -> bytes:
        """The reply line for one decoded request other than a write
        (``apply_delta``, ``remove_tenant``)."""
        op = request.get("op")
        if op == "lookup":
            fragment = self.service.lookup_json(
                _field(request, op, "tenant"),
                _field(request, op, "class"),
                _field(request, op, "member"),
            )
            return ok_line(request_id, fragment)
        if op == "lookup_many":
            fragments = self.service.lookup_many_json(
                _field(request, op, "tenant"),
                _queries(_field(request, op, "queries")),
            )
            return ok_line(request_id, b"[" + b", ".join(fragments) + b"]")
        return encode_line(ok_response(request_id, self._dispatch(op, request)))

    async def _write(self, request_id, request: dict) -> bytes:
        """The reply line for an ``apply_delta`` or ``remove_tenant``
        request, once the tenant's writer task has run it."""
        op = request["op"]
        tenant = _field(request, op, "tenant")
        mutations = (
            _field(request, op, "mutations")
            if op == "apply_delta"
            else _REMOVAL
        )
        writer = self._writer_for(tenant)
        future = asyncio.get_running_loop().create_future()
        writer.queue.put_nowait((mutations, future))
        if mutations is _REMOVAL:
            writer.closed = True
        return encode_line(ok_response(request_id, await future))

    def _dispatch(self, op, request: dict):
        """The ``result`` payload of every op except the lookups and
        the writes."""
        service = self.service
        if op == "ping":
            return "pong"
        if op == "add_tenant":
            tenant = service.add_tenant(
                _field(request, op, "tenant"),
                request.get("hierarchy"),
                semantics=request.get("semantics"),
            )
            return {
                "tenant": tenant.name,
                "generation": tenant.snapshot.generation,
                "classes": tenant.snapshot.ch.n_classes,
                "semantics": tenant.table.semantics.name,
            }
        if op == "stats":
            return service.stats(request.get("tenant"))
        if op == "shutdown":
            self.stop()
            return {"shutting_down": True}
        raise ValueError(f"unknown op {op!r}")


class _Connection(asyncio.Protocol):
    """One client connection: frames request lines out of the byte
    stream and answers them in order.

    Lines are answered inside :meth:`data_received`.  The connection
    stops answering (and stops reading) while a write (``apply_delta``
    or ``remove_tenant``) is in flight, while the transport's write
    buffer is over its high-water mark, and once it is closing;
    :meth:`_answer_lines` picks up where it stopped when the hold
    ends."""

    def __init__(self, front: ServeFront) -> None:
        self._front = front
        self._shutdown = front._shutdown
        self._transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        #: Where the next newline scan of ``_buffer`` starts: every byte
        #: before it has been scanned once already.
        self._scanned = 0
        self._write: Optional[asyncio.Task] = None
        self._write_paused = False
        self._eof = False

    # -- transport callbacks ------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._answer_lines()

    def eof_received(self) -> bool:
        self._eof = True
        self._answer_lines()
        # Keep the transport open: held lines are still to be answered,
        # and the connection closes itself once they are.
        return True

    def connection_lost(self, exc) -> None:
        self._buffer.clear()

    def pause_writing(self) -> None:
        self._write_paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._resume()

    # -- framing ------------------------------------------------------

    def _held(self) -> bool:
        return (
            self._write is not None
            or self._write_paused
            or self._transport.is_closing()
        )

    def _resume(self) -> None:
        if not self._held():
            self._transport.resume_reading()
            self._answer_lines()

    def _answer_lines(self) -> None:
        """Answer every complete line in the buffer until a hold starts;
        at EOF, answer the unterminated tail and close."""
        buffer = self._buffer
        scan = self._scanned
        start = 0
        while not self._held():
            end = buffer.find(b"\n", scan)
            if end < 0:
                end = len(buffer)
                if not self._eof:
                    scan = end
                    break
                if start >= end:
                    self._transport.close()
                    break
            if end - start > _LINE_LIMIT:
                self._refuse_oversized()
                break
            line = buffer[start:end]
            start = scan = end + 1
            self._answer(line)
        del buffer[:start]
        self._scanned = scan - start
        if len(buffer) > _LINE_LIMIT and not self._held():
            self._refuse_oversized()

    def _refuse_oversized(self) -> None:
        # The rest of the stream cannot be framed reliably: answer once,
        # then drop this connection.
        error = ValueError(f"request line longer than {_LINE_LIMIT} bytes")
        self._transport.write(encode_line(error_response(None, error)))
        self._transport.close()

    # -- answering ----------------------------------------------------

    def _answer(self, line: bytearray) -> None:
        line = line.strip()
        if not line:
            return
        request_id = None
        try:
            request = decode_line(line)
            request_id = request.get("id")
            if request.get("op") in _WRITES:
                # The ops that await: hold this connection's later lines
                # until the reply is written.
                self._transport.pause_reading()
                self._write = asyncio.ensure_future(
                    self._await_write(request_id, request)
                )
                return
            reply = self._front._reply(request_id, request)
        except Exception as exc:
            reply = encode_line(error_response(request_id, exc))
        self._send(reply)

    async def _await_write(self, request_id, request: dict) -> None:
        try:
            reply = await self._front._write(request_id, request)
        except Exception as exc:
            reply = encode_line(error_response(request_id, exc))
        self._write = None
        # The client may have gone while the write was in flight.
        if not self._transport.is_closing():
            self._send(reply)
            self._resume()

    def _send(self, reply: bytes) -> None:
        self._transport.write(reply)
        if self._shutdown.is_set():
            self._transport.close()


def _field(request: dict, op: str, name: str):
    """A required request field; a missing one is a ``ValueError``
    naming the op and the field."""
    try:
        return request[name]
    except KeyError:
        raise ValueError(f"{op} request has no {name!r} field") from None


def _queries(raw) -> list:
    """A ``lookup_many`` request's ``queries`` as ``(class, member)``
    pairs; anything but a list of at most :data:`_BATCH_LIMIT`
    ``{"class", "member"}`` objects is a ``ValueError`` naming the
    limit or the first offending query."""
    if type(raw) is not list:
        raise ValueError(
            "lookup_many field 'queries' must be a list of objects, "
            f"not {type(raw).__name__}"
        )
    if len(raw) > _BATCH_LIMIT:
        raise ValueError(
            f"lookup_many field 'queries' holds {len(raw)} queries, "
            f"more than the limit of {_BATCH_LIMIT}"
        )
    try:
        return [(q["class"], q["member"]) for q in raw]
    except (KeyError, TypeError):
        index, query = next(
            (i, q)
            for i, q in enumerate(raw)
            if type(q) is not dict or "class" not in q or "member" not in q
        )
    raise ValueError(
        f"lookup_many field 'queries[{index}]' must be an object with "
        f"'class' and 'member', not {query!r}"
    )
