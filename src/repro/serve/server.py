"""The asyncio newline-JSON front over :class:`~repro.serve.service
.LookupService`.

Concurrency model
-----------------

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

Removing a tenant cancels its writer task after the queue drains;
pending deltas enqueued before the removal still publish.

Replies
-------

A ``lookup`` / ``lookup_many`` reply is assembled from bytes: each
answer's wire form is tabulated on its result cell
(:func:`~repro.serve.protocol.result_json`), so a repeated query costs
a byte join around the request id, and a batch joins its fragments.
The memo rides on the cells, which copy-on-write publishes share
outside a delta's cone, so no publish invalidates anything.  Every
other op encodes its reply dict with
:func:`~repro.serve.protocol.encode_line`.

Malformed requests (a missing field, a query or mutation of the wrong
shape) are answered with a ``ValueError`` that names the op and the
field; the connection keeps serving.
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
    result_json,
)
from repro.serve.service import LookupService

__all__ = ["ServeFront"]

#: Refuse lines longer than this (sanity limit, matches asyncio default
#: stream limit reasoning: one hierarchy payload can be large).
_LINE_LIMIT = 16 * 1024 * 1024


@dataclass
class _Writer:
    """One tenant's delta queue and the task draining it."""

    queue: asyncio.Queue = field(default_factory=asyncio.Queue)
    task: Optional[asyncio.Task] = None


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
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=_LINE_LIMIT
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
        writer = self._writers.get(tenant)
        if writer is None:
            writer = _Writer()
            writer.task = asyncio.ensure_future(
                self._writer_loop(tenant, writer.queue)
            )
            self._writers[tenant] = writer
        return writer

    async def _writer_loop(
        self, tenant: str, queue: asyncio.Queue
    ) -> None:
        loop = asyncio.get_event_loop()
        while True:
            mutations, future = await queue.get()
            if future.cancelled():
                continue
            try:
                summary = await loop.run_in_executor(
                    None, self.service.apply_delta, tenant, mutations
                )
            except asyncio.CancelledError:
                raise
            except BaseException as exc:  # propagate to the requester
                future.set_exception(exc)
            else:
                future.set_result(summary)

    async def _submit_delta(self, tenant: str, mutations: list) -> dict:
        # Validate the tenant before enqueueing so unknown names fail
        # fast instead of spinning up a writer task.
        self.service.tenant(tenant)
        writer = self._writer_for(tenant)
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        writer.queue.put_nowait((mutations, future))
        return await future

    def _drop_writer(self, tenant: str) -> None:
        writer = self._writers.pop(tenant, None)
        if writer is not None and writer.task is not None:
            writer.task.cancel()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                except ValueError as exc:
                    # A line over the stream limit leaves the reader out
                    # of sync: answer once, then drop this connection.
                    writer.write(encode_line(error_response(None, exc)))
                    await writer.drain()
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                request_id = None
                try:
                    request = decode_line(line)
                    request_id = request.get("id")
                    reply = await self._reply(request_id, request)
                except Exception as exc:
                    reply = encode_line(error_response(request_id, exc))
                writer.write(reply)
                await writer.drain()
                if self._shutdown.is_set():
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _reply(self, request_id, request: dict) -> bytes:
        """The reply line for one decoded request."""
        op = request.get("op")
        if op == "lookup":
            result = self.service.lookup(
                _field(request, op, "tenant"),
                _field(request, op, "class"),
                _field(request, op, "member"),
            )
            return ok_line(request_id, result_json(result))
        if op == "lookup_many":
            results = self.service.lookup_many(
                _field(request, op, "tenant"),
                _queries(_field(request, op, "queries")),
            )
            return ok_line(
                request_id, b"[" + b", ".join(map(result_json, results)) + b"]"
            )
        result = await self._dispatch(op, request)
        return encode_line(ok_response(request_id, result))

    async def _dispatch(self, op, request: dict):
        """The ``result`` payload of every op except the lookups."""
        service = self.service
        if op == "ping":
            return "pong"
        if op == "apply_delta":
            return await self._submit_delta(
                _field(request, op, "tenant"),
                _field(request, op, "mutations"),
            )
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
        if op == "remove_tenant":
            name = _field(request, op, "tenant")
            service.remove_tenant(name)
            self._drop_writer(name)
            return {"tenant": name, "removed": True}
        if op == "stats":
            return service.stats(request.get("tenant"))
        if op == "shutdown":
            self.stop()
            return {"shutting_down": True}
        raise ValueError(f"unknown op {op!r}")


def _field(request: dict, op: str, name: str):
    """A required request field; a missing one is a ``ValueError``
    naming the op and the field."""
    try:
        return request[name]
    except KeyError:
        raise ValueError(f"{op} request has no {name!r} field") from None


def _queries(raw) -> list:
    """A ``lookup_many`` request's ``queries`` as ``(class, member)``
    pairs; anything but a list of ``{"class", "member"}`` objects is a
    ``ValueError`` naming the first offending query."""
    if type(raw) is not list:
        raise ValueError(
            "lookup_many field 'queries' must be a list of objects, "
            f"not {type(raw).__name__}"
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
