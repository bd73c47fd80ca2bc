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
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Optional

from repro.serve.protocol import (
    decode_line,
    encode_line,
    error_response,
    ok_response,
    result_to_dict,
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
                    result = await self._dispatch(request)
                    response = ok_response(request_id, result)
                except Exception as exc:
                    response = error_response(request_id, exc)
                writer.write(encode_line(response))
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

    async def _dispatch(self, request: dict):
        op = request.get("op")
        service = self.service
        if op == "ping":
            return "pong"
        if op == "lookup":
            result = service.lookup(
                request["tenant"], request["class"], request["member"]
            )
            return result_to_dict(result)
        if op == "lookup_many":
            queries = [
                (q["class"], q["member"]) for q in request["queries"]
            ]
            results = service.lookup_many(request["tenant"], queries)
            return [result_to_dict(r) for r in results]
        if op == "apply_delta":
            return await self._submit_delta(
                request["tenant"], request["mutations"]
            )
        if op == "add_tenant":
            tenant = service.add_tenant(
                request["tenant"],
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
            name = request["tenant"]
            service.remove_tenant(name)
            self._drop_writer(name)
            return {"tenant": name, "removed": True}
        if op == "stats":
            return service.stats(request.get("tenant"))
        if op == "shutdown":
            self.stop()
            return {"shutting_down": True}
        raise ValueError(f"unknown op {op!r}")
