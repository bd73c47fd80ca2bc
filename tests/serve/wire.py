"""Raw-socket helpers for wire tests: a :class:`ServeFront` on port 0
driven by exact request and reply bytes."""

import asyncio
import contextlib
import socket

import repro.serve.server as server
from repro.serve.protocol import encode_line
from repro.serve.server import ServeFront

TIMEOUT = 10


class Wire:
    """One client connection that returns reply lines undecoded."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    async def call(self, request: dict) -> bytes:
        """Send one request line; return the raw reply line."""
        self.writer.write(encode_line(request))
        await self.writer.drain()
        return await self.readline()

    async def readline(self) -> bytes:
        """The next raw reply line."""
        return await asyncio.wait_for(self.reader.readline(), TIMEOUT)

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


async def connect(front: ServeFront, rcvbuf=None) -> Wire:
    """A new client connection to ``front``; ``rcvbuf`` shrinks the
    client socket's receive buffer, so that unread replies back up into
    the server's write buffer sooner."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    if rcvbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.setblocking(False)
    await asyncio.get_running_loop().sock_connect(sock, (front.host, front.port))
    return Wire(*await asyncio.open_connection(sock=sock, limit=1 << 20))


@contextlib.asynccontextmanager
async def running(service):
    """Serve ``service`` on an ephemeral port for the block and yield
    the front; every connection must be closed by the block's end."""
    front = ServeFront(service, port=0)
    await front.start()
    served = asyncio.ensure_future(front.serve())
    try:
        yield front
    finally:
        front.stop()
        await asyncio.wait_for(served, TIMEOUT)


@contextlib.asynccontextmanager
async def serving(service):
    """Serve ``service`` on an ephemeral port for the block and yield a
    connected :class:`Wire`."""
    async with running(service) as front:
        wire = await connect(front)
        try:
            yield wire
        finally:
            await wire.close()


def record_connections(monkeypatch, sndbuf=None) -> list:
    """Make the front build recording connections; return the list
    they append themselves to, in accept order.  Each counts the chunks
    and bytes it received and records, at every ``pause_writing``,
    whether its transport was still reading.  ``sndbuf`` shrinks the
    server socket's send buffer."""
    connections = []

    class Recorded(server._Connection):
        def __init__(self, front) -> None:
            super().__init__(front)
            self.chunks = 0
            self.received = 0
            self.reading_when_paused = []
            connections.append(self)

        def connection_made(self, transport) -> None:
            if sndbuf is not None:
                transport.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf
                )
            super().connection_made(transport)

        def pause_writing(self) -> None:
            super().pause_writing()
            self.reading_when_paused.append(self._transport.is_reading())

        def data_received(self, data: bytes) -> None:
            self.chunks += 1
            self.received += len(data)
            super().data_received(data)

    monkeypatch.setattr(server, "_Connection", Recorded)
    return connections


async def wait_until(predicate) -> None:
    """Yield to the event loop until ``predicate()`` holds; fail after
    :data:`TIMEOUT` seconds."""
    deadline = asyncio.get_running_loop().time() + TIMEOUT
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.001)
