"""Raw-socket helpers for wire tests: a :class:`ServeFront` on port 0
driven by exact request and reply bytes."""

import asyncio
import contextlib

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
        return await asyncio.wait_for(self.reader.readline(), TIMEOUT)


@contextlib.asynccontextmanager
async def serving(service):
    """Serve ``service`` on an ephemeral port for the block and yield a
    connected :class:`Wire`."""
    front = ServeFront(service, port=0)
    await front.start()
    served = asyncio.ensure_future(front.serve())
    reader, writer = await asyncio.open_connection(front.host, front.port)
    try:
        yield Wire(reader, writer)
    finally:
        writer.close()
        await writer.wait_closed()
        front.stop()
        await asyncio.wait_for(served, TIMEOUT)
