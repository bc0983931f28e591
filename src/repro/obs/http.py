"""A minimal Prometheus-text HTTP endpoint over ``asyncio.start_server``.

Enough HTTP to satisfy a Prometheus scraper or ``curl`` — ``GET
/metrics`` returns the registry rendered in text exposition format
(version 0.0.4); anything else is a 404, and a request or header line
too long to read is a 400.  Deliberately not a web framework: no
routing table, no keep-alive, one response per connection, zero
dependencies.

Bind with port 0 to get an ephemeral port (tests do); the bound port is
available as :attr:`MetricsHttpServer.port` after :meth:`start`.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.obs.registry import MetricsRegistry

__all__ = ["MetricsHttpServer"]

_RESPONSE_TEMPLATE = (
    "HTTP/1.1 {status}\r\n"
    "Content-Type: {content_type}\r\n"
    "Content-Length: {length}\r\n"
    "Connection: close\r\n"
    "\r\n"
)


class MetricsHttpServer:
    """Serve one registry's metrics at ``GET /metrics``."""

    def __init__(
        self,
        registry: MetricsRegistry,
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        self.registry = registry
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        # Resolve port 0 to the ephemeral port the kernel picked.
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        content_type = "text/plain; charset=utf-8"
        try:
            try:
                request_line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                # Drain headers; nothing in them matters for a scrape.
                while True:
                    header = await asyncio.wait_for(reader.readline(), timeout=5.0)
                    if header in (b"\r\n", b"\n", b""):
                        break
            except ValueError:
                # A request or header line past the reader's 64 KiB limit.
                status, body = "400 Bad Request", b"bad request\n"
            else:
                parts = request_line.decode("latin-1", "replace").split()
                if len(parts) >= 2 and parts[0] == "GET" and parts[1] == "/metrics":
                    body = self.registry.render_prometheus().encode("utf-8")
                    status = "200 OK"
                    content_type = "text/plain; version=0.0.4; charset=utf-8"
                else:
                    status, body = "404 Not Found", b"not found\n"
            head = _RESPONSE_TEMPLATE.format(
                status=status, content_type=content_type, length=len(body)
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
