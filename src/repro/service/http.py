"""Stdlib HTTP front door for the placement service.

No web framework, only the standard library: a
``ThreadingHTTPServer`` dispatches JSON bodies into
:meth:`~repro.service.service.PlacementService.request`, which owns all
locking — concurrent requests serialize on the service's decision lock,
so HTTP adds transport, not semantics.

The handler speaks HTTP/1.1, so a client keeps its connection open
across requests, and the server runs one thread per connection, not
per request.  It sets ``TCP_NODELAY``: a reply goes out as two writes
(headers, then body), and with Nagle's algorithm on the body would wait
for the client's delayed ACK of the headers, ~40 ms per request on a
kept-alive connection.  ``POST /v1/shutdown`` answers with
``Connection: close``, and :meth:`ServiceServer.shutdown` shuts down
every connection still open, so no kept-alive client is answered once
it returns.

Routes::

    POST /v1/request   {"op": ..., "sid": ..., "time_s": ...}
    POST /v1/arrive    {"sid": ..., "time_s": ...}   (op implied)
    POST /v1/depart    ditto
    POST /v1/resize    ditto
    POST /v1/resolve   {}
    POST /v1/shutdown  stop the server loop
    GET  /v1/snapshot  placement snapshot
    GET  /metrics      decision-latency metrics (JSON)
    GET  /healthz      liveness probe

Unparseable JSON answers 400, domain rejections 409, unknown routes
404 — each with the service's structured ``{"status": "error", ...}``
body, so clients branch on one shape.
"""

from __future__ import annotations

import json
import socket
import threading
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.log import get_logger
from repro.service.service import SERVICE_OPS, PlacementService

_LOG = get_logger("service.http")

#: POST routes that imply their op.
_OP_ROUTES = {f"/v1/{op}": op for op in SERVICE_OPS}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every connection (see the module docstring).
    disable_nagle_algorithm = True

    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        _LOG.debug("%s %s", self.address_string(), fmt % args)

    def _reply(self, status: int, body: dict, close: bool = False) -> None:
        data = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close:
            # Also makes the handler close the connection after it.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _error(
        self, status: int, code: str, message: str, close: bool = False
    ) -> None:
        self._reply(
            status,
            {"status": "error", "error": {"code": code, "message": message}},
            close,
        )

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path == "/healthz":
            self._reply(200, {"status": "ok"})
        elif self.path == "/metrics":
            self._reply(
                200, self.server.service.request({"op": "metrics"})
            )
        elif self.path == "/v1/snapshot":
            self._reply(
                200, self.server.service.request({"op": "snapshot"})
            )
        else:
            self._error(404, "not_found", f"unknown route {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path == "/v1/shutdown":
            self._reply(200, {"status": "ok"}, close=True)
            self.server.request_shutdown()
            return
        op = _OP_ROUTES.get(self.path)
        if self.path != "/v1/request" and op is None:
            self._error(404, "not_found", f"unknown route {self.path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            # A negative size would read to EOF and hold the connection;
            # with no usable length the body's end is unknown, so the
            # connection cannot carry another request either.
            self._error(
                400,
                "malformed",
                "Content-Length must be a non-negative integer",
                close=True,
            )
            return
        try:
            raw = self.rfile.read(length) if length else b"{}"
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            self._error(400, "malformed", f"body is not valid JSON: {error}")
            return
        if op is not None and isinstance(payload, dict):
            payload = {"op": op, **payload}
        response = self.server.service.request(payload)
        self._reply(200 if response["status"] == "ok" else 409, response)


class _Server(ThreadingHTTPServer):
    """Tracks its open connections so :meth:`close_connections` can
    end kept-alive ones whose handlers wait for a next request."""

    def __init__(
        self,
        address: tuple[str, int],
        service: PlacementService,
        request_shutdown: Callable[[], None],
    ) -> None:
        super().__init__(address, _Handler)
        # The handler reaches the service through its server.
        self.service = service
        self.request_shutdown = request_shutdown
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._closing = False

    def process_request(self, request, client_address) -> None:
        # Runs on the serve loop, so every connection accepted before
        # the loop stops is tracked by the time ``shutdown()`` returns.
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        # Untracked before it is closed, so close_connections never
        # touches a closed socket.
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # A handler cut off mid-request by close_connections fails its
        # reply; that is the shutdown working, not an error to report.
        if not self._closing:
            super().handle_error(request, client_address)

    def close_connections(self) -> None:
        """Shut every open connection down; each handler then reads EOF
        (or fails its reply) and its thread ends."""
        with self._connections_lock:
            self._closing = True
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass


class ServiceServer:
    """A placement service listening on a TCP port.

    ``port=0`` binds an ephemeral port (tests); :meth:`serve_forever`
    blocks until :meth:`shutdown` or a ``POST /v1/shutdown``, while
    :meth:`start` runs the loop on a daemon thread instead.
    """

    def __init__(
        self, service: PlacementService, host: str = "127.0.0.1", port: int = 0
    ):
        self.service = service
        self._httpd = _Server((host, port), service, self.request_shutdown)
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def request_shutdown(self) -> None:
        """Stop the serve loop without deadlocking the calling handler."""
        threading.Thread(target=self.shutdown, daemon=True).start()

    def shutdown(self) -> None:
        """Stop the serve loop, close the listening socket, then end
        every open connection, so nothing is answered after this."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.close_connections()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
