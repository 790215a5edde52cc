"""Clients for the placement service — one interface, two transports.

:class:`InProcessClient` calls the service object directly (tests,
benches, ``repro serve --drive``); :class:`HTTPServiceClient` speaks to
a running :class:`~repro.service.http.ServiceServer` over one kept-alive
``http.client`` connection (no extra dependency).  Both expose the same
``request``/convenience surface and return the service's structured
response dict verbatim, so everything written against one runs against
the other — the service smoke test drives the identical trace through
both and compares decision logs byte for byte.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import urllib.parse

from repro.service.service import PlacementService


class _ClientBase:
    def request(self, payload: dict) -> dict:
        raise NotImplementedError

    def arrive(self, sid: int, time_s: float | None = None) -> dict:
        return self._op("arrive", sid, time_s)

    def depart(self, sid: int, time_s: float | None = None) -> dict:
        return self._op("depart", sid, time_s)

    def resize(self, sid: int, time_s: float | None = None) -> dict:
        return self._op("resize", sid, time_s)

    def resolve(self, time_s: float | None = None) -> dict:
        payload: dict = {"op": "resolve"}
        if time_s is not None:
            payload["time_s"] = time_s
        return self.request(payload)

    def snapshot(self) -> dict:
        return self.request({"op": "snapshot"})

    def metrics(self) -> dict:
        return self.request({"op": "metrics"})

    def _op(self, op: str, sid: int, time_s: float | None) -> dict:
        payload: dict = {"op": op, "sid": sid}
        if time_s is not None:
            payload["time_s"] = time_s
        return self.request(payload)


class InProcessClient(_ClientBase):
    """Direct calls into a :class:`PlacementService` (no transport)."""

    def __init__(self, service: PlacementService):
        self._service = service

    @property
    def service(self) -> PlacementService:
        return self._service

    def request(self, payload: dict) -> dict:
        return self._service.request(payload)


class HTTPServiceClient(_ClientBase):
    """JSON-over-HTTP calls to a running :class:`ServiceServer`.

    One TCP connection serves every call for the client's lifetime, so
    a request costs one round trip, not a connect and a server thread.
    A request is sent once: if the exchange fails, the connection is
    closed and the error propagates — resending an ``arrive`` the
    server already applied would come back ``duplicate_session``.  Only
    an idle connection the server has closed is replaced before use.
    A lock serializes calls, so threads may share a client.
    """

    def __init__(self, base_url: str, timeout_s: float = 10.0):
        url = urllib.parse.urlsplit(base_url)
        if url.scheme != "http" or not url.hostname:
            raise ValueError(
                f"expected an http://host:port URL, got {base_url!r}"
            )
        self._root = url.path.rstrip("/")
        self._connection = http.client.HTTPConnection(
            url.hostname, url.port, timeout=timeout_s
        )
        self._lock = threading.Lock()

    def request(self, payload: dict) -> dict:
        # Domain rejections (409) and malformed bodies (400) carry the
        # structured error body, read like a 200 one, as the in-process
        # client returns it.
        return self._post("/v1/request", payload)

    def shutdown(self) -> dict:
        return self._post("/v1/shutdown", {})

    def close(self) -> None:
        """Close the connection; a later call opens a new one."""
        with self._lock:
            self._connection.close()

    def _post(self, path: str, payload: dict) -> dict:
        body = json.dumps(payload).encode("utf-8")
        with self._lock:
            connection = self._connection
            # An idle kept-alive socket has nothing to read unless the
            # server closed it; drop it rather than send into it.
            sock = connection.sock
            if sock is not None and select.select([sock], [], [], 0)[0]:
                connection.close()
            try:
                connection.request(
                    "POST",
                    self._root + path,
                    body,
                    {"Content-Type": "application/json"},
                )
                data = connection.getresponse().read()
            except BaseException:
                connection.close()
                raise
        return json.loads(data.decode("utf-8"))
