"""Loop worker of the pool backend.

``python -m repro.fleet.backends.worker --loop`` serves many payloads
over one process lifetime on a persistent framed protocol: each message
is a 4-byte big-endian length prefix followed by exactly that many
bytes (pickled ``RunPayload.to_wire()`` dict in, UTF-8 JSON record out,
one frame per unit).  Every payload runs through the shared worker
entry :func:`repro.fleet.compile.execute_payload`, so a unit that fails
to compile or simulate comes back as a ``status: "error"`` record; a
worker that dies or desyncs the stream is classified by the dispatcher
as a crash.  Interpreter start-up and ``repro`` imports are paid once
per worker instead of once per unit, and the in-process substrate cache
stays warm across same-substrate units.  A clean EOF on stdin ends the
loop with exit code 0.
"""

from __future__ import annotations

import json
import pickle
import sys
from typing import BinaryIO

#: Bytes of the big-endian frame length prefix.
FRAME_HEADER_LEN = 4

#: Upper bound on one frame's body; a larger header is protocol
#: corruption (a desynced stream), not a real payload.
MAX_FRAME_LEN = 1 << 29


def write_frame(stream: BinaryIO, data: bytes) -> None:
    """Write one length-prefixed frame and flush it."""
    if len(data) > MAX_FRAME_LEN:
        raise ValueError(f"frame of {len(data)} bytes exceeds protocol max")
    stream.write(len(data).to_bytes(FRAME_HEADER_LEN, "big"))
    stream.write(data)
    stream.flush()


def read_frame(stream: BinaryIO) -> bytes | None:
    """Read one frame; None on clean EOF at a frame boundary.

    EOF mid-frame (a truncated header or body) raises ``EOFError`` —
    the peer died mid-write, which dispatchers classify as a crash.
    """
    header = stream.read(FRAME_HEADER_LEN)
    if not header:
        return None
    if len(header) < FRAME_HEADER_LEN:
        raise EOFError("stream ended inside a frame header")
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_LEN:
        raise EOFError(f"frame header announces {length} bytes; stream desynced")
    data = stream.read(length)
    if len(data) < length:
        raise EOFError("stream ended inside a frame body")
    return data


def _execute(payload: dict) -> dict:
    """One payload dict through the shared worker entry."""
    from repro.fleet.compile import execute_payload

    return execute_payload(
        payload["run_id"],
        payload["spec"],
        payload["axes"],
        payload["seed"],
        telemetry=bool(payload.get("telemetry", False)),
    )


def serve_loop(stdin: BinaryIO, stdout: BinaryIO) -> int:
    """Serve framed payloads until EOF (the pool worker loop)."""
    # Pay the import up front, while the dispatcher is still framing the
    # first payload — this is the startup cost the pool amortizes.
    from repro.fleet.compile import execute_payload  # noqa: F401

    while True:
        data = read_frame(stdin)
        if data is None:
            return 0
        record = _execute(pickle.loads(data))
        write_frame(stdout, json.dumps(record, sort_keys=True).encode("utf-8"))


def main(argv: list[str] | None = None) -> int:
    """``--loop`` serves framed payloads; anything else is a usage error."""
    args = list(sys.argv[1:] if argv is None else argv)
    if args != ["--loop"]:
        print(
            f"unknown worker argument(s): {args}; "
            f"usage: python -m repro.fleet.backends.worker --loop",
            file=sys.stderr,
        )
        return 2
    return serve_loop(sys.stdin.buffer, sys.stdout.buffer)


if __name__ == "__main__":
    sys.exit(main())
