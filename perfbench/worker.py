"""Traced pool worker: the repo's framed loop worker with spans on.

``python -m perfbench.worker TRACE_DIR`` is the ``execution.worker_cmd``
of a traced pool sweep.  It runs the program's own loop,
``repro.fleet.backends.worker.serve_loop`` (what ``python -m
repro.fleet.backends.worker --loop`` runs), with the layer wrappers
installed.  The pool kills its workers when the sweep ends, so each
unit's spans are appended to ``TRACE_DIR/worker-<pid>.jsonl`` before
its record frame goes back.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    # What the real worker has loaded when it is ready for a payload;
    # its start-up time is taken before the wrappers import more.
    import repro.fleet.backends.worker as loop
    import repro.fleet.compile  # noqa: F401
    from perfbench.layers import install_all, process_age_s

    spawn_s = process_age_s()
    from perfbench.spans import SpanRecorder

    recorder = SpanRecorder()
    install_all(recorder)
    path = Path(argv[0]) / f"worker-{os.getpid()}.jsonl"
    recorder.dump(path, {"spawn_s": spawn_s})

    execute = loop._execute

    def execute_and_dump(payload: dict) -> dict:
        record = execute(payload)
        recorder.dump(path)
        return record

    # serve_loop looks ``_execute`` up in its module on every payload.
    loop._execute = execute_and_dump
    return loop.serve_loop(sys.stdin.buffer, sys.stdout.buffer)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
