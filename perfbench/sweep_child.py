"""One fleet sweep in a fresh process.

``python -m perfbench.sweep_child SPEC.json OUT_DIR [TRACE_DIR]``
loads the spec and expands its matrix (set-up), prints ``ready`` with
the monotonic clock and runs the sweep through
``FleetOrchestrator.run``.  The last stdout line is one JSON summary.
With ``TRACE_DIR`` the layer wrappers are installed first, pool workers
run the benchmark's traced worker, and spans go to ``TRACE_DIR``.
"""

from __future__ import annotations

import json
import os
import resource
import shlex
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    spec_path, out_dir = argv[0], Path(argv[1])
    trace_dir = Path(argv[2]) if len(argv) > 2 else None

    from repro.analysis.report import canonical_results_digest
    from repro.fleet.matrix import expand_matrix
    from repro.fleet.orchestrator import FleetOrchestrator
    from repro.fleet.spec import RunSpec

    recorder = None
    if trace_dir is not None:
        from perfbench.layers import install_all
        from perfbench.spans import SpanRecorder

        recorder = SpanRecorder()
        install_all(recorder)

    data = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if trace_dir is not None and data["execution"]["backend"] == "pool":
        data["execution"]["worker_cmd"] = shlex.join(
            [sys.executable, "-m", "perfbench.worker", str(trace_dir)]
        )
    spec = RunSpec.from_dict(data)
    units = len(expand_matrix(spec))
    print(f"ready {time.monotonic()!r}", flush=True)

    started = time.monotonic()
    result = FleetOrchestrator(out_dir, resume=False).run(spec)
    sweep_s = time.monotonic() - started
    # The pool has waited on its workers by now, so RUSAGE_CHILDREN
    # holds the largest worker's peak.
    peak_kb = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    if recorder is not None:
        recorder.dump(trace_dir / f"sweep-{os.getpid()}.jsonl", {"wall_s": sweep_s})

    records = result.records
    summary = {
        "units": units,
        "sweep_s": sweep_s,
        "digest": canonical_results_digest(out_dir),
        "statuses": [record.get("status") for record in records],
        "attempts": [record.get("attempts", 1) for record in records],
        "unit_ms": [record.get("wall_time_s", 0.0) * 1000.0 for record in records],
        "objectives": [
            [record["delay_ms"], record["traffic_mbps"], record["phi"]]
            for record in records
            if record.get("status") == "ok"
        ],
        "peak_mb": peak_kb / 1024.0,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
