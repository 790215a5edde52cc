"""Paths, child processes and result shapes shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

#: The checkout the benchmark runs in: the directory holding perfbench/.
ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: Scratch space for spec files, fleet outputs, logs and span files.
RUNS = ROOT / ".perfbench_runs"
#: Output digests recorded from the program (``python3 -m perfbench.record``).
EXPECTED = Path(__file__).with_name("expected.json")


#: Every end-to-end metric, in ``BENCHMARK.json`` order, with its unit.
#: Each untraced run prints all of them; README.md defines each one per
#: workload.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "read_p50_ms": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "delay_ms": "ms",
    "traffic_mbps": "Mb/s",
    "phi": "1",
}


class CheckFailed(RuntimeError):
    """An output check failed: the run reports no metrics."""


def child_env() -> dict[str, str]:
    """Environment for program processes: the checkout's ``src`` and
    the benchmark package importable, nothing else changed."""
    env = dict(os.environ)
    paths = [str(SOURCE), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def python(*args: str) -> list[str]:
    """A command running this interpreter."""
    return [sys.executable, *args]


def metric(value: float, unit: str, samples: int, note: str = "") -> dict:
    """One reported metric; ``samples`` and ``note`` go to the log."""
    return {"value": float(value), "unit": unit, "samples": samples, "note": note}


def recorded_digest(workload: str, key: str) -> str | None:
    """The digest recorded for ``workload`` under ``key``, if any."""
    recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))
    return recorded.get(workload, {}).get(key)


def lines_digest(lines: list[str]) -> str:
    """SHA-256 of ``lines``, one newline after each."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()
