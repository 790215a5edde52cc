"""The sweep workloads: fleet sweeps, each in a fresh process.

An untraced run makes :func:`sweep_count` sweeps in fresh processes,
each drawing its own conferences from the seed, so every sweep starts
with empty process-local caches, as it does for a user.  The count
follows from ``--seconds`` by a fixed rule, never from how fast the
sweeps go, so every commit measures the same sweeps.  While each sweep
after the first runs, the benchmark process reads the results of the
sweep before it back at a fixed period, so the reads spread over the
run as the units do.  Every sweep must finish every unit ``ok`` with
the results digest recorded for it, when one is.  A traced run makes
one untraced and one traced sweep of the same spec, which must agree.
"""

from __future__ import annotations

import functools
import json
import shutil
import statistics
import subprocess
import time
from pathlib import Path

from perfbench import layers, workloads
from perfbench.common import (
    RUNS, ROOT, CheckFailed, child_env, metric, python, recorded_digest,
)
from perfbench.spans import load_dumps, self_times
from perfbench.stats import percentile, tail_q

#: Wall-clock cap on one sweep process.
SWEEP_TIMEOUT_S = 150.0
#: Sweeps per run at the least, whatever ``--seconds`` says: set-up is
#: a median over them.
MIN_SWEEPS = 3
#: Seconds between two reads of the previous sweep's results while a
#: sweep runs.
READ_PERIOD_S = 0.25


def sweep_count(workload: str, seconds: float) -> int:
    """Sweeps in a run of ``seconds``: one per ``sweep_s`` declared for
    the workload (its nominal sweep time), at least :data:`MIN_SWEEPS`."""
    nominal = workloads.WORKLOADS[workload]["sweep_s"]
    return max(MIN_SWEEPS, int(seconds // nominal))


def run_sweep(
    workload: str,
    spec_path: Path,
    out: Path,
    trace_dir: Path | None = None,
    poll: tuple[Path, int] | None = None,
) -> dict:
    """One sweep in a fresh process; its summary plus set-up time.

    ``poll`` names a finished sweep's output directory and its unit
    count: once this sweep is set up and while it runs, those results
    are read back every :data:`READ_PERIOD_S` (:func:`read_results`),
    and the summary's ``read_ms`` holds the reads' CPU times.
    """
    args = [str(spec_path), str(out)]
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        args.append(str(trace_dir))
    log = out.with_suffix(".log")
    read = None
    if poll is not None:
        read_results(*poll)  # warm-up: imports and the YAML loader
        read = functools.partial(read_results, *poll)
    with open(log, "w", encoding="utf-8") as stdout:
        launched = time.monotonic()
        process = subprocess.Popen(
            python("-m", "perfbench.sweep_child", *args),
            cwd=ROOT,
            env=child_env(),
            stdout=stdout,
            stderr=subprocess.STDOUT,
        )
        code, read_ms = wait_reading(process, log, launched + SWEEP_TIMEOUT_S, read)
    lines = log.read_text(encoding="utf-8").splitlines()
    if code != 0:
        tail = "\n".join(lines[-20:])
        raise CheckFailed(f"sweep process exited with {code}:\n{tail}")
    summary = json.loads(lines[-1])
    summary["setup_s"] = float(_ready_line(log).split()[1]) - launched
    summary["read_ms"] = read_ms
    return summary


def wait_reading(
    process: subprocess.Popen, log: Path, deadline: float, read=None
) -> tuple[int | None, list]:
    """Wait for a sweep process, killing it at ``deadline``; (its exit
    code or None if killed, the results of the calls to ``read``).

    Once the process has printed its ``ready`` line, and while it runs,
    ``read`` is called every :data:`READ_PERIOD_S`: reads start after
    set-up, so they do not take the CPU from it.
    """
    period = READ_PERIOD_S if read is not None else SWEEP_TIMEOUT_S
    code, results = None, []
    try:
        while code is None and time.monotonic() < deadline:
            left = max(0.0, deadline - time.monotonic())
            try:
                code = process.wait(timeout=min(period, left))
            except subprocess.TimeoutExpired:
                if read is not None and _ready_line(log) is not None:
                    results.append(read())
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    return code, results


def _ready_line(log: Path) -> str | None:
    """The sweep process's ``ready <monotonic clock>`` line, once printed."""
    lines = log.read_text(encoding="utf-8").splitlines()
    return next((line for line in lines if line.startswith("ready ")), None)


def read_results(results: Path, units: int) -> float:
    """Load a finished sweep's results and aggregate them, as ``repro
    fleet report`` does; the CPU milliseconds this took.

    CPU time, not wall time: the sweep running beside the reads shares
    the CPU, and the time the reader waits for it is not the read's.
    """
    from repro.analysis.report import aggregate_records, load_fleet_run

    begin = time.thread_time()
    records = load_fleet_run(results).records
    aggregate_records(records)
    elapsed_ms = (time.thread_time() - begin) * 1000.0
    if len(records) != units:
        raise CheckFailed(f"{results}: read {len(records)} records of {units} units")
    return elapsed_ms


def failures(summary: dict) -> dict[str, int]:
    """Failed units by cause: a unit not ``ok`` by its status, an ``ok``
    unit that needed more than one attempt as ``retry``."""
    causes = {"error": 0, "timeout": 0, "crashed": 0, "other": 0, "retry": 0}
    for status, attempts in zip(summary["statuses"], summary["attempts"]):
        if status != "ok":
            causes[status if status in causes else "other"] += 1
        elif attempts and attempts > 1:
            causes["retry"] += 1
    return causes


def check(workload: str, seed: int, index: int, summary: dict) -> None:
    """Every unit ``ok``; the digest equal to the recorded one, if any."""
    if set(summary["statuses"]) != {"ok"}:
        raise CheckFailed(f"{workload}: units not ok: {failures(summary)}")
    expected = recorded_digest(workload, f"{seed}/{index}")
    if expected is not None and summary["digest"] != expected:
        raise CheckFailed(
            f"{workload} sweep {index}: results digest {summary['digest']} "
            f"!= recorded {expected}"
        )


def prepare(workload: str, seed: int) -> Path:
    """A fresh scratch directory for one run."""
    run_dir = RUNS / f"{workload}-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    return run_dir


def spec_file(run_dir: Path, workload: str, seed: int, index: int) -> Path:
    """Write the ``index``-th sweep's spec; returns its path."""
    path = run_dir / f"spec{index}.json"
    path.write_text(json.dumps(workloads.sweep_spec(workload, seed, index)), encoding="utf-8")
    return path


def measure(workload: str, seed: int, seconds: float, log) -> tuple[dict, dict]:
    """Untraced run: (metrics, op counts)."""
    run_dir = prepare(workload, seed)
    summaries: list[dict] = []
    previous = None
    for index in range(sweep_count(workload, seconds)):
        out = run_dir / f"sweep{index}"
        summary = run_sweep(
            workload, spec_file(run_dir, workload, seed, index), out, poll=previous
        )
        check(workload, seed, index, summary)
        summaries.append(summary)
        if previous is not None:
            shutil.rmtree(previous[0])
        previous = (out, summary["units"])

    units = sum(s["units"] for s in summaries)
    unit_ms = [ms for s in summaries for ms in s["unit_ms"]]
    read_ms = [ms for s in summaries for ms in s["read_ms"]]
    setups = [s["setup_s"] for s in summaries]
    objectives = [o for s in summaries for o in s["objectives"]]
    unit_tail = percentile(unit_ms, tail_q(len(unit_ms)))
    read_tail = percentile(read_ms, tail_q(len(read_ms)))
    causes = _total_failures(summaries)
    failed = sum(causes.values())
    log(f"{workload}: {len(summaries)} sweeps x {summaries[0]['units']} units, digests "
        + " ".join(s["digest"][:12] for s in summaries))
    log(f"{workload}: units attempted {units}, ok {units - failed}, "
        f"failed {failed} by cause {causes}")
    log(f"{workload}: unit wall time {unit_tail.label} = {unit_tail.value:.1f} ms; "
        f"results read {read_tail.label} = {read_tail.value:.2f} ms")
    metrics = {
        "setup_s": metric(statistics.median(setups), "s", len(setups),
                          "median of sweep processes"),
        "throughput_per_s": metric(units / sum(s["sweep_s"] for s in summaries),
                                   "1/s", units, "units completed / sweep wall"),
        "latency_p50_ms": metric(percentile(unit_ms, 50).value, "ms", len(unit_ms),
                                 "unit wall time, p50"),
        "read_p50_ms": metric(percentile(read_ms, 50).value, "ms", len(read_ms),
                              "results load + aggregate CPU time beside the "
                              "next sweep, p50"),
        "ok_share": metric((units - failed) / units, "ratio", units,
                           "ok units / units, a retried unit not ok"),
        "peak_rss_mb": metric(statistics.median(s["peak_mb"] for s in summaries), "MB",
                              len(summaries), "sweep process + largest pool worker, "
                              f"median over sweeps of {summaries[0]['units']} units"),
        "delay_ms": metric(_mean(o[0] for o in objectives), "ms", len(objectives),
                           "mean steady-state delay over units"),
        "traffic_mbps": metric(_mean(o[1] for o in objectives), "Mb/s", len(objectives),
                               "mean steady-state inter-agent traffic over units"),
        "phi": metric(_mean(o[2] for o in objectives), "1", len(objectives),
                      "mean final objective over units"),
    }
    shutil.rmtree(run_dir, ignore_errors=True)
    return metrics, {"attempted": units, "failed": failed}


def traced(workload: str, seed: int, seconds: float, log) -> tuple[dict, dict]:
    """Traced run: (per-layer metrics, op counts)."""
    run_dir = prepare(workload, seed)
    spec_path = spec_file(run_dir, workload, seed, 0)
    plain = run_sweep(workload, spec_path, run_dir / "plain")
    trace_dir = run_dir / "spans"
    spanned = run_sweep(workload, spec_path, run_dir / "traced", trace_dir)
    check(workload, seed, 0, plain)
    check(workload, seed, 0, spanned)
    if spanned["digest"] != plain["digest"]:
        raise CheckFailed(f"{workload}: tracing changed the results digest")
    dumps = load_dumps(sorted(trace_dir.glob("*.jsonl")))
    spec = workloads.sweep_spec(workload, seed, 0)
    workers = spec["execution"]["workers"] if spec["execution"]["backend"] == "pool" else 1
    wall = spanned["sweep_s"]
    values = layers.layer_metrics(workload, dumps, wall, workers)
    causes = failures(spanned)
    values["fleet.scheduler.retries"] = float(causes["retry"])
    values["fleet.scheduler.timeouts"] = float(causes["timeout"])
    values["fleet.scheduler.crashes"] = float(causes["crashed"])
    # The processes running units offer workers x wall seconds; what the
    # layer spans (and worker start-up) do not cover is the remainder.
    capacity = workers * wall
    accounted = values["fleet.backends.spawn_s"]
    for dump in dumps:
        spans = dump["spans"]
        roots = [span for span in spans if span[0] == "fleet.sweep"]
        for span, own in zip(spans, self_times(spans)):
            inside = not roots or any(
                root[1] <= span[1] and span[2] <= root[2] for root in roots
            )
            if inside and span[0] != "fleet.sweep":
                accounted += own
    remainder = capacity - accounted
    values["trace.wall_s"] = wall
    values["trace.remainder_s"] = remainder
    values["trace.remainder_share"] = remainder / capacity
    values["trace.overhead_share"] = (wall - plain["sweep_s"]) / plain["sweep_s"]
    log(f"{workload}: traced sweep {wall:.3f} s vs untraced {plain['sweep_s']:.3f} s; "
        f"{remainder:.3f} of {capacity:.3f} worker-seconds outside layer spans")
    shutil.rmtree(run_dir, ignore_errors=True)
    units = spanned["units"] + plain["units"]
    return values, {"attempted": units, "failed": sum(_total_failures([plain, spanned]).values())}


def _total_failures(summaries: list[dict]) -> dict[str, int]:
    total: dict[str, int] = {}
    for summary in summaries:
        for cause, count in failures(summary).items():
            total[cause] = total.get(cause, 0) + count
    return total


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)
