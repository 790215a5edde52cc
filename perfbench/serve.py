"""The serve-http workload: ``repro serve`` driven open-loop over HTTP.

The server runs as its own process on loopback.  Set-up is timed from
launch until ``/healthz`` answers, over several launches spread over
the run.  On the one in the middle a writer lane replays the seed's churn trace at the base rate while
a reader lane polls ``snapshot``/``metrics``; then the writer alone
offers more than the service can take, every write due at once, which
gives the rate beyond which a backlog grows.  Afterwards the same
write log is replayed in-process, and the server's ``decisions.jsonl``
must equal the replay's byte for byte once ``seq`` is dropped (reads
take sequence numbers too).  The base phase sends the same writes on
every machine, so its decisions must also match the digest recorded
for the seed.
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import time
import urllib.request
from pathlib import Path

from perfbench import layers, workloads
from perfbench.common import (
    RUNS, ROOT, CheckFailed, child_env, lines_digest, metric, python, recorded_digest,
)
from perfbench.loadgen import Lane, Outcome
from perfbench.spans import load_dumps, self_times
from perfbench.stats import percentile, tail_q

LOAD = workloads.WORKLOADS["serve-http"]["load"]

#: Seconds a launch may take to answer ``/healthz``.
LAUNCH_TIMEOUT_S = 60.0
#: Client timeout per request.
REQUEST_TIMEOUT_S = 10.0
#: Seconds a server may take to exit once asked to shut down.
EXIT_TIMEOUT_S = 30.0


class Server:
    """One ``repro serve`` process on an ephemeral loopback port."""

    def __init__(self, run_dir: Path, spec_path: Path, tag: str, trace_file: Path | None = None):
        self.decisions = run_dir / f"decisions-{tag}.jsonl"
        args = [
            "--spec", str(spec_path),
            "--port", "0",
            "--initial", str(LOAD["initial"]),
            "--refine-hops", str(LOAD["refine_hops"]),
            "--budget-ms", str(LOAD["budget_ms"]),
            "--decisions", str(self.decisions),
        ]
        if trace_file is None:
            command = python("-m", "repro.cli", "serve", *args)
        else:
            command = python("-m", "perfbench.server", str(trace_file), *args)
        self._log = run_dir / f"server-{tag}.log"
        self._stderr = open(self._log, "w", encoding="utf-8")
        launched = time.monotonic()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(),
            stdout=subprocess.DEVNULL, stderr=self._stderr,
        )
        self.url: str | None = None
        self.url = self._wait_ready(launched)
        self.setup_s = time.monotonic() - launched

    def _wait_ready(self, launched: float) -> str:
        url = None
        while time.monotonic() - launched < LAUNCH_TIMEOUT_S:
            if self.process.poll() is not None:
                break
            if url is None:
                for line in self._log.read_text(encoding="utf-8").splitlines():
                    if line.startswith("serving on "):
                        url = line.split()[2]
            if url is not None:
                try:
                    with urllib.request.urlopen(f"{url}/healthz", timeout=1.0) as reply:
                        if reply.status == 200:
                            return url
                except OSError:
                    pass
            time.sleep(0.002)
        self.stop()
        raise CheckFailed(f"server did not become healthy:\n{self._log.read_text()[-2000:]}")

    def stop(self) -> float:
        """Shut the server down and reap it; its peak resident memory in
        MB (0 if it had already been reaped)."""
        if self.process.returncode is None and self.url is not None:
            from repro.service import HTTPServiceClient

            try:
                HTTPServiceClient(self.url, timeout_s=REQUEST_TIMEOUT_S).shutdown()
            except OSError:
                pass
        peak_kb = reap(self.process, EXIT_TIMEOUT_S)
        self._stderr.close()
        return peak_kb / 1024.0


def reap(process: subprocess.Popen, timeout_s: float) -> int:
    """Wait for ``process`` with ``os.wait4``, which also returns its
    resource usage, killing it after ``timeout_s``; its peak resident
    memory in kB (0 if it was reaped already)."""
    if process.returncode is not None:
        return 0
    deadline = time.monotonic() + timeout_s
    while True:
        reaped, status, usage = os.wait4(process.pid, os.WNOHANG)
        if reaped:
            break
        if time.monotonic() > deadline:
            os.kill(process.pid, signal.SIGKILL)
            _, status, usage = os.wait4(process.pid, 0)
            break
        time.sleep(0.01)
    process.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def _drive(url: str, writes: list[dict], rate: float, duration: float,
           reads=None) -> tuple[list[Outcome], list[Outcome]]:
    """Writes at ``rate`` for ``duration`` (plus reads); their outcomes.

    ``rate=math.inf`` makes every write due at once: the writer sends
    back to back until ``duration`` has passed.
    """
    from repro.service import HTTPServiceClient

    if math.isinf(rate):
        due, until = [0.0] * len(writes), duration
    else:
        due, until = workloads.schedule(rate, duration), None
    writer = HTTPServiceClient(url, timeout_s=REQUEST_TIMEOUT_S)
    reader = HTTPServiceClient(url, timeout_s=REQUEST_TIMEOUT_S)
    start = time.perf_counter() + 0.05
    lanes = [Lane(writer.request, due, writes[: len(due)], start, until_s=until)]
    if reads:
        lanes.append(Lane(reader.request, [r.at_s for r in reads], [r.payload for r in reads], start))
    for lane in lanes:
        lane.start()
    timeout = duration + 120.0
    results = [lane.result(timeout) for lane in lanes]
    return results[0], (results[1] if reads else [])


def _latencies(outcomes: list[Outcome]) -> list[float]:
    """Latency from due time; a request without an ok answer missed
    every limit."""
    return [o.latency_ms if o.status == "ok" else float("inf") for o in outcomes]


def _failures(outcomes: list[Outcome]) -> dict[str, int]:
    causes: dict[str, int] = {}
    for outcome in outcomes:
        if outcome.status != "ok":
            causes[outcome.status] = causes.get(outcome.status, 0) + 1
    return causes


def _account(label: str, outcomes: list[Outcome], log) -> None:
    causes = _failures(outcomes)
    failed = sum(causes.values())
    log(f"  {label}: attempted {len(outcomes)}, ok {len(outcomes) - failed}, "
        f"failed {failed} {causes or ''}")


def _replay(spec: dict, writes: list[dict], decisions: Path, measured: int) -> dict:
    """Replay ``writes`` in-process into ``decisions``; the paper's
    objectives averaged over the first ``measured`` writes (the base
    phase, whose length does not depend on the machine)."""
    from repro.fleet.spec import RunSpec
    from repro.service import InProcessClient, ServiceConfig, service_from_spec

    service = service_from_spec(
        RunSpec.from_dict(spec),
        initial_sids=list(range(LOAD["initial"])),
        config=ServiceConfig(
            budget_ms=LOAD["budget_ms"],
            refine_hops=LOAD["refine_hops"],
            decision_log=str(decisions),
        ),
    )
    client = InProcessClient(service)
    traffic, delay, phi = [], [], []
    for i, payload in enumerate(writes):
        response = client.request(payload)
        if i >= measured:
            continue
        if response["status"] == "ok":
            phi.append(response["phi"])
        if i % 25 == 0:
            mbps, ms = service.live.context.metrics()
            traffic.append(mbps)
            delay.append(ms)
    return {
        "traffic_mbps": sum(traffic) / len(traffic),
        "delay_ms": sum(delay) / len(delay),
        "phi": sum(phi) / len(phi),
        "samples": len(traffic),
        "decisions": len(phi),
    }


def _without_seq(path: Path) -> list[str]:
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        record.pop("seq", None)
        lines.append(json.dumps(record, sort_keys=True))
    return lines


def base_key(seed: int, writes: int) -> str:
    """``expected.json`` key of a base phase of ``writes`` writes."""
    return f"{seed}/{writes}"


def record_base(seed: int, seconds: float) -> tuple[str, str]:
    """(key, digest) of the base-phase decisions of a run of ``seconds``
    with ``seed``, replayed in-process, for ``expected.json``."""
    run_dir, _, spec = _prepare(seed)
    base_s, _ = _phases(seconds)
    count = len(workloads.schedule(LOAD["base_write_rps"], base_s))
    replay_log = run_dir / "decisions-replay.jsonl"
    _replay(spec, workloads.write_trace(seed, count), replay_log, count)
    digest = lines_digest(_without_seq(replay_log))
    shutil.rmtree(run_dir, ignore_errors=True)
    return base_key(seed, count), digest


def _check_decisions(
    seed: int, spec: dict, sent: list[dict], base: int, logs: list[Path], run_dir: Path, log
) -> dict:
    """Every server log equals the in-process replay of ``sent``, and
    the first ``base`` decisions match the recorded digest, if any."""
    replay_log = run_dir / "decisions-replay.jsonl"
    objectives = _replay(spec, sent, replay_log, base)
    expected = _without_seq(replay_log)
    for path in logs:
        if _without_seq(path) != expected:
            raise CheckFailed(f"{path.name} differs from the in-process replay")
    # One decision is logged per write, in order.
    recorded = recorded_digest("serve-http", base_key(seed, base))
    digest = lines_digest(expected[:base])
    if recorded is not None and digest != recorded:
        raise CheckFailed(
            f"base-phase decisions digest {digest} != recorded {recorded}"
        )
    log(f"serve-http: {len(sent)} writes, decisions match the in-process replay; "
        f"base-phase digest {digest[:12]} "
        + ("matches the recorded one" if recorded else "(none recorded)"))
    return objectives


def _prepare(seed: int) -> tuple[Path, Path, dict]:
    run_dir = RUNS / f"serve-http-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec = workloads.serve_spec(seed)
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    return run_dir, spec_path, spec


def _phases(seconds: float) -> tuple[float, float]:
    """Base-phase and saturation-phase durations for ``seconds``."""
    return LOAD["base_share"] * seconds, LOAD["saturate_share"] * seconds


#: Writes per second no service answers; sizes the saturation trace.
_CEILING_RPS = 2000


def _inputs(seed: int, seconds: float) -> tuple[list[dict], list]:
    """The seed's write trace and read schedule.  They live for the
    whole run, so they are moved out of the collector's sight."""
    base_s, saturate_s = _phases(seconds)
    length = int(LOAD["base_write_rps"] * base_s + _CEILING_RPS * saturate_s)
    writes = workloads.write_trace(seed, length)
    reads = workloads.read_schedule(seed, base_s)
    gc.collect()
    gc.freeze()
    return writes, reads


def measure(workload: str, seed: int, seconds: float, log) -> tuple[dict, dict]:
    """Untraced run: (metrics, op counts)."""
    run_dir, spec_path, spec = _prepare(seed)
    writes, reads = _inputs(seed, seconds)
    base_s, saturate_s = _phases(seconds)

    # Set-up launches go before the drive and after the replay: on a
    # shared machine, speed drifts over seconds, and launches spread
    # over the run sample it as the whole run meets it.
    setups = []

    def launch_only(count: int) -> None:
        for _ in range(count):
            server = Server(run_dir, spec_path, f"setup{len(setups)}")
            setups.append(server.setup_s)
            server.stop()

    before = (LOAD["launches"] - 1) // 2
    launch_only(before)
    server = Server(run_dir, spec_path, "drive")
    setups.append(server.setup_s)
    try:
        base_writes, base_reads = _drive(
            server.url, writes, LOAD["base_write_rps"], base_s, reads
        )
        saturated, _ = _drive(server.url, writes[len(base_writes):], math.inf, saturate_s)
    finally:
        peak_mb = server.stop()
    sent = [o.payload for o in base_writes + saturated]
    outcomes = {
        "base writes": base_writes,
        "base reads": base_reads,
        "saturation writes": saturated,
    }
    objectives = _check_decisions(
        seed, spec, sent, len(base_writes), [server.decisions], run_dir, log
    )
    launch_only(LOAD["launches"] - 1 - before)
    write_ms = _latencies(base_writes)
    read_ms = _latencies(base_reads)
    write_tail = percentile(write_ms, tail_q(len(write_ms)))
    read_tail = percentile(read_ms, tail_q(len(read_ms)))

    for label, group in outcomes.items():
        _account(label, group, log)
    log(f"{workload}: write from due time {write_tail.label} = {write_tail.value:.2f} ms; "
        f"read {read_tail.label} = {read_tail.value:.2f} ms")
    every = [o for group in outcomes.values() for o in group]
    failed = sum(_failures(every).values())
    metrics = {
        "setup_s": metric(statistics.median(setups), "s", len(setups),
                          "launch until /healthz, median"),
        "throughput_per_s": metric(
            len(saturated) / (saturated[-1].done - saturated[0].due), "1/s",
            len(saturated), "writes answered per second, writer saturating"),
        "latency_p50_ms": metric(percentile(write_ms, 50).value, "ms", len(write_ms),
                                 "write from due time at the base rate, p50"),
        "read_p50_ms": metric(percentile(read_ms, 50).value, "ms", len(read_ms),
                              "snapshot/metrics from due time, p50"),
        "ok_share": metric((len(every) - failed) / len(every), "ratio", len(every),
                           "ok / attempted requests"),
        "peak_rss_mb": metric(peak_mb, "MB", len(sent), "server process over the drive"),
        "delay_ms": metric(objectives["delay_ms"], "ms", objectives["samples"],
                           "mean conferencing delay of the live placement"),
        "traffic_mbps": metric(objectives["traffic_mbps"], "Mb/s", objectives["samples"],
                               "mean inter-agent traffic of the live placement"),
        "phi": metric(objectives["phi"], "1", objectives["decisions"],
                      "mean conference objective after each decision"),
    }
    shutil.rmtree(run_dir, ignore_errors=True)
    return metrics, {"attempted": len(every), "failed": failed}


def traced(workload: str, seed: int, seconds: float, log) -> tuple[dict, dict]:
    """Traced run: the base phase untraced, then again traced."""
    run_dir, spec_path, spec = _prepare(seed)
    writes, reads = _inputs(seed, seconds)
    base_s, _ = _phases(seconds)
    phases = {}
    logs = []
    for tag, trace_file in (("plain", None), ("traced", run_dir / "spans.jsonl")):
        server = Server(run_dir, spec_path, tag, trace_file)
        try:
            phases[tag] = _drive(
                server.url, writes, LOAD["base_write_rps"], base_s, reads
            )
        finally:
            server.stop()
        logs.append(server.decisions)
    sent = [o.payload for o in phases["traced"][0]]
    _check_decisions(seed, spec, sent, len(sent), logs, run_dir, log)

    dumps = load_dumps([run_dir / "spans.jsonl"])
    values = layers.layer_metrics(workload, dumps, base_s)
    writes_out, reads_out = phases["traced"]
    every = writes_out + reads_out
    busy = sum(
        own
        for dump in dumps
        for span, own in zip(dump["spans"], self_times(dump["spans"]))
        if span[4]
    )
    plain_ms = sum(o.server_ms for o in phases["plain"][0] + phases["plain"][1])
    traced_ms = sum(o.server_ms for o in every)
    values["service.transport_ms.p50"] = layers.percentile_or_highest([o.transport_ms for o in every], 50)
    values["loadgen.late_p99_ms"] = layers.percentile_or_highest([o.late_ms for o in writes_out], 99)
    plain_writes, plain_reads = phases["plain"]
    values["loadgen.write_p99_ms"] = layers.percentile_or_highest(_latencies(plain_writes), 99)
    values["loadgen.read_p95_ms"] = layers.percentile_or_highest(_latencies(plain_reads), 95)
    causes = _failures(every)
    for code in layers.ERROR_CODES:
        values[f"service.errors.{code}"] = float(causes.get(code, 0))
    values["trace.wall_s"] = base_s
    values["trace.remainder_s"] = base_s - busy
    values["trace.remainder_share"] = 1.0 - busy / base_s
    values["trace.overhead_share"] = (traced_ms - plain_ms) / plain_ms
    log(f"{workload}: server busy {busy:.3f} s of the {base_s:g} s base phase; "
        f"request time traced {traced_ms:.0f} ms vs untraced {plain_ms:.0f} ms")
    _account("traced writes", writes_out, log)
    _account("traced reads", reads_out, log)
    shutil.rmtree(run_dir, ignore_errors=True)
    everything = every + plain_writes + plain_reads
    return values, {"attempted": len(everything), "failed": sum(_failures(everything).values())}
