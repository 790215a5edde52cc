"""Pool backend: the framed loop-worker protocol, sticky affinity
dispatch, crash/timeout/respawn paths, host inventories and quarantine,
and the scheduler's guarantee that every backend — pool workers
included — is reaped even when execution blows up."""

import io
import json
import os
import pickle
import select
import shlex
import subprocess
import sys
import textwrap
import time
from collections import deque

import pytest

import repro.telemetry as tele
from repro.analysis.report import canonical_results_digest, record_schema_version
from repro.errors import SpecError
from repro.fleet.backends import (
    PoolBackend,
    RunPayload,
    SerialBackend,
    create_backend,
    default_worker_cmd,
    resolve_worker_cmd,
)
from repro.fleet.backends.worker import read_frame, write_frame
from repro.fleet.matrix import expand_matrix
from repro.fleet.orchestrator import FleetOrchestrator
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.spec import (
    AxisSpec,
    ExecutionSpec,
    RunSpec,
    SimulationSpec,
    SweepSpec,
    WorkloadSpec,
)
from tests.conftest import with_execution


def golden_spec() -> RunSpec:
    """Same golden sweep as test_fleet_backends: 2 betas x 2 seeds."""
    return RunSpec(
        name="golden",
        workload=WorkloadSpec(kind="prototype", num_sessions=2),
        simulation=SimulationSpec(
            duration_s=8.0, hop_interval_mean_s=4.0, seed=3
        ),
        sweep=SweepSpec(
            replicates=2,
            axes=(AxisSpec(path="solver.beta", values=(200, 400)),),
        ),
    )


def single_spec() -> RunSpec:
    return RunSpec(
        name="one",
        workload=WorkloadSpec(num_sessions=2),
        simulation=SimulationSpec(
            duration_s=6.0, hop_interval_mean_s=3.0, seed=3
        ),
    )


def payloads_for(spec: RunSpec) -> list[RunPayload]:
    return [RunPayload.from_unit(unit) for unit in expand_matrix(spec)]


def _worker_src_env() -> dict[str, str]:
    import repro

    env = dict(os.environ)
    src = str(os.path.dirname(os.path.dirname(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestFraming:
    def test_round_trip(self):
        buffer = io.BytesIO()
        write_frame(buffer, b"hello")
        write_frame(buffer, b"")
        write_frame(buffer, b"x" * 70_000)  # larger than one pipe buffer
        buffer.seek(0)
        assert read_frame(buffer) == b"hello"
        assert read_frame(buffer) == b""
        assert read_frame(buffer) == b"x" * 70_000
        assert read_frame(buffer) is None  # clean EOF at a boundary

    def test_eof_mid_header_and_mid_body_raise(self):
        with pytest.raises(EOFError, match="frame header"):
            read_frame(io.BytesIO(b"\x00\x00"))
        truncated = io.BytesIO()
        write_frame(truncated, b"abcdef")
        body = truncated.getvalue()[:-2]  # drop the frame's last bytes
        with pytest.raises(EOFError, match="frame body"):
            read_frame(io.BytesIO(body))

    def test_desynced_header_raises(self):
        insane = (1 << 30).to_bytes(4, "big") + b"junk"
        with pytest.raises(EOFError, match="desynced"):
            read_frame(io.BytesIO(insane))


class TestLoopWorkerProtocol:
    def test_loop_worker_serves_many_frames_one_process(self):
        """One ``--loop`` worker process round-trips several payloads
        and exits 0 on clean stdin EOF — the real wire protocol."""
        payloads = payloads_for(golden_spec())[:2]
        proc = subprocess.Popen(
            default_worker_cmd(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=_worker_src_env(),
        )
        try:
            records = []
            for payload in payloads:
                write_frame(proc.stdin, pickle.dumps(payload.to_wire()))
                frame = read_frame(proc.stdout)
                records.append(json.loads(frame.decode("utf-8")))
            proc.stdin.close()
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
        assert [r["status"] for r in records] == ["ok", "ok"]
        assert [r["run_id"] for r in records] == [
            p.run_id for p in payloads
        ]
        # Writers stamp the minimal version describing the record — a
        # no-fault unit stays at the pre-fault-layer schema.
        for record in records:
            assert record["schema_version"] == record_schema_version(record)

    @pytest.mark.parametrize(
        "args", [["--loop", "--bogus"], []], ids=["bogus", "bare"]
    )
    def test_unknown_worker_args_exit_2(self, args):
        """``--loop`` is the worker's only mode; a bare invocation is a
        usage error like any unknown argument."""
        proc = subprocess.run(
            default_worker_cmd()[:-1] + args,
            input=b"",
            capture_output=True,
            env=_worker_src_env(),
            timeout=120,
        )
        assert proc.returncode == 2
        assert "unknown worker argument" in proc.stderr.decode()


class TestHostInventory:
    def test_localhost_inventory_spreads_units_and_matches_serial(
        self, tmp_path
    ):
        """A pool over a two-entry localhost inventory (default
        worker_cmd, no ssh) dispatches to both hosts, counts units per
        host, and reproduces the serial digest — the CI shape for
        pinning multi-host equivalence without real hosts."""
        data = golden_spec().to_dict()
        data["execution"]["backend"] = "pool"
        data["execution"]["hosts"] = ["localhost", "127.0.0.1"]
        spec = with_execution(RunSpec.from_dict(data), workers=1)
        out = tmp_path / "hosts"
        with tele.collect() as collector:
            result = FleetOrchestrator(out).run(spec)
        assert result.executed == 4 and result.failed == 0
        counters = collector.counters_dict()
        per_host = [
            counters[f"pool.host.{host}.units"]
            for host in ("localhost", "127.0.0.1")
        ]
        assert min(per_host) >= 1 and sum(per_host) == 4
        assert "pool.quarantines" not in counters
        serial_out = tmp_path / "serial"
        FleetOrchestrator(serial_out).run(
            with_execution(golden_spec(), backend="serial")
        )
        assert canonical_results_digest(out) == canonical_results_digest(
            serial_out
        )


class TestStickyAffinity:
    def test_same_substrate_payloads_hit_same_worker(self):
        """On one worker, every payload after the first of each affinity
        group is a sticky hit; the counters expose the warm-cache rate."""
        payloads = payloads_for(golden_spec())
        groups = {p.affinity for p in payloads}
        backend = PoolBackend(workers=1)
        try:
            with tele.collect() as collector:
                records = list(backend.execute(payloads))
        finally:
            backend.close()
        assert [r["status"] for r in records] == ["ok"] * len(payloads)
        counters = collector.counters_dict()
        assert counters["pool.units"] == len(payloads)
        assert counters["pool.spawns"] == 1
        assert counters["pool.affinity_hits"] == len(payloads) - len(groups)
        # Without an explicit inventory there are no per-host counters.
        assert not [name for name in counters if name.startswith("pool.host.")]

    def test_affinity_rides_payload_not_wire(self):
        payload = payloads_for(single_spec())[0]
        assert payload.affinity  # populated from substrate_affinity
        assert "affinity" not in payload.to_wire()


def _crashy_loop_worker(tmp_path, crash_seed: int) -> str:
    """A loop worker that dies mid-protocol for one seed."""
    script = tmp_path / "crashy_loop.py"
    script.write_text(
        textwrap.dedent(
            f"""\
            import json, pickle, sys
            from repro.fleet.backends.worker import read_frame, write_frame
            from repro.fleet.compile import execute_payload

            while True:
                data = read_frame(sys.stdin.buffer)
                if data is None:
                    sys.exit(0)
                payload = pickle.loads(data)
                if payload["seed"] == {crash_seed}:
                    print("synthetic loop crash", file=sys.stderr)
                    sys.exit(3)
                record = execute_payload(
                    payload["run_id"], payload["spec"], payload["axes"],
                    payload["seed"],
                )
                write_frame(
                    sys.stdout.buffer,
                    json.dumps(record, sort_keys=True).encode("utf-8"),
                )
            """
        ),
        encoding="utf-8",
    )
    return shlex.join([sys.executable, str(script)])


def _sleepy_loop_worker(tmp_path, sleep_seed: int) -> str:
    """A loop worker that hangs for one seed (the budget test)."""
    script = tmp_path / "sleepy_loop.py"
    script.write_text(
        textwrap.dedent(
            f"""\
            import json, pickle, sys, time
            from repro.fleet.backends.worker import read_frame, write_frame
            from repro.fleet.compile import execute_payload

            while True:
                data = read_frame(sys.stdin.buffer)
                if data is None:
                    sys.exit(0)
                payload = pickle.loads(data)
                if payload["seed"] == {sleep_seed}:
                    time.sleep(300)
                record = execute_payload(
                    payload["run_id"], payload["spec"], payload["axes"],
                    payload["seed"],
                )
                write_frame(
                    sys.stdout.buffer,
                    json.dumps(record, sort_keys=True).encode("utf-8"),
                )
            """
        ),
        encoding="utf-8",
    )
    return shlex.join([sys.executable, str(script)])


class TestPoolFailurePaths:
    def crash_spec(self) -> RunSpec:
        data = single_spec().to_dict()
        data["name"] = "crashy"
        data["sweep"] = {"replicates": 2, "axes": []}
        return RunSpec.from_dict(data)

    def test_worker_crash_respawns_and_rest_completes(self, tmp_path):
        backend = PoolBackend(
            workers=1, worker_cmd=_crashy_loop_worker(tmp_path, crash_seed=4)
        )
        try:
            with tele.collect() as collector:
                records = list(
                    backend.execute(payloads_for(self.crash_spec()))
                )
        finally:
            backend.close()
        by_status = {record["status"]: record for record in records}
        assert set(by_status) == {"ok", "crashed"}
        crashed = by_status["crashed"]
        assert "exit code 3" in crashed["error"]
        assert "synthetic loop crash" in crashed["error"]
        assert crashed["seed"] == 4
        # The dead worker was respawned in place for the healthy unit.
        assert collector.counters_dict()["pool.spawns"] == 2

    def test_hung_worker_times_out_and_rest_completes(self, tmp_path):
        backend = PoolBackend(
            workers=2, worker_cmd=_sleepy_loop_worker(tmp_path, sleep_seed=4)
        )
        started = time.monotonic()
        try:
            # The deadline clock includes worker startup + import, so
            # keep it comfortably above that but far below the hang.
            records = list(
                backend.execute(
                    payloads_for(self.crash_spec()), timeout_s=10.0
                )
            )
        finally:
            backend.close()
        assert time.monotonic() - started < 60
        by_status = {record["status"]: record for record in records}
        assert set(by_status) == {"ok", "timeout"}
        assert "UnitTimeout" in by_status["timeout"]["error"]

    def test_crash_becomes_error_record_and_cache_resumes(
        self, tmp_path, monkeypatch
    ):
        """Through the orchestrator: the pool crash is retried, gives up
        as a first-class error record (with the attempts count), the
        healthy unit's record survives, and a later run with the bundled
        (working) worker re-executes only the failed unit."""
        from repro.fleet import scheduler as scheduler_module

        worker_cmd = _crashy_loop_worker(tmp_path, crash_seed=4)
        monkeypatch.setattr(
            scheduler_module,
            "create_backend",
            lambda execution: PoolBackend(
                workers=execution.workers, worker_cmd=worker_cmd
            ),
        )
        out = tmp_path / "out"
        spec = with_execution(self.crash_spec(), backend="pool", max_retries=1)
        result = FleetOrchestrator(out).run(spec)
        assert result.failed == 1
        error = [r for r in result.records if r["status"] == "error"][0]
        assert "WorkerCrash" in error["error"]
        assert "gave up after 2 attempt(s)" in error["error"]
        assert error["attempts"] == 2  # first try + one retry

        monkeypatch.undo()
        retry = FleetOrchestrator(out).run(spec)
        assert retry.executed == 1 and retry.skipped == 1
        assert retry.failed == 0

    def test_close_reaps_worker_processes(self):
        backend = PoolBackend(workers=2)
        with backend:
            records = list(backend.execute(payloads_for(single_spec())))
            assert [r["status"] for r in records] == ["ok"]
            procs = [w.process for w in backend._pool]
            assert all(p.poll() is None for p in procs)
        assert backend._pool == []
        assert all(p.poll() is not None for p in procs)


def _host_keyed_worker(tmp_path) -> str:
    """A ``worker_cmd`` template whose behavior keys off ``{host}``: the
    ``bad`` host dies instantly, every other host serves the normal loop
    protocol."""
    script = tmp_path / "host_worker.py"
    script.write_text(
        textwrap.dedent(
            """\
            import sys

            if sys.argv[1] == "bad":
                print("host down", file=sys.stderr)
                sys.exit(7)
            from repro.fleet.backends.worker import serve_loop

            sys.exit(serve_loop(sys.stdin.buffer, sys.stdout.buffer))
            """
        ),
        encoding="utf-8",
    )
    return shlex.join([sys.executable, str(script)]) + " {host}"


def _pool_factory(monkeypatch, **pool_kwargs) -> list[PoolBackend]:
    """Route the scheduler's backends to a configured pool; returns the
    list the created backends are appended to."""
    from repro.fleet import scheduler as scheduler_module

    created: list[PoolBackend] = []

    def make_pool(execution):
        created.append(PoolBackend(workers=execution.workers, **pool_kwargs))
        return created[-1]

    monkeypatch.setattr(scheduler_module, "create_backend", make_pool)
    return created


class TestQuarantine:
    def test_crashing_host_is_quarantined_and_units_rerouted(
        self, tmp_path, monkeypatch
    ):
        """Fault injection: one host of two is dead.  Its units crash,
        the host is quarantined after the configured streak, and the
        scheduler's retries land every unit on the good host — the
        fleet ends with zero failures."""
        _pool_factory(
            monkeypatch,
            hosts=("good", "bad"),
            worker_cmd=_host_keyed_worker(tmp_path),
            quarantine_after=1,
        )
        out = tmp_path / "out"
        with tele.collect() as collector:
            result = FleetOrchestrator(out).run(
                with_execution(
                    golden_spec(), backend="pool", workers=1, max_retries=3
                )
            )
        assert result.failed == 0
        assert result.executed == 4
        counters = collector.counters_dict()
        assert counters["pool.quarantines"] == 1
        assert counters["pool.host.bad.crashes"] >= 1
        assert counters["pool.host.good.units"] == 4 + counters.get(
            "scheduler.retries", 0
        ) - counters["pool.host.bad.units"]
        serial_out = tmp_path / "serial"
        FleetOrchestrator(serial_out).run(
            with_execution(golden_spec(), backend="serial")
        )
        assert canonical_results_digest(out) == canonical_results_digest(
            serial_out
        )

    def test_siblings_dead_in_one_wake_up_are_drained_once(
        self, tmp_path, monkeypatch
    ):
        """Both workers of the ``bad`` host hit EOF in the same select
        wake-up: the first crash quarantines the host and drains its
        sibling, which the same wake-up must then skip rather than read
        from its closed process.  Holding every select until both bad
        workers have exited makes the double EOF deterministic."""
        created = _pool_factory(
            monkeypatch,
            hosts=("bad", "good"),
            worker_cmd=_host_keyed_worker(tmp_path),
            quarantine_after=1,
        )
        real_select = select.select

        def select_after_bad_exits(rlist, wlist, xlist, timeout=None):
            bad = [
                worker.process
                for worker in created[-1]._pool
                if worker.host == "bad" and worker.process is not None
            ]
            deadline = time.monotonic() + 30.0
            while (
                any(process.poll() is None for process in bad)
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            return real_select(rlist, wlist, xlist, timeout)

        monkeypatch.setattr(select, "select", select_after_bad_exits)
        with tele.collect() as collector:
            result = FleetOrchestrator(tmp_path / "out").run(
                with_execution(
                    golden_spec(), backend="pool", workers=2, max_retries=1
                )
            )
        assert result.failed == 0 and result.executed == 4
        counters = collector.counters_dict()
        assert counters["pool.quarantines"] == 1
        assert counters["scheduler.retries"] == 2  # both drained units

    @pytest.mark.parametrize(
        "hosts",
        [(), ("h1",), ("h1", "h2")],
        ids=["no-inventory", "one-host", "two-hosts"],
    )
    def test_dead_inventory_ends_in_errors(
        self, tmp_path, monkeypatch, hosts
    ):
        """A fully dead inventory terminates: the last usable host is
        never quarantined, so it keeps respawning and every unit ends
        as an ``error`` record once ``max_retries`` is spent."""
        script = tmp_path / "dead.py"
        script.write_text("import sys; sys.exit(9)\n", encoding="utf-8")
        _pool_factory(
            monkeypatch,
            hosts=hosts,
            worker_cmd=shlex.join([sys.executable, str(script)]),
            quarantine_after=1,
        )
        started = time.monotonic()
        with tele.collect() as collector:
            result = FleetOrchestrator(tmp_path / "out").run(
                with_execution(
                    golden_spec(), backend="pool", workers=1, max_retries=2
                )
            )
        assert time.monotonic() - started < 60
        assert [r["status"] for r in result.records] == ["error"] * 4
        assert all(r["attempts"] == 3 for r in result.records)
        assert "exit code 9" in result.records[0]["error"]
        counters = collector.counters_dict()
        assert counters.get("pool.quarantines", 0) == max(0, len(hosts) - 1)


class TestWorkerCmdTemplate:
    def test_empty_template_is_bundled_loop_worker(self):
        assert resolve_worker_cmd("") == default_worker_cmd()
        assert default_worker_cmd()[-1] == "--loop"

    def test_host_substitution(self):
        argv = resolve_worker_cmd(
            "ssh {host} python -m repro.fleet.backends.worker --loop",
            host="node1",
        )
        assert argv[:2] == ["ssh", "node1"]
        assert argv[-1] == "--loop"

    def test_bad_placeholder_rejected(self):
        with pytest.raises(SpecError, match="worker_cmd template"):
            resolve_worker_cmd("python {port}")

    def test_empty_render_rejected(self):
        with pytest.raises(SpecError, match="empty command"):
            resolve_worker_cmd("{host}", host="")


class TestBackendFactory:
    def test_create_pool_with_hosts(self):
        pool = create_backend(ExecutionSpec(backend="pool", workers=2))
        assert isinstance(pool, PoolBackend) and pool.workers == 2
        assert pool.hosts == ()
        execution = ExecutionSpec(
            backend="pool", hosts=("a", "b"), quarantine_after=2
        )
        pool = create_backend(execution)
        assert isinstance(pool, PoolBackend)
        assert pool.hosts == ("a", "b")
        assert pool.quarantine_after == 2

    def test_bad_quarantine_streak_rejected(self):
        with pytest.raises(SpecError, match="quarantine_after"):
            PoolBackend(hosts=("a",), quarantine_after=0)

    def test_hosts_need_the_pool_backend(self):
        """An inventory on any other backend fails validation instead
        of being silently ignored."""
        for backend in ("serial", "local"):
            with pytest.raises(SpecError, match="hosts"):
                ExecutionSpec(backend=backend, hosts=("a",))


class TestDispatchStats:
    def test_dispatch_stats_rows_with_dotted_hostnames(self):
        from repro.analysis.report import dispatch_stats

        rows = dict(
            dispatch_stats(
                {
                    "pool.units": 8,
                    "pool.spawns": 2,
                    "pool.affinity_hits": 6,
                    "pool.host.node1.example.com.units": 5,
                    "pool.host.node1.example.com.crashes": 1,
                    "pool.quarantines": 1,
                    "scheduler.retries": 2,
                }
            )
        )
        assert rows["pool units dispatched"] == "8"
        assert rows["pool warm-cache (affinity) hits"] == "6 (75.0%)"
        assert rows["host 'node1.example.com'"] == "5 unit(s), 1 crash(es)"
        assert rows["hosts quarantined"] == "1"
        assert rows["scheduler crash retries"] == "2"

    def test_dispatch_stats_empty_without_dispatch_counters(self):
        from repro.analysis.report import dispatch_stats

        assert dispatch_stats({"sim.samples": 10}) == []

    def test_fleet_report_surfaces_dispatch_stats(self, tmp_path, capsys):
        """``repro fleet report --telemetry`` renders the dispatch table
        for a pool fleet: units, spawns, warm-cache hit rate."""
        from repro.cli import main

        out = tmp_path / "out"
        FleetOrchestrator(out).run(
            with_execution(
                golden_spec(), workers=2, backend="pool", telemetry=True
            )
        )
        assert main(["fleet", "report", str(out), "--telemetry"]) == 0
        text = capsys.readouterr().out
        assert "dispatch stats" in text
        assert "pool units dispatched" in text
        assert "pool worker spawns" in text
        assert "pool warm-cache (affinity) hits" in text
        # One implicit host: no per-host or quarantine rows.
        assert "host '" not in text and "quarantined" not in text


class TestStreamProtocol:
    def test_base_execute_stream_consumes_appends(self):
        """The base-class fallback keeps draining payloads appended to
        the live queue mid-stream (how crash retries reach batch
        backends)."""
        payloads = payloads_for(golden_spec())
        source = deque(payloads[:1])
        backend = SerialBackend()
        seen = []
        stream = backend.execute_stream(source)
        for record in stream:
            seen.append(record["run_id"])
            if len(seen) == 1:
                source.extend(payloads[1:3])
        assert seen == [p.run_id for p in payloads[:3]]

    def test_scheduler_closes_backend_on_error(self, tmp_path):
        """Backends are context-managed by the scheduler: a blown-up
        execution must still reap the pool's workers."""
        closed = []

        class ExplodingBackend(SerialBackend):
            def execute_stream(self, source, timeout_s=None):
                raise RuntimeError("boom")
                yield  # pragma: no cover

            def close(self):
                closed.append(True)

        scheduler = FleetScheduler(
            backend_factory=lambda execution: ExplodingBackend()
        )
        units = expand_matrix(single_spec())
        with pytest.raises(RuntimeError, match="boom"):
            scheduler.run(units, {})
        assert closed == [True]
