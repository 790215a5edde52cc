"""Tests for repro.service: the long-lived online placement service.

The two correctness pins from the service-mode issue live here:

* **Replay determinism** — feeding an identical request log to two
  fresh service instances produces byte-identical ``decisions.jsonl``
  files (latency is observational, never logged into decisions).
* **Simulator equivalence** — a trace driven through the service (with
  refinement disabled) lands on the same final placement, phi and
  active set as the :class:`ConferencingSimulator` playing the same
  trace with hops quiesced.  One engine, two frontends.

Plus the error-path contract: malformed payloads, infeasible arrivals
and fault-window rejections each answer a structured error, leave the
live placement untouched, and keep the process alive.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import InfeasibleError
from repro.fleet.compile import compile_trace
from repro.fleet.spec import RunSpec, SimulationSpec, WorkloadSpec
from repro.runtime.dynamics import TraceEvent
from repro.runtime.faults import Fault, FaultSchedule
from repro.runtime.simulation import ConferencingSimulator
from repro.runtime.traces import dump_trace
from repro.service import (
    HTTPServiceClient,
    InProcessClient,
    PlacementService,
    ServiceConfig,
    ServiceServer,
    drive_trace,
    initial_sids_of,
    service_from_spec,
)

#: Quiesced simulation: hops effectively never fire inside the horizon,
#: so placement is fully determined by arrivals/departures/resizes.
QUIET_SIM = SimulationSpec(
    duration_s=40.0, hop_interval_mean_s=1.0e9, seed=3
)


def service_spec(num_sessions: int = 5) -> RunSpec:
    return RunSpec(
        name="svc",
        workload=WorkloadSpec(kind="prototype", num_sessions=num_sessions),
        simulation=QUIET_SIM,
    )


#: A small churn story over a 4-session pool (fits the default
#: ``prototype_smoke`` spec too): grow, shrink, renegotiate, return.
TRACE = (
    TraceEvent(0.0, "arrive", 0),
    TraceEvent(0.0, "arrive", 1),
    TraceEvent(5.0, "arrive", 2),
    TraceEvent(8.0, "arrive", 3),
    TraceEvent(12.0, "depart", 1),
    TraceEvent(15.0, "resize", 0),
    TraceEvent(20.0, "arrive", 1),
    TraceEvent(25.0, "depart", 3),
)


def make_service(config: ServiceConfig | None = None, **spec_kwargs):
    return service_from_spec(
        service_spec(**spec_kwargs),
        initial_sids=initial_sids_of(TRACE),
        config=config,
    )


class TestRequestSurface:
    def test_arrive_returns_full_decision(self):
        client = InProcessClient(make_service())
        response = client.arrive(2, time_s=1.0)
        assert response["status"] == "ok"
        assert response["op"] == "arrive"
        assert response["sid"] == 2
        assert set(response["placement"]) == {"users", "tasks"}
        assert response["placement"]["users"]  # non-empty
        assert response["active"] == 3
        assert response["phi"] > 0.0
        assert response["session_phi"] > 0.0
        assert isinstance(response["refined"], int)
        assert response["latency_ms"] >= 0.0
        assert isinstance(response["budget_overrun"], bool)

    def test_snapshot_names_every_live_user_and_task(self):
        service = make_service()
        snap = InProcessClient(service).snapshot()
        assert snap["active_sids"] == [0, 1]
        conference = service.live.conference
        expected_users = {
            str(uid)
            for sid in (0, 1)
            for uid in conference.session(sid).user_ids
        }
        assert set(snap["users"]) == expected_users
        assert snap["phi"] == service.live.total_phi()
        assert snap["hops"] == 0

    def test_depart_then_rearrive_round_trips(self):
        client = InProcessClient(make_service())
        assert client.depart(1, time_s=1.0)["active"] == 1
        back = client.arrive(1, time_s=2.0)
        assert back["status"] == "ok"
        assert back["active"] == 2

    def test_resolve_recomputes_from_scratch(self):
        client = InProcessClient(make_service())
        client.arrive(2, time_s=1.0)
        response = client.resolve(time_s=2.0)
        assert response["status"] == "ok"
        assert response["active"] == 3

    def test_metrics_counts_decisions(self):
        client = InProcessClient(make_service())
        client.arrive(2, time_s=1.0)
        client.depart(2, time_s=2.0)
        client.request({"op": "depart", "sid": 2, "time_s": 3.0})  # error
        metrics = client.metrics()
        assert metrics["decisions"] >= 3
        assert metrics["errors"] == 1
        assert metrics["by_op"]["arrive"] == 1
        assert metrics["latency_p99_ms"] >= 0.0


class TestReplayDeterminism:
    #: A request log mixing ok decisions and rejected requests.
    REQUESTS = (
        {"op": "arrive", "sid": 2, "time_s": 1.0},
        {"op": "arrive", "sid": 2, "time_s": 2.0},  # duplicate -> error
        {"op": "resize", "sid": 0, "time_s": 3.0},
        {"op": "depart", "sid": 1, "time_s": 4.0},
        {"op": "snapshot"},  # read-only: not decision-logged
        {"op": "arrive", "sid": 99, "time_s": 5.0},  # unknown_session
        {"op": "resolve", "time_s": 6.0},
        {"op": "arrive", "sid": 3, "time_s": 7.0},
    )

    def replay(self, tmp_path, tag: str) -> bytes:
        log = tmp_path / f"decisions-{tag}.jsonl"
        service = make_service(ServiceConfig(decision_log=str(log)))
        client = InProcessClient(service)
        for payload in self.REQUESTS:
            client.request(dict(payload))
        return log.read_bytes()

    def test_identical_request_log_gives_byte_identical_decisions(
        self, tmp_path
    ):
        assert self.replay(tmp_path, "a") == self.replay(tmp_path, "b")

    def test_decision_log_excludes_latency_fields(self, tmp_path):
        raw = self.replay(tmp_path, "c")
        records = [json.loads(line) for line in raw.splitlines()]
        # Mutating ops and errors only; snapshot is absent.
        assert len(records) == len(self.REQUESTS) - 1
        for record in records:
            assert "latency_ms" not in record
            assert "budget_overrun" not in record
        assert [r["status"] for r in records].count("error") == 2

    def test_http_and_inprocess_drives_match(self, tmp_path):
        logs = []
        for tag in ("inproc", "http"):
            log = tmp_path / f"decisions-{tag}.jsonl"
            service = make_service(ServiceConfig(decision_log=str(log)))
            if tag == "inproc":
                client = InProcessClient(service)
                report = drive_trace(client, TRACE)
            else:
                server = ServiceServer(service, port=0).start()
                try:
                    client = HTTPServiceClient(server.url)
                    report = drive_trace(client, TRACE)
                finally:
                    server.shutdown()
            assert report.errors == 0
            assert report.events == 6
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]


class TestSimulatorEquivalence:
    def test_service_drive_matches_quiesced_simulator(self):
        """The tentpole pin: one trace, two frontends, bit-identical
        placement.  Simulator hops are quiesced (enormous WAIT mean)
        and service refinement is disabled, so both sides reduce to the
        same arrive/depart/resize splices on the shared engine."""
        spec = service_spec()
        compiled = compile_trace(list(TRACE), spec)
        result = ConferencingSimulator(
            compiled.evaluator,
            compiled.schedule,
            compiled.config,
            noise=compiled.noise,
        ).run()

        service = service_from_spec(
            spec,
            initial_sids=initial_sids_of(TRACE),
            config=ServiceConfig(refine_hops=0),
        )
        report = drive_trace(InProcessClient(service), TRACE)
        assert report.errors == 0

        live = service.live
        assert live.assignment == result.final_assignment
        assert live.active_sessions == [0, 1, 2]
        assert live.total_phi() == result.final_value("phi")

    def test_refinement_only_improves(self):
        """With refinement on, the service's phi is never worse than the
        splice-only placement (greedy commits are strictly improving)."""
        plain = service_from_spec(
            service_spec(),
            initial_sids=initial_sids_of(TRACE),
            config=ServiceConfig(refine_hops=0),
        )
        refined = service_from_spec(
            service_spec(),
            initial_sids=initial_sids_of(TRACE),
            config=ServiceConfig(refine_hops=4),
        )
        drive_trace(InProcessClient(plain), TRACE)
        drive_trace(InProcessClient(refined), TRACE)
        assert refined.live.total_phi() <= plain.live.total_phi()


def snapshot_of(service: PlacementService) -> dict:
    return service.request({"op": "snapshot"})


def assert_state_unchanged(service: PlacementService, before: dict) -> None:
    after = snapshot_of(service)
    for key in ("active_sids", "users", "tasks", "phi"):
        assert after[key] == before[key]


class TestErrorPaths:
    """Satellite: every rejection is structured, state-preserving, and
    non-fatal — the service keeps answering afterwards."""

    @pytest.mark.parametrize(
        "payload, code",
        [
            ("not a dict", "malformed"),
            ([1, 2, 3], "malformed"),
            ({"op": "teleport", "sid": 0}, "malformed"),
            ({"op": "arrive"}, "malformed"),  # sid missing
            ({"op": "arrive", "sid": "zero"}, "malformed"),
            ({"op": "arrive", "sid": True}, "malformed"),
            ({"op": "arrive", "sid": 2, "when": 4.0}, "malformed"),
            ({"op": "arrive", "sid": 2, "time_s": -1.0}, "malformed"),
            ({"op": "arrive", "sid": 2, "time_s": float("nan")}, "malformed"),
            ({"op": "snapshot", "sid": 0}, "malformed"),
            ({"op": "arrive", "sid": 99}, "unknown_session"),
            ({"op": "arrive", "sid": 0}, "duplicate_session"),
            ({"op": "depart", "sid": 2}, "inactive_session"),
            ({"op": "resize", "sid": 2}, "inactive_session"),
        ],
    )
    def test_rejection_preserves_state_and_process(self, payload, code):
        service = make_service()
        before = snapshot_of(service)
        response = service.request(payload)
        assert response["status"] == "error"
        assert response["error"]["code"] == code
        assert response["error"]["message"]
        assert_state_unchanged(service, before)
        # Still alive: a valid request succeeds afterwards.
        assert service.request({"op": "arrive", "sid": 2})["status"] == "ok"

    def test_last_session_cannot_depart(self):
        service = service_from_spec(service_spec(), initial_sids=[0])
        before = snapshot_of(service)
        response = service.request({"op": "depart", "sid": 0})
        assert response["error"]["code"] == "empty_conference"
        assert_state_unchanged(service, before)

    def test_time_regression_rejected(self):
        service = make_service()
        assert service.request(
            {"op": "arrive", "sid": 2, "time_s": 10.0}
        )["status"] == "ok"
        before = snapshot_of(service)
        response = service.request(
            {"op": "depart", "sid": 2, "time_s": 5.0}
        )
        assert response["error"]["code"] == "time_regression"
        assert_state_unchanged(service, before)
        # The clock did not advance on the rejection.
        assert service.request(
            {"op": "depart", "sid": 2, "time_s": 10.0}
        )["status"] == "ok"

    def test_infeasible_arrival_is_structured_and_state_preserving(
        self, monkeypatch
    ):
        service = make_service()
        before = snapshot_of(service)

        def explode(*args, **kwargs):
            raise InfeasibleError("capacity exhausted")

        monkeypatch.setattr(service.live, "arrive", explode)
        monkeypatch.setattr(service.live, "resolve_from_scratch", explode)
        response = service.request({"op": "arrive", "sid": 2})
        assert response["status"] == "error"
        assert response["error"]["code"] == "infeasible"
        assert "capacity exhausted" in response["error"]["message"]
        assert_state_unchanged(service, before)
        monkeypatch.undo()
        assert service.request({"op": "arrive", "sid": 2})["status"] == "ok"

    def test_infeasible_splice_falls_back_to_from_scratch(self, monkeypatch):
        """First-chance incremental placement fails -> the whole-
        placement re-solve admits the session and the decision is
        flagged as a fallback."""
        service = make_service()

        def explode(sid):
            raise InfeasibleError("splice does not fit")

        monkeypatch.setattr(service.live, "arrive", explode)
        response = service.request({"op": "arrive", "sid": 2})
        assert response["status"] == "ok"
        assert response["fallback"] is True
        assert 2 in service.live.active_sessions

    def test_fault_window_rejects_mutations_not_reads(self):
        faults = FaultSchedule(
            faults=(Fault("outage", 0, 10.0, 20.0, 1.0),)
        )
        base = make_service()
        service = PlacementService(base.live, faults=faults)
        before = snapshot_of(service)
        inside = service.request({"op": "arrive", "sid": 2, "time_s": 15.0})
        assert inside["status"] == "error"
        assert inside["error"]["code"] == "fault_window"
        assert "outage" in inside["error"]["message"]
        assert_state_unchanged(service, before)
        # Read-only ops pass through the window...
        assert service.request({"op": "snapshot"})["status"] == "ok"
        # ...and the same mutation lands once the window clears.
        after = service.request({"op": "arrive", "sid": 2, "time_s": 20.0})
        assert after["status"] == "ok"


class TestHTTPTransport:
    def test_round_trip_and_structured_errors(self):
        server = ServiceServer(make_service(), port=0).start()
        try:
            client = HTTPServiceClient(server.url)
            ok = client.arrive(2, time_s=1.0)
            assert ok["status"] == "ok"
            assert ok["placement"]["users"]
            snap = client.snapshot()
            assert sorted(snap["active_sids"]) == [0, 1, 2]
            bad = client.request({"op": "teleport"})
            assert bad["status"] == "error"
            assert bad["error"]["code"] == "malformed"
            dup = client.arrive(2, time_s=2.0)
            assert dup["error"]["code"] == "duplicate_session"
            metrics = client.metrics()
            assert metrics["decisions"] >= 4
        finally:
            server.shutdown()

    def test_keep_alive_round_trips_do_not_stall(self):
        """Replies on a kept-alive connection go out at once: with
        Nagle's algorithm on, the body of each two-write reply waited
        for the client's delayed ACK (~40 ms per request)."""
        import http.client
        import time

        server = ServiceServer(make_service(), port=0).start()
        connection = http.client.HTTPConnection(server.host, server.port, timeout=5)
        try:
            elapsed_ms = []
            for _ in range(50):
                start = time.perf_counter()
                connection.request("GET", "/metrics")
                response = connection.getresponse()
                body = json.loads(response.read())
                elapsed_ms.append((time.perf_counter() - start) * 1e3)
                assert response.status == 200
                assert body["status"] == "ok"
            assert max(elapsed_ms) < 20.0, elapsed_ms
        finally:
            connection.close()
            server.shutdown()

    def test_shutdown_endpoint_stops_the_server(self):
        import time

        server = ServiceServer(make_service(), port=0).start()
        client = HTTPServiceClient(server.url, timeout_s=1.0)
        assert client.shutdown()["status"] == "ok"
        # The endpoint answers before the loop stops (it must not
        # deadlock its own handler), so poll until the port goes dark.
        deadline = time.time() + 5.0
        while time.time() < deadline:
            try:
                client.snapshot()
            except OSError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("server still answering after shutdown")


class TestMetricsArtifacts:
    def test_rolling_metrics_log_is_written(self, tmp_path):
        path = tmp_path / "service.jsonl"
        service = make_service(
            ServiceConfig(metrics_log=str(path), metrics_flush_every=2)
        )
        client = InProcessClient(service)
        for i, sid in enumerate((2, 3, 4)):
            client.arrive(sid, time_s=float(i + 1))
        lines = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert lines, "flush_every=2 must have produced snapshots"
        last = lines[-1]
        assert last["decisions"] >= 2
        assert "latency_p99_ms" in last
        assert len(last["latency_histogram"]) == len(
            last["latency_buckets_ms"]
        ) + 1
        assert sum(last["latency_histogram"]) == last["decisions"]


class TestServeCLI:
    def write_trace(self, tmp_path):
        path = tmp_path / "churn.jsonl"
        dump_trace(list(TRACE), path)
        return path

    def run_drive(self, tmp_path, capsys, tag, extra=()):
        trace = self.write_trace(tmp_path)
        decisions = tmp_path / f"decisions-{tag}.jsonl"
        argv = [
            "serve",
            "--drive",
            str(trace),
            "--decisions",
            str(decisions),
            *extra,
        ]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        return decisions.read_bytes(), summary

    def test_drive_replay_is_byte_identical(self, tmp_path, capsys):
        first, summary = self.run_drive(tmp_path, capsys, "a")
        second, _ = self.run_drive(tmp_path, capsys, "b")
        assert first == second
        assert summary["events"] == 6
        assert summary["errors"] == 0
        assert summary["metrics"]["decisions"] >= 6

    def test_http_drive_matches_in_process(self, tmp_path, capsys):
        inproc, _ = self.run_drive(tmp_path, capsys, "inproc")
        http, _ = self.run_drive(tmp_path, capsys, "http", extra=["--http"])
        assert inproc == http

    def test_bad_spec_is_a_usage_error(self, tmp_path, capsys):
        trace = self.write_trace(tmp_path)
        assert (
            main(["serve", "--spec", "nope_not_real", "--drive", str(trace)])
            == 2
        )
        assert "nope_not_real" in capsys.readouterr().err
