"""Execution backends: cross-backend bit-equivalence on a golden spec,
the ``local`` rule, and the pool worker's environment (a worker that
floods stderr or starts from a foreign working directory still
completes)."""

import pickle
import shlex
import sys
import textwrap

import pytest

from repro.analysis.report import canonical_results_digest
from repro.errors import SpecError
from repro.fleet.backends import (
    PoolBackend,
    RunPayload,
    SerialBackend,
    create_backend,
)
from repro.fleet.matrix import expand_matrix
from repro.fleet.orchestrator import FleetOrchestrator
from repro.fleet.spec import (
    AxisSpec,
    ExecutionSpec,
    RunSpec,
    SimulationSpec,
    SweepSpec,
    WorkloadSpec,
)


def golden_spec() -> RunSpec:
    """The golden library-shaped sweep every backend must agree on."""
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


def single_spec(num_sessions: int = 2) -> RunSpec:
    return RunSpec(
        name="one",
        workload=WorkloadSpec(num_sessions=num_sessions),
        simulation=SimulationSpec(
            duration_s=6.0, hop_interval_mean_s=3.0, seed=3
        ),
    )


def payloads_for(spec: RunSpec) -> list[RunPayload]:
    return [RunPayload.from_unit(unit) for unit in expand_matrix(spec)]


class TestBackendEquivalence:
    #: Content-hash ids of the golden matrix — pinned so resume caches
    #: stay valid across refactors (pure hashing, no floats involved).
    GOLDEN_RUN_IDS = [
        "32b21458e43f",
        "99a9394de167",
        "10724dc7b97f",
        "a60b334fd934",
    ]

    def test_golden_run_ids_are_stable(self):
        units = expand_matrix(golden_spec())
        assert [unit.run_id for unit in units] == self.GOLDEN_RUN_IDS

    def test_all_backends_bit_identical_on_golden_spec(self, tmp_path):
        """The acceptance criterion: serial, local, pool and a pool over
        a localhost inventory agree bit-for-bit on the golden spec's
        results.jsonl (canonical form, i.e. modulo the nondeterministic
        wall_time_s)."""
        with_hosts = golden_spec().to_dict()
        with_hosts["execution"]["backend"] = "pool"
        with_hosts["execution"]["hosts"] = ["localhost", "127.0.0.1"]
        digests = {}
        for label, backend, workers, spec in (
            ("serial", "serial", 1, golden_spec()),
            ("local", "local", 2, golden_spec()),
            ("pool", "pool", 2, golden_spec()),
            ("hosts", None, 1, RunSpec.from_dict(with_hosts)),
        ):
            out = tmp_path / label
            result = FleetOrchestrator(
                out, workers=workers, backend=backend
            ).run(spec)
            assert result.executed == 4 and result.failed == 0
            digests[label] = canonical_results_digest(out)
        assert len(set(digests.values())) == 1, digests

    def test_local_default_path_byte_stable_across_runs(self, tmp_path):
        """Two cold runs of the default parallel path (``local`` with 2
        workers, which resolves to the pool) digest identically."""
        first = FleetOrchestrator(tmp_path / "a", workers=2).run(golden_spec())
        second = FleetOrchestrator(tmp_path / "b", workers=2).run(golden_spec())
        assert first.failed == second.failed == 0
        assert canonical_results_digest(
            tmp_path / "a"
        ) == canonical_results_digest(tmp_path / "b")

    def test_payload_is_picklable_plain_data(self):
        payload = payloads_for(single_spec())[0]
        clone = pickle.loads(pickle.dumps(payload))
        assert clone == payload
        assert isinstance(clone.spec, dict)
        wire = payload.to_wire()
        assert set(wire) == {"run_id", "spec", "axes", "seed", "telemetry"}

    def test_create_backend_registry(self):
        assert isinstance(create_backend("serial"), SerialBackend)
        assert isinstance(create_backend("pool", workers=2), PoolBackend)
        for removed in ("cluster", "subprocess", "remote"):
            with pytest.raises(SpecError, match="unknown execution backend"):
                create_backend(removed)

    def test_local_rule(self):
        """``local`` is a rule, not a backend: in-process for at most
        one worker without a budget, the pool whenever units run in
        parallel or must be killable."""
        assert isinstance(create_backend("local", workers=0), SerialBackend)
        assert isinstance(create_backend("local", workers=1), SerialBackend)
        pool = create_backend("local", workers=2)
        assert isinstance(pool, PoolBackend) and pool.workers == 2
        budgeted = ExecutionSpec(unit_timeout_s=30.0, worker_cmd="w {host}")
        pool = create_backend("local", workers=1, execution=budgeted)
        assert isinstance(pool, PoolBackend) and pool.worker_cmd == "w {host}"

    def test_unknown_backend_rejected_by_orchestrator(self, tmp_path):
        for removed in ("cluster", "subprocess", "remote"):
            with pytest.raises(SpecError, match="backend"):
                FleetOrchestrator(tmp_path, backend=removed)


class TestPoolWorkerEnvironment:
    def test_noisy_worker_output_cannot_deadlock_dispatch(self, tmp_path):
        """A loop worker spewing far more than one OS pipe buffer
        (~64 KiB) on stderr must still complete: worker stderr is
        spooled to a temp file, never to a pipe the dispatcher would
        leave full."""
        noisy = tmp_path / "noisy_worker.py"
        noisy.write_text(
            textwrap.dedent(
                """\
                import sys

                for _ in range(2000):
                    print("x" * 120, file=sys.stderr)  # ~240 KiB
                from repro.fleet.backends.worker import serve_loop

                sys.exit(serve_loop(sys.stdin.buffer, sys.stdout.buffer))
                """
            ),
            encoding="utf-8",
        )
        backend = PoolBackend(
            workers=1, worker_cmd=shlex.join([sys.executable, str(noisy)])
        )
        with backend:
            records = list(backend.execute(payloads_for(single_spec())))
        assert [record["status"] for record in records] == ["ok"]

    def test_worker_env_survives_foreign_cwd(self, tmp_path, monkeypatch):
        """The dispatcher absolutizes PYTHONPATH for its children, so a
        fleet started from an unrelated working directory still finds
        the repro package in its workers."""
        monkeypatch.chdir(tmp_path)
        with PoolBackend(workers=1) as backend:
            records = list(backend.execute(payloads_for(single_spec())))
        assert [record["status"] for record in records] == ["ok"]


class TestSerialBudget:
    def test_serial_detects_budget_post_hoc(self, monkeypatch):
        """The in-process backend cannot kill a unit, but an over-budget
        unit still comes back as a first-class timeout record."""
        payload = payloads_for(single_spec())[0]

        def pretend_slow(self):
            return {
                "status": "ok",
                "run_id": self.run_id,
                "wall_time_s": 99.0,
            }

        monkeypatch.setattr(RunPayload, "execute", pretend_slow)
        records = list(SerialBackend().execute([payload], timeout_s=1.0))
        assert records[0]["status"] == "timeout"
        assert "UnitTimeout" in records[0]["error"]

    def test_serial_without_budget_passes_records_through(self):
        payload = payloads_for(single_spec())[0]
        records = list(SerialBackend().execute([payload]))
        assert records[0]["status"] == "ok"
        assert records[0]["run_id"] == payload.run_id
