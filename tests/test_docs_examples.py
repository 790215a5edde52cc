"""No silent doc rot: every fenced ``repro ...`` command in README.md
and EXPERIMENTS.md must parse against the real argparse tree, and the
EXPERIMENTS.md "Comparing fleets" walkthrough must execute verbatim."""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import _build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "EXPERIMENTS.md")

_FENCE = re.compile(r"```(?:bash|sh|console)?\n(.*?)```", re.DOTALL)


def fenced_repro_commands(text: str) -> list[str]:
    """``repro ...`` command lines inside fenced code blocks.

    Trailing comments and pipelines are stripped — what is parsed is
    exactly the argv a shell would hand to the ``repro`` entry point.
    """
    commands = []
    for block in _FENCE.findall(text):
        for line in block.splitlines():
            line = line.split("#", 1)[0].split("|", 1)[0].strip()
            if line.startswith("repro "):
                commands.append(line)
    return commands


def _all_documented_commands() -> list[tuple[str, str]]:
    found = []
    for doc in DOCS:
        text = (REPO_ROOT / doc).read_text(encoding="utf-8")
        found.extend((doc, command) for command in fenced_repro_commands(text))
    return found


COMMANDS = _all_documented_commands()


def test_docs_contain_fenced_repro_commands():
    assert len(COMMANDS) >= 10  # the quickstart + walkthrough corpus
    assert any("fleet report" in command for _doc, command in COMMANDS)


@pytest.mark.parametrize(
    "doc,command", COMMANDS, ids=[f"{d}:{c}" for d, c in COMMANDS]
)
def test_documented_command_parses(doc, command):
    argv = shlex.split(command)[1:]
    parser = _build_parser()
    try:
        parser.parse_args(argv)
    except SystemExit as error:  # argparse rejected the documented usage
        pytest.fail(
            f"{doc} documents {command!r}, which the CLI rejects "
            f"(exit {error.code}); fix the doc or the parser"
        )


class TestChurnSweepWalkthrough:
    """The EXPERIMENTS.md churn-sweep commands actually execute."""

    @pytest.fixture(scope="class")
    def walkthrough(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        section = text.split("## Churn sweeps", 1)[1]
        section = section.split("\n## ", 1)[0]
        commands = fenced_repro_commands(section)
        assert len(commands) == 4, commands
        return commands

    def test_walkthrough_executes(self, walkthrough, tmp_path, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        for command in walkthrough:
            argv = shlex.split(command)[1:]
            assert main(argv) == 0, f"walkthrough command failed: {command}"
        trace_text = (tmp_path / "runs/churn.csv").read_text(encoding="utf-8")
        assert trace_text.startswith("time_s,event,sid\n")
        results = (tmp_path / "runs/churn-sweep/results.jsonl").read_text(
            encoding="utf-8"
        )
        records = [json.loads(line) for line in results.splitlines()]
        assert len(records) == 4
        assert all(record["status"] == "ok" for record in records)
        assert {r["axes"]["churn.trace.rate_per_s"] for r in records} == {
            0.05,
            0.2,
        }


class TestChaosSweepWalkthrough:
    """The EXPERIMENTS.md chaos-sweep commands execute, and the claims
    they make — schema-v4 resilience metrics, per-replicate storms, a
    resilience summary in the report — hold on the actual output."""

    @pytest.fixture(scope="class")
    def walkthrough(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        section = text.split("## Chaos sweeps", 1)[1]
        section = section.split("\n## ", 1)[0]
        commands = fenced_repro_commands(section)
        assert len(commands) == 3, commands
        return commands

    def test_walkthrough_executes(
        self, walkthrough, tmp_path, monkeypatch, capsys
    ):
        import json

        monkeypatch.chdir(tmp_path)
        for command in walkthrough:
            argv = shlex.split(command)[1:]
            assert main(argv) == 0, f"walkthrough command failed: {command}"

        def records(name):
            path = tmp_path / "runs" / name / "results.jsonl"
            return [
                json.loads(line)
                for line in path.read_text(encoding="utf-8").splitlines()
            ]

        outage = records("outage")
        assert len(outage) == 2  # the spec's 2 seed replicates
        for record in outage:
            assert record["status"] == "ok"
            assert record["schema_version"] == 4
            assert record["faults_injected"] == 2
            assert "recovery_mean_s" in record and "sla_violation_s" in record

        chaos = records("chaos")
        assert len(chaos) == 4  # 2 rates x 2 replicates
        assert {r["axes"]["faults.chaos.rate_per_s"] for r in chaos} == {
            0.05,
            0.2,
        }
        assert len({r["run_id"] for r in chaos}) == 4
        # The report (last command, on stdout) appends the resilience
        # summary table next to the standard fleet summary.
        captured = capsys.readouterr()
        assert "resilience summary" in captured.out
        assert "faults_injected" in captured.out


class TestBudgetedSweepWalkthrough:
    """The EXPERIMENTS.md budgeted-sweep commands actually execute, and
    the pruning/backed-equivalence claims they make hold."""

    @pytest.fixture(scope="class")
    def walkthrough(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        section = text.split("## Budgeted sweeps", 1)[1]
        section = section.split("\n## ", 1)[0]
        commands = fenced_repro_commands(section)
        assert len(commands) == 4, commands
        return commands

    def test_walkthrough_executes(self, walkthrough, tmp_path, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        for command in walkthrough:
            argv = shlex.split(command)[1:]
            assert main(argv) == 0, f"walkthrough command failed: {command}"

        def records(name):
            path = tmp_path / "runs" / name / "results.jsonl"
            return [
                json.loads(line)
                for line in path.read_text(encoding="utf-8").splitlines()
            ]

        full, halved = records("full"), records("halved")
        assert len(full) == len(halved) == 8
        assert [r["status"] for r in full] == ["ok"] * 8
        statuses = [r["status"] for r in halved]
        assert statuses.count("ok") == 6 and statuses.count("pruned") == 2
        # Surviving points' records are bit-identical to the full run.
        by_id = {r["run_id"]: r for r in full}
        for record in halved:
            if record["status"] != "ok":
                assert record["rung"] == 0
                continue
            strip = lambda r: {
                k: v for k, v in r.items() if k != "wall_time_s"
            }
            assert strip(record) == strip(by_id[record["run_id"]])
        # The budgeted pool run produced a clean record too.
        budgeted = records("budgeted")
        assert [r["status"] for r in budgeted] == ["ok"]


class TestClusterSweepWalkthrough:
    """The EXPERIMENTS.md cluster-sweep commands actually execute, and
    the pool/host-inventory/halving/budget claims the section makes
    hold."""

    @pytest.fixture(scope="class")
    def walkthrough(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        section = text.split("## Cluster sweeps", 1)[1]
        section = section.split("\n## ", 1)[0]
        commands = fenced_repro_commands(section)
        assert len(commands) == 5, commands
        return commands

    def test_walkthrough_executes(
        self, walkthrough, tmp_path, monkeypatch, capsys
    ):
        import json

        monkeypatch.chdir(tmp_path)
        for command in walkthrough:
            argv = shlex.split(command)[1:]
            assert main(argv) == 0, f"walkthrough command failed: {command}"

        def records(name):
            path = tmp_path / "runs" / name / "results.jsonl"
            return [
                json.loads(line)
                for line in path.read_text(encoding="utf-8").splitlines()
            ]

        pooled = records("pooled")
        assert len(pooled) == 8
        assert [r["status"] for r in pooled] == ["ok"] * 8
        # The localhost-inventory run produced a clean record.
        hosts = records("hosts")
        assert [r["status"] for r in hosts] == ["ok"]
        # Halving on the pool prunes 2 replicates, and its surviving
        # records are bit-identical to the full pooled run.
        halved = records("halved-pool")
        assert len(halved) == 8
        statuses = [r["status"] for r in halved]
        assert statuses.count("ok") == 6 and statuses.count("pruned") == 2
        by_id = {r["run_id"]: r for r in pooled}
        # The pooled run embeds telemetry (`--telemetry`); drop the same
        # volatile fields canonical_results_digest does.
        volatile = {"wall_time_s", "counters", "timings", "attempts"}
        strip = lambda r: {k: v for k, v in r.items() if k not in volatile}
        for record in halved:
            if record["status"] == "ok":
                assert strip(record) == strip(by_id[record["run_id"]])
        # The starved sweep dispatched nothing: first-class unscheduled
        # records, counted apart from failures.
        starved = records("starved")
        assert [r["status"] for r in starved] == ["unscheduled"] * 8
        assert all(r["schema_version"] == 6 for r in starved)
        assert all("FleetBudget" in r["error"] for r in starved)
        # The report renders the dispatch-stats table for the pool run.
        out = capsys.readouterr().out
        assert "dispatch stats" in out
        assert "pool units dispatched" in out
        assert "pool warm-cache (affinity) hits" in out


class TestProfilingSweepWalkthrough:
    """The EXPERIMENTS.md profiling commands execute and the telemetry
    artifacts they describe exist and parse."""

    @pytest.fixture(scope="class")
    def walkthrough(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        section = text.split("## Profiling a sweep", 1)[1]
        section = section.split("\n## ", 1)[0]
        commands = fenced_repro_commands(section)
        assert len(commands) == 2, commands
        return commands

    def test_walkthrough_executes(
        self, walkthrough, tmp_path, monkeypatch, capsys
    ):
        from repro.telemetry import load_run_telemetry, span_names

        monkeypatch.chdir(tmp_path)
        for command in walkthrough:
            argv = shlex.split(command)[1:]
            assert main(argv) == 0, f"walkthrough command failed: {command}"
        captured = capsys.readouterr()
        # The live ticker lives on stderr; the report is on stdout.
        assert "fleet 4/4" in captured.err
        assert "phase-time breakdown" in captured.out
        telemetry = load_run_telemetry(tmp_path / "runs/profiled")
        assert len(telemetry.units) == 4 and telemetry.fleet is not None
        unit_names = set().union(
            *(span_names(r) for r in telemetry.units.values())
        )
        for name in (
            "unit.compile",
            "unit.solve",
            "unit.solve/sim.bootstrap",
            "unit.solve/solver.hop_batch",
        ):
            assert name in unit_names, unit_names
        assert "fleet.sweep" in span_names(telemetry.fleet)


class TestScaleSweepWalkthrough:
    """The EXPERIMENTS.md scale-sweep commands execute, and the claims
    they make — sessions and hops grow with the conference, one
    candidate batch per hop, and 50 to 60 candidates scored per hop at
    both sizes — hold on the actual output."""

    @pytest.fixture(scope="class")
    def walkthrough(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        section = text.split("## Scale sweeps", 1)[1]
        section = section.split("\n## ", 1)[0]
        commands = fenced_repro_commands(section)
        assert len(commands) == 2, commands
        return commands

    def test_walkthrough_executes(self, walkthrough, tmp_path, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        for command in walkthrough:
            argv = shlex.split(command)[1:]
            assert main(argv) == 0, f"walkthrough command failed: {command}"
        results = (tmp_path / "runs/scale/results.jsonl").read_text(
            encoding="utf-8"
        )
        records = [json.loads(line) for line in results.splitlines()]
        assert len(records) == 2  # one per size
        assert all(record["status"] == "ok" for record in records)
        small, large = sorted(
            records, key=lambda record: record["axes"]["workload.num_users"]
        )
        assert (small["num_sessions"], large["num_sessions"]) == (12, 23)
        assert (small["hops"], large["hops"]) == (43, 61)
        for record in records:
            counters = record["counters"]
            assert counters["solver.hops_proposed"] == record["hops"]
            per_hop = counters["solver.candidates"] / record["hops"]
            assert 50 <= per_hop <= 60, per_hop
        assert (
            large["counters"]["solver.candidates"]
            > small["counters"]["solver.candidates"]
        )


class TestComparingFleetsWalkthrough:
    """The EXPERIMENTS.md walkthrough commands actually execute."""

    @pytest.fixture(scope="class")
    def walkthrough(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        section = text.split("## Comparing fleets", 1)[1]
        section = section.split("\n## ", 1)[0]
        commands = fenced_repro_commands(section)
        assert len(commands) == 3, commands
        return commands

    def test_walkthrough_executes(self, walkthrough, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for command in walkthrough:
            argv = shlex.split(command)[1:]
            assert main(argv) == 0, f"walkthrough command failed: {command}"
        assert (tmp_path / "runs/base/results.jsonl").exists()
        assert (tmp_path / "runs/beta200/results.jsonl").exists()
        csv_text = (tmp_path / "runs/cmp.csv").read_text(encoding="utf-8")
        assert "solver.beta,400,200" in csv_text
        html_text = (tmp_path / "runs/cmp.html").read_text(encoding="utf-8")
        assert html_text.startswith("<!DOCTYPE html>")
        assert "<svg" in html_text and "polyline" in html_text


class TestServeWalkthrough:
    """The EXPERIMENTS.md serve-and-drive commands execute, and the
    byte-identity claim the section makes holds: the in-process and
    HTTP replays of one trace write identical decision logs."""

    @pytest.fixture(scope="class")
    def walkthrough(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        section = text.split("## Serve and drive", 1)[1]
        section = section.split("\n## ", 1)[0]
        commands = fenced_repro_commands(section)
        assert len(commands) == 3, commands
        return commands

    def test_walkthrough_executes(self, walkthrough, tmp_path, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        for command in walkthrough:
            argv = shlex.split(command)[1:]
            assert main(argv) == 0, f"walkthrough command failed: {command}"
        inproc = (tmp_path / "runs/decisions.jsonl").read_bytes()
        http = (tmp_path / "runs/decisions-http.jsonl").read_bytes()
        assert inproc and inproc == http
        records = [json.loads(line) for line in inproc.splitlines()]
        assert all(r["status"] == "ok" for r in records)
        assert all("latency_ms" not in r for r in records)
        assert any("placement" in r for r in records)
        metrics_lines = (
            (tmp_path / "runs/service.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
        )
        assert metrics_lines  # --flush-every 2 over 6 decisions
        assert json.loads(metrics_lines[-1])["errors"] == 0
