"""Golden outputs: what the code computes end to end, pinned by hash.

Refactors of the flow model, the kernels and the runtime are meant to
leave every result bit for bit unchanged.  These tests pin three
families of outputs:

* one unit of each bundled library spec (sweep cleared, serial backend,
  one worker, ``simulation.duration_s`` capped at 20 s), by
  :func:`~repro.analysis.report.canonical_results_digest`;
* ``repro run figN --scenarios 5 --jsonl`` exports of five figures, by
  the sha256 of the file;
* the stdout of every example script, by its sha256.

A mismatch prints the new value.  A constant here changes only with a
change that moves results on purpose, and CHANGES.md says so.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.report import canonical_results_digest
from repro.fleet.library import library_spec_names, load_library_spec
from repro.fleet.orchestrator import FleetOrchestrator
from repro.fleet.spec import RunSpec
from tests.conftest import with_execution

REPO_ROOT = Path(__file__).resolve().parent.parent

LIBRARY_DIGESTS = {
    "beta_locality": "02e20c6dc34e0948d4e587e38d4fd916c494e18c2767f84c9273ebea2c16e8a6",
    "bursty_mmpp": "753e22adfb297b651c42457c7067ecafec399ebc6c50b57a1955a0f10db9d34f",
    "chaos_storm": "a440cda18542e38f1f943a0ff7f02518aa3256f9a19a00260373d36281b314ae",
    "churn_heavy": "2e91084e1a60a9ae9f11a5755f2cfa8d12ea7a7665fe5ad4aff7b1b6931f38f2",
    "diurnal_cycle": "efcb90254df749521c449c0b53f6e38ccf365417fc71c0f20b0721fd8f7f91c1",
    "huge_conference": "6defb484d653d6387255c2b73ccb40e1805ed2207b63fa6ca3b9919821bcb228",
    "latency_storm": "30faf440235a395276addc9198c7c01704b2c19a71232507b4cd302739628388",
    "multi_region_pricing": "6d034994da1dc5ab73786d2a89ab769761e00e66cb318ed8e4da7ed8453df734",
    "noise_sweep": "5a3b31ec1a7b3328a301ff3c6364139ffa15f83535cf5a8501235aa0853a7672",
    "poisson_churn": "3c9c5cad4253355fe03b243d3a02416bd4cb5e210c0da56bd2e82e9f4410e655",
    "prototype_smoke": "989b253ffef39ab3b3a28775663532c655cccc85c5e2687569d02e22c49c370b",
    "site_outage": "a52bcc44f4720874d16129fbef1826d3206f92510b96c0cfa9e720fb14856752",
}

FIGURE_EXPORTS = {
    "fig2": "1cff6c638fc4b926f8f62aa0eaae7bfecb808a1236218582b523dad519760328",
    "fig3": "6984e73dc685daa21a8edf2b8d4260879de613c7fa8a025731d6ebd0d2b45973",
    "fig7": "6b77852fec3da2d10ca2f423f1538b5f9a7f4a457fbe67e65fa0d77035bde2df",
    "fig9": "cb8a9074945ae40f64a3bc683be25da2686599d14ecd415303a192e956892dab",
    "fig10": "a28c6e24052e959a943affc9dc7c8153692fc9f2eec74790e1c7a1356311ab93",
}

EXAMPLE_STDOUT = {
    "capacity_planning": "a0700ec41620a3f236a521ace6b91afb32ee2f227c28fc45ca3ba9ab55a33e6b",
    "dynamic_conference": "f4c20b4f72a3b0e4d2324b0d8cd4fb4ed19434539b72689762492e191f73464b",
    "markov_chain_anatomy": "d06a009d2b1893ee344547652380616ddb47379a2938c11d0959b8a26fa0772f",
    "motivating_scenario": "2d4ada505a0033c8492f8241cd89713c95c08082c3bf14707bbf8284bd1f31e0",
    "quickstart": "cb5f242cc4821261210e184d9f12d541f48988e209f533d8dbef99261ebe9fb2",
}


def _run(args: list[str]) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args],
        cwd=REPO_ROOT,
        env=env,
        check=True,
        capture_output=True,
        timeout=300,
    ).stdout


def test_every_library_spec_is_pinned():
    assert sorted(library_spec_names()) == sorted(LIBRARY_DIGESTS)


def test_every_example_is_pinned():
    scripts = sorted(path.stem for path in (REPO_ROOT / "examples").glob("*.py"))
    assert scripts == sorted(EXAMPLE_STDOUT)


@pytest.mark.parametrize("name", sorted(LIBRARY_DIGESTS))
def test_library_unit_digest(name, tmp_path):
    data = load_library_spec(name).to_dict()
    data["sweep"] = {"replicates": 1, "axes": []}
    simulation = data["simulation"]
    simulation["duration_s"] = min(simulation["duration_s"], 20)
    spec = with_execution(RunSpec.from_dict(data), workers=1, backend="serial")
    FleetOrchestrator(tmp_path, resume=False).run(spec)
    digest = canonical_results_digest(tmp_path)
    assert digest == LIBRARY_DIGESTS[name], f"{name} digest is now {digest}"


@pytest.mark.parametrize("figure", sorted(FIGURE_EXPORTS))
def test_figure_export(figure, tmp_path):
    path = tmp_path / f"{figure}.jsonl"
    _run(["-m", "repro.cli", "run", figure, "--scenarios", "5", "--jsonl", str(path)])
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == FIGURE_EXPORTS[figure], f"{figure} export is now {digest}"


@pytest.mark.parametrize("example", sorted(EXAMPLE_STDOUT))
def test_example_stdout(example):
    stdout = _run([str(Path("examples") / f"{example}.py")])
    digest = hashlib.sha256(stdout).hexdigest()
    assert digest == EXAMPLE_STDOUT[example], f"{example} stdout is now {digest}"
