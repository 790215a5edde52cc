"""Repository-hygiene tests: docs exist, stay consistent with the code,
and the public API re-exports resolve."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def src_env() -> dict:
    """This process's environment with the imported ``repro``'s source
    root first on ``PYTHONPATH``, for child interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parent.parent)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


class TestDocs:
    @pytest.fixture(scope="class")
    def design(self):
        return (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")

    @pytest.fixture(scope="class")
    def experiments(self):
        return (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")

    @pytest.fixture(scope="class")
    def readme(self):
        return (REPO_ROOT / "README.md").read_text(encoding="utf-8")

    def test_design_confirms_paper(self, design):
        assert "Hajiesmaili" in design
        assert "ICDCS" in design

    def test_design_indexes_every_artifact(self, design):
        for artifact in ("F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "T2"):
            assert f"| {artifact} " in design, f"missing experiment row {artifact}"

    def test_design_lists_every_bench_target(self, design):
        bench_dir = REPO_ROOT / "benchmarks"
        for bench in sorted(bench_dir.glob("bench_*.py")):
            if bench.name in ("bench_core_perf.py",):
                continue  # perf micro-benches are not paper artifacts
            assert bench.name in design, f"{bench.name} not referenced in DESIGN.md"

    def test_experiments_records_every_figure(self, experiments):
        for heading in (
            "Fig. 2", "Fig. 3", "Fig. 4", "Fig. 5", "Fig. 6",
            "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10", "Table II",
        ):
            assert heading in experiments, f"missing record for {heading}"

    def test_readme_mentions_examples(self, readme):
        examples = REPO_ROOT / "examples"
        for script in sorted(examples.glob("*.py")):
            assert script.name in readme, f"{script.name} not documented in README"

    def test_license_present(self):
        assert (REPO_ROOT / "LICENSE").read_text(encoding="utf-8").startswith(
            "MIT License"
        )


class TestTreeHygiene:
    """No build debris in the tree: bytecode caches and fleet output
    directories are ignored and never committed."""

    REQUIRED_IGNORES = ("__pycache__/", "*.pyc", "fleet_runs/", "runs/")

    def test_gitignore_covers_caches_and_fleet_outputs(self):
        patterns = [
            line.strip()
            for line in (REPO_ROOT / ".gitignore")
            .read_text(encoding="utf-8")
            .splitlines()
            if line.strip() and not line.startswith("#")
        ]
        for required in self.REQUIRED_IGNORES:
            assert required in patterns, f".gitignore is missing {required}"

    def test_no_bytecode_or_fleet_outputs_tracked_by_git(self):
        import shutil
        import subprocess

        if shutil.which("git") is None or not (REPO_ROOT / ".git").exists():
            pytest.skip("not a git checkout")
        tracked = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.splitlines()
        offenders = [
            path
            for path in tracked
            if "__pycache__" in path
            or path.endswith(".pyc")
            or path.startswith(("fleet_runs/", "runs/"))
        ]
        assert not offenders, f"tracked build debris: {offenders}"


class TestDeclaredDependencies:
    """Every third-party package that ``src/`` imports is declared in
    ``setup.py``'s ``install_requires``, so an install of exactly the
    declared requirements can run the code."""

    #: Import names whose distribution goes by another name.
    DISTRIBUTION_OF = {"yaml": "pyyaml"}

    @staticmethod
    def install_requires() -> set[str]:
        tree = ast.parse((REPO_ROOT / "setup.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg == "install_requires":
                return {
                    re.split(r"[<>=!~;\[ ]", requirement)[0].lower()
                    for requirement in ast.literal_eval(node.value)
                }
        raise AssertionError("setup.py declares no install_requires")

    def test_every_third_party_import_is_declared(self):
        declared = self.install_requires()
        missing: dict[str, str] = {}
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    if top == "repro" or top in sys.stdlib_module_names:
                        continue
                    if self.DISTRIBUTION_OF.get(top, top.lower()) not in declared:
                        missing.setdefault(top, str(path.relative_to(REPO_ROOT)))
        assert not missing, f"imported but not in install_requires: {missing}"


class TestImportFootprint:
    """A process imports only what it runs: a pool worker, the CLI and
    the service load neither scipy nor any experiment runner.  Each
    import runs in a fresh interpreter, since this one has both."""

    @pytest.mark.parametrize(
        "module", ["repro.fleet.backends.worker", "repro.cli", "repro.service"]
    )
    def test_fresh_import_loads_no_runner_or_scipy(self, module):
        from repro.experiments.registry import EXPERIMENTS

        runners = {spec.target.split(":")[0] for spec in EXPERIMENTS.values()}
        script = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=src_env(), timeout=120, check=True,
        )
        loaded = set(json.loads(done.stdout))
        assert "scipy" not in loaded
        assert not loaded & runners, sorted(loaded & runners)


class TestBenchesCollect:
    """The benches under ``benchmarks/`` run only on demand, so tier-1
    at least imports them: a bench still using a deleted API name
    fails here rather than at the next perf run."""

    def test_benchmarks_collect(self):
        done = subprocess.run(
            [
                sys.executable, "-m", "pytest", "--collect-only", "-q",
                "-p", "no:cacheprovider", "-o", "python_files=bench_*.py",
                "benchmarks",
            ],
            cwd=REPO_ROOT, capture_output=True, text=True, env=src_env(),
            timeout=300,
        )
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]


class TestPerfbenchTargets:
    """The benchmark's traced run wraps every layer entry point it
    names by module and qualname, and a missing one fails that run.
    Resolve each here the way ``perfbench.spans.install`` does, without
    wrapping anything, so a rename fails tier-1 instead."""

    def test_every_layer_target_resolves(self):
        from perfbench.layers import targets

        listed = targets()
        assert listed
        missing = []
        for target in listed:
            owner = importlib.import_module(target.module)
            *path, attr = target.qualname.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                inspect.getattr_static(owner, attr)
            except AttributeError:
                missing.append(f"{target.module}:{target.qualname}")
        assert not missing, missing


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_subpackage_exports_resolve(self):
        import repro.core as core
        import repro.model as model
        import repro.netsim as netsim
        import repro.runtime as runtime
        import repro.workloads as workloads

        for module in (core, model, netsim, runtime, workloads):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"


class TestExamplesImportable:
    def test_examples_compile(self):
        import py_compile

        for script in sorted((REPO_ROOT / "examples").glob("*.py")):
            py_compile.compile(str(script), doraise=True)
