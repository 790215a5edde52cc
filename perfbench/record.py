"""Record the benchmark's output digests into ``expected.json``.

``python3 -m perfbench.record [SEEDS]`` runs, for each seed (default
0-9) and the ``run_seconds`` of ``BENCHMARK.json``, every sweep of each
sweep workload, each in a fresh process, and stores its
``canonical_results_digest``; and it replays the ``serve-http`` base
phase in-process and stores the digest of its decisions.  The benchmark
then fails a run whose outputs differ from the recorded ones.
"""

from __future__ import annotations

import json
import shutil
import sys

from perfbench.common import EXPECTED, ROOT, RUNS, SOURCE


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SOURCE))
    from perfbench import serve, sweeps, workloads

    seeds = [int(s) for s in argv[0].split(",")] if argv else list(range(10))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    recorded: dict[str, dict[str, str]] = {}
    for workload, spec in workloads.WORKLOADS.items():
        recorded[workload] = {}
        for seed in seeds:
            if spec["kind"] == "serve":
                key, digest = serve.record_base(seed, seconds)
                recorded[workload][key] = digest
                print(workload, key, digest, flush=True)
                continue
            run_dir = sweeps.prepare(workload, seed)
            for index in range(sweeps.sweep_count(workload, seconds)):
                spec_path = sweeps.spec_file(run_dir, workload, seed, index)
                summary = sweeps.run_sweep(workload, spec_path, run_dir / f"sweep{index}")
                if set(summary["statuses"]) != {"ok"}:
                    raise SystemExit(f"{workload} seed {seed}: units not ok")
                recorded[workload][f"{seed}/{index}"] = summary["digest"]
                print(workload, seed, index, summary["digest"], flush=True)
            shutil.rmtree(run_dir)
    EXPECTED.write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")
    if RUNS.exists() and not any(RUNS.iterdir()):
        RUNS.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
