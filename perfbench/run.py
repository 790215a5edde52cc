"""Benchmark entry point.

``python3 -m perfbench --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the checkout's sources.  Progress and the
failure accounting go to stdout as plain lines; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics.
A failed output check prints ``correct: false`` with no metrics and
exits 1; a checkout without the program's sources exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from perfbench.common import END_TO_END, RUNS, SOURCE, CheckFailed


def _log(line: str) -> None:
    print(line, flush=True)


def _args(argv: list[str] | None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python3 -m perfbench")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    from perfbench import serve, sweeps
    from perfbench.workloads import WORKLOADS

    declared = WORKLOADS[args.workload]
    module = sweeps if declared["kind"] == "sweep" else serve
    if declared["one_cpu"]:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        if args.trace:
            from perfbench.layers import PER_LAYER, unit_of

            metrics, ops = module.traced(args.workload, args.seed, args.seconds, _log)
            unknown = set(metrics) - set(PER_LAYER)
            if unknown:
                raise RuntimeError(f"metrics missing from PER_LAYER: {sorted(unknown)}")
            report = {}
            for name in PER_LAYER:
                value = float(metrics.get(name, 0.0))
                report[name] = {"value": value, "unit": unit_of(name)}
                _log(f"  {name} = {value:.6g} {unit_of(name)}")
        else:
            metrics, ops = module.measure(args.workload, args.seed, args.seconds, _log)
            if {n: m["unit"] for n, m in metrics.items()} != END_TO_END:
                raise RuntimeError(f"metrics differ from END_TO_END: {sorted(metrics)}")
            for name, entry in metrics.items():
                _log(f"  {name} = {entry['value']:.6g} {entry['unit']} "
                     f"(n={entry['samples']}; {entry['note']})")
            report = {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in metrics.items()
            }
    except CheckFailed as error:
        _log(f"output check failed: {error}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        if RUNS.exists() and not any(RUNS.iterdir()):
            shutil.rmtree(RUNS, ignore_errors=True)
    print(json.dumps({
        "correct": True,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
