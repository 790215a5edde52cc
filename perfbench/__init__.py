"""The repository benchmark: fleet sweeps and the HTTP placement service.

Run it from the repository root with ``python3 -m perfbench --workload
NAME --seed N --seconds S --trace 0|1``; ``BENCHMARK.json`` names the
workloads and metrics, and ``perfbench/README.md`` defines each one.
"""
