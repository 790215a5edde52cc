"""``BENCHMARK.json`` names exactly what the benchmark prints."""

import json

from perfbench.common import END_TO_END, EXPECTED, ROOT
from perfbench.layers import PER_LAYER, unit_of
from perfbench.serve import base_key
from perfbench.sweeps import sweep_count
from perfbench.workloads import WORKLOADS, schedule

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_match():
    assert [(w["name"], w["why"]) for w in DECLARED["workloads"]] == [
        (name, spec["why"]) for name, spec in WORKLOADS.items()
    ]


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == END_TO_END
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def test_per_layer_metrics_match():
    assert [(m["name"], m["unit"]) for m in DECLARED["per_layer"]] == [
        (name, unit_of(name)) for name in PER_LAYER
    ]


def test_outputs_recorded_for_every_seed_of_a_declared_run():
    recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))
    seconds = DECLARED["run_seconds"]
    load = WORKLOADS["serve-http"]["load"]
    base = len(schedule(load["base_write_rps"], load["base_share"] * seconds))
    for seed in range(10):
        for name in ("sweep-internet", "sweep-churn"):
            for index in range(sweep_count(name, seconds)):
                assert f"{seed}/{index}" in recorded[name]
        assert base_key(seed, base) in recorded["serve-http"]
