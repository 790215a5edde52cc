"""The benchmark's inputs are a pure function of the seed."""

from perfbench import workloads


def test_same_seed_same_sweep_specs():
    for name in ("sweep-internet", "sweep-churn"):
        assert workloads.sweep_spec(name, 7, 0) == workloads.sweep_spec(name, 7, 0)
        assert workloads.sweep_spec(name, 7, 0) != workloads.sweep_spec(name, 8, 0)
        assert workloads.sweep_spec(name, 7, 0) != workloads.sweep_spec(name, 7, 1)


def test_internet_units_each_get_their_own_substrate():
    spec = workloads.sweep_spec("sweep-internet", 3, 0)
    (axis,) = spec["sweep"]["axes"]
    assert axis["path"] == "topology.latency_seed"
    assert len(set(axis["values"])) == workloads.WORKLOADS["sweep-internet"]["units"]


def test_same_seed_same_serve_trace_and_schedule():
    assert workloads.serve_spec(4) == workloads.serve_spec(5)
    assert workloads.write_trace(4, 300) == workloads.write_trace(4, 300)
    assert workloads.write_trace(4, 300) != workloads.write_trace(5, 300)
    assert workloads.read_schedule(4, 3.0) == workloads.read_schedule(4, 3.0)
    assert workloads.read_schedule(4, 3.0) != workloads.read_schedule(5, 3.0)


def test_write_trace_is_valid_against_the_state_it_builds():
    load = workloads.WORKLOADS["serve-http"]["load"]
    active = set(range(load["initial"]))
    clock = 0.0
    for request in workloads.write_trace(11, 2000):
        assert request["time_s"] >= clock
        clock = request["time_s"]
        assert 0 <= request["sid"] < load["pool"]
        if request["op"] == "arrive":
            assert request["sid"] not in active
            active.add(request["sid"])
        else:
            assert request["sid"] in active
            if request["op"] == "depart":
                active.remove(request["sid"])
        assert active
