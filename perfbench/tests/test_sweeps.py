"""A sweep run's size and failure count depend on its inputs alone;
results are read beside a sweep only once it is set up."""

import signal
import subprocess
import sys
import time

from perfbench import sweeps


def test_sweep_count_follows_seconds_by_a_fixed_rule():
    assert sweeps.sweep_count("sweep-internet", 30) == 4
    assert sweeps.sweep_count("sweep-churn", 30) == 6
    assert sweeps.sweep_count("sweep-churn", 1) == sweeps.MIN_SWEEPS


def test_failures_count_each_unit_once():
    summary = {
        "statuses": ["ok", "ok", "crashed", "error", "ok"],
        "attempts": [1, 2, 3, 1, None],
    }
    causes = sweeps.failures(summary)
    assert causes["retry"] == 1
    assert causes["crashed"] == 1
    assert causes["error"] == 1
    assert sum(causes.values()) == 3


def _child(tmp_path, script):
    log = tmp_path / "sweep.log"
    out = open(log, "w", encoding="utf-8")
    child = subprocess.Popen([sys.executable, "-c", script], stdout=out)
    out.close()
    return child, log


def test_reads_run_beside_the_sweep_once_it_is_set_up(tmp_path):
    child, log = _child(
        tmp_path,
        "import time; time.sleep(0.6); print('ready 1.0', flush=True); time.sleep(1.0)",
    )
    code, reads = sweeps.wait_reading(child, log, time.monotonic() + 30.0, log.read_text)
    assert code == 0
    # About one read per period while the process runs after set-up.
    assert 2 <= len(reads) <= 1.0 / sweeps.READ_PERIOD_S + 2
    assert all(text.startswith("ready ") for text in reads)


def test_a_sweep_past_its_deadline_is_killed(tmp_path):
    child, log = _child(tmp_path, "import time; time.sleep(60)")
    code, reads = sweeps.wait_reading(child, log, time.monotonic() + 0.3, log.read_text)
    assert code is None and reads == []
    assert child.returncode == -signal.SIGKILL
