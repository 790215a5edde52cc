"""Reaping a server reports the peak resident memory of that process."""

import signal
import subprocess
import sys

from perfbench.serve import reap


def test_reap_reports_the_child_peak():
    child = subprocess.Popen([sys.executable, "-c", "b = b'x' * (64 << 20)"])
    assert reap(child, timeout_s=30.0) >= 64 * 1024
    assert child.returncode == 0


def test_reap_kills_a_child_that_does_not_exit():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    reap(child, timeout_s=0.2)
    assert child.returncode == -signal.SIGKILL
    assert reap(child, timeout_s=0.2) == 0
