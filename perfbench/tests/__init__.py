"""Tests of the benchmark's own code (``python -m pytest perfbench``)."""
