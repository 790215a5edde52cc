"""The percentile helper states its sample count and refuses thin tails."""

import pytest

from perfbench.stats import InsufficientSamples, percentile, tail_q


def test_percentile_reports_sample_count():
    result = percentile(list(range(1, 101)), 50)
    assert result.value == 50
    assert result.samples == 100
    assert result.label == "p50 of 100"


def test_percentile_needs_ten_samples_beyond():
    values = [float(i) for i in range(1000)]
    assert percentile(values, 99).value == 989.0
    with pytest.raises(InsufficientSamples):
        percentile(values[:999], 99)
    assert percentile(values[:20], 50).samples == 20
    with pytest.raises(InsufficientSamples):
        percentile(values[:19], 50)


def test_tail_q_is_the_highest_allowed_percentile():
    assert tail_q(1000) == 99
    assert tail_q(200) == 95
    percentile(list(range(200)), tail_q(200))
    with pytest.raises(InsufficientSamples):
        tail_q(19)

