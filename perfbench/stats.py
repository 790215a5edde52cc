"""Order statistics for benchmark samples.

Percentiles are nearest-rank and refuse to answer when fewer than
:data:`MIN_BEYOND` samples lie beyond the requested rank, so a reported
tail always rests on at least that many observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples."""


@dataclass(frozen=True)
class Percentile:
    """One percentile with the sample count it rests on."""

    q: float
    value: float
    samples: int

    @property
    def label(self) -> str:
        return f"p{self.q:g} of {self.samples}"


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples."""
    return max(1, math.ceil(q / 100.0 * n))


def percentile(values: Sequence[float], q: float) -> Percentile:
    """The ``q``-th nearest-rank percentile of ``values``.

    Raises :class:`InsufficientSamples` unless at least
    :data:`MIN_BEYOND` samples are strictly beyond the rank.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    rank = _rank(q, n)
    if n - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {max(0, n - rank)}"
        )
    return Percentile(q, float(sorted(values)[rank - 1]), n)


def tail_q(n: int, cap: float = 99.0) -> float:
    """The highest whole percentile ``<= cap`` that ``n`` samples allow."""
    q = min(cap, math.floor(100.0 * (n - MIN_BEYOND) / n)) if n else 0.0
    if q < 50.0:
        raise InsufficientSamples(
            f"{n} samples allow no percentile at or above the median"
        )
    return q
