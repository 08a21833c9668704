"""Seeded Monte Carlo execution of diagonal measurement protocols.

Outcome probabilities of a diagonal measurement on a known spectrum are
available in closed form, so a trial only needs to sample the outcome
index: each trial draws one uniform variate from a counter-based generator
(the trial index hashed together with the master seed, SplitMix64-style),
and its outcome is the first whose CDF value exceeds that variate.  Only
the counts are reported, so trials are tallied a chunk at a time: the
chunk's variates are sorted and the number below each CDF threshold is
read off by one binary search per threshold.  Because trial t's variate
depends on nothing but (seed, t), the tally is bit-exactly reproducible no
matter how trials are partitioned or scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .schmidt import SchmidtSpectrum
from .transform import DiagonalPovm, IncompletePovmError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "IncompletePovmError",
    "SimulationReport",
    "counter_uniforms",
    "simulate",
]


@dataclass(frozen=True)
class SimulationReport:
    """Tally of a simulated protocol run.

    Stores the counts per outcome label and the outcome probabilities the
    theory expects; the empirical statistics are derived from them.
    """

    trials: int
    seed: int
    labels: tuple
    counts: tuple
    expected_probs: tuple

    def __post_init__(self):
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if sum(self.counts) != self.trials:
            raise ValueError("outcome counts must sum to the trial count")

    @property
    def empirical_probs(self) -> tuple:
        """Outcome j's empirical probability, count_j / trials."""
        return tuple(c / self.trials for c in self.counts)

    @property
    def mean_yield(self) -> float:
        """Empirical average of ln(label).

        This is the entanglement in nats when labels are
        maximally-entangled level counts.
        """
        return math.fsum(
            c * math.log(label) for c, label in zip(self.counts, self.labels)
        ) / self.trials

    @property
    def max_abs_deviation(self) -> float:
        """Largest |empirical - expected| over the outcomes."""
        return max(
            abs(e - p) for e, p in zip(self.empirical_probs, self.expected_probs)
        )


_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Trials drawn and tallied per chunk, which bounds the simulator's memory
# whatever the trial count; the tally does not depend on it.
_CHUNK_TRIALS = 1 << 16


def counter_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform [0, 1) variates for trial indices start..start+count-1.

    Pure function of (seed, index): SplitMix64 finalizer applied to the
    index stream offset by the seed.  Identical values come back for any
    partitioning of the index range.
    """
    import numpy as np

    if count < 0 or start < 0:
        raise ValueError("start and count must be nonnegative")
    x = np.arange(start, start + count, dtype=np.uint64)
    x = (x + 1) * _GAMMA + (seed & 0xFFFFFFFFFFFFFFFF)
    x ^= x >> 30
    x *= _MIX1
    x ^= x >> 27
    x *= _MIX2
    x ^= x >> 31
    return (x >> 11).astype(np.float64) * (2.0**-53)


def simulate(
    povm: DiagonalPovm,
    state: SchmidtSpectrum,
    trials: int,
    seed: int,
) -> SimulationReport:
    """Sample measurement outcomes and tally them against the theory.

    Each trial draws one counter-based uniform variate u and lands on the
    first outcome k with u < cdf_k; post-measurement states are known
    analytically so no state update is simulated.  Trials are drawn and
    tallied in fixed-size chunks, so memory does not grow with ``trials``:
    a chunk's variates are sorted in place, #{u < cdf_k} is found for each
    inner threshold by binary search, and the counts are the differences
    of those ranks (the last threshold is at least 1, above every u).  The
    counts are those a search of the CDF per trial gives.  Raises
    :class:`IncompletePovmError` when the state's rank exceeds the
    measurement's support.
    """
    import numpy as np

    expected = povm.outcome_probabilities(state)
    labels = [el.label for el in povm.elements]
    cdf = np.cumsum(expected)
    cdf[-1] = max(cdf[-1], 1.0)  # guard the top edge against rounding

    counts = np.zeros(len(labels), dtype=np.int64)
    for start in range(0, trials, _CHUNK_TRIALS):
        size = min(_CHUNK_TRIALS, trials - start)
        uniforms = counter_uniforms(seed, start, size)
        uniforms.sort()
        below = np.searchsorted(uniforms, cdf[:-1], side="left")
        counts += np.diff(below, prepend=0, append=size)

    return SimulationReport(
        trials=trials,
        seed=seed,
        labels=tuple(labels),
        counts=tuple(int(c) for c in counts),
        expected_probs=tuple(expected),
    )

