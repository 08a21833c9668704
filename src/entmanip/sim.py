"""Seeded Monte Carlo execution of diagonal measurement protocols.

Outcome probabilities of a diagonal measurement on a known spectrum are
available in closed form, so a trial only needs to sample the outcome
index: each trial draws one uniform variate from a counter-based generator
(the trial index hashed together with the master seed, SplitMix64-style),
and its outcome is the first whose CDF value exceeds that variate.  Only
the counts are reported.  The variate is the hash's top 53 bits times
2**-53, so each CDF value is turned once into an integer limit that the
raw 64-bit hash is below exactly when the variate is below the value, and
no trial is converted to a float.  A run of at most ``_CHUNK_TRIALS``
(65536) trials is tallied in pure Python, one bisection of the limits per
trial; with the pure-Python SVD that ``schmidt_decompose`` gives a matrix
whose smaller side is at most 8 (and that is not long), this keeps numpy
out of every small CLI call.  A longer run is hashed and tallied with
numpy a chunk at a time: one ``bincount`` counts the chunk's hashes per
bin of their top 12 bits, and only the hashes in a bin that holds a
limit are sorted and searched.  Because trial t's hash depends on nothing
but (seed, t), the tally is bit-exactly reproducible no matter how trials
are partitioned or scheduled, and both tallies give the same counts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .schmidt import SchmidtSpectrum
from .transform import DiagonalPovm, IncompletePovmError

# Annotations are not evaluated (PEP 563): ``np`` in them names numpy,
# which is imported only inside the functions that use it.

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
        if not len(self.labels) == len(self.counts) == len(self.expected_probs):
            raise ValueError("labels, counts and expected_probs differ in length")

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


_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Trials drawn and tallied per chunk, which bounds the simulator's memory
# whatever the trial count; the tally does not depend on it.  A run of one
# chunk is tallied in pure Python instead: at most about 40 ms on a 2-vCPU
# VM, where importing numpy takes about 100 ms.
_CHUNK_TRIALS = 1 << 16
# The numpy tally bins a hash by its top 12 bits.
_BIN_SHIFT = 52
_BINS = 1 << (64 - _BIN_SHIFT)


def _finalise(x: np.ndarray, t: np.ndarray) -> None:
    """The SplitMix64 finaliser, in place on ``x``, with ``t`` as scratch."""
    import numpy as np

    x ^= np.right_shift(x, 30, out=t)
    x *= _MIX1
    x ^= np.right_shift(x, 27, out=t)
    x *= _MIX2
    x ^= np.right_shift(x, 31, out=t)


def counter_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform [0, 1) variates for trial indices start..start+count-1.

    Pure function of (seed, index): SplitMix64 finalizer applied to the
    index stream offset by the seed.  Identical values come back for any
    partitioning of the index range.
    """
    import numpy as np

    if count < 0 or start < 0:
        raise ValueError("start and count must be nonnegative")
    # in place, on one array and one buffer for the shifted copies
    x = np.arange(start, start + count, dtype=np.uint64)
    x += 1
    x *= _GAMMA
    x += seed & _MASK
    _finalise(x, np.empty_like(x))
    x >>= 11
    u = x.astype(np.float64)
    u *= 2.0**-53
    return u


def _limits(cdf: list) -> list:
    """The integer limits of ``cdf``: a hash x is below limit_k iff u < cdf_k.

    Trial t's variate is ``(x >> 11) * 2**-53`` for its 64-bit hash x.
    Scaling by 2**53 is exact, an integer is below a real r exactly when
    it is below ceil(r), and ``x >> 11 < C`` exactly when ``x < C << 11``;
    so the variate is below c exactly when x is below ``ceil(c * 2**53) <<
    11``.  A limit is capped at 2**64, above every hash, where the cdf
    reaches 1.
    """
    return [min(math.ceil(c * 2**53), 1 << 53) << 11 for c in cdf]


def _python_tally(cdf: list, seed: int, trials: int) -> list:
    """Counts per outcome of trials 0..trials-1, without numpy.

    Each hash is that of :func:`counter_uniforms`, computed on Python ints
    masked to 64 bits; trial t lands on outcome ``bisect_right(limits,
    x)``, the first k with x < limit_k, which is the first with u < cdf_k.
    """
    limits = _limits(cdf)
    counts = [0] * len(cdf)
    offset = seed & _MASK
    for t in range(1, trials + 1):  # trial index + 1, as counter_uniforms hashes
        x = (t * _GAMMA + offset) & _MASK
        x ^= x >> 30
        x = (x * _MIX1) & _MASK
        x ^= x >> 27
        x = (x * _MIX2) & _MASK
        x ^= x >> 31
        counts[bisect_right(limits, x)] += 1
    return counts


def _hash_chunks(seed: int, trials: int):
    """The raw hashes of trials 0..trials-1, a chunk at a time.

    Each chunk comes with a scratch array of its size; both are views of
    buffers that the next chunk overwrites.  Trial t hashes ``G * (t + 1)
    + seed``: that of the chunk's i-th trial is ``G * (i + 1) + seed``,
    computed once, plus ``G * start``.
    """
    import numpy as np

    base = np.arange(1, min(trials, _CHUNK_TRIALS) + 1, dtype=np.uint64)
    base *= _GAMMA
    base += seed & _MASK
    x, t = np.empty_like(base), np.empty_like(base)
    for start in range(0, trials, _CHUNK_TRIALS):
        size = min(_CHUNK_TRIALS, trials - start)
        np.add(base[:size], start * _GAMMA & _MASK, out=x[:size])
        _finalise(x[:size], t[:size])
        yield x[:size], t[:size]


def _tally_hashes(limits: list, chunks) -> list:
    """Counts per outcome of the hashes in ``chunks``.

    Hash x lands on the first outcome k with x < limit_k.  ``limits`` is nondecreasing and ends at 2**64; ``chunks`` gives pairs
    of a uint64 array of hashes and a scratch array of its size.  Each
    chunk is counted per bin of 2**52 hashes, by one ``bincount`` of their
    top 12 bits.  Only the hashes in a bin that holds a limit are gathered
    and sorted: #{x < limit_k} is #{x in the bins below limit_k's} plus
    #{gathered x < limit_k} less #{gathered x below limit_k's bin}, the
    gathered hashes of earlier bins.
    """
    import numpy as np

    inner = np.array([c for c in limits if c < 1 << 64], dtype=np.uint64)
    bins = inner >> _BIN_SHIFT
    # one search finds #{gathered x < limit} and #{gathered x < its bin}
    bounds = np.concatenate([inner, bins << _BIN_SHIFT])
    held = np.zeros(_BINS, dtype=bool)
    held[bins] = True
    per_bin = np.zeros(_BINS, dtype=np.int64)
    within = np.zeros(len(inner), dtype=np.int64)
    for x, scratch in chunks:
        top = np.right_shift(x, _BIN_SHIFT, out=scratch).view(np.int64)
        per_bin += np.bincount(top, minlength=_BINS)
        near = np.sort(x[held[top]])
        below = np.searchsorted(near, bounds, side="left")
        within += below[: len(inner)] - below[len(inner) :]
    before = np.cumsum(per_bin) - per_bin
    total = int(per_bin.sum())
    below = (before[bins] + within).tolist() + [total] * (len(limits) - len(inner))
    return [hi - lo for lo, hi in zip([0, *below], below)]


def _numpy_tally(cdf: list, seed: int, trials: int) -> list:
    """Counts per outcome of trials 0..trials-1, a chunk of hashes at a time.

    Each chunk's raw hashes are counted against the integer limits of
    ``cdf`` by :func:`_tally_hashes`, without a float or a sort of the
    chunk; trial t lands on the outcome :func:`_python_tally` gives it.
    """
    return _tally_hashes(_limits(cdf), _hash_chunks(seed, trials))


def simulate(
    povm: DiagonalPovm,
    state: SchmidtSpectrum,
    trials: int,
    seed: int,
) -> SimulationReport:
    """Sample measurement outcomes and tally them against the theory.

    Each trial draws one counter-based uniform variate u and lands on the
    first outcome k with u < cdf_k; post-measurement states are known
    analytically so no state update is simulated.  The cdf is the running
    sum of the outcome probabilities, its last value raised to at least 1,
    above every u.  Each tally turns the cdf into integer limits once and
    compares the trials' raw hashes with them.  A run of at most
    ``_CHUNK_TRIALS`` trials bisects the limits once per trial in pure
    Python.  A longer one is hashed and tallied with numpy in chunks of
    that size, so memory does not grow with ``trials``: a chunk is counted
    per bin of its hashes' top bits, and the few hashes in bins that hold
    a limit are sorted and searched.  Both give the counts a search of the
    cdf per variate gives.  Raises :class:`IncompletePovmError` when the
    state's rank exceeds the measurement's support.
    """
    expected = povm.outcome_probabilities(state)
    labels = [el.label for el in povm.elements]
    cdf = list(accumulate(expected))  # the sequential sums np.cumsum makes
    cdf[-1] = max(cdf[-1], 1.0)  # guard the top edge against rounding
    tally = _python_tally if trials <= _CHUNK_TRIALS else _numpy_tally
    return SimulationReport(
        trials=trials,
        seed=seed,
        labels=tuple(labels),
        counts=tuple(tally(cdf, seed, trials)),
        expected_probs=tuple(expected),
    )
