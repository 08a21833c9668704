"""Shared helpers for the test suite: seeded random instances and oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np

from entmanip import SchmidtSpectrum, make_ensemble, make_spectrum, optimal_plan


def random_spectrum(rng: np.random.Generator, n: int) -> SchmidtSpectrum:
    """Random full-rank spectrum with coefficients bounded away from zero."""
    raw = rng.random(n) + 0.05
    return make_spectrum(raw.tolist())


def random_ensemble(rng: np.random.Generator, m: int, max_rank: int):
    """Random target ensemble with m entries of rank <= max_rank."""
    probs = rng.random(m) + 0.1
    probs = probs / probs.sum()
    pairs = []
    for p in probs:
        rank = int(rng.integers(1, max_rank + 1))
        pairs.append((float(p), random_spectrum(rng, rank)))
    return make_ensemble(pairs)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def concentrate_toward_top(
    rng: np.random.Generator, s: SchmidtSpectrum
) -> SchmidtSpectrum:
    """A spectrum reachable from ``s``: mass moved to the leading coefficient.

    Moving weight from the smallest to the largest coefficient shrinks every
    tail sum, so the result is always a feasible deterministic target of
    ``s`` (and the chain of such moves stays feasible, which the
    transitivity tests rely on).
    """
    coeffs = list(s.coeffs)
    if len(coeffs) == 1:
        return s
    delta = float(rng.random()) * coeffs[-1]
    coeffs[0] += delta
    coeffs[-1] -= delta
    coeffs = [c for c in coeffs if c > 0]
    return make_spectrum(coeffs, zero_tol=0.0)


def expanded_yield_curve(s: SchmidtSpectrum, max_n: int) -> tuple:
    """Per-copy optimal yield from the fully expanded n-copy spectra.

    Builds all rank**n products, so it is only for small n: the reference
    that the type-class computation in ``asymptotic_yield_curve`` must match.
    """
    curve = []
    for n in range(1, max_n + 1):
        products = [math.prod(c) for c in itertools.product(s.coeffs, repeat=n)]
        plan = optimal_plan(make_spectrum(products, zero_tol=0.0))
        curve.append((n, plan.expected_entanglement / n))
    return tuple(curve)
