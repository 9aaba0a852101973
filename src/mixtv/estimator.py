"""Relative-error Monte Carlo estimation of the total variation distance.

The estimate is ``fbar * Pr[X != Y]`` under the recursive coupling, where
``f(omega) = max(0, P(omega) - Q(omega)) / Pr[X = omega and X != Y]`` is
averaged over samples of the first coordinate sequence conditioned on the
coupling failing.  With the theoretical sample count the result lies within
a ``(1 +/- epsilon)`` factor of the true distance with probability at least
99%.  Each repetition is one sequential loop over blocks of draws: draw the
failed trajectories of a block, evaluate the integrand once per distinct
configuration, and add the values to the running sum in draw order.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coupling import (
    CouplingDag,
    build_dag,
    evaluate_failure_mass,
    failure_probability,
    sample_failed_trajectory,
)
from .errors import FactViolation, ShapeMismatch, TooLarge, ZeroDenominator
from .model import Mixture, mass

# Ratios may exceed 1 by at most this before they count as a coupling bug.
CLAMP_TOL = 1e-9
# Draws per block.  f is deterministic, so it is evaluated once per distinct
# configuration of a block: on tiny domains most draws repeat ({0,1}^2 has 4
# configurations), on large ones nearly every draw is new.  The block bounds
# the memory this takes.
BLOCK = 256


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of :func:`approximate_tv`.

    Without ``samples_override`` the sample count is the theoretical
    ``ceil(100 / (gamma * epsilon^2))`` with ``gamma = (4nq)^-(k1+k2-1)``,
    which carries the 99% guarantee.  ``samples_override`` sets the count
    directly; the guarantee then rests on the empirical coarseness ratio,
    not the worst case.  ``repetitions`` returns the median of that many
    independent runs for confidence beyond 99%.
    """

    epsilon: float
    seed: int = 0
    samples_override: int | None = None
    repetitions: int = 1

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ShapeMismatch(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.samples_override is not None and self.samples_override < 1:
            raise ShapeMismatch(f"samples_override must be positive, got {self.samples_override}")
        if self.repetitions < 1:
            raise ShapeMismatch(f"repetitions must be positive, got {self.repetitions}")
        if self.seed < 0:
            raise ShapeMismatch(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class TvEstimate:
    """Result record; ``estimate`` is exactly ``fbar * discrepancy``."""

    estimate: float
    discrepancy: float
    fbar: float
    gamma: float
    samples: int
    seed: int
    elapsed: float


def theoretical_gamma(n: int, q: int, k1: int, k2: int) -> float:
    """Worst-case ratio of the true distance to the coupling discrepancy."""
    return float(4 * n * q) ** (-(k1 + k2 - 1))


def sample_count(gamma: float, epsilon: float) -> int:
    """Monte Carlo sample count ``ceil(100 / (gamma * epsilon^2))``, at least 1."""
    denom = gamma * epsilon * epsilon
    if not denom > 0.0 or math.isinf(100.0 / denom):
        raise TooLarge(
            f"the theoretical sample count 100 / (gamma * epsilon^2) overflows at "
            f"gamma={gamma!r}, epsilon={epsilon!r}; set the count with --samples"
        )
    return max(1, math.ceil(100.0 / denom))


def _describe(omega: Sequence[int]) -> str:
    """``omega`` for an error message: its length and at most 8 leading values."""
    head = ", ".join(str(int(c)) for c in omega[:8])
    return f"sigma of length n={len(omega)} starting ({head}{', ...' if len(omega) > 8 else ''})"


def f_value(p: Mixture, q: Mixture, dag: CouplingDag, omega: Sequence[int]) -> float:
    """The estimator integrand at ``omega``, clamped to [0, 1].

    The ratio ``max(0, P - Q) / failure mass`` never exceeds 1 for any
    coupling; an excess beyond 1e-9 therefore raises :class:`FactViolation`
    instead of being absorbed.
    """
    denom = evaluate_failure_mass(dag, omega)
    if denom <= 0.0:
        raise ZeroDenominator(f"{_describe(omega)} has zero failure mass")
    ratio = max(0.0, mass(p, omega) - mass(q, omega)) / denom
    if ratio > 1.0 + CLAMP_TOL:
        raise FactViolation(f"f at {_describe(omega)} is {ratio!r}, above 1 + {CLAMP_TOL}")
    return min(ratio, 1.0)


def approximate_tv(
    p: Mixture,
    q: Mixture,
    config: EstimatorConfig,
    max_states: int | None = None,
) -> TvEstimate:
    """Estimate the total variation distance within a ``(1 +/- epsilon)`` factor.

    Builds the coupling DAG, reads off the discrepancy, and averages the
    integrand over conditioned samples.  A zero discrepancy proves the
    distance is zero, so the estimate 0 is returned without sampling.
    Results are bit-identical given (seed, repetitions): repetition ``rep``
    draws from a stream derived from ``(seed, rep)`` and sums its integrand
    values in draw order, in blocks of :data:`BLOCK` draws.
    """
    t0 = time.perf_counter()
    dag = build_dag(p, q, max_states=max_states)
    discrepancy = failure_probability(dag)
    gamma = theoretical_gamma(p.n, p.q, p.k, q.k)
    if discrepancy == 0.0:
        return TvEstimate(
            estimate=0.0,
            discrepancy=0.0,
            fbar=0.0,
            gamma=gamma,
            samples=0,
            seed=config.seed,
            elapsed=time.perf_counter() - t0,
        )
    draws = (
        config.samples_override
        if config.samples_override is not None
        else sample_count(gamma, config.epsilon)
    )
    fbars = []
    for rep in range(config.repetitions):
        # The trailing 0 of the spawn key is part of the stream: removing it
        # would change every estimate.
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(rep, 0))
        )
        acc = 0.0
        for start in range(0, draws, BLOCK):
            omegas = [
                sample_failed_trajectory(dag, rng) for _ in range(min(BLOCK, draws - start))
            ]
            fvals = {omega: f_value(p, q, dag, omega) for omega in dict.fromkeys(omegas)}
            for omega in omegas:
                acc += fvals[omega]
        fbars.append(acc / draws)
    fbar = statistics.median(fbars)
    return TvEstimate(
        estimate=fbar * discrepancy,
        discrepancy=discrepancy,
        fbar=fbar,
        gamma=gamma,
        samples=draws,
        seed=config.seed,
        elapsed=time.perf_counter() - t0,
    )
