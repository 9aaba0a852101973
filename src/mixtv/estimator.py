"""Relative-error Monte Carlo estimation of the total variation distance.

The estimate is ``fbar * Pr[X != Y]`` under the recursive coupling, where
``f(omega) = max(0, P(omega) - Q(omega)) / Pr[X = omega and X != Y]`` is
averaged over samples of the first coordinate sequence conditioned on the
coupling failing.  With the theoretical sample count the result lies within
a ``(1 +/- epsilon)`` factor of the true distance with probability at least
99%.  Each repetition is one sequential loop over blocks of draws: draw the
failed trajectories of a block with one batched walk
(:func:`~mixtv.coupling.sample_failed_trajectories`), evaluate the integrand
on the whole block with one batched call (:func:`f_values`), and add the
values to the running sum in draw order.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coupling import (
    BLOCK,
    CouplingDag,
    build_dag,
    failure_masses,
    failure_probability,
    sample_failed_trajectories,
)
from .errors import FactViolation, ShapeMismatch, TooLarge, ZeroDenominator
from .model import Mixture, as_configurations, masses

# The one-row forms of what the block loop computes.  The estimator does not
# call them, but they stay bound here: perfbench/tracing.py wraps them on
# this module.
from .coupling import evaluate_failure_mass, sample_failed_trajectory  # noqa: F401
from .model import mass  # noqa: F401

# Ratios may exceed 1 by at most this before they count as a coupling bug.
CLAMP_TOL = 1e-9


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


def f_values(
    p: Mixture, q: Mixture, dag: CouplingDag, omegas: Sequence[Sequence[int]]
) -> np.ndarray:
    """The estimator integrand at each configuration row of ``omegas``, clamped to [0, 1].

    The ratio ``max(0, P - Q) / failure mass`` never exceeds 1 for any
    coupling; an excess beyond 1e-9 therefore raises :class:`FactViolation`
    instead of being absorbed.  A row with zero failure mass raises
    :class:`ZeroDenominator`.  Either error names the first offending row.
    """
    cfgs = as_configurations(p, omegas)
    denom = failure_masses(dag, cfgs)
    zero = denom <= 0.0
    excess = np.maximum(0.0, masses(p, cfgs) - masses(q, cfgs))
    ratio = np.divide(excess, denom, out=np.zeros_like(denom), where=~zero)
    bad = zero | (ratio > 1.0 + CLAMP_TOL)
    if bad.any():
        first = int(np.argmax(bad))
        if zero[first]:
            raise ZeroDenominator(f"{_describe(cfgs[first])} has zero failure mass")
        raise FactViolation(
            f"f at {_describe(cfgs[first])} is {float(ratio[first])!r}, above 1 + {CLAMP_TOL}"
        )
    return np.minimum(ratio, 1.0)


def f_value(p: Mixture, q: Mixture, dag: CouplingDag, omega: Sequence[int]) -> float:
    """The estimator integrand at ``omega``: a one-row :func:`f_values` call."""
    return float(f_values(p, q, dag, [omega])[0])


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
    fbar, draws = 0.0, 0
    if discrepancy != 0.0:
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
                omegas = sample_failed_trajectories(dag, rng, min(BLOCK, draws - start))
                for value in f_values(p, q, dag, omegas).tolist():
                    acc += value
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
