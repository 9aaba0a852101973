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

Every query first reduces the instance to its core (:func:`presolve`),
which drops the coordinates that factor out of both mixtures and cancels
the weight of the components that both hold. Both steps are exact; the
DAG, the sample count and the draws then work on fewer coordinates and
components.
"""

from __future__ import annotations

import math
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
from .model import Mixture, as_configurations, check_same_domain, masses

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


def presolve(p: Mixture, q: Mixture) -> tuple[Mixture, Mixture, float] | None:
    """The core instance of ``(p, q)`` and the weight ``c`` cancelled from each side.

    Two exact reductions, both on byte-equal rows (the float64 bits, so
    ``-0.0`` and ``0.0`` differ):

    * Components: byte-equal components of one side merge, their weights
      added in component order, at the place of the first. A component
      that both sides hold, with positive weights ``a`` and ``b``, loses
      ``min(a, b)`` on each side. ``c`` is the sum of those minima; if it
      is positive, the components left with weight 0 are dropped and each
      side's remaining weights are divided by their sum.
      ``TV(p, q) = (1 - c) * TV(core)``.
    * Coordinates: a coordinate where every remaining component of both
      sides has the same row ``r`` factors out, ``P = P' x r`` and
      ``Q = Q' x r``, so it is dropped and the distance does not change.

    Returns None when a side has no weight left, i.e. when the distance is
    0. The core is always a new pair of mixtures; when nothing is removed
    it holds the bytes of ``p`` and ``q`` (a ``-0.0`` weight as ``0.0``)
    and ``c = 0.0``.
    """
    check_same_domain(p, q)
    sides = []
    for m in (p, q):
        groups: dict[bytes, list] = {}  # component bytes -> [first index, weight]
        for s in range(m.k):
            group = groups.setdefault(m.components[s].tobytes(), [s, 0.0])
            group[1] += float(m.weights[s])
        sides.append(groups)
    cancelled = 0.0
    for key, a in sides[0].items():  # in P's component order: c is summed reproducibly
        b = sides[1].get(key)
        if b is not None and (shared := min(a[1], b[1])) > 0.0:
            cancelled += shared
            a[1] -= shared
            b[1] -= shared
    kept = [[g for g in groups.values() if g[1] > 0.0 or not cancelled] for groups in sides]
    weights = [np.array([g[1] for g in groups]) for groups in kept]
    if not (weights[0].sum() > 0.0 and weights[1].sum() > 0.0 and cancelled < 1.0):
        return None
    rows = [np.array([g[0] for g in groups], dtype=np.intp) for groups in kept]
    ref = p.components[rows[0][0]].view(np.uint64)
    differ = np.zeros(p.n, dtype=bool)
    for m, r in zip((p, q), rows):
        for s in r:
            differ |= (m.components[s].view(np.uint64) != ref).any(axis=1)
    keep = np.flatnonzero(differ)
    core = []
    for m, r, w in zip((p, q), rows, weights):
        if cancelled:
            w = w / w.sum()
        components = m.components[np.ix_(r, keep)]
        components.flags.writeable = False
        w.flags.writeable = False
        core.append(Mixture(q=m.q, n=len(keep), weights=w, components=components))
    return core[0], core[1], cancelled


def _mean_f(p: Mixture, q: Mixture, dag: CouplingDag, config: EstimatorConfig, draws: int) -> float:
    """The median over ``config.repetitions`` of the mean integrand over ``draws`` failed walks of ``dag``.

    Repetition ``rep`` draws from a stream derived from ``(config.seed,
    rep)`` and sums its integrand values in draw order, in blocks of
    :data:`BLOCK` draws.
    """
    fbars = []
    for rep in range(config.repetitions):
        # The trailing 0 of the spawn key is part of the stream: removing it
        # would change every estimate.
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(rep, 0)))
        acc = 0.0
        for start in range(0, draws, BLOCK):
            omegas = sample_failed_trajectories(dag, rng, min(BLOCK, draws - start))
            for value in f_values(p, q, dag, omegas).tolist():
                acc += value
        fbars.append(acc / draws)
    fbars.sort()
    mid = len(fbars) // 2  # statistics.median's formula, without importing it
    return fbars[mid] if len(fbars) % 2 else (fbars[mid - 1] + fbars[mid]) / 2


def approximate_tv(
    p: Mixture,
    q: Mixture,
    config: EstimatorConfig,
    max_states: int | None = None,
) -> TvEstimate:
    """Estimate the total variation distance within a ``(1 +/- epsilon)`` factor.

    Reduces the instance to its core (:func:`presolve`), builds the core's
    coupling DAG (``max_states`` bounds its states), reads off the
    discrepancy, and averages the integrand over conditioned samples. The
    core's n, k1 and k2 set ``gamma`` and the theoretical sample count.
    The reported discrepancy is ``(1 - c)`` times the core's, with ``c``
    the cancelled weight: the failure probability of a coupling of ``p``
    and ``q`` that first couples the shared weight identically. ``fbar`` is
    the core's mean integrand, and ``estimate`` is ``fbar * discrepancy``.
    A zero discrepancy proves the distance is zero, so the estimate 0 is
    returned without sampling; so is a core where everything cancels,
    reported with the ``gamma`` of the instance as given. Results are
    bit-identical given (seed, repetitions), see :func:`_mean_f`.
    """
    t0 = time.perf_counter()
    if max_states is not None and max_states < 1:  # rejected even when no DAG is built
        raise ShapeMismatch(f"max_states must be at least 1, got {max_states}")
    core = presolve(p, q)
    gamma, fbar, discrepancy, draws = theoretical_gamma(p.n, p.q, p.k, q.k), 0.0, 0.0, 0
    if core is not None:
        p, q, cancelled = core
        dag = build_dag(p, q, max_states=max_states)
        discrepancy = failure_probability(dag)
        gamma = theoretical_gamma(p.n, p.q, p.k, q.k)
        if discrepancy != 0.0:
            draws = (
                config.samples_override
                if config.samples_override is not None
                else sample_count(gamma, config.epsilon)
            )
            fbar = _mean_f(p, q, dag, config, draws)
        discrepancy *= 1.0 - cancelled
    return TvEstimate(
        estimate=fbar * discrepancy,
        discrepancy=discrepancy,
        fbar=fbar,
        gamma=gamma,
        samples=draws,
        seed=config.seed,
        elapsed=time.perf_counter() - t0,
    )
