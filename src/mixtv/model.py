"""Mixtures of product distributions over {0..q-1}^n.

A mixture is a convex combination of ``k`` product distributions.  This
module owns the validated in-memory representation, the probability mass
oracle, and the JSON instance format shared by the solvers and the CLI.

Values of the alphabet are encoded ``0..q-1``; coordinates are numbered
``1..n`` wherever an explicit coordinate index appears in an API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import NormalizationError, NotAProbability, ShapeMismatch, TooLarge

# Rows (weights and marginals) whose sum deviates from 1 by more than this
# are rejected; smaller deviations are renormalized away.
SUM_TOL = 1e-9
# Single entries may undershoot 0 / overshoot 1 by at most this much.
ENTRY_TOL = 1e-12


@dataclass(frozen=True)
class Mixture:
    """A validated mixture of ``k`` product distributions.

    Attributes
    ----------
    q : int
        Alphabet size (>= 2).
    n : int
        Number of coordinates (>= 1).
    weights : np.ndarray, shape (k,)
        Mixing weights, renormalized to sum to 1.  Zero weights are kept:
        such components are stored but inactive.
    components : np.ndarray, shape (k, n, q)
        ``components[s, i, c]`` is the probability that coordinate ``i+1``
        takes value ``c`` under component ``s``.  Every row sums to 1.

    Instances are produced by :func:`validate_mixture`; the arrays are
    read-only, so a mixture can be shared freely across threads.
    """

    q: int
    n: int
    weights: np.ndarray
    components: np.ndarray

    @property
    def k(self) -> int:
        """Number of components, including inactive (zero-weight) ones."""
        return int(self.weights.shape[0])

    @property
    def active(self) -> np.ndarray:
        """Boolean mask of components with strictly positive weight."""
        return self.weights > 0.0


def _renormalized_rows(arr: np.ndarray, what: str) -> np.ndarray:
    """Validate rows of probabilities along the last axis and renormalize."""
    if not np.isfinite(arr).all():
        raise NotAProbability(f"{what} contains non-finite entries")
    if (arr < -ENTRY_TOL).any() or (arr > 1.0 + ENTRY_TOL).any():
        raise NotAProbability(f"{what} has entries outside [0, 1]")
    arr = np.clip(arr, 0.0, None)
    sums = arr.sum(axis=-1)
    if (np.abs(sums - 1.0) > SUM_TOL).any():
        worst = float(np.abs(sums - 1.0).max())
        raise NormalizationError(f"{what} rows sum to 1 +/- {worst:.3e}, tolerance {SUM_TOL}")
    return arr / sums[..., None]


def validate_mixture(raw: Mapping[str, Any] | tuple) -> Mixture:
    """Build a :class:`Mixture` from an unvalidated description.

    Parameters
    ----------
    raw : mapping or pair
        Either a mapping with keys ``"weights"`` (length k) and
        ``"components"`` (k x n x q nested array), i.e. the per-mixture
        sub-document of the JSON instance format, or a ``(weights,
        components)`` pair of array-likes.

    Returns
    -------
    Mixture
        With weights and marginal rows renormalized to sum to 1.

    Raises
    ------
    ShapeMismatch
        If the arrays do not form a consistent k x n x q block, hold an
        integer too large for a float, or hold strings, nulls or only
        booleans.  Numpy promotes booleans mixed with numbers, so
        ``[true, 0.5]`` reads as ``[1.0, 0.5]``.
    NotAProbability
        If an entry is below -1e-12 or above 1 + 1e-12, or non-finite.
    NormalizationError
        If a row sum deviates from 1 by more than 1e-9.
    """
    if isinstance(raw, Mapping):
        try:
            weights_in, components_in = raw["weights"], raw["components"]
        except KeyError as exc:
            raise ShapeMismatch(f"mixture description is missing key {exc}") from None
    else:
        try:
            weights_in, components_in = raw
        except (TypeError, ValueError):
            raise ShapeMismatch("expected a mapping or a (weights, components) pair") from None

    try:
        weights = np.asarray(weights_in)
        components = np.asarray(components_in)
        if weights.dtype.kind in "bSU" or components.dtype.kind in "bSU":
            raise ShapeMismatch(
                f"mixture entries must be numbers, got {weights.dtype} weights "
                f"and {components.dtype} components"
            )
        # numpy reads None (JSON null) in an object array as NaN.
        for arr in (weights, components):
            if arr.dtype == object and any(x is None for x in arr.flat):
                raise ShapeMismatch("mixture entries must be numbers, got null")
        weights = weights.astype(float, copy=False)
        components = components.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ShapeMismatch(f"could not coerce mixture arrays: {exc}") from None

    if weights.ndim != 1 or components.ndim != 3:
        raise ShapeMismatch(
            f"expected weights (k,) and components (k, n, q), "
            f"got {weights.shape} and {components.shape}"
        )
    k, n, q = components.shape
    if weights.shape[0] != k:
        raise ShapeMismatch(f"{weights.shape[0]} weights for {k} components")
    if n < 1 or q < 2:
        raise ShapeMismatch(f"need n >= 1 and q >= 2, got n={n}, q={q}")

    weights = _renormalized_rows(weights, "weights")
    components = _renormalized_rows(components, "marginals")
    weights.flags.writeable = False
    components.flags.writeable = False
    return Mixture(q=q, n=n, weights=weights, components=components)


def check_same_domain(p: Mixture, q: Mixture) -> None:
    """Raise :class:`ShapeMismatch` unless ``p`` and ``q`` share ``(q, n)``."""
    if (p.q, p.n) != (q.q, q.n):
        raise ShapeMismatch(
            f"mixtures disagree on the domain: ({p.q}, {p.n}) vs ({q.q}, {q.n})"
        )


def as_configurations(m: Mixture, values: Sequence[Sequence[int]]) -> np.ndarray:
    """Coerce ``values`` to a ``(B, n)`` int array of configurations and range-check it."""
    cfgs = np.asarray(values, dtype=np.int64)
    if cfgs.ndim != 2 or cfgs.shape[1] != m.n:
        raise ShapeMismatch(f"configuration block of shape {cfgs.shape} for n={m.n}")
    if cfgs.size and ((cfgs < 0).any() or (cfgs >= m.q).any()):
        raise ShapeMismatch(f"configuration values must lie in 0..{m.q - 1}")
    return cfgs


def config_count(m: Mixture, max_configs: int) -> int:
    """The number ``q^n`` of configurations of ``m``, guarded for enumeration.

    A limit below 1 is bad input (:class:`ShapeMismatch`); a count above it
    is :class:`TooLarge`, whose message names the count as ``q^n = 2^20000``:
    Python refuses to convert an integer of more than 4300 digits to a string.
    """
    if max_configs < 1:
        raise ShapeMismatch(f"max_configs must be at least 1, got {max_configs}")
    total = m.q**m.n
    if total > max_configs:
        raise TooLarge(f"q^n = {m.q}^{m.n} exceeds max_configs={max_configs}")
    return total


def masses(m: Mixture, configs: Sequence[Sequence[int]]) -> np.ndarray:
    """Probability mass of each configuration row of a ``(B, n)`` block.

    Coordinates are multiplied left to right and components added in
    ascending index, so each row is bit-for-bit reproducible whatever block
    it is in.
    """
    cfgs = as_configurations(m, configs)
    prods = np.ones((cfgs.shape[0], m.k))
    for i in range(m.n):
        prods *= m.components[:, i, cfgs[:, i]].T
    total = np.zeros(cfgs.shape[0])
    for s in range(m.k):
        total += m.weights[s] * prods[:, s]
    return total


def mass(m: Mixture, omega: Sequence[int]) -> float:
    """Probability mass of a full configuration, ``sum_s w_s prod_i P_i^s(omega_i)``.

    Evaluates in O(nk) arithmetic operations, as the one-row block of
    :func:`masses` (same arithmetic order).
    """
    return float(masses(m, [omega])[0])


# ---------------------------------------------------------------------------
# JSON instance format: {"q": int, "n": int,
#                        "p":      {"weights": [...], "components": [[[...]]]},
#                        "q_dist": {"weights": [...], "components": [[[...]]]}}
# ---------------------------------------------------------------------------


def parse_instance(doc: Any) -> tuple[Mixture, Mixture]:
    """Parse a JSON instance document into a validated pair of mixtures.

    ``doc`` must be a mapping whose ``"q"`` and ``"n"`` are integers (not
    bools) equal to the arrays' alphabet size and dimension; anything else is
    a :class:`ShapeMismatch`.
    """
    if not isinstance(doc, Mapping):
        raise ShapeMismatch(f"instance document must be an object, got {type(doc).__name__}")
    for key in ("q", "n", "p", "q_dist"):
        if key not in doc:
            raise ShapeMismatch(f"instance document is missing key {key!r}")
    p = validate_mixture(doc["p"])
    q = validate_mixture(doc["q_dist"])
    check_same_domain(p, q)
    declared = (doc["q"], doc["n"])
    if any(type(v) is not int for v in declared) or declared != (p.q, p.n):
        raise ShapeMismatch(
            f"declared q={doc['q']!r}, n={doc['n']!r} but arrays have q={p.q}, n={p.n}"
        )
    return p, q


def instance_document(p: Mixture, q: Mixture) -> dict[str, Any]:
    """Serialize a pair of mixtures to the JSON instance document layout."""
    check_same_domain(p, q)
    return {
        "q": p.q,
        "n": p.n,
        "p": {"weights": p.weights.tolist(), "components": p.components.tolist()},
        "q_dist": {"weights": q.weights.tolist(), "components": q.components.tolist()},
    }
