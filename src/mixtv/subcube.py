"""Exact total variation distance for mixtures of Boolean subcubes.

A component over {0,1}^n is a Boolean subcube when every marginal fixes its
coordinate to 0, fixes it to 1, or leaves it uniform.  A point then has one
of at most ``2^(k1+k2)`` probability-difference values, indexed by the bit
vector recording which components it is feasible for, so the distance
reduces to counting points per feasibility vector.  The counts are the
superset Mobius transform of the cube-intersection sizes, which one
depth-first walk over the formula subsets builds; both are exact integers,
and only the final weighted sum is floating point.  Each scaled count is exact for
counts below 2**53 (one-ulp truncation beyond) and underflows to zero once
a component has more than ~1074 free coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import ldexp
from typing import Sequence

import numpy as np

from .errors import NotASubcube, ShapeMismatch, TooLarge, WrongAlphabet
from .model import Mixture, check_same_domain

# A marginal must be within this of 0, 1/2, or 1 to classify; the values are
# exact under JSON round-trips, so the slack only guards exotic serializers.
CLASSIFY_TOL = 1e-12
# chi_table refuses tables estimated above this many bytes, counting one
# integer of up to n bits and one chi tuple per entry.
CHI_TABLE_MAX_BYTES = 1 << 30

ChiTable = dict[tuple[int, ...], int]


@dataclass(frozen=True)
class SubcubeProfile:
    """Per-component coordinate partition of a subcube mixture.

    ``ones[s]``, ``zeros[s]``, ``free[s]`` are sorted 1-based coordinate
    index arrays that partition ``1..n`` for component ``s``.  Every
    feasible point of component ``s`` has probability ``2 ** -free_count[s]``.
    """

    n: int
    ones: tuple[np.ndarray, ...]
    zeros: tuple[np.ndarray, ...]
    free: tuple[np.ndarray, ...]

    @property
    def k(self) -> int:
        return len(self.ones)

    @property
    def free_counts(self) -> tuple[int, ...]:
        return tuple(int(f.size) for f in self.free)


def classify_subcube(m: Mixture) -> SubcubeProfile:
    """Partition each component's coordinates into fixed-1 / fixed-0 / uniform.

    Raises
    ------
    WrongAlphabet
        If ``m.q != 2``.
    NotASubcube
        If some marginal probability of 1 is not 0, 1/2, or 1 within 1e-12.
    """
    if m.q != 2:
        raise WrongAlphabet(f"subcube mixtures need q = 2, got q = {m.q}")
    marg1 = m.components[:, :, 1]  # (k, n) probability of value 1
    is_one = np.abs(marg1 - 1.0) <= CLASSIFY_TOL
    is_zero = np.abs(marg1) <= CLASSIFY_TOL
    is_half = np.abs(marg1 - 0.5) <= CLASSIFY_TOL
    bad = ~(is_one | is_zero | is_half)
    if bad.any():
        s, i = np.argwhere(bad)[0]
        raise NotASubcube(
            f"component {s}, coordinate {i + 1}: marginal {marg1[s, i]!r} "
            "is not 0, 1/2, or 1"
        )
    return SubcubeProfile(
        n=m.n,
        ones=tuple(np.flatnonzero(row) + 1 for row in is_one),
        zeros=tuple(np.flatnonzero(row) + 1 for row in is_zero),
        free=tuple(np.flatnonzero(row) + 1 for row in is_half),
    )


def _formula(p: SubcubeProfile, q: SubcubeProfile, f: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-to-1 and fixed-to-0 coordinates of formula ``f`` (1-based index)."""
    k_total = p.k + q.k
    if not 1 <= f <= k_total:
        raise ShapeMismatch(f"formula index {f} outside 1..{k_total}")
    if f <= p.k:
        return p.ones[f - 1], p.zeros[f - 1]
    return q.ones[f - p.k - 1], q.zeros[f - p.k - 1]


def cube_intersection_count(
    p: SubcubeProfile, q: SubcubeProfile, formulas: Sequence[int]
) -> int:
    """Number of points feasible for every listed formula.

    ``formulas`` holds 1-based indices into the ``k1 + k2`` components, the
    P-side components first.  Merges the fixed coordinates in O(n * |S|);
    returns 0 on a contradiction, else ``2 ** unfixed`` as an exact integer.
    """
    if p.n != q.n:
        raise ShapeMismatch("profiles disagree on the dimension")
    ones: list[np.ndarray] = []
    zeros: list[np.ndarray] = []
    for f in formulas:
        o, z = _formula(p, q, int(f))
        ones.append(o)
        zeros.append(z)
    fixed1 = np.unique(np.concatenate(ones)) if ones else np.empty(0, dtype=np.int64)
    fixed0 = np.unique(np.concatenate(zeros)) if zeros else np.empty(0, dtype=np.int64)
    if np.intersect1d(fixed1, fixed0, assume_unique=True).size:
        return 0
    return 1 << (p.n - int(fixed1.size) - int(fixed0.size))


def chi_count(p: SubcubeProfile, q: SubcubeProfile, chi: Sequence[int]) -> int:
    """Number of points whose feasibility vector equals ``chi``, exactly.

    Inclusion-exclusion over the formulas that ``chi`` requires infeasible:
    ``N = sum over S subset of S0 of (-1)^|S| |Phi(S1 union S)|``, with the
    zero-index subsets enumerated by a binary counter.
    """
    k_total = p.k + q.k
    chi_arr = [int(b) for b in chi]
    if len(chi_arr) != k_total or any(b not in (0, 1) for b in chi_arr):
        raise ShapeMismatch(f"chi must be a 0/1 vector of length {k_total}")
    s1 = [f + 1 for f, b in enumerate(chi_arr) if b == 1]
    s0 = [f + 1 for f, b in enumerate(chi_arr) if b == 0]
    total = 0
    for pick in range(1 << len(s0)):
        subset = [s0[i] for i in range(len(s0)) if pick >> i & 1]
        sign = -1 if len(subset) % 2 else 1
        total += sign * cube_intersection_count(p, q, s1 + subset)
    return total


# ---------------------------------------------------------------------------
# Full table and exact distance
# ---------------------------------------------------------------------------


def _fixed_bits(coords: np.ndarray, n: int) -> int:
    """1-based coordinates as one integer, bit ``i`` standing for coordinate ``i + 1``."""
    row = np.zeros(n, dtype=bool)
    row[coords - 1] = True
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


def _phi_sizes(p: SubcubeProfile, q: SubcubeProfile) -> list[int]:
    """``|Phi(S)|`` for every formula subset ``S``, indexed by bitmask.

    Formula ``f`` (0-based) is mask bit ``K - 1 - f``, so ascending masks are
    lexicographic chi order.  A depth-first walk adds formulas in index order;
    a child's fixed-1 and fixed-0 sets are its parent's OR the new formula's.
    A conflict empties every superset, so its branch is skipped and its
    entries stay 0.
    """
    n = p.n
    k_total = p.k + q.k
    fixed = [
        tuple(_fixed_bits(c, n) for c in _formula(p, q, f)) for f in range(1, k_total + 1)
    ]
    sizes = [0] * (1 << k_total)

    def walk(mask: int, start: int, ones: int, zeros: int) -> None:
        sizes[mask] = 1 << (n - (ones | zeros).bit_count())
        for f in range(start, k_total):
            o = ones | fixed[f][0]
            z = zeros | fixed[f][1]
            if not o & z:
                walk(mask | 1 << (k_total - 1 - f), f + 1, o, z)

    walk(0, 0, 0, 0)
    return sizes


def chi_table(p: SubcubeProfile, q: SubcubeProfile) -> ChiTable:
    """The full map chi -> count, in lexicographic chi order.

    Matches :func:`chi_count` entry by entry.  ``|Phi(S)|`` sums ``N_chi``
    over every ``chi`` containing ``S``, so the counts are its superset
    Mobius transform: ``k1 + k2`` passes of ``2^(k1+k2-1)`` exact-integer
    subtractions after one depth-first walk over the formula subsets, each
    step an OR of one formula's fixed coordinates into its parent's.  Raises
    :class:`TooLarge` first when the estimated table size exceeds
    ``CHI_TABLE_MAX_BYTES``.
    """
    k_total = p.k + q.k
    est = (1 << k_total) * (p.n // 8 + 8 * k_total + 64)
    if est > CHI_TABLE_MAX_BYTES:
        raise TooLarge(
            f"chi table for k1 + k2 = {k_total}, n = {p.n} needs ~{est} bytes, "
            f"over the {CHI_TABLE_MAX_BYTES}-byte limit"
        )
    counts = _phi_sizes(p, q)
    for f in range(k_total):
        for mask in range(1 << k_total):
            if not mask >> f & 1:
                counts[mask] -= counts[mask | 1 << f]
    return dict(zip(product((0, 1), repeat=k_total), counts))


def _exact_scaled(count: int, shift: int) -> float:
    """``count * 2**-shift`` as a float without overflowing intermediate values."""
    bits = count.bit_length()
    if bits <= 53:
        return ldexp(float(count), -shift)
    excess = bits - 53
    return ldexp(float(count >> excess), excess - shift)


def exact_subcube_tv(p: Mixture, q: Mixture) -> float:
    """Exact total variation distance between two subcube mixtures.

    Classifies both mixtures, counts points per feasibility vector, and
    returns ``(1/2) * sum over chi of N_chi * |sum_s a_s 2^-r_s chi_s -
    sum_t b_t 2^-r'_t chi_(k1+t)|``.  Counting is exact integer arithmetic
    for any ``n``; the final sum is double precision.
    """
    check_same_domain(p, q)
    prof_p = classify_subcube(p)
    prof_q = classify_subcube(q)
    k1 = prof_p.k
    r_p = prof_p.free_counts
    r_q = prof_q.free_counts
    w_p = p.weights
    w_q = q.weights
    total = 0.0
    for chi, count in chi_table(prof_p, prof_q).items():
        if count == 0:
            continue
        # Accumulate the two sides separately so identical mixtures cancel
        # bit-exactly under the symmetric chi values.
        lhs = 0.0
        for s in range(k1):
            if chi[s]:
                lhs += w_p[s] * _exact_scaled(count, r_p[s])
        rhs = 0.0
        for t in range(prof_q.k):
            if chi[k1 + t]:
                rhs += w_q[t] * _exact_scaled(count, r_q[t])
        total += abs(lhs - rhs)
    return 0.5 * total
