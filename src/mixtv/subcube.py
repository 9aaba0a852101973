"""Exact total variation distance for mixtures of Boolean subcubes.

A component over {0,1}^n is a Boolean subcube when every marginal fixes its
coordinate to 0, fixes it to 1, or leaves it uniform.  A point then has one
of at most ``2^(k1+k2)`` probability-difference values, indexed by the bit
vector recording which components it is feasible for, so the distance
reduces to counting points per feasibility vector.  The counts are the
superset Mobius transform of the cube-intersection sizes, both exact
integers computed in numpy passes over the ``2^(k1+k2)`` subsets; only the
final weighted sum is floating point.  Each scaled count is exact for
counts below 2**53 (truncated to 53 bits beyond) and underflows to zero
once a component has more than ~1074 free coordinates.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .errors import NotASubcube, ShapeMismatch, TooLarge, WrongAlphabet
from .model import Mixture, check_same_domain

# A marginal must be within this of 0, 1/2, or 1 to classify; the values are
# exact under JSON round-trips, so the slack only guards exotic serializers.
CLASSIFY_TOL = 1e-12
# chi_table refuses a table whose 2^(k1+k2)-entry arrays exceed this many
# bytes: two fixed-coordinate masks of 8 bytes per 64 coordinates of U, eight
# 8-byte arrays (counts, shifts, sums), and Python ints once |U| > 62.
CHI_TABLE_MAX_BYTES = 1 << 30


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
            f"component {s}, coordinate {i + 1}: marginal {float(marg1[s, i])!r} "
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


class ChiTable(Mapping):
    """Read-only map chi -> count, in lexicographic chi order: the exact int
    ``counts[mask] << shift``, formula ``f`` on mask bit ``K - 1 - f``."""

    def __init__(self, counts: np.ndarray, shift: int):
        self.counts = counts
        self.shift = shift
        self.k_total = counts.size.bit_length() - 1

    def __len__(self) -> int:
        return self.counts.size

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return product((0, 1), repeat=self.k_total)

    def __getitem__(self, chi: tuple[int, ...]) -> int:
        if not isinstance(chi, tuple) or len(chi) != self.k_total or not set(chi) <= {0, 1}:
            raise KeyError(chi)
        mask = sum(int(b) << (self.k_total - 1 - f) for f, b in enumerate(chi))
        return int(self.counts[mask]) << self.shift

    def values(self) -> list[int]:  # one pass over the array, not a lookup per chi
        return [c << self.shift for c in self.counts.tolist()]


def chi_table(p: SubcubeProfile, q: SubcubeProfile) -> ChiTable:
    """The full map chi -> count, in lexicographic chi order; matches :func:`chi_count`.

    Coordinates outside ``U``, the union of all fixed coordinates, are free
    in every component, so counts are taken over ``{0,1}^U`` and shifted by
    ``n - |U|``.  ``K = k1 + k2`` doublings OR the formulas' fixed-1 and
    fixed-0 bit masks over ``U`` into every subset's; a popcount gives
    ``|Phi(S)|`` (0 on a conflict), and ``K`` passes of its superset Mobius
    transform give the counts, int64 up to ``|U| = 62`` and Python ints
    beyond.  Raises :class:`TooLarge` when the arrays would exceed
    ``CHI_TABLE_MAX_BYTES``."""
    if p.n != q.n:
        raise ShapeMismatch("profiles disagree on the dimension")
    k_total = p.k + q.k
    fixed = np.zeros((2, k_total, p.n), dtype=bool)  # fixed-1, fixed-0 rows
    for f in range(k_total):
        for side, coords in enumerate(_formula(p, q, f + 1)):
            fixed[side, f, coords - 1] = True
    fixed = fixed[:, :, fixed.any(axis=(0, 1))]  # the columns of U
    u = fixed.shape[2]
    words = u // 64 + 1
    est = (1 << k_total) * (16 * words + 64 + (0 if u <= 62 else 32 + u // 7))
    if est > CHI_TABLE_MAX_BYTES:
        raise TooLarge(
            f"chi table for k1 + k2 = {k_total}, |U| = {u} needs ~{est} bytes, "
            f"over the {CHI_TABLE_MAX_BYTES}-byte limit"
        )
    packed = np.packbits(np.pad(fixed, ((0, 0), (0, 0), (0, 64 * words - u))), axis=2).view(np.uint64)
    masks = np.zeros((2, 1, words), dtype=np.uint64)
    for f in reversed(range(k_total)):  # formula f lands on mask bit K - 1 - f
        masks = np.concatenate((masks, masks | packed[:, f : f + 1]), axis=1)
    dtype = np.int64 if u <= 62 else object
    free = u - np.bitwise_count(masks[0] | masks[1]).sum(axis=1, dtype=np.int64)
    counts = np.left_shift(np.ones(1 << k_total, dtype=dtype), free.astype(dtype))
    counts[(masks[0] & masks[1]).any(axis=1)] = 0
    for f in range(k_total):
        v = counts.reshape(-1, 2, 1 << f)
        v[:, 0] -= v[:, 1]
    counts.flags.writeable = False
    return ChiTable(counts, p.n - u)


def _top53(counts: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """``(m, e)``: ``m * 2**e`` is each count (below ``2 ** (bits + 1)``) cut to its top
    53 bits, ``m`` as floats; ``e``, the least shift with ``counts >> e < 2**53``, comes
    from a binary search that int64 and object arrays run alike."""
    e = np.zeros(counts.size, dtype=np.int64)
    for i in reversed(range(max(bits - 53, 0).bit_length())):
        e += (1 << i) * (counts >> (e + (1 << i)) >= 1 << 53)
    e += counts >> e >= 1 << 53
    return (counts >> e).astype(np.float64), e


def exact_subcube_tv(p: Mixture, q: Mixture) -> float:
    """Exact total variation distance between two subcube mixtures.

    Classifies both mixtures, counts points per feasibility vector, and
    returns ``(1/2) * sum over chi of N_chi * |sum_s a_s 2^-r_s chi_s -
    sum_t b_t 2^-r'_t chi_(k1+t)|``.  Counting is exact integer arithmetic
    for any ``n``.  Each scaled count ``N_chi 2^-r`` keeps the top 53 bits
    of ``N_chi`` (exact below 2^53, truncated beyond), and the sum runs in
    double precision in lexicographic chi order.
    """
    check_same_domain(p, q)
    prof_p = classify_subcube(p)
    prof_q = classify_subcube(q)
    table = chi_table(prof_p, prof_q)
    mant, exp = _top53(table.counts, p.n - table.shift)
    weights = [*p.weights, *q.weights]
    free = [*prof_p.free_counts, *prof_q.free_counts]
    # The sides stay apart so that identical mixtures cancel bit-exactly.
    sides = np.zeros((2, table.counts.size))
    for f in range(table.k_total):  # each side adds its components in index order
        shape = (-1, 2, 1 << (table.k_total - 1 - f))  # [:, 1] holds the chi with chi_f = 1
        scaled = np.ldexp(mant.reshape(shape)[:, 1], exp.reshape(shape)[:, 1] + table.shift - free[f])
        sides[int(f >= prof_p.k)].reshape(shape)[:, 1] += weights[f] * scaled
    return 0.5 * float(np.add.accumulate(np.abs(sides[0] - sides[1]))[-1])
