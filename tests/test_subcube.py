import itertools
import time
from math import ldexp

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixtv as mx
from conftest import mixture


def profile_pair(p, q):
    return mx.classify_subcube(p), mx.classify_subcube(q)


def target_windowed_pair(n, window, k1, k2, seed, fixed=3):
    """Uniformly weighted subcubes, each fixing ``fixed`` coordinates below
    ``window`` to the values of one random target point, so no two conflict."""
    rng = np.random.default_rng(seed)
    target = rng.integers(0, 2, size=window)
    comps = np.full((k1 + k2, n, 2), 0.5)
    for s in range(k1 + k2):
        pos = rng.choice(window, size=fixed, replace=False)
        comps[s, pos] = np.eye(2)[target[pos]]
    return mixture(np.full(k1, 1 / k1), comps[:k1]), mixture(np.full(k2, 1 / k2), comps[k1:])


def nested_pair(u):
    """Pair with |U| = u whose P-only chi counts 2^(u-2) minus a few points,
    so that cutting the count to 53 bits differs from rounding it."""
    cubes = [{0: 1}, {0: 1} | {i: 0 for i in range(1, u - 3)}, {1: 0}, {i: 0 for i in range(2, u)}]
    comps = np.full((4, u + 4, 2), 0.5)
    for s, cube in enumerate(cubes):
        for i, v in cube.items():
            comps[s, i] = np.eye(2)[v]
    return mixture([0.6, 0.4], comps[:2]), mixture([0.7, 0.3], comps[2:])


def _fixed_bits(coords, n):
    row = np.zeros(n, dtype=bool)
    row[coords - 1] = True
    return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")


def reference_exact_tv(p, q):
    """The exact distance by a depth-first |Phi| walk over big integers, a
    Python Mobius loop and a per-chi sum of counts cut to 53 bits: the
    arithmetic, in its order, that exact_subcube_tv reproduces bit for bit."""
    pp, qq = profile_pair(p, q)
    n, k1, k_total = p.n, pp.k, pp.k + qq.k
    fixed = [
        (_fixed_bits(o, n), _fixed_bits(z, n))
        for o, z in zip(pp.ones + qq.ones, pp.zeros + qq.zeros)
    ]
    counts = [0] * (1 << k_total)

    def walk(mask, start, ones, zeros):
        counts[mask] = 1 << (n - (ones | zeros).bit_count())
        for f in range(start, k_total):
            o, z = ones | fixed[f][0], zeros | fixed[f][1]
            if not o & z:
                walk(mask | 1 << (k_total - 1 - f), f + 1, o, z)

    walk(0, 0, 0, 0)
    for f in range(k_total):
        for mask in range(1 << k_total):
            if not mask >> f & 1:
                counts[mask] -= counts[mask | 1 << f]

    def scaled(count, shift):
        excess = max(count.bit_length() - 53, 0)
        return ldexp(float(count >> excess), excess - shift)

    weights = [*p.weights, *q.weights]
    free = [*pp.free_counts, *qq.free_counts]
    total = 0.0
    for chi, count in zip(itertools.product((0, 1), repeat=k_total), counts):
        if count == 0:
            continue
        lhs = rhs = 0.0
        for f in range(k_total):
            if chi[f]:
                term = weights[f] * scaled(count, free[f])
                if f < k1:
                    lhs += term
                else:
                    rhs += term
        total += abs(lhs - rhs)
    return 0.5 * total


def same_float(a, b):
    return float(a).hex() == float(b).hex()


# Marginal row of a coordinate fixed to 0, fixed to 1, or left free.
_ROWS = ([1.0, 0.0], [0.0, 1.0], [0.5, 0.5])


@st.composite
def subcube_pairs(draw):
    """Subcube pairs with n <= 10 and k1 + k2 <= 8, drawn from a palette of
    at most four cubes so that duplicates and conflicts are frequent."""
    n = draw(st.integers(1, 10))
    k1 = draw(st.integers(1, 7))
    k2 = draw(st.integers(1, 8 - k1))
    cube = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    palette = draw(st.lists(cube, min_size=1, max_size=4))

    def side(k):
        raw = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
        picks = draw(st.lists(st.sampled_from(palette), min_size=k, max_size=k))
        return mixture([w / sum(raw) for w in raw], [[_ROWS[v] for v in c] for c in picks])

    return side(k1), side(k2)


class TestClassify:
    def test_partition_example(self):
        m = mixture([1.0], [[[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]])
        prof = mx.classify_subcube(m)
        assert set(prof.ones[0]) == {1}
        assert set(prof.zeros[0]) == {2}
        assert set(prof.free[0]) == {3}
        assert prof.free_counts == (1,)

    def test_rejects_general_marginal(self):
        m = mixture([1.0], [[[0.7, 0.3]]])
        with pytest.raises(mx.NotASubcube):
            mx.classify_subcube(m)

    def test_rejects_wrong_alphabet(self):
        m = mixture([1.0], [[[0.5, 0.25, 0.25]]])
        with pytest.raises(mx.WrongAlphabet):
            mx.classify_subcube(m)

    def test_partition_covers_all_coordinates(self):
        p, _ = mx.random_instance(12, 2, 4, 1, seed=3, family="subcube")
        prof = mx.classify_subcube(p)
        for s in range(prof.k):
            merged = sorted([*prof.ones[s], *prof.zeros[s], *prof.free[s]])
            assert merged == list(range(1, 13))


class TestCubeIntersection:
    def test_two_formulas_example(self):
        p = mixture([1.0], [[[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]]])  # fixes x1 = 1
        q = mixture([1.0], [[[0.5, 0.5], [1.0, 0.0], [0.5, 0.5]]])  # fixes x2 = 0
        pp, qq = profile_pair(p, q)
        assert mx.cube_intersection_count(pp, qq, [1, 2]) == 2

    def test_contradiction_is_zero(self):
        p = mixture([1.0], [[[0.0, 1.0], [0.5, 0.5]]])  # x1 = 1
        q = mixture([1.0], [[[1.0, 0.0], [0.5, 0.5]]])  # x1 = 0
        pp, qq = profile_pair(p, q)
        assert mx.cube_intersection_count(pp, qq, [1, 2]) == 0

    def test_empty_selection_counts_everything(self):
        p, q = mx.random_instance(5, 2, 1, 1, seed=0, family="subcube")
        pp, qq = profile_pair(p, q)
        assert mx.cube_intersection_count(pp, qq, []) == 32

    def test_rejects_bad_formula_index(self):
        p, q = mx.random_instance(3, 2, 1, 1, seed=0, family="subcube")
        pp, qq = profile_pair(p, q)
        with pytest.raises(mx.ShapeMismatch):
            mx.cube_intersection_count(pp, qq, [3])

    def test_rejects_profiles_of_different_dimension(self):
        pp = mx.classify_subcube(mx.random_instance(3, 2, 1, 1, seed=0, family="subcube")[0])
        qq = mx.classify_subcube(mx.random_instance(4, 2, 1, 1, seed=0, family="subcube")[1])
        with pytest.raises(mx.ShapeMismatch, match="profiles disagree on the dimension"):
            mx.cube_intersection_count(pp, qq, [1, 2])


class TestChiCount:
    def test_two_formula_example(self):
        p = mixture([1.0], [[[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]]])
        q = mixture([1.0], [[[0.5, 0.5], [1.0, 0.0], [0.5, 0.5]]])
        pp, qq = profile_pair(p, q)
        assert mx.chi_count(pp, qq, (1, 1)) == 2
        assert mx.chi_count(pp, qq, (1, 0)) == 2
        assert mx.chi_count(pp, qq, (0, 0)) == 2

    def test_all_ones_is_plain_intersection(self):
        p, q = mx.random_instance(6, 2, 2, 2, seed=7, family="subcube")
        pp, qq = profile_pair(p, q)
        chi = (1,) * 4
        assert mx.chi_count(pp, qq, chi) == mx.cube_intersection_count(pp, qq, [1, 2, 3, 4])

    def test_counts_partition_the_cube(self):
        for seed in range(10):
            p, q = mx.random_instance(8, 2, 2, 3, seed=seed, family="subcube")
            pp, qq = profile_pair(p, q)
            table = mx.chi_table(pp, qq)
            assert sum(table.values()) == 2**8
            assert all(v >= 0 for v in table.values())

    def test_table_matches_per_chi_and_brute_force(self):
        for seed in range(8):
            p, q = mx.random_instance(7, 2, 2, 2, seed=20 + seed, family="subcube")
            pp, qq = profile_pair(p, q)
            table = mx.chi_table(pp, qq)
            assert table == mx.brute_force_chi_counts(p, q)
            for chi in list(table)[::5]:
                assert mx.chi_count(pp, qq, chi) == table[chi]

    def test_table_keys_in_lexicographic_order(self):
        # exact_subcube_tv sums in the table's order, so the order is part of the result.
        p, q = mx.random_instance(6, 2, 2, 3, seed=4, family="subcube")
        table = mx.chi_table(*profile_pair(p, q))
        assert len(table) == 2**5
        assert list(table) == sorted(table)

    def test_sixteen_formula_table_is_fast_and_exact(self):
        n, k1, k2 = 2000, 8, 8
        p, q = target_windowed_pair(n, 40, k1, k2, seed=16)
        pp, qq = profile_pair(p, q)
        t0 = time.perf_counter()
        table = mx.chi_table(pp, qq)
        assert time.perf_counter() - t0 < 20.0
        assert sum(table.values()) == 2**n
        # Mostly-one chi keep chi_count's 2^(number of zeros) terms cheap.
        rng = np.random.default_rng(0)
        for chi in (rng.random((64, k1 + k2)) < 0.75).astype(int):
            assert mx.chi_count(pp, qq, chi) == table[tuple(chi.tolist())]

    def test_twenty_formula_table_is_fast_and_exact(self):
        n, k1, k2 = 2000, 10, 10
        p, q = target_windowed_pair(n, 40, k1, k2, seed=20)
        pp, qq = profile_pair(p, q)
        t0 = time.perf_counter()
        table = mx.chi_table(pp, qq)
        tv = mx.exact_subcube_tv(p, q)
        assert time.perf_counter() - t0 < 3.0
        assert 0.1 < tv < 0.9
        rng = np.random.default_rng(1)
        for chi in (rng.random((32, k1 + k2)) < 0.8).astype(int):
            assert mx.chi_count(pp, qq, chi) == table[tuple(chi.tolist())]

    def test_table_is_a_read_only_mapping(self):
        p, q = mx.random_instance(5, 2, 2, 2, seed=3, family="subcube")
        table = mx.chi_table(*profile_pair(p, q))
        assert (0, 1, 2, 0) not in table and (0, 1) not in table and [0, 1, 0, 0] not in table
        assert table.get((1, 1, 1, 1, 1)) is None
        assert table.values() == [table[chi] for chi in table]
        with pytest.raises(ValueError):
            table.counts[0] = 1

    def test_table_rejects_dimension_mismatch(self):
        p = mixture([1.0], [[[0.0, 1.0], [0.5, 0.5]]])
        q = mixture([1.0], [[[0.5, 0.5]] * 3])
        with pytest.raises(mx.ShapeMismatch):
            mx.chi_table(*profile_pair(p, q))

    def test_size_guard_trips_before_enumeration(self):
        p, q = mx.random_instance(3, 2, 20, 20, seed=0, family="subcube")
        t0 = time.perf_counter()
        with pytest.raises(mx.TooLarge):
            mx.chi_table(*profile_pair(p, q))
        assert time.perf_counter() - t0 < 1.0

    def test_rejects_bad_chi(self):
        p, q = mx.random_instance(3, 2, 1, 1, seed=0, family="subcube")
        pp, qq = profile_pair(p, q)
        with pytest.raises(mx.ShapeMismatch):
            mx.chi_count(pp, qq, (1, 0, 1))


class TestAgainstBruteForce:
    @settings(derandomize=True, database=None, deadline=None)
    @given(subcube_pairs())
    def test_table_and_distance_match_enumeration(self, pair):
        p, q = pair
        table = mx.chi_table(*profile_pair(p, q))
        assert list(table.items()) == list(mx.brute_force_chi_counts(p, q).items())
        assert sum(table.values()) == 2**p.n
        tv = mx.exact_subcube_tv(p, q)
        assert same_float(tv, reference_exact_tv(p, q))
        assert tv == pytest.approx(mx.brute_force_tv(p, q), abs=1e-12)


class TestExactTv:
    def test_orthogonal_fixings(self):
        p = mixture([1.0], [[[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]]])
        q = mixture([1.0], [[[0.5, 0.5], [1.0, 0.0], [0.5, 0.5]]])
        assert mx.exact_subcube_tv(p, q) == pytest.approx(0.5, abs=1e-15)

    def test_identical_mixtures(self):
        p, _ = mx.random_instance(6, 2, 3, 1, seed=1, family="subcube")
        assert mx.exact_subcube_tv(p, p) == 0.0

    def test_single_clause_reduction_value(self):
        formula = mx.CnfFormula(r=3, clauses=((1, 2, 3),))
        p, q, predicted = mx.generate_3cnf_instance(formula)
        assert predicted == 15.0 / 16.0
        assert mx.exact_subcube_tv(p, q) == pytest.approx(predicted, abs=1e-15)

    def test_matches_brute_force(self):
        for seed in range(25):
            r = np.random.default_rng(seed)
            n = int(r.integers(1, 11))
            k1 = int(r.integers(1, 4))
            k2 = int(r.integers(1, 4))
            p, q = mx.random_instance(n, 2, k1, k2, seed=500 + seed, family="subcube")
            assert mx.exact_subcube_tv(p, q) == pytest.approx(
                mx.brute_force_tv(p, q), abs=1e-12
            )

    def test_rejects_non_subcube(self):
        p, q = mx.random_instance(3, 2, 2, 2, seed=2)
        with pytest.raises(mx.NotASubcube):
            mx.exact_subcube_tv(p, q)

    def test_rejects_dimension_mismatch(self):
        p, _ = mx.random_instance(3, 2, 1, 1, seed=0, family="subcube")
        q, _ = mx.random_instance(4, 2, 1, 1, seed=0, family="subcube")
        with pytest.raises(mx.ShapeMismatch):
            mx.exact_subcube_tv(p, q)

    @pytest.mark.parametrize("u, dtype", [(60, np.int64), (290, object)])
    def test_counts_past_53_bits_are_cut_like_the_reference(self, u, dtype):
        # |U| = 60 keeps int64 counts above 2^53, |U| = 290 needs Python ints.
        p, q = nested_pair(u)
        table = mx.chi_table(*profile_pair(p, q))
        assert table.counts.dtype == dtype
        assert max(table.values()).bit_length() > 53
        tv = mx.exact_subcube_tv(p, q)
        assert 0.1 < tv < 0.9
        assert same_float(tv, reference_exact_tv(p, q))

    def test_runtime_linear_in_dimension(self):
        # Doubling n at fixed component count should roughly double the time;
        # min-of-3 runs absorbs warm-up and scheduler noise.
        def solve_time(n):
            p, q = mx.random_instance(n, 2, 5, 5, seed=77, family="subcube")
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                mx.exact_subcube_tv(p, q)
                best = min(best, time.perf_counter() - t0)
            return best

        t_small = solve_time(10_000)
        t_large = solve_time(20_000)
        assert t_large <= 2.5 * t_small + 0.05
