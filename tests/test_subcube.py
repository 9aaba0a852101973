import time

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
        assert mx.exact_subcube_tv(p, q) == pytest.approx(mx.brute_force_tv(p, q), abs=1e-12)


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
