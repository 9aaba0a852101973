from itertools import product

import numpy as np
import pytest

import mixtv as mx
from conftest import lex_configs, mixture, point_mass, uniform_bits


class TestBruteForceTv:
    def test_identical(self):
        p, _ = mx.random_instance(3, 3, 2, 1, seed=0)
        assert mx.brute_force_tv(p, p) == 0.0

    def test_disjoint_points(self):
        assert mx.brute_force_tv(point_mass((0, 0)), point_mass((1, 1))) == 1.0

    def test_uniform_vs_point(self, uniform2, point00):
        assert mx.brute_force_tv(uniform2, point00) == pytest.approx(0.75, abs=1e-15)

    def test_size_guard(self):
        # 2^15000 has more digits than Python writes out as a string.
        for n in (30, 15_000):
            p, q = mx.random_instance(n, 2, 1, 1, seed=0)
            with pytest.raises(mx.TooLarge, match=rf"q\^n = 2\^{n} exceeds"):
                mx.brute_force_tv(p, q)
            with pytest.raises(mx.TooLarge, match=rf"q\^n = 2\^{n} exceeds"):
                mx.mass_table(p)

    def test_non_positive_limit_is_a_shape_error(self, uniform2, point00):
        for limit in (0, -1):
            with pytest.raises(mx.ShapeMismatch):
                mx.brute_force_tv(uniform2, point00, max_configs=limit)
            with pytest.raises(mx.ShapeMismatch):
                mx.mass_table(uniform2, max_configs=limit)

    def test_mass_table_matches_pointwise_oracle(self):
        # Both fold the coordinates left to right and add the components in
        # index order, so every mass agrees to the bit.
        for k, q, seed in product((1, 3, 7), (2, 3, 4), range(4)):
            configs = lex_configs(3, q)
            p, _ = mx.random_instance(3, q, k, 1, seed=seed)
            table = mx.mass_table(p)
            assert table.tobytes() == mx.masses(p, configs).tobytes()
            assert table.tolist() == [mx.mass(p, cfg) for cfg in configs]
            assert table.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mass_table_normalized_at_scale(self):
        # 2^16 configurations, multi-chunk path
        p, _ = mx.random_instance(16, 2, 3, 1, seed=8)
        assert mx.mass_table(p).sum() == pytest.approx(1.0, abs=1e-9)


class TestBruteForceChiCounts:
    def test_two_formula_instance(self):
        p = mixture([1.0], [[[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]]])
        q = mixture([1.0], [[[0.5, 0.5], [1.0, 0.0], [0.5, 0.5]]])
        assert mx.brute_force_chi_counts(p, q) == {
            (0, 0): 2,
            (0, 1): 2,
            (1, 0): 2,
            (1, 1): 2,
        }

    def test_all_free_components(self):
        p = uniform_bits(4)
        q = uniform_bits(4)
        table = mx.brute_force_chi_counts(p, q)
        assert table[(1, 1)] == 16
        assert sum(table.values()) == 16

    def test_contradictory_point_cubes(self):
        table = mx.brute_force_chi_counts(point_mass((0, 0)), point_mass((1, 1)))
        assert table[(1, 1)] == 0
        assert table[(1, 0)] == 1
        assert table[(0, 1)] == 1

    def test_rejects_general_mixture(self):
        p, q = mx.random_instance(3, 2, 1, 1, seed=1)
        with pytest.raises(mx.NotASubcube):
            mx.brute_force_chi_counts(p, q)

    def test_rejects_wrong_alphabet(self):
        p = point_mass((0, 2), q=3)
        with pytest.raises(mx.WrongAlphabet, match="needs q = 2, got q = 3"):
            mx.brute_force_chi_counts(p, p)

    def test_size_guard(self):
        p, q = mx.random_instance(25, 2, 1, 1, seed=0, family="subcube")
        with pytest.raises(mx.TooLarge):
            mx.brute_force_chi_counts(p, q)


class TestCnf:
    def test_formula_validation(self):
        with pytest.raises(mx.NotThreeCnf):
            mx.CnfFormula(r=3, clauses=((1, 2),))
        with pytest.raises(mx.NotThreeCnf):
            mx.CnfFormula(r=3, clauses=((1, -1, 2),))
        with pytest.raises(mx.NotThreeCnf):
            mx.CnfFormula(r=2, clauses=((1, 2, 3),))
        with pytest.raises(mx.NotThreeCnf):
            mx.CnfFormula(r=3, clauses=())

    def test_formula_needs_a_variable(self):
        with pytest.raises(mx.NotThreeCnf, match="at least one variable, got r = 0"):
            mx.CnfFormula(r=0, clauses=((1, 2, 3),))

    def test_literals_canonicalized_by_variable(self):
        f = mx.CnfFormula(r=3, clauses=((3, -1, 2),))
        assert f.clauses == ((-1, 2, 3),)

    def test_count_satisfying_single_clause(self):
        f = mx.CnfFormula(r=3, clauses=((1, 2, 3),))
        assert mx.count_satisfying(f) == 7

    def test_count_satisfying_guard(self):
        f = mx.CnfFormula(r=25, clauses=((1, 2, 3),))
        with pytest.raises(mx.TooLarge):
            mx.count_satisfying(f)

    def test_parse_dimacs_round_trip(self):
        text = "c example\np cnf 4 2\n1 -2 3 0\n-1 2 4 0\n"
        f = mx.parse_dimacs(text)
        assert f.r == 4
        assert f.clauses == ((1, -2, 3), (-1, 2, 4))

    def test_parse_dimacs_stops_at_satlib_end_marker(self):
        # SATLIB's uniform random 3-SAT files end with a "%" line and a lone "0".
        text = "c uf\np cnf 4  2 \n 1 -2 3 0\n-1 2 4 0\n%\n0\n\n"
        assert mx.parse_dimacs(text).clauses == ((1, -2, 3), (-1, 2, 4))
        with pytest.raises(mx.NotThreeCnf, match="declares 3 clauses, found 2"):
            mx.parse_dimacs(text.replace("4  2", "4  3"))

    def test_parse_dimacs_errors(self):
        with pytest.raises(mx.NotThreeCnf):
            mx.parse_dimacs("1 2 3 0\n")  # no header
        with pytest.raises(mx.NotThreeCnf):
            mx.parse_dimacs("p cnf 3 1\n1 2 0\n")
        with pytest.raises(mx.NotThreeCnf):
            mx.parse_dimacs("p cnf 3 2\n1 2 3 0\n")
        with pytest.raises(mx.NotThreeCnf):
            mx.parse_dimacs("p cnf x y\n1 2 3 0\n")
        with pytest.raises(mx.NotThreeCnf):
            mx.parse_dimacs("p cnf 3 1\n1 two 3 0\n")

    def test_parse_dimacs_rejects_trailing_literals(self):
        with pytest.raises(mx.NotThreeCnf, match="trailing literals without a terminating 0"):
            mx.parse_dimacs("p cnf 3 1\n1 2 3 0\n-1 -2\n")

    def test_parse_dimacs_rejects_a_second_header(self):
        with pytest.raises(mx.NotThreeCnf, match="second DIMACS header: 'p cnf 4 2'"):
            mx.parse_dimacs("p cnf 3 1\np cnf 4 2\n1 2 3 0\n-1 -2 4 0\n")
        with pytest.raises(mx.NotThreeCnf, match="second DIMACS header"):
            mx.parse_dimacs("p cnf 3 1\n1 2 3 0\np cnf 3 1\n")

    def test_parse_dimacs_rejects_clauses_before_the_header(self):
        with pytest.raises(mx.NotThreeCnf, match="clause line before the DIMACS header: '1 2 3 0'"):
            mx.parse_dimacs("1 2 3 0\np cnf 3 1\n")
        with pytest.raises(mx.NotThreeCnf, match="before the DIMACS header"):
            mx.parse_dimacs("c comment\n1 2 3 0\n")


class TestGenerate3Cnf:
    def test_single_clause_instance(self):
        f = mx.CnfFormula(r=3, clauses=((1, 2, 3),))
        p, q, predicted = mx.generate_3cnf_instance(f)
        assert predicted == 15.0 / 16.0
        assert (p.k, q.k, p.n) == (1, 2, 4)
        # the clause component pins the selector bit and the falsifying assignment
        np.testing.assert_array_equal(p.components[0, 0], [1.0, 0.0])
        np.testing.assert_array_equal(p.components[0, 1], [1.0, 0.0])

    def test_two_clause_instance(self):
        f = mx.CnfFormula(r=3, clauses=((1, 2, 3), (-1, -2, -3)))
        p, q, predicted = mx.generate_3cnf_instance(f)
        s = mx.count_satisfying(f)
        assert s == 6
        assert predicted == pytest.approx(1 - 1 / 4 + (1 / 8) * s / 4, abs=1e-15)
        assert mx.exact_subcube_tv(p, q) == pytest.approx(predicted, abs=1e-12)

    def test_unsatisfiable_core(self):
        clauses = tuple(
            (s1 * 1, s2 * 2, s3 * 3)
            for s1 in (1, -1)
            for s2 in (1, -1)
            for s3 in (1, -1)
        )
        f = mx.CnfFormula(r=3, clauses=clauses)
        assert mx.count_satisfying(f) == 0
        p, q, predicted = mx.generate_3cnf_instance(f)
        assert predicted == 1 - 1 / (2 * f.m)
        assert mx.exact_subcube_tv(p, q) == pytest.approx(predicted, abs=1e-12)

    def test_dummy_variable_padding(self):
        # More clauses than variables: the dimension follows the clause count.
        f = mx.CnfFormula(
            r=3,
            clauses=((1, 2, 3), (-1, 2, 3), (1, -2, 3), (1, 2, -3), (-1, -2, 3)),
        )
        p, q, _ = mx.generate_3cnf_instance(f)
        assert p.n == f.m + 1
        assert p.k == 5

    def test_sat_count_recovery(self):
        f = mx.CnfFormula(r=4, clauses=((1, -2, 4), (2, 3, -4)))
        p, q, predicted = mx.generate_3cnf_instance(f)
        tv = mx.exact_subcube_tv(p, q)
        recovered = 2**f.r * (2 * f.m * tv - 2 * f.m + 1)
        assert round(recovered) == mx.count_satisfying(f)


class TestRandomInstance:
    def test_deterministic_in_seed(self):
        a1, b1 = mx.random_instance(4, 3, 2, 2, seed=123)
        a2, b2 = mx.random_instance(4, 3, 2, 2, seed=123)
        np.testing.assert_array_equal(a1.components, a2.components)
        np.testing.assert_array_equal(b1.weights, b2.weights)

    def test_different_seeds_differ(self):
        a1, _ = mx.random_instance(4, 3, 2, 2, seed=1)
        a2, _ = mx.random_instance(4, 3, 2, 2, seed=2)
        assert not np.array_equal(a1.components, a2.components)

    def test_subcube_family_classifies(self):
        for seed in range(5):
            p, q = mx.random_instance(6, 2, 3, 2, seed=seed, family="subcube")
            mx.classify_subcube(p)
            mx.classify_subcube(q)

    def test_subcube_family_needs_binary_alphabet(self):
        with pytest.raises(mx.WrongAlphabet):
            mx.random_instance(3, 3, 1, 1, seed=0, family="subcube")

    def test_parameter_validation(self):
        with pytest.raises(mx.ShapeMismatch):
            mx.random_instance(0, 2, 1, 1, seed=0)
        with pytest.raises(mx.ShapeMismatch):
            mx.random_instance(2, 2, 1, 1, seed=0, family="nope")
