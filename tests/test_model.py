import numpy as np
import pytest

import mixtv as mx
from conftest import lex_configs, mixture, uniform_bits
from mixtv.model import SUM_TOL


def suffix_mass(m, j, weights, suffix):
    """Reference for :func:`mixtv.masses`: the probability of coordinates
    ``j..n`` (1-based) under the mixture reweighted by ``weights``, with
    coordinates multiplied left to right and components added in index order."""
    if not 1 <= j <= m.n + 1:
        raise mx.ShapeMismatch(f"coordinate j={j} outside 1..{m.n + 1}")
    w = np.asarray(weights, dtype=float)
    if w.shape != (m.k,) or abs(float(w.sum()) - 1.0) > SUM_TOL:
        raise mx.ShapeMismatch(f"bad reweighting {w!r}")
    if j == m.n + 1:
        if len(suffix):
            raise mx.ShapeMismatch("expected an empty suffix for j = n + 1")
        return 1.0
    cfg = np.asarray(suffix, dtype=np.int64)
    if cfg.shape != (m.n - j + 1,) or ((cfg < 0) | (cfg >= m.q)).any():
        raise mx.ShapeMismatch(f"bad suffix {suffix!r} for j={j}")
    total = 0.0
    for s in range(m.k):
        prod = 1.0
        for off, c in enumerate(cfg):
            prod *= m.components[s, j - 1 + off, c]
        total += w[s] * prod
    return float(total)


class TestValidateMixture:
    def test_accepts_normalized_input(self):
        m = mixture([1.0], [[[0.5, 0.5]]])
        assert (m.k, m.n, m.q) == (1, 1, 2)
        assert m.weights.sum() == 1.0

    def test_rejects_weights_outside_tolerance(self):
        with pytest.raises(mx.NormalizationError):
            mixture([0.6, 0.6], [[[1.0, 0.0]], [[1.0, 0.0]]])

    def test_renormalizes_within_tolerance(self):
        m = mixture([1.0], [[[0.5000000001, 0.4999999999]]])
        np.testing.assert_allclose(m.components[0, 0].sum(), 1.0, rtol=0, atol=1e-15)

    def test_rejects_negative_entries(self):
        with pytest.raises(mx.NotAProbability):
            mixture([1.0], [[[1.1, -0.1]]])

    def test_rejects_nan(self):
        with pytest.raises(mx.NotAProbability):
            mixture([1.0], [[[float("nan"), 1.0]]])

    def test_rejects_inconsistent_shapes(self):
        with pytest.raises(mx.ShapeMismatch):
            mixture([0.5, 0.5], [[[0.5, 0.5]]])

    def test_rejects_degenerate_domain(self):
        with pytest.raises(mx.ShapeMismatch):
            mixture([1.0], [[[1.0]]])  # q = 1

    def test_rejects_integers_too_large_for_a_float(self):
        huge = 10**400
        for weights, row in (([huge], [0.5, 0.5]), ([1.0], [huge, 0])):
            with pytest.raises(mx.ShapeMismatch, match="could not coerce"):
                mx.validate_mixture({"weights": weights, "components": [[row]]})
        # An integer that fits a float is a number, so it is range-checked.
        with pytest.raises(mx.NotAProbability, match="outside"):
            mx.validate_mixture({"weights": [10**30], "components": [[[0.5, 0.5]]]})

    def test_rejects_strings_and_booleans(self):
        row = [0.5, 0.5]
        for weights, rows in (
            (["1"], [row]),
            ([1.0], [[" 1 ", 0]]),
            ([1.0], [["0.5", "0.5"]]),
            ([True], [row]),
            ([1.0], [[True, False]]),
            # numpy reads a JSON null as NaN, but it is not a number either.
            ([None], [row]),
            ([1.0], [[None, 0.5]]),
            ([1.0], [[1, None]]),
        ):
            with pytest.raises(mx.ShapeMismatch, match="must be numbers"):
                mx.validate_mixture({"weights": weights, "components": [rows]})
        # Booleans mixed with numbers are promoted by numpy.
        m = mx.validate_mixture({"weights": [1.0], "components": [[[True, 0.0]]]})
        assert m.components.tolist() == [[[1.0, 0.0]]]

    def test_rejects_malformed_descriptions(self):
        with pytest.raises(mx.ShapeMismatch, match="missing key 'components'"):
            mx.validate_mixture({"weights": [1.0]})
        with pytest.raises(mx.ShapeMismatch, match=r"a mapping or a \(weights, components\) pair"):
            mx.validate_mixture(([1.0], [[[0.5, 0.5]]], [1.0]))
        with pytest.raises(
            mx.ShapeMismatch, match=r"components \(k, n, q\), got \(1,\) and \(1, 2\)"
        ):
            mx.validate_mixture(([1.0], [[0.5, 0.5]]))

    def test_mapping_form(self):
        m = mx.validate_mixture({"weights": [1.0], "components": [[[0.5, 0.5]]]})
        assert m.n == 1

    def test_zero_weight_components_kept_inactive(self):
        m = mixture([1.0, 0.0], [[[1.0, 0.0]], [[0.5, 0.5]]])
        assert m.k == 2
        assert list(m.active) == [True, False]

    def test_arrays_are_read_only(self):
        m = uniform_bits(1)
        with pytest.raises(ValueError):
            m.weights[0] = 0.5


class TestMass:
    def test_point_plus_uniform(self):
        m = mixture([0.5, 0.5], [[[1, 0], [1, 0]], [[0.5, 0.5], [0.5, 0.5]]])
        assert mx.mass(m, (0, 0)) == pytest.approx(0.625, abs=1e-15)

    def test_uniform_cube(self):
        m = uniform_bits(3)
        assert mx.mass(m, (1, 0, 1)) == pytest.approx(0.125, abs=1e-15)

    def test_sums_to_one(self):
        p, _ = mx.random_instance(4, 3, 3, 1, seed=2)
        total = sum(mx.mass(p, cfg) for cfg in lex_configs(4, 3))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_rejects_wrong_length(self):
        with pytest.raises(mx.ShapeMismatch):
            mx.mass(uniform_bits(2), (0,))

    def test_rejects_out_of_range_value(self):
        with pytest.raises(mx.ShapeMismatch):
            mx.mass(uniform_bits(2), (0, 2))

    def test_block_rows_equal_suffix_mass(self):
        p, _ = mx.random_instance(4, 3, 3, 1, seed=12)
        configs = lex_configs(4, 3)
        block = mx.masses(p, configs[::-1])
        assert block.tolist() == [suffix_mass(p, 1, p.weights, c) for c in configs[::-1]]

    def test_long_block_rows_equal_suffix_mass(self):
        # 2,001 coordinates; rows close to 1 keep every product far from
        # underflow.
        rng = np.random.default_rng(6)
        eps = rng.uniform(0.0, 1e-3, size=(3, 2001, 1))
        p = mixture([0.2, 0.3, 0.5], np.concatenate([1.0 - eps, eps], axis=2))
        configs = (rng.random((64, 2001)) < 0.01).astype(np.int64)
        block = mx.masses(p, configs)
        assert (block > 1e-200).all()
        assert block.tolist() == [suffix_mass(p, 1, p.weights, c) for c in configs]
        assert block.tolist() == [mx.mass(p, c) for c in configs]

    def test_block_rejects_bad_shapes(self):
        m = uniform_bits(2)
        for block in ([0, 1], [[0, 1, 1]], [[0, 2]], [[0, 1], [-1, 0]]):
            with pytest.raises(mx.ShapeMismatch):
                mx.masses(m, block)

    def test_multilinear_in_weights(self):
        comps = [[[0.2, 0.8], [0.6, 0.4]], [[0.9, 0.1], [0.3, 0.7]]]
        a = np.array([0.3, 0.7])
        b = np.array([0.8, 0.2])
        lam = 0.37
        blended = mixture(lam * a + (1 - lam) * b, comps)
        ma = mixture(a, comps)
        mb = mixture(b, comps)
        for cfg in lex_configs(2, 2):
            expect = lam * mx.mass(ma, cfg) + (1 - lam) * mx.mass(mb, cfg)
            assert mx.mass(blended, cfg) == pytest.approx(expect, abs=1e-12)


class TestSuffixMass:
    def test_empty_suffix_is_one(self):
        m = uniform_bits(2)
        assert suffix_mass(m, 3, m.weights, ()) == 1.0

    def test_single_factor(self):
        p, _ = mx.random_instance(3, 2, 1, 1, seed=5)
        assert suffix_mass(p, 3, [1.0], (1,)) == p.components[0, 2, 1]

    def test_matches_mass_at_j_one_exactly(self):
        p, _ = mx.random_instance(3, 3, 2, 1, seed=9)
        for cfg in lex_configs(3, 3):
            assert suffix_mass(p, 1, p.weights, cfg) == mx.mass(p, cfg)

    def test_full_prefix_example(self):
        m = mixture([0.5, 0.5], [[[1, 0], [1, 0]], [[0.5, 0.5], [0.5, 0.5]]])
        assert suffix_mass(m, 1, [0.5, 0.5], (0, 0)) == pytest.approx(0.625, abs=1e-15)

    def test_rejects_unnormalized_weights(self):
        m = uniform_bits(2)
        with pytest.raises(mx.ShapeMismatch):
            suffix_mass(m, 2, [0.4], (0,))


class TestInstanceDocuments:
    def test_round_trip(self):
        # Re-validation renormalizes again, so equality holds to an ulp.
        p, q = mx.random_instance(3, 2, 2, 2, seed=1)
        doc = mx.instance_document(p, q)
        p2, q2 = mx.parse_instance(doc)
        np.testing.assert_allclose(p.components, p2.components, rtol=0, atol=1e-15)
        np.testing.assert_allclose(q.weights, q2.weights, rtol=0, atol=1e-15)

    def test_rejects_mismatched_header(self):
        p, q = mx.random_instance(2, 2, 1, 1, seed=0)
        doc = mx.instance_document(p, q)
        doc["n"] = 5
        with pytest.raises(mx.ShapeMismatch):
            mx.parse_instance(doc)
        doc["n"] = 2
        mx.parse_instance(doc)
        for q in ("abc", None, 2.7, 2.0, True):
            with pytest.raises(mx.ShapeMismatch):
                mx.parse_instance({**doc, "q": q})
        with pytest.raises(mx.ShapeMismatch):
            mx.parse_instance(5)
        with pytest.raises(mx.ShapeMismatch):
            mx.parse_instance([doc])

    def test_rejects_missing_keys(self):
        with pytest.raises(mx.ShapeMismatch):
            mx.parse_instance({"q": 2, "n": 1, "p": {}})

    def test_rejects_domain_mismatch(self):
        p, _ = mx.random_instance(2, 2, 1, 1, seed=0)
        q3, _ = mx.random_instance(2, 3, 1, 1, seed=0)
        with pytest.raises(mx.ShapeMismatch):
            mx.instance_document(p, q3)
