import json
import math
import statistics
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import mixtv as mx
from mixtv import estimator
from conftest import benchmark_workloads, lex_configs, mixture, point_mass, weight_shifted_pair

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
# Failure probability of the Hoeffding half-width of one accuracy check.
HOEFFDING_DELTA = 1e-9


def rows(q):
    """Marginal rows over q values, built from small integers."""
    raw = st.lists(st.integers(0, 3), min_size=q, max_size=q)
    return raw.map(lambda r: [v / sum(r) for v in r] if any(r) else [1.0] + [0.0] * (q - 1))


@st.composite
def dyadic_pairs(draw):
    """Pairs with n <= 4, q <= 3 and k1, k2 <= 3 whose weights are multiples
    of 1/64 summing to exactly 1, so that halving a weight, scaling the
    weights by a multiple of 1/8 and adding them back are exact.  Rows are
    built from small integers, so byte-equal rows and components are common."""
    n = draw(st.integers(1, 4))
    q = draw(st.integers(2, 3))

    def side():
        k = draw(st.integers(1, 3))
        cuts = sorted(draw(st.lists(st.integers(1, 63), min_size=k - 1, max_size=k - 1, unique=True)))
        weights = np.diff([0, *cuts, 64]) / 64
        return mixture(weights, [draw(st.lists(rows(q), min_size=n, max_size=n)) for _ in range(k)])

    return side(), side()


def rebuilt(m, weights, components):
    """A Mixture of the given arrays as they are: no second renormalisation."""
    weights, components = np.asarray(weights, dtype=float), np.asarray(components, dtype=float)
    return mx.Mixture(q=m.q, n=components.shape[1], weights=weights, components=components)


def approx(p, q, seed=0):
    return mx.approximate_tv(p, q, 0.1, seed=seed, samples_override=300)


def assert_same_core(got, want):
    """Both presolves cancelled everything, or their cores are equal bit for bit."""
    assert (got is None) == (want is None)
    if want is not None:
        for a, b in zip(got[:2], want[:2]):
            assert (a.q, a.n) == (b.q, b.n)
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.components.tobytes() == b.components.tobytes()


def within_ulps(got, want, ulps=4):
    return abs(got - want) <= ulps * np.spacing(max(abs(got), abs(want)))


class TestParameters:
    def test_gamma_formula(self):
        assert mx.theoretical_gamma(2, 2, 2, 2) == (4 * 2 * 2) ** -3
        assert mx.theoretical_gamma(2, 2, 1, 1) == 1.0 / 16.0

    def test_sample_count_example(self):
        assert mx.sample_count(16.0**-3, 0.25) == 6_553_600
        assert mx.sample_count(1.0, 0.1) == 10_000

    def test_sample_count_underflow_guard(self):
        for gamma, epsilon in ((0.0, 0.1), (1e-300, 1e-5), (1e-300, 1e-100)):
            with pytest.raises(mx.TooLarge, match="--samples"):
                mx.sample_count(gamma, epsilon)

    def test_sample_count_at_least_one(self):
        assert mx.sample_count(1.0, 1e200) == 1

    def test_setting_validation(self, uniform2, point00):
        with pytest.raises(mx.ShapeMismatch, match="epsilon must be positive and finite, got 0.0"):
            mx.approximate_tv(uniform2, point00, 0.0)
        with pytest.raises(mx.ShapeMismatch, match="samples_override must be positive, got 0"):
            mx.approximate_tv(uniform2, point00, 0.1, samples_override=0)
        # Settings are checked before the presolve: these mixtures would
        # fail its domain check.
        with pytest.raises(mx.ShapeMismatch, match="repetitions must be positive, got 0"):
            mx.approximate_tv(uniform2, point_mass((0, 0, 0)), 0.1, repetitions=0)
        with pytest.raises(mx.ShapeMismatch, match="seed must be non-negative, got -1"):
            mx.approximate_tv(uniform2, point00, 0.1, seed=-1)
        for epsilon in (float("inf"), float("nan")):
            with pytest.raises(mx.ShapeMismatch, match="epsilon must be positive and finite"):
                mx.approximate_tv(uniform2, point00, epsilon)


class TestFValue:
    def test_all_failure_mass_on_excess(self, uniform2, point00):
        dag = mx.build_dag(uniform2, point00)
        assert mx.f_value(dag, (1, 1)) == pytest.approx(1.0, abs=1e-12)
        assert mx.f_value(dag, (0, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_when_q_dominates(self):
        p, q = mx.random_instance(3, 2, 2, 2, seed=40)
        dag = mx.build_dag(p, q)
        hit = False
        for cfg in lex_configs(3, 2):
            if mx.mass(p, cfg) <= mx.mass(q, cfg) and mx.evaluate_failure_mass(dag, cfg) > 0:
                assert mx.f_value(dag, cfg) == 0.0
                hit = True
        assert hit

    def test_zero_denominator(self, uniform2, point00):
        dag = mx.build_dag(uniform2, point00)
        with pytest.raises(mx.ZeroDenominator):
            mx.f_value(dag, (0, 0))

    def test_fact_violation_on_foreign_dag(self, uniform2, point00):
        # A DAG built for different mixtures cannot dominate this excess;
        # the ratio blows past 1 and must raise instead of clamp.
        dag = mx.build_dag(uniform2, point00)
        foreign = mx.CouplingDag(point_mass((1, 1)), point00, dag._layers, dag._pfail)
        with pytest.raises(mx.FactViolation):
            mx.f_value(foreign, (1, 1))

    def test_block_rows_equal_single_calls(self):
        p, q = mx.random_instance(3, 3, 2, 2, seed=52)
        dag = mx.build_dag(p, q)
        configs = [c for c in lex_configs(3, 3) if mx.evaluate_failure_mass(dag, c) > 0]
        block = mx.f_values(dag, configs[::-1])
        assert block.tolist() == [mx.f_value(dag, c) for c in configs[::-1]]

    def test_block_names_the_first_offending_sigma(self, uniform2, point00):
        dag = mx.build_dag(uniform2, point00)
        with pytest.raises(mx.ZeroDenominator, match=r"starting \(0, 0\)"):
            mx.f_values(dag, [(1, 1), (0, 0), (0, 1)])
        foreign = mx.CouplingDag(point_mass((1, 1)), point00, dag._layers, dag._pfail)
        with pytest.raises(mx.FactViolation, match=r"starting \(1, 1\)"):
            mx.f_values(foreign, [(0, 1), (1, 1), (0, 0)])
        with pytest.raises(mx.ZeroDenominator):
            mx.f_values(foreign, [(0, 0), (1, 1)])

    def test_range_on_random_instances(self):
        for seed in range(10):
            p, q = mx.random_instance(3, 3, 2, 2, seed=50 + seed)
            dag = mx.build_dag(p, q)
            for cfg in lex_configs(3, 3):
                if mx.evaluate_failure_mass(dag, cfg) > 0:
                    assert 0.0 <= mx.f_value(dag, cfg) <= 1.0


class TestApproximateTv:
    def test_identical_mixtures_early_exit(self):
        p, _ = mx.random_instance(3, 2, 2, 1, seed=0)
        est = mx.approximate_tv(p, p, 0.1, seed=1)
        assert est.estimate == 0.0
        assert est.samples == 0
        assert est.discrepancy == 0.0

    def test_estimate_is_fbar_times_discrepancy(self):
        p, q = mx.random_instance(2, 2, 2, 2, seed=5)
        est = mx.approximate_tv(p, q, 0.5, seed=2, samples_override=300)
        assert est.estimate == est.fbar * est.discrepancy
        assert 0.0 <= est.fbar <= 1.0

    def test_theoretical_sample_count_used(self, uniform2, point00):
        est = mx.approximate_tv(uniform2, point00, 1.0, seed=0)
        # gamma = (4 * 2 * 2)^-1 and epsilon = 1 give m = 1600
        assert est.gamma == 1.0 / 16.0
        assert est.samples == 1600

    def test_reproducible_across_calls(self):
        p, q = mx.random_instance(3, 2, 2, 2, seed=6)
        a = mx.approximate_tv(p, q, 0.5, seed=42, samples_override=400)
        b = mx.approximate_tv(p, q, 0.5, seed=42, samples_override=400)
        assert (a.estimate, a.fbar, a.discrepancy, a.samples) == (
            b.estimate,
            b.fbar,
            b.discrepancy,
            b.samples,
        )

    def test_block_dedupe_keeps_the_per_draw_sum(self, monkeypatch):
        p, q = mx.random_instance(2, 2, 2, 2, seed=5)
        opts = {"seed": 4, "samples_override": 600, "repetitions": 2}
        blocked = mx.approximate_tv(p, q, 0.5, **opts)
        monkeypatch.setattr(estimator, "BLOCK", 1)
        single = mx.approximate_tv(p, q, 0.5, **opts)
        assert (blocked.estimate, blocked.fbar) == (single.estimate, single.fbar)

    def test_repetitions_stay_deterministic(self):
        p, q = mx.random_instance(2, 2, 2, 2, seed=8)
        dag = mx.build_dag(p, q)
        for repetitions in (3, 4):
            a = mx.approximate_tv(p, q, 0.5, seed=3, samples_override=101, repetitions=repetitions)
            b = mx.approximate_tv(p, q, 0.5, seed=3, samples_override=101, repetitions=repetitions)
            assert a.estimate == b.estimate
            assert a.estimate == a.fbar * a.discrepancy
            # The median of the repetitions' means, bit for bit.  101 draws
            # are one block, so each mean is one draw-order sum of f_values.
            fbars = []
            for rep in range(repetitions):
                seq = np.random.SeedSequence(entropy=3, spawn_key=(rep, 0))
                sigmas = mx.sample_failed_trajectories(dag, np.random.default_rng(seq), 101)
                acc = 0.0
                for value in mx.f_values(dag, sigmas).tolist():
                    acc += value
                fbars.append(acc / 101)
            assert a.fbar == statistics.median(fbars)

    def test_unbiased_over_seeds(self):
        p, q = mx.random_instance(3, 2, 2, 2, seed=9)
        tv = mx.brute_force_tv(p, q)
        estimates = [
            mx.approximate_tv(p, q, 0.5, seed=s, samples_override=200).estimate
            for s in range(200)
        ]
        mean = statistics.mean(estimates)
        se = statistics.stdev(estimates) / len(estimates) ** 0.5
        assert abs(mean - tv) <= 3 * se

    def test_exact_mean_identity_without_sampling(self):
        for seed in range(8):
            p, q = mx.random_instance(3, 3, 2, 2, seed=60 + seed)
            dag = mx.build_dag(p, q)
            pf = mx.failure_probability(dag)
            if pf == 0.0:
                continue
            total = 0.0
            for cfg in lex_configs(3, 3):
                mass_fail = mx.evaluate_failure_mass(dag, cfg)
                if mass_fail > 0.0:
                    total += mass_fail * mx.f_value(dag, cfg)
            assert total == pytest.approx(mx.brute_force_tv(p, q), abs=1e-9)


class TestPresolve:
    @pytest.mark.parametrize("name", [
        "smoke-general-n2q2.json", "smoke-general-n3q3.json", "smoke-subcube-n4.json",
    ])
    def test_nothing_removed_passes_the_mixtures_through(self, name):
        p, q = mx.parse_instance(json.loads((INSTANCES / name).read_text()))
        got_p, got_q, cancelled = estimator.presolve(p, q)
        assert cancelled == 0.0
        assert_same_core((got_p, got_q), (p, q))

    def test_agreeing_coordinates_are_dropped(self):
        p, q = mx.parse_instance(
            json.loads((INSTANCES / "smoke-subcube-deep-n120.json").read_text())
        )
        core_p, core_q, cancelled = estimator.presolve(p, q)
        assert (core_p.n, core_p.k, core_q.k, cancelled) == (16, p.k, q.k, 0.0)
        both = np.concatenate([p.components, q.components])
        differ = (both != both[:1]).any(axis=(0, 2))
        want = [rebuilt(m, m.weights, m.components[:, differ]) for m in (p, q)]
        assert_same_core((core_p, core_q), want)
        assert not core_p.components.flags.writeable

    def test_shared_components_cancel(self):
        # P and Q hold the same three cubes under different weights: each
        # cube stays on the side that weighs it more.
        p, q = weight_shifted_pair(200)
        core_p, core_q, cancelled = estimator.presolve(p, q)
        assert (core_p.k, core_q.k, core_p.n) == (1, 2, 200)
        assert cancelled == sum(np.minimum(p.weights, q.weights).tolist())
        for core in (core_p, core_q):
            assert core.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_everything_cancels_to_zero(self):
        p, q = mx.random_instance(3, 2, 2, 2, seed=4)
        reordered = rebuilt(p, p.weights[::-1], p.components[::-1])
        assert estimator.presolve(p, reordered) is None
        est = approx(p, reordered)
        assert (est.estimate, est.discrepancy, est.fbar, est.samples) == (0.0, 0.0, 0.0, 0)
        assert est.gamma == mx.theoretical_gamma(3, 2, 2, 2)
        with pytest.raises(mx.ShapeMismatch):
            mx.approximate_tv(p, reordered, 0.1, max_states=0)
        # A side left with zero-weight components only has no weight either.
        idle = rebuilt(p, [*p.weights, 0.0], [*p.components, q.components[0]])
        assert estimator.presolve(idle, p) is None

    @settings(max_examples=60, deadline=None)
    @given(dyadic_pairs())
    def test_the_distance_is_the_scaled_distance_of_the_core(self, pair):
        p, q = pair
        core = estimator.presolve(p, q)
        tv = mx.brute_force_tv(p, q)
        if core is None:
            assert tv == pytest.approx(0.0, abs=1e-12)
        else:
            core_p, core_q, cancelled = core
            assert tv == pytest.approx((1.0 - cancelled) * mx.brute_force_tv(core_p, core_q), abs=1e-12)
            again = estimator.presolve(core_p, core_q)
            assert again[2] == 0.0
            assert_same_core(again, core)

    @pytest.mark.parametrize("name", [
        "smoke-general-n2q2.json", "smoke-general-n3q3.json", "smoke-subcube-n4.json",
        "smoke-subcube-deep-n120.json", "perturbed",
    ])
    def test_estimating_on_the_core_keeps_every_bit(self, name):
        # presolve cancels no weight here, so the core's own core holds the
        # core's bytes and the estimate keeps its bits.
        if name == "perturbed":
            p, q = benchmark_workloads().perturbed_pair(np.random.default_rng(4), 6, 3, 3)
        else:
            p, q = mx.parse_instance(json.loads((INSTANCES / name).read_text()))
        core_p, core_q, cancelled = estimator.presolve(p, q)
        assert cancelled == 0.0
        got, want = approx(core_p, core_q, seed=5), approx(p, q, seed=5)
        assert [got.estimate.hex(), got.discrepancy.hex(), got.fbar.hex()] == [
            want.estimate.hex(), want.discrepancy.hex(), want.fbar.hex()
        ]

    @settings(max_examples=40, deadline=None)
    @given(dyadic_pairs(), st.data())
    def test_padding_with_shared_rows_keeps_every_bit(self, pair, data):
        p, q = pair
        pads = data.draw(st.lists(rows(p.q), min_size=1, max_size=4))
        pads = mixture([1.0], [pads]).components[0]
        at = sorted(data.draw(st.lists(st.integers(0, p.n), min_size=len(pads), max_size=len(pads))))

        def pad(m):
            return rebuilt(m, m.weights, [np.insert(comp, at, pads, axis=0) for comp in m.components])

        assert_same_core(estimator.presolve(pad(p), pad(q)), estimator.presolve(p, q))
        got, want = approx(pad(p), pad(q)), approx(p, q)
        assert (got.estimate, got.discrepancy, got.fbar) == (want.estimate, want.discrepancy, want.fbar)

    @settings(max_examples=40, deadline=None)
    @given(dyadic_pairs(), st.data())
    def test_splitting_a_component_into_copies_keeps_every_bit(self, pair, data):
        p, q = pair
        side = data.draw(st.integers(0, 1))
        m = (p, q)[side]
        s = data.draw(st.integers(0, m.k - 1))
        j = data.draw(st.integers(s + 1, m.k))  # the copy goes after the original
        weights = m.weights.copy()
        weights[s] /= 2
        split = rebuilt(
            m, np.insert(weights, j, weights[s]), np.insert(m.components, j, m.components[s], axis=0)
        )
        pair_split = (split, q) if side == 0 else (p, split)
        assert_same_core(estimator.presolve(*pair_split), estimator.presolve(p, q))
        got, want = approx(*pair_split), approx(p, q)
        assert (got.estimate, got.discrepancy, got.fbar) == (want.estimate, want.discrepancy, want.fbar)

    @settings(max_examples=40, deadline=None)
    @given(dyadic_pairs(), st.data())
    def test_a_shared_component_scales_the_estimate(self, pair, data):
        p, q = pair
        shared = mixture([1.0], [data.draw(st.lists(rows(p.q), min_size=p.n, max_size=p.n))])
        extra = shared.components[0]
        assume(all(extra.tobytes() != c.tobytes() for m in (p, q) for c in m.components))
        t = data.draw(st.integers(1, 7)) / 8

        def add(m):
            at = data.draw(st.integers(0, m.k))
            weights = np.insert((1.0 - t) * m.weights, at, t)
            return rebuilt(m, weights, np.insert(m.components, at, extra, axis=0))

        p2, q2 = add(p), add(q)
        core, want_core = estimator.presolve(p2, q2), estimator.presolve(p, q)
        assert_same_core(core, want_core)
        got, want = approx(p2, q2), approx(p, q)
        if want_core is None:
            assert got.estimate == 0.0
            return
        assert 1.0 - core[2] == (1.0 - t) * (1.0 - want_core[2])
        assert got.fbar == want.fbar
        assert within_ulps(got.discrepancy, (1.0 - t) * want.discrepancy)
        assert within_ulps(got.estimate, (1.0 - t) * want.estimate)

    @pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
    def test_windowed_pairs_agree_with_the_exact_path(self, n):
        # Windowed 3+3 pairs keep 18 coordinates; the uniform ones used to
        # underflow every failure mass from n = 1100 on.
        p, q = benchmark_workloads().windowed_subcube_pair(
            np.random.default_rng(5), n, window=n, k1=3, k2=3
        )
        assert estimator.presolve(p, q)[0].n == 18
        self.assert_within_hoeffding(p, q, draws=2000)

    def test_weight_shifted_pair_agrees_with_the_exact_path(self):
        p, q = weight_shifted_pair(1200)
        self.assert_within_hoeffding(p, q, draws=500)

    @staticmethod
    def assert_within_hoeffding(p, q, draws):
        tv = mx.exact_subcube_tv(p, q)
        assert 0.1 < tv < 0.9
        est = mx.approximate_tv(p, q, 0.1, seed=0, samples_override=draws)
        halfwidth = est.discrepancy * math.sqrt(math.log(2 / HOEFFDING_DELTA) / (2 * draws))
        assert est.discrepancy >= tv - 1e-12
        assert abs(est.estimate - tv) <= halfwidth
