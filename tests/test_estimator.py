import statistics

import numpy as np
import pytest

import mixtv as mx
from mixtv import estimator
from conftest import lex_configs, mixture, point_mass


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

    def test_config_validation(self):
        with pytest.raises(mx.ShapeMismatch):
            mx.EstimatorConfig(epsilon=0.0)
        with pytest.raises(mx.ShapeMismatch):
            mx.EstimatorConfig(epsilon=0.1, samples_override=0)
        with pytest.raises(mx.ShapeMismatch):
            mx.EstimatorConfig(epsilon=0.1, repetitions=0)
        with pytest.raises(mx.ShapeMismatch):
            mx.EstimatorConfig(epsilon=0.1, seed=-1)
        for epsilon in (float("inf"), float("nan")):
            with pytest.raises(mx.ShapeMismatch):
                mx.EstimatorConfig(epsilon=epsilon)


class TestFValue:
    def test_all_failure_mass_on_excess(self, uniform2, point00):
        dag = mx.build_dag(uniform2, point00)
        assert mx.f_value(uniform2, point00, dag, (1, 1)) == pytest.approx(1.0, abs=1e-12)
        assert mx.f_value(uniform2, point00, dag, (0, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_when_q_dominates(self):
        p, q = mx.random_instance(3, 2, 2, 2, seed=40)
        dag = mx.build_dag(p, q)
        hit = False
        for cfg in lex_configs(3, 2):
            if mx.mass(p, cfg) <= mx.mass(q, cfg) and mx.evaluate_failure_mass(dag, cfg) > 0:
                assert mx.f_value(p, q, dag, cfg) == 0.0
                hit = True
        assert hit

    def test_zero_denominator(self, uniform2, point00):
        dag = mx.build_dag(uniform2, point00)
        with pytest.raises(mx.ZeroDenominator):
            mx.f_value(uniform2, point00, dag, (0, 0))

    def test_fact_violation_on_foreign_dag(self, uniform2, point00):
        # A DAG built for different mixtures cannot dominate this excess;
        # the ratio blows past 1 and must raise instead of clamp.
        dag = mx.build_dag(uniform2, point00)
        wrong_p = point_mass((1, 1))
        with pytest.raises(mx.FactViolation):
            mx.f_value(wrong_p, point00, dag, (1, 1))

    def test_block_rows_equal_single_calls(self):
        p, q = mx.random_instance(3, 3, 2, 2, seed=52)
        dag = mx.build_dag(p, q)
        configs = [c for c in lex_configs(3, 3) if mx.evaluate_failure_mass(dag, c) > 0]
        block = mx.f_values(p, q, dag, configs[::-1])
        assert block.tolist() == [mx.f_value(p, q, dag, c) for c in configs[::-1]]

    def test_block_names_the_first_offending_sigma(self, uniform2, point00):
        dag = mx.build_dag(uniform2, point00)
        with pytest.raises(mx.ZeroDenominator, match=r"starting \(0, 0\)"):
            mx.f_values(uniform2, point00, dag, [(1, 1), (0, 0), (0, 1)])
        wrong_p = point_mass((1, 1))
        with pytest.raises(mx.FactViolation, match=r"starting \(1, 1\)"):
            mx.f_values(wrong_p, point00, dag, [(0, 1), (1, 1), (0, 0)])
        with pytest.raises(mx.ZeroDenominator):
            mx.f_values(wrong_p, point00, dag, [(0, 0), (1, 1)])

    def test_range_on_random_instances(self):
        for seed in range(10):
            p, q = mx.random_instance(3, 3, 2, 2, seed=50 + seed)
            dag = mx.build_dag(p, q)
            for cfg in lex_configs(3, 3):
                if mx.evaluate_failure_mass(dag, cfg) > 0:
                    assert 0.0 <= mx.f_value(p, q, dag, cfg) <= 1.0


class TestApproximateTv:
    def test_identical_mixtures_early_exit(self):
        p, _ = mx.random_instance(3, 2, 2, 1, seed=0)
        est = mx.approximate_tv(p, p, mx.EstimatorConfig(epsilon=0.1, seed=1))
        assert est.estimate == 0.0
        assert est.samples == 0
        assert est.discrepancy == 0.0

    def test_estimate_is_fbar_times_discrepancy(self):
        p, q = mx.random_instance(2, 2, 2, 2, seed=5)
        est = mx.approximate_tv(p, q, mx.EstimatorConfig(epsilon=0.5, seed=2, samples_override=300))
        assert est.estimate == est.fbar * est.discrepancy
        assert 0.0 <= est.fbar <= 1.0

    def test_theoretical_sample_count_used(self, uniform2, point00):
        est = mx.approximate_tv(uniform2, point00, mx.EstimatorConfig(epsilon=1.0, seed=0))
        # gamma = (4 * 2 * 2)^-1 and epsilon = 1 give m = 1600
        assert est.gamma == 1.0 / 16.0
        assert est.samples == 1600

    def test_reproducible_across_calls(self):
        p, q = mx.random_instance(3, 2, 2, 2, seed=6)
        cfg = mx.EstimatorConfig(epsilon=0.5, seed=42, samples_override=400)
        a = mx.approximate_tv(p, q, cfg)
        b = mx.approximate_tv(p, q, cfg)
        assert (a.estimate, a.fbar, a.discrepancy, a.samples) == (
            b.estimate,
            b.fbar,
            b.discrepancy,
            b.samples,
        )

    def test_block_dedupe_keeps_the_per_draw_sum(self, monkeypatch):
        p, q = mx.random_instance(2, 2, 2, 2, seed=5)
        cfg = mx.EstimatorConfig(epsilon=0.5, seed=4, samples_override=600, repetitions=2)
        blocked = mx.approximate_tv(p, q, cfg)
        monkeypatch.setattr(estimator, "BLOCK", 1)
        single = mx.approximate_tv(p, q, cfg)
        assert (blocked.estimate, blocked.fbar) == (single.estimate, single.fbar)

    def test_repetitions_stay_deterministic(self):
        p, q = mx.random_instance(2, 2, 2, 2, seed=8)
        dag = mx.build_dag(p, q)
        for repetitions in (3, 4):
            cfg = mx.EstimatorConfig(
                epsilon=0.5, seed=3, samples_override=101, repetitions=repetitions
            )
            a = mx.approximate_tv(p, q, cfg)
            b = mx.approximate_tv(p, q, cfg)
            assert a.estimate == b.estimate
            assert a.estimate == a.fbar * a.discrepancy
            # The median of the repetitions' means, bit for bit.  101 draws
            # are one block, so each mean is one draw-order sum of f_values.
            fbars = []
            for rep in range(repetitions):
                seq = np.random.SeedSequence(entropy=3, spawn_key=(rep, 0))
                sigmas = mx.sample_failed_trajectories(dag, np.random.default_rng(seq), 101)
                acc = 0.0
                for value in mx.f_values(p, q, dag, sigmas).tolist():
                    acc += value
                fbars.append(acc / 101)
            assert a.fbar == statistics.median(fbars)

    def test_unbiased_over_seeds(self):
        p, q = mx.random_instance(3, 2, 2, 2, seed=9)
        tv = mx.brute_force_tv(p, q)
        estimates = [
            mx.approximate_tv(
                p, q, mx.EstimatorConfig(epsilon=0.5, seed=s, samples_override=200)
            ).estimate
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
                    total += mass_fail * mx.f_value(p, q, dag, cfg)
            assert total == pytest.approx(mx.brute_force_tv(p, q), abs=1e-9)
