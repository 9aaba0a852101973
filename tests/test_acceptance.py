"""Acceptance gate: every shipped guarantee checked at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure); the assertions pin the tolerances, instance counts, and time
budgets.  Run the whole gate with::

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

import mixtv as mx
from mixtv import cli
from conftest import lex_configs


def report(number: int, name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -- shared instance sets ----------------------------------------------------


@dataclass
class GeneralRecord:
    p: mx.Mixture
    q: mx.Mixture
    dag: mx.CouplingDag
    pfail: float
    tv: float
    p_masses: np.ndarray
    q_masses: np.ndarray
    fail_masses: np.ndarray


@pytest.fixture(scope="module")
def general_set() -> tuple[list[GeneralRecord], float]:
    """200 random general instances with n <= 6, q <= 3, k1, k2 <= 3.

    Returns the records plus the wall time spent building them, so the
    criterion that owns the time budget can account for the shared work.
    """
    t0 = time.perf_counter()
    records = []
    rng = np.random.default_rng(2024)
    for i in range(200):
        n = int(rng.integers(1, 7))
        q = int(rng.integers(2, 4))
        k1 = int(rng.integers(1, 4))
        k2 = int(rng.integers(1, 4))
        p, qq = mx.random_instance(n, q, k1, k2, seed=10_000 + i)
        dag = mx.build_dag(p, qq)
        records.append(
            GeneralRecord(
                p=p,
                q=qq,
                dag=dag,
                pfail=mx.failure_probability(dag),
                tv=mx.brute_force_tv(p, qq),
                p_masses=mx.mass_table(p),
                q_masses=mx.mass_table(qq),
                fail_masses=mx.failure_mass_table(dag),
            )
        )
    return records, time.perf_counter() - t0


def random_subcube_params(rng, max_n, max_k_total):
    n = int(rng.integers(1, max_n + 1))
    k1 = int(rng.integers(1, max_k_total))
    k2 = int(rng.integers(1, max_k_total + 1 - k1))
    return n, k1, k2


# -- criteria ----------------------------------------------------------------


def test_criterion_1_exact_path_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(200):
        n, k1, k2 = random_subcube_params(rng, max_n=16, max_k_total=8)
        p, q = mx.random_instance(n, 2, k1, k2, seed=20_000 + i, family="subcube")
        exact = mx.exact_subcube_tv(p, q)
        brute = mx.brute_force_tv(p, q)
        worst = max(worst, abs(exact - brute))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "exact subcube path equals brute force on 200 instances",
        worst <= 1e-12 and elapsed < 30.0,
        f"max |diff| {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_counting_oracle_equivalence():
    rng = np.random.default_rng(202)
    ok = True
    for i in range(100):
        n, k1, k2 = random_subcube_params(rng, max_n=12, max_k_total=6)
        p, q = mx.random_instance(n, 2, k1, k2, seed=30_000 + i, family="subcube")
        pp, qq = mx.classify_subcube(p), mx.classify_subcube(q)
        k_total = k1 + k2
        table = {
            chi: mx.chi_count(pp, qq, chi)
            for chi in itertools.product((0, 1), repeat=k_total)
        }
        ok &= table == mx.brute_force_chi_counts(p, q)
        ok &= sum(table.values()) == 2**n
    # wider component counts through the shared-table path
    for i in range(20):
        n, k1, k2 = random_subcube_params(rng, max_n=12, max_k_total=8)
        p, q = mx.random_instance(n, 2, k1, k2, seed=31_000 + i, family="subcube")
        pp, qq = mx.classify_subcube(p), mx.classify_subcube(q)
        ok &= mx.chi_table(pp, qq) == mx.brute_force_chi_counts(p, q)
    report(2, "feasibility-vector counts match enumeration on 120 instances", ok)


def test_criterion_3_coupling_sandwich(general_set):
    records, build_seconds = general_set
    t0 = time.perf_counter()
    ok = True
    for rec in records:
        upper = (4 * rec.p.n * rec.p.q) ** (rec.p.k + rec.q.k - 1) * rec.tv + 1e-9
        ok &= rec.tv - 1e-9 <= rec.pfail <= upper
    elapsed = build_seconds + time.perf_counter() - t0
    report(
        3,
        "discrepancy sandwiched between tv and (4nq)^(k1+k2-1) tv on 200 instances",
        ok and elapsed < 60.0,
        f"{elapsed:.1f}s incl. setup",
    )


def test_criterion_4_evaluation_query_consistency(general_set):
    records, _ = general_set
    ok = True
    worst_sum = 0.0
    rng = np.random.default_rng(404)
    for rec in records:
        gap = abs(rec.fail_masses.sum() - rec.pfail)
        worst_sum = max(worst_sum, gap)
        ok &= gap <= 1e-9
        floor = np.maximum(rec.p_masses - rec.q_masses, 0.0)
        ok &= bool((rec.fail_masses >= floor - 1e-10).all())
        # the batched table must agree with the per-configuration query
        configs = lex_configs(rec.p.n, rec.p.q)
        for idx in rng.choice(len(configs), size=min(4, len(configs)), replace=False):
            direct = mx.evaluate_failure_mass(rec.dag, configs[int(idx)])
            ok &= abs(direct - rec.fail_masses[int(idx)]) <= 1e-12
    report(
        4,
        "failure masses sum to the discrepancy and dominate max(0, P-Q)",
        ok,
        f"worst sum gap {worst_sum:.2e}",
    )


def test_criterion_5_exact_estimator_mean(general_set):
    records, _ = general_set
    ok = True
    worst = 0.0
    for rec in records:
        if rec.pfail == 0.0:
            ok &= rec.tv <= 1e-12
            continue
        positive = rec.fail_masses > 0.0
        ratio = np.zeros_like(rec.fail_masses)
        excess = np.maximum(rec.p_masses - rec.q_masses, 0.0)
        ratio[positive] = excess[positive] / rec.fail_masses[positive]
        ok &= bool((ratio <= 1.0 + 1e-9).all())
        mean_identity = float((rec.fail_masses * np.minimum(ratio, 1.0)).sum())
        worst = max(worst, abs(mean_identity - rec.tv))
        ok &= abs(mean_identity - rec.tv) <= 1e-9
    report(
        5,
        "sum of failure mass times integrand recovers the true distance",
        ok,
        f"worst gap {worst:.2e}",
    )


def test_criterion_6_fpras_end_to_end(uniform2, point00):
    t0 = time.perf_counter()
    hits = 0
    for seed in range(20):
        est = mx.approximate_tv(uniform2, point00, 0.1, seed=seed, samples_override=10_000)
        assert est.samples == 10_000
        hits += 0.675 <= est.estimate <= 0.825
    elapsed = time.perf_counter() - t0
    report(
        6,
        "estimator lands in the 10% band on >= 18 of 20 seeds (m = 10000)",
        hits >= 18 and elapsed < 10.0,
        f"hits {hits}/20, {elapsed:.1f}s",
    )


def test_criterion_7_statistical_coupling_validity(uniform2, point00, two_component_pair):
    n_draws = 100_000
    instances = [
        (uniform2, point00),
        two_component_pair,
        mx.random_instance(2, 3, 2, 2, seed=5),
    ]
    ok = True
    details = []
    for p, q in instances:
        rng = np.random.default_rng(2025)
        cx, cy, fails = Counter(), Counter(), 0
        for _ in range(n_draws):
            x, y = mx.simulate_coupling(p, q, rng)
            cx[x] += 1
            cy[y] += 1
            fails += x != y
        p_tab, q_tab = mx.mass_table(p), mx.mass_table(q)
        configs = lex_configs(p.n, p.q)
        tv_x = sum(abs(cx.get(c, 0) / n_draws - p_tab[i]) for i, c in enumerate(configs)) / 2
        tv_y = sum(abs(cy.get(c, 0) / n_draws - q_tab[i]) for i, c in enumerate(configs)) / 2
        pfail = mx.failure_probability(mx.build_dag(p, q))
        se = (pfail * (1.0 - pfail) / n_draws) ** 0.5
        ok &= tv_x <= 0.02 and tv_y <= 0.02
        ok &= abs(fails / n_draws - pfail) <= 3.0 * se
        details.append(f"tvX {tv_x:.3f} tvY {tv_y:.3f}")
    report(7, "simulated trajectories reproduce both marginals and the failure rate",
           ok, "; ".join(details))


def test_criterion_8_state_bound_and_deactivation(general_set):
    records, _ = general_set
    ok = True
    for rec in records:
        bound = (rec.p.n * rec.p.q + 1) ** (rec.p.k + rec.q.k - 1) + 1
        ok &= rec.dag.num_states <= bound
        states = {(s.layer, s.index): s for s in rec.dag.iter_states()}
        for t in rec.dag.iter_transitions():
            if t.kind == mx.TransitionKind.TYPE_II:
                ok &= states[t.target].active_count <= states[t.source].active_count - 1
    report(8, "state count within the path bound; every reweighting step deactivates", ok)


def test_criterion_9_single_component_closed_form():
    ok = True
    worst = 0.0
    rng = np.random.default_rng(909)
    for i in range(100):
        n = int(rng.integers(1, 9))
        q = int(rng.integers(2, 5))
        p, qq = mx.random_instance(n, q, 1, 1, seed=40_000 + i)
        pf = mx.failure_probability(mx.build_dag(p, qq))
        prod = 1.0
        for j in range(n):
            prod *= 1.0 - float(np.maximum(p.components[0, j] - qq.components[0, j], 0).sum())
        worst = max(worst, abs(pf - (1.0 - prod)))
        ok &= abs(pf - (1.0 - prod)) <= 1e-10
    report(9, "k1 = k2 = 1 reduces to the per-coordinate greedy coupling", ok,
           f"worst gap {worst:.2e}")


def test_criterion_10_hardness_construction_round_trip():
    sign_patterns = list(itertools.product((1, -1), repeat=3))
    all_clauses = [(s1 * 1, s2 * 2, s3 * 3) for s1, s2, s3 in sign_patterns]
    formulas = []
    for m in (1, 2, 3):
        formulas.extend(
            mx.CnfFormula(r=3, clauses=chosen)
            for chosen in itertools.combinations_with_replacement(all_clauses, m)
        )
    rng = np.random.default_rng(1010)
    for _ in range(50):
        r = int(rng.integers(3, 5))
        m = int(rng.integers(1, 5))
        clauses = []
        for _ in range(m):
            variables = rng.choice(np.arange(1, r + 1), size=3, replace=False)
            signs = rng.choice([-1, 1], size=3)
            clauses.append(tuple(int(v * s) for v, s in zip(variables, signs)))
        formulas.append(mx.CnfFormula(r=r, clauses=tuple(clauses)))

    ok = True
    worst = 0.0
    for formula in formulas:
        p, q, predicted = mx.generate_3cnf_instance(formula)
        tv = mx.exact_subcube_tv(p, q)
        worst = max(worst, abs(tv - predicted))
        ok &= abs(tv - predicted) <= 1e-12
        recovered = 2**formula.r * (2 * formula.m * tv - 2 * formula.m + 1)
        ok &= round(recovered) == mx.count_satisfying(formula)
    report(
        10,
        f"3-CNF reduction round trip on {len(formulas)} formulas",
        ok,
        f"max |tv - predicted| {worst:.2e}",
    )


def test_criterion_11_scaling_smoke():
    p, q = mx.random_instance(100_000, 2, 5, 5, seed=11, family="subcube")
    t0 = time.perf_counter()
    mx.exact_subcube_tv(p, q)
    exact_elapsed = time.perf_counter() - t0

    p2, q2 = mx.random_instance(50, 4, 2, 2, seed=12)
    t0 = time.perf_counter()
    dag = mx.build_dag(p2, q2)
    mx.failure_probability(dag)
    stats = dag.statistics()
    coupling_elapsed = time.perf_counter() - t0
    ok = exact_elapsed < 5.0 and coupling_elapsed < 10.0
    ok &= stats["num_states"] <= (50 * 4 + 1) ** 3 + 1
    report(
        11,
        "n = 1e5 exact path under 5s; n = 50 coupling DAG under 10s",
        ok,
        f"exact {exact_elapsed:.2f}s, coupling {coupling_elapsed:.2f}s "
        f"({stats['num_states']} states)",
    )


def test_criterion_12_seeded_commands_are_byte_identical(tmp_path, capsys):
    p, q = mx.random_instance(2, 2, 2, 2, seed=7)
    general = tmp_path / "general.json"
    general.write_text(json.dumps(mx.instance_document(p, q)))
    ps, qs = mx.random_instance(5, 2, 2, 2, seed=8, family="subcube")
    sub = tmp_path / "subcube.json"
    sub.write_text(json.dumps(mx.instance_document(ps, qs)))
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    commands = [
        ["approx", "--input", str(general), "--epsilon", "0.3", "--seed", "5",
         "--samples", "256"],
        ["brute", "--input", str(general)],
        ["exact-subcube", "--input", str(sub)],
        ["coupling-stats", "--input", str(general)],
        ["gen", "random", "--n", "3", "--q", "3", "--k1", "2", "--k2", "1", "--seed", "9"],
        ["gen", "from-cnf", "--dimacs", str(cnf)],
    ]
    ok = True
    for args in commands:
        assert cli.run(args) == 0
        first = capsys.readouterr().out
        assert cli.run(args) == 0
        second = capsys.readouterr().out
        ok &= first.encode() == second.encode()
    with capsys.disabled():
        report(12, "every seeded command reproduces its report byte for byte", ok)
