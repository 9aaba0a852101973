import hashlib
import json
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import replace
from itertools import product, takewhile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixtv as mx
from mixtv import cli, coupling, estimator
from conftest import benchmark_workloads, lex_configs, mixture, point_mass, uniform_bits

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
# Doubles at the edges of [0, 1] and at ties of the cumulative rows below.
EDGE_DOUBLES = (0.0, 0.25, 0.5, 1.0 - 2.0**-53, 1.0)


@st.composite
def general_pairs(draw):
    """General pairs with n <= 5, q <= 3 and k1, k2 <= 3, built from small
    integers: many marginals and weights are exactly zero, so Type-I children
    often exist while the Type-I weight of a value is 0."""
    n = draw(st.integers(1, 5))
    q = draw(st.integers(2, 3))
    row = st.lists(st.integers(0, 3), min_size=q, max_size=q).filter(any)

    def side():
        k = draw(st.integers(1, 3))
        raw = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
        rows = draw(st.lists(row, min_size=k * n, max_size=k * n))
        comps = [[[v / sum(r) for v in r] for r in rows[s * n : (s + 1) * n]] for s in range(k)]
        return mixture([w / sum(raw) for w in raw], comps)

    return side(), side()


def dense_failure_mass(dag, sigma):
    """Failure mass of ``sigma`` by a backward DP over every state of the DAG."""
    comp = dag.mix_p.components
    suffix = np.ones((comp.shape[0], dag.n + 1))
    for i in range(dag.n - 1, -1, -1):
        suffix[:, i] = comp[:, i, sigma[i]] * suffix[:, i + 1]
    psi = np.zeros(dag._layers[-1].size)
    for depth in range(dag.n - 1, -1, -1):
        lay, c = dag._layers[depth], sigma[depth]
        t1 = lay.w1[:, c] * coupling._gather(psi, lay.children[:, 0])
        t2 = lay.w2[:, c] * coupling._gather(psi, lay.children[:, 1:][:, c])
        psi = t1 + t2 + lay.res_p[:, c] * (lay.upd_alpha[:, :, c] @ suffix[:, depth + 1])
    return float(psi[0])


def per_layer_failure_masses(dag, sigmas):
    """:func:`mixtv.failure_masses` written out with plain fancy indexing,
    one round of array calls per layer, as a reference independent of its
    flat-index reads."""
    cfgs = np.asarray(sigmas, dtype=np.int64)
    n_cfg, n = cfgs.shape
    comp = dag.mix_p.components
    tails = np.zeros((n_cfg, comp.shape[0]))
    idx = np.arange(n_cfg)
    rows = np.zeros(n_cfg, dtype=np.int64)
    reach = np.ones(n_cfg)
    for depth in range(n):
        lay = dag._layers[depth]
        c = cfgs[idx, depth]
        tails *= comp[:, depth, cfgs[:, depth]].T
        failed = reach * lay.res_p[rows, c]
        upd = lay.upd_alpha[rows, :, c]
        for s in range(comp.shape[0]):
            tails[:, s] += np.bincount(idx, weights=failed * upd[:, s], minlength=n_cfg)
        w1 = lay.w1[rows, c]
        child2 = lay.children[:, 1:][rows, c]
        go1, go2 = w1 > 0.0, child2 >= 0
        idx = np.concatenate([idx[go1], idx[go2]])
        reach = np.concatenate([reach[go1] * w1[go1], reach[go2] * lay.w2[rows[go2], c[go2]]])
        rows = np.concatenate([lay.children[:, 0][rows[go1]], child2[go2]])
    total = tails[:, 0].copy()
    for s in range(1, comp.shape[0]):
        total += tails[:, s]
    return total


def padded_pair(core_n, shared):
    """A q = 4 perturbed pair on ``core_n`` coordinates with ``shared`` copies
    of one Dirichlet row appended to all six components: its DAG ends in a
    run of ``shared`` layers that carry the core's last states."""
    rng = np.random.default_rng(761)
    p, q = benchmark_workloads().perturbed_pair(rng, core_n, 4, 3)
    row = rng.dirichlet(np.full(4, 1.5))

    def pad(m):
        tail = np.broadcast_to(row, (m.k, shared, 4))
        return mx.validate_mixture((m.weights, np.concatenate([m.components, tail], axis=1)))

    return pad(p), pad(q)


def pick_index(rng, cumulative):
    """One inverse-CDF pick on a cumulative row, with the upper-edge clip and
    the rule that a tie goes to the first of the tied slots."""
    u = rng.random() * cumulative[-1]
    slot = int(np.searchsorted(cumulative, u, side="right"))
    if slot >= cumulative.shape[0]:  # roundoff at the upper edge
        slot = cumulative.shape[0] - 1
    while slot > 0 and cumulative[slot] == cumulative[slot - 1]:
        slot -= 1
    return slot


def walk_row(dag, depth, row):
    """One state's cumulative edge weights in the failure-conditioned walk,
    ``[w1 pf(I child) | w2 pf(II child) | res_p]``, with ``pf`` the next
    depth's failure probability of each child and 0 where there is none."""
    lay, pfail = dag._layers[depth], dag._pfail[depth + 1]
    pf = np.array([pfail[k] if k >= 0 else 0.0 for k in lay.children[row].tolist()])
    return np.cumsum(np.concatenate([pf[0] * lay.w1[row], lay.w2[row] * pf[1:], lay.res_p[row]]))


def scalar_trajectory(dag, rng, failures=None):
    """The failure-conditioned walk, one scalar pick per layer and per tail
    coordinate; the layer it fails at is appended to ``failures`` if given."""
    comp = dag.mix_p.components
    out, depth, row = [], 0, 0
    while True:
        lay = dag._layers[depth]
        band, c = divmod(pick_index(rng, walk_row(dag, depth, row)), dag.q)
        out.append(c)
        if band == 0:
            row = int(lay.children[:, 0][row])
        elif band == 1:
            row = int(lay.children[:, 1:][row, c])
        else:
            if failures is not None:
                failures.append(depth)
            s = pick_index(rng, np.cumsum(lay.upd_alpha[row, :, c]))
            for i in range(depth + 1, dag.n):
                out.append(pick_index(rng, np.cumsum(comp[s, i])))
            return tuple(out)
        depth += 1


class ScriptedRng:
    """Stands in for a Generator: ``random`` returns the scripted values in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        count = int(np.prod(size))
        out, self.values = self.values[:count], self.values[count:]
        return np.array(out).reshape(size)


def assert_merged_and_canonical(dag):
    """No layer holds two byte-equal ``[alpha | beta]`` rows, and no stored weight is -0.0."""
    for lay in dag._layers:
        rows = np.concatenate([lay.alpha, lay.beta], axis=1)
        assert len({row.tobytes() for row in rows}) == lay.size
        assert not np.signbit(lay.alpha).any() and not np.signbit(lay.beta).any()
        if lay.upd_alpha is not None:
            assert not np.signbit(lay.upd_alpha).any()


def windowed_pair(seed, n=100, k=3, fixed=3, tilt=0.0):
    """Uniform-weight subcube pair, k + k components each fixing ``fixed``
    coordinates to one shared target point, so every cube holds it.  With
    ``tilt``, Q's free coordinates put ``0.5 + tilt`` on value 0, so the
    runs of free coordinates carry failure mass (no longer a subcube pair)."""
    rng = np.random.default_rng(seed)
    target = rng.integers(0, 2, size=n)
    comps = np.full((2 * k, n, 2), 0.5)
    comps[k:] = (0.5 + tilt, 0.5 - tilt)
    for s in range(2 * k):
        pos = rng.choice(n, size=fixed, replace=False)
        comps[s, pos] = np.eye(2)[target[pos]]
    weights = np.full(k, 1.0 / k)
    return mixture(weights, comps[:k]), mixture(weights, comps[k:])


def shared_runs(dag):
    """``(start, stop)`` of each maximal range of at least two layers that
    share one forward record, found by the identity of their records."""
    layers, runs, start = dag._layers, [], 0
    for depth in range(1, dag.n + 1):
        if depth == dag.n or layers[depth] is not layers[depth - 1]:
            if depth - start > 1:
                runs.append((start, depth))
            start = depth
    return runs


def assert_failures_cover_the_runs(dag, failures):
    """Some walk failed at a run's first layer, one at its last layer, and
    one inside a run, so its tail was drawn over the run's later layers."""
    runs = shared_runs(dag)
    assert runs
    assert any(f == start for f in failures for start, _ in runs)
    assert any(f == stop - 1 for f in failures for _, stop in runs)
    assert any(start <= f < stop - 1 for f in failures for start, stop in runs)


def scalar_transitions(dag):
    """The DAG's transitions as the views read them entry by entry, one numpy scalar at a time."""
    for depth, lay in enumerate(dag._layers[:-1]):
        totals = lay.res_p.sum(axis=1)
        for m in range(lay.size):
            src, kids = (depth + 1, m), lay.children[m].tolist()
            for c in range(dag.q):
                w = float(lay.w1[m, c])
                if w > 0.0:
                    yield mx.Transition(src, coupling.TransitionKind.TYPE_I, c, w, (depth + 2, kids[0]))
            for c in range(dag.q):
                w = float(lay.w2[m, c])
                if w > 0.0:
                    yield mx.Transition(src, coupling.TransitionKind.TYPE_II, c, w, (depth + 2, kids[c + 1]))
            total = float(totals[m])
            for c in range(dag.q):
                rp = float(lay.res_p[m, c])
                if rp <= 0.0:
                    continue
                for cc in range(dag.q):
                    rq = float(lay.res_q[m, cc])
                    if rq > 0.0:
                        w = rp * rq / total
                        yield mx.Transition(src, coupling.TransitionKind.TYPE_III, (c, cc), w, None)


def tree_state_count(p, q):
    """States of the coupling tree with one state per path, by a DP over
    (active P-components, active Q-components) pairs: which children a state
    has depends only on which components are active."""
    cp, cq = p.components.tolist(), q.components.tolist()
    layer = {(tuple(np.flatnonzero(p.weights > 0)), tuple(np.flatnonzero(q.weights > 0))): 1}
    total = 1
    for j in range(p.n):
        nxt = defaultdict(int)
        for (a, b), count in layer.items():
            ell = [min(min(cp[s][j][c] for s in a), min(cq[t][j][c] for t in b)) for c in range(p.q)]
            if sum(ell) > 0.0:
                nxt[a, b] += count
            for c in range(p.q):
                a2 = tuple(s for s in a if cp[s][j][c] > ell[c])
                b2 = tuple(t for t in b if cq[t][j][c] > ell[c])
                if a2 and b2:
                    nxt[a2, b2] += count
        layer = nxt
        total += sum(nxt.values())
    return total


class TestLowerBound:
    """The stored Type-I weight ``w1`` is the shared lower bound ``ell``."""

    def test_minimum_over_active_components(self, two_component_pair):
        p, q = two_component_pair
        assert mx.build_dag(p, q)._layers[0].w1[0, 0] == 0.5

    def test_inactive_components_excluded(self, two_component_pair):
        _, q = two_component_pair
        p = mixture([1.0, 0.0], [[[1.0, 0.0]], [[0.5, 0.5]]])
        assert mx.build_dag(p, q)._layers[0].w1[0, 0] == 0.7

    def test_zero_marginal_gives_zero(self, two_component_pair):
        p, q = two_component_pair
        assert mx.build_dag(p, q)._layers[0].w1[0, 1] == 0.0

    def test_bit_identical_to_stored_marginal(self):
        p, q = mx.random_instance(3, 3, 3, 2, seed=4)
        dag = mx.build_dag(p, q)
        for depth, lay in enumerate(dag._layers[:-1]):
            for m in range(lay.size):
                active = np.concatenate(
                    [p.components[lay.alpha[m] > 0, depth], q.components[lay.beta[m] > 0, depth]]
                )
                for c in range(3):
                    assert lay.w1[m, c] in active[:, c].tolist()
                    assert (lay.w1[m, c] <= active[:, c]).all()

    def test_no_active_component(self, two_component_pair):
        p, q = two_component_pair
        idle = mx.Mixture(q=2, n=1, weights=np.zeros(2), components=p.components)
        for pair in ((idle, q), (q, idle)):
            with pytest.raises(mx.NoActiveComponent):
                mx.build_dag(*pair)


class TestUpdateWeights:
    """The stored reweightings: ``upd_alpha`` and the Type-II children's weights."""

    def test_hand_computed_example(self, two_component_pair):
        p, q = two_component_pair
        dag = mx.build_dag(p, q)
        np.testing.assert_array_equal(dag._layers[0].upd_alpha[0, :, 0], [1.0, 0.0])
        child = dag._layers[1]
        row = dag._layers[0].children[:, 1:][0, 0]
        np.testing.assert_array_equal(child.alpha[row], [1.0, 0.0])
        np.testing.assert_array_equal(child.beta[row], [1.0])

    def test_single_component_is_invariant(self):
        p, q = mx.random_instance(2, 2, 1, 1, seed=3)
        dag = mx.build_dag(p, q)
        for lay in dag._layers:
            assert (lay.alpha == 1.0).all() and (lay.beta == 1.0).all()
        for lay in dag._layers[:-1]:
            assert (lay.upd_alpha == 1.0).all()

    def test_degenerate_case_keeps_weights(self):
        # Both active P-components share the same marginal, so the P side
        # has no excess over the bound and keeps its weights; no Type-II
        # child exists at that value.
        p = mixture([0.5, 0.5], [[[0.4, 0.6]], [[0.4, 0.6]]])
        q = mixture([1.0], [[[0.9, 0.1]]])
        root = mx.build_dag(p, q)._layers[0]
        np.testing.assert_array_equal(root.upd_alpha[0, :, 0], [0.5, 0.5])
        assert root.w2[0, 0] == 0.0 and root.children[:, 1:][0, 0] == -1

    def test_minimizer_gets_exact_zero(self):
        p, q = mx.random_instance(4, 3, 3, 3, seed=8)
        dag = mx.build_dag(p, q)
        edges = 0
        for depth, lay in enumerate(dag._layers[:-1]):
            child = dag._layers[depth + 1]
            child2 = lay.children[:, 1:]
            for par, c in zip(*np.nonzero(child2 >= 0)):
                row = child2[par, c]
                was = np.concatenate([lay.alpha[par], lay.beta[par]]) > 0.0
                now = np.concatenate([child.alpha[row], child.beta[row]])
                assert (now[was] == 0.0).any()
                np.testing.assert_array_equal(child.alpha[row], lay.upd_alpha[par, :, c])
                assert child.alpha[row].sum() == pytest.approx(1.0, abs=1e-9)
                assert child.beta[row].sum() == pytest.approx(1.0, abs=1e-9)
                edges += 1
        assert edges > 0


class TestBuildDag:
    def test_single_coordinate_trace(self):
        p = uniform_bits(1)
        q = point_mass((0,))
        dag = mx.build_dag(p, q)
        trans = list(dag.iter_transitions())
        assert [(t.kind.value, t.label, t.weight) for t in trans] == [
            ("I", 0, 0.5),
            ("III", (1, 0), 0.5),
        ]
        assert mx.failure_probability(dag) == pytest.approx(0.5, abs=1e-12)

    def test_two_component_trace(self, two_component_pair):
        p, q = two_component_pair
        dag = mx.build_dag(p, q)
        by_kind = defaultdict(list)
        for t in dag.iter_transitions():
            by_kind[t.kind.value].append((t.label, t.weight))
        assert by_kind["I"] == [(0, 0.5)]
        assert by_kind["II"] == [(0, pytest.approx(0.2)), (1, pytest.approx(0.25))]
        assert by_kind["III"] == [((0, 1), pytest.approx(0.05))]
        assert sum(w for _, w in by_kind["I"] + by_kind["II"] + by_kind["III"]) == pytest.approx(1.0)
        assert mx.failure_probability(dag) == pytest.approx(0.05, abs=1e-12)

    def test_identical_mixtures_have_no_failures(self):
        p, _ = mx.random_instance(3, 2, 1, 1, seed=1)
        dag = mx.build_dag(p, p)
        assert all(t.kind != mx.TransitionKind.TYPE_III for t in dag.iter_transitions())
        assert mx.failure_probability(dag) == 0.0
        assert not dag.failure_reachable

    def test_rejects_mismatched_domains(self):
        p, _ = mx.random_instance(2, 2, 1, 1, seed=0)
        q, _ = mx.random_instance(3, 2, 1, 1, seed=0)
        with pytest.raises(mx.ShapeMismatch):
            mx.build_dag(p, q)

    def test_max_states_guard(self):
        p, q = mx.random_instance(4, 3, 2, 2, seed=6)
        with pytest.raises(mx.TooLarge):
            mx.build_dag(p, q, max_states=3)

    def test_type_one_children_are_shared(self):
        p, q = mx.random_instance(3, 2, 2, 2, seed=7)
        dag = mx.build_dag(p, q)
        targets = defaultdict(set)
        for t in dag.iter_transitions():
            if t.kind == mx.TransitionKind.TYPE_I:
                targets[t.source].add(t.target)
        assert all(len(ts) == 1 for ts in targets.values())

    def test_shared_marginal_has_no_reweighted_edge(self):
        # Both components put 0.4 on value 0 at the first coordinate, so no
        # excess over the bound exists there and value 0 gets no Type-II
        # edge, while values 1 and 2 (where the components differ) do.
        third = [1 / 3, 1 / 3, 1 / 3]
        p = mixture(
            [0.5, 0.5],
            [[[0.4, 0.1, 0.5], third], [[0.4, 0.5, 0.1], third]],
        )
        q = mixture([1.0], [[[0.5, 0.3, 0.2], third]])
        dag = mx.build_dag(p, q)
        root_t2 = sorted(
            t.label
            for t in dag.iter_transitions()
            if t.kind == mx.TransitionKind.TYPE_II and t.source == (1, 0)
        )
        assert root_t2 == [1, 2]
        totals = defaultdict(float)
        for t in dag.iter_transitions():
            totals[t.source] += t.weight
        assert all(abs(w - 1) < 1e-9 for w in totals.values())

    def test_inactive_components_do_not_change_the_coupling(self):
        # Appending a zero-weight component leaves every transition weight
        # and the failure probability unchanged.
        p, q = mx.random_instance(3, 2, 2, 2, seed=14)
        padded = mx.validate_mixture(
            (
                np.concatenate([p.weights, [0.0]]),
                np.concatenate([p.components, np.full((1, 3, 2), 0.5)], axis=0),
            )
        )
        plain = mx.build_dag(p, q)
        with_pad = mx.build_dag(padded, q)
        assert mx.failure_probability(with_pad) == pytest.approx(
            mx.failure_probability(plain), abs=1e-12
        )
        edges_plain = list(plain.iter_transitions())
        edges_pad = list(with_pad.iter_transitions())
        assert [(t.kind, t.label) for t in edges_plain] == [
            (t.kind, t.label) for t in edges_pad
        ]
        np.testing.assert_allclose(
            [t.weight for t in edges_plain],
            [t.weight for t in edges_pad],
            rtol=0,
            atol=1e-12,
        )

    def test_layers_after_certain_failure_are_empty(self):
        # Every path fails at the first coordinate, so layers 2..4 hold no state.
        p, q = point_mass((0, 0, 0)), point_mass((1, 1, 1))
        dag = mx.build_dag(p, q)
        assert dag.layer_sizes == [1, 0, 0, 0]
        assert dag.num_states == 2
        assert dag.num_transitions == 1
        assert mx.failure_probability(dag) == mx.brute_force_tv(p, q) == 1.0
        assert mx.failure_mass_table(dag).tolist() == [1.0] + [0.0] * 7
        draws = mx.sample_failed_trajectories(dag, np.random.default_rng(0), 16)
        assert draws.tolist() == [[0, 0, 0]] * 16
        est = mx.approximate_tv(p, q, 0.1, samples_override=10)
        assert est.estimate == 1.0
        assert len(dag.to_dict()["states"]) == 1

    def test_views_never_change_the_dag(self, two_component_pair):
        p, q = two_component_pair
        dag = mx.build_dag(p, q)
        before = {name: id(value) for name, value in vars(dag).items()}
        list(dag.iter_states())
        list(dag.iter_transitions())
        dag.to_dict()
        dag.statistics()
        assert {name: id(value) for name, value in vars(dag).items()} == before

    def test_states_unique_and_type_two_steps_bounded(self, random_dags):
        # The paper's lemma: every Type-II step deactivates a component, so
        # no path takes more than k1 + k2 - 2 of them.  most[state] is the
        # most Type-II edges on any path from the root into the state, by a
        # DP over the transitions, which come in layer order.
        extra = mx.random_instance(4, 3, 3, 2, seed=11)
        for p, q, dag in [*random_dags, (*extra, mx.build_dag(*extra))]:
            states = list(dag.iter_states())
            names = [(s.layer, s.index) for s in states]
            assert len(names) == len(set(names))
            most = {(1, 0): 0}
            for t in dag.iter_transitions():
                if t.target is not None:
                    steps = most[t.source] + (t.kind == mx.TransitionKind.TYPE_II)
                    most[t.target] = max(most.get(t.target, 0), steps)
            assert sorted(most) == names
            assert max(most.values()) <= p.k + q.k - 2
            for s in states:
                assert 0 <= s.index < dag.layer_sizes[s.layer - 1]
                assert 2 <= s.active_count <= p.k + q.k
                assert s.alpha_bar.sum() == pytest.approx(1.0, abs=1e-9)
                assert s.beta_bar.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.fixture(scope="module")
def random_dags():
    out = []
    for seed in range(25):
        r = np.random.default_rng(seed)
        n, q = int(r.integers(1, 6)), int(r.integers(2, 4))
        k1, k2 = int(r.integers(1, 4)), int(r.integers(1, 4))
        p, qq = mx.random_instance(n, q, k1, k2, seed=seed)
        out.append((p, qq, mx.build_dag(p, qq)))
    return out


class TestDagInvariants:
    def test_transition_stochasticity(self, random_dags):
        for _, _, dag in random_dags:
            weight_out = defaultdict(float)
            for t in dag.iter_transitions():
                assert t.weight > 0.0
                weight_out[t.source] += t.weight
            non_terminal = {(s.layer, s.index) for s in dag.iter_states() if s.layer <= dag.n}
            assert set(weight_out) == non_terminal
            for total in weight_out.values():
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_transitions_match_the_scalar_reads_bit_for_bit(self, random_dags):
        wide = mx.random_instance(3, 4, 3, 2, seed=5)  # q = 4, which the fixture lacks
        kinds = set()
        for _, _, dag in [*random_dags, (*wide, mx.build_dag(*wide))]:
            got, want = (
                [(t.source, t.kind, t.label, type(t.weight), t.weight.hex(), t.target) for t in views]
                for views in (dag.iter_transitions(), scalar_transitions(dag))
            )
            assert got == want
            kinds.update(t[1] for t in got)
        assert kinds == set(coupling.TransitionKind)

    def test_pfail_recursion(self, random_dags):
        for _, _, dag in random_dags:
            pfail = {(s.layer, s.index): s.p_fail for s in dag.iter_states()}
            acc = defaultdict(float)
            for t in dag.iter_transitions():
                acc[t.source] += t.weight * (1.0 if t.target is None else pfail[t.target])
            for key, value in acc.items():
                assert abs(value - pfail[key]) <= 1e-10

    def test_active_count_monotonicity(self, random_dags):
        for _, _, dag in random_dags:
            states = {(s.layer, s.index): s for s in dag.iter_states()}
            for t in dag.iter_transitions():
                if t.kind == mx.TransitionKind.TYPE_II:
                    assert states[t.target].active_count <= states[t.source].active_count - 1
                elif t.kind == mx.TransitionKind.TYPE_I:
                    assert states[t.target].active_count == states[t.source].active_count

    def test_state_bound(self, random_dags):
        for p, q, dag in random_dags:
            assert dag.num_states <= (p.n * p.q + 1) ** (p.k + q.k - 1) + 1

    def test_coupling_sandwich(self, random_dags):
        for p, q, dag in random_dags:
            pf = mx.failure_probability(dag)
            tv = mx.brute_force_tv(p, q)
            assert pf >= tv - 1e-9
            assert pf <= (4 * p.n * p.q) ** (p.k + q.k - 1) * tv + 1e-9

    def test_walk_rows_end_at_the_failure_probability(self, random_dags):
        for _, _, dag in random_dags:
            for depth, pfail in enumerate(dag._pfail[:-1]):
                rows = [walk_row(dag, depth, m) for m in range(pfail.size)]
                walk = np.array(rows).reshape(pfail.size, 3 * dag.q)
                np.testing.assert_allclose(walk[:, -1], pfail, rtol=1e-12, atol=0.0)
                assert (np.diff(walk, axis=1) >= 0.0).all()

    def test_queries_read_the_tables_build_dag_filled(self, monkeypatch):
        # build_dag runs the backward pass; no query may run it again or
        # write the failure tables it filled.
        p, q = mx.random_instance(3, 2, 2, 2, seed=5)
        dag = mx.build_dag(p, q)
        tables = list(dag._pfail)
        contents = [table.tobytes() for table in tables]

        def assert_tables_unchanged():
            assert len(dag._pfail) == len(tables)
            assert all(now is then for now, then in zip(dag._pfail, tables))
            assert [table.tobytes() for table in tables] == contents
            assert not any(table.flags.writeable for table in tables)

        def backward_pass_again(*args):
            raise AssertionError("_gather ran after build_dag")

        with monkeypatch.context() as patch:
            patch.setattr(coupling, "_gather", backward_pass_again)
            discrepancy = mx.failure_probability(dag)
            assert discrepancy > 0.0
            assert next(dag.iter_states()).p_fail == discrepancy
            assert_tables_unchanged()
            assert dag.to_dict()["statistics"]["discrepancy"] == discrepancy
            assert_tables_unchanged()
            assert mx.failure_masses(dag, lex_configs(3, 2)).sum() == pytest.approx(discrepancy)
            assert_tables_unchanged()
        # The sampler gathers the failure table at the rows it walks.
        assert mx.sample_failed_trajectories(dag, np.random.default_rng(0), 8).shape == (8, 3)
        assert_tables_unchanged()

    def test_build_is_bit_reproducible(self):
        p, q = mx.random_instance(4, 3, 3, 2, seed=13)
        d1, d2 = mx.build_dag(p, q), mx.build_dag(p, q)
        s1, s2 = list(d1.iter_states()), list(d2.iter_states())
        assert len(s1) == len(s2)
        for a, b in zip(s1, s2):
            assert (a.layer, a.index, a.p_fail) == (b.layer, b.index, b.p_fail)
            np.testing.assert_array_equal(a.alpha_bar, b.alpha_bar)
            np.testing.assert_array_equal(a.beta_bar, b.beta_bar)
        t1 = [(t.source, t.kind, t.label, t.weight, t.target) for t in d1.iter_transitions()]
        t2 = [(t.source, t.kind, t.label, t.weight, t.target) for t in d2.iter_transitions()]
        assert t1 == t2


def full_dag_hex(p, q, seed, draws):
    """float.hex of (estimate, discrepancy) of the estimator's sampling loop
    run on ``build_dag(p, q)``: the DAG of the instance as given, not of the
    core that approximate_tv reduces it to."""
    dag = mx.build_dag(p, q)
    discrepancy = mx.failure_probability(dag)
    fbar = estimator._mean_f(dag, seed, 1, draws)
    return (fbar * discrepancy).hex(), discrepancy.hex()


def approx_hex(p, q, seed, draws):
    """float.hex of (estimate, discrepancy) of approximate_tv."""
    est = mx.approximate_tv(p, q, 0.1, seed=seed, samples_override=draws)
    return est.estimate.hex(), est.discrepancy.hex()


def read_instance(name):
    return mx.parse_instance(json.loads((INSTANCES / name).read_text()))


def estimate_hex(name, seed):
    """:func:`full_dag_hex` of an ``instances/`` file with 2000 samples."""
    return full_dag_hex(*read_instance(name), seed, 2000)


# estimate_hex values recorded before states with byte-equal reweightings
# were merged.
PINNED_ESTIMATES = {
    ("smoke-general-n2q2.json", 0): ("0x1.b523964d03565p-2", "0x1.e1112632560dep-2"),
    ("smoke-general-n2q2.json", 1): ("0x1.babedc3eefb81p-2", "0x1.e1112632560dep-2"),
    ("smoke-general-n2q2.json", 2): ("0x1.b244787a789b5p-2", "0x1.e1112632560dep-2"),
    ("smoke-general-n3q3.json", 0): ("0x1.3e769fdda3275p-1", "0x1.96e219419a7dap-1"),
    ("smoke-general-n3q3.json", 1): ("0x1.389a7f5545622p-1", "0x1.96e219419a7dap-1"),
    ("smoke-general-n3q3.json", 2): ("0x1.3bb418e701112p-1", "0x1.96e219419a7dap-1"),
    ("smoke-subcube-n4.json", 0): ("0x1.e1f48b4b60898p-1", "0x1.fc58a6d7a1fb7p-1"),
    ("smoke-subcube-n4.json", 1): ("0x1.e35b4686ee34dp-1", "0x1.fc58a6d7a1fb7p-1"),
    ("smoke-subcube-n4.json", 2): ("0x1.e5755f6042b5cp-1", "0x1.fc58a6d7a1fb7p-1"),
}


class TestStateMerge:
    def test_layers_hold_distinct_canonical_rows(self, random_dags):
        for _, _, dag in random_dags:
            assert_merged_and_canonical(dag)

    def test_hash_collisions_never_merge_different_rows(self, monkeypatch):
        rows = np.array([[0.5, 0.25], [0.5, 0.75], [0.5, 0.25], [0.5, 0.75]])
        keep, index = coupling._merge_equal_rows(rows)
        assert keep.tolist() == [True, True, False, False]
        assert index.tolist() == [0, 1, 0, 1]
        # With every hash equal, a row is compared only with the first row,
        # so the second pair is missed (one extra state), never mixed up.
        monkeypatch.setattr(coupling, "_row_hash", lambda bits: np.zeros(len(bits), np.uint64))
        keep, index = coupling._merge_equal_rows(rows)
        assert keep.tolist() == [True, True, False, True]
        assert index.tolist() == [0, 1, 0, 2]

    def test_negative_zero_weight_is_stored_as_positive_zero(self, two_component_pair):
        p, q = two_component_pair
        signed = mx.Mixture(q=2, n=1, weights=np.array([1.0, -0.0]), components=p.components)
        dag = mx.build_dag(signed, q)
        assert_merged_and_canonical(dag)
        assert dag._layers[0].alpha.tobytes() == np.array([[1.0, 0.0]]).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_windowed_subcube_pair_merges_path_states(self, seed):
        p, q = windowed_pair(seed)
        dag = mx.build_dag(p, q)
        assert_merged_and_canonical(dag)
        assert 5 * sum(dag.layer_sizes) <= tree_state_count(p, q)

    @pytest.mark.parametrize("name,seed", sorted(PINNED_ESTIMATES))
    def test_estimates_are_bit_identical_to_the_unmerged_tree(self, name, seed):
        assert estimate_hex(name, seed) == PINNED_ESTIMATES[name, seed]
        # These instances have no agreeing coordinate and no shared
        # component: approximate_tv runs on them as given.
        assert approx_hex(*read_instance(name), seed, 2000) == PINNED_ESTIMATES[name, seed]

    def test_max_states_counts_merged_states(self):
        p, q = windowed_pair(0, n=30)
        merged = sum(mx.build_dag(p, q).layer_sizes)
        assert merged < tree_state_count(p, q)
        assert sum(mx.build_dag(p, q, max_states=merged).layer_sizes) == merged
        with pytest.raises(mx.TooLarge):
            mx.build_dag(p, q, max_states=merged - 1)

    def test_non_positive_max_states_is_a_shape_error(self, uniform2, point00):
        for limit in (0, -1):
            with pytest.raises(mx.ShapeMismatch):
                mx.build_dag(uniform2, point00, max_states=limit)


# estimate_hex values of the 120-coordinate windowed subcube pair, recorded at
# commit 9a40ffb, where every layer still ran the full forward step (before
# Type-I-only layers carried their states over).
PINNED_DEEP_ESTIMATES = {
    ("smoke-subcube-deep-n120.json", 0): ("0x1.3b2881e3fbd41p-1", "0x1.e8b71c71c71c7p-1"),
    ("smoke-subcube-deep-n120.json", 1): ("0x1.421f043fa0e8fp-1", "0x1.e8b71c71c71c7p-1"),
    ("smoke-subcube-deep-n120.json", 2): ("0x1.412532096a177p-1", "0x1.e8b71c71c71c7p-1"),
}


# full_dag_hex values of windowed_subcube_pair(default_rng(1), 400,
# window=400, k1=3, k2=3) at seed 0, by draw count, recorded while every
# query still took one round of array calls per layer.
PINNED_RUN_ESTIMATES = {
    100: ("0x1.77cf06ada2810p-1", "0x1.f7fffffffffffp-1"),
    2000: ("0x1.6b51798b5a606p-1", "0x1.f7fffffffffffp-1"),
}


# approx_hex values of the same instances, on their cores (the 120-coordinate
# pair keeps 16 coordinates, the 400-coordinate pair 18), recorded when
# approximate_tv started to presolve.
PINNED_CORE_DEEP_ESTIMATES = {
    ("smoke-subcube-deep-n120.json", 0): ("0x1.44f10c77ee241p-1", "0x1.e8b71c71c71c7p-1"),
    ("smoke-subcube-deep-n120.json", 1): ("0x1.3503da23ecf82p-1", "0x1.e8b71c71c71c7p-1"),
    ("smoke-subcube-deep-n120.json", 2): ("0x1.4047871debcacp-1", "0x1.e8b71c71c71c7p-1"),
}
PINNED_CORE_RUN_ESTIMATES = {
    ("deep", 100): ("0x1.652ebf7187ca8p-1", "0x1.f7fffffffffffp-1"),
    ("deep", 2000): ("0x1.6526554dbc257p-1", "0x1.f7fffffffffffp-1"),
    # Recorded while runs of carried layers were still stepped as one unit:
    # the presolve removes nothing from the tilted pair, and its runs of
    # repeated coordinates carry failure mass.
    ("tilted", 2000): ("0x1.7e888a4e2b813p-1", "0x1.ffd47f3be7fafp-1"),
}


def deep_benchmark_pair():
    """The approx-deep shape: windowed 3+3 at n = 400, seed 1."""
    return benchmark_workloads().windowed_subcube_pair(
        np.random.default_rng(1), 400, window=400, k1=3, k2=3
    )


CORE_RUN_PAIRS = {
    "deep": deep_benchmark_pair,
    "tilted": lambda: windowed_pair(2, n=400, tilt=0.01),
}


def assert_same_bits(got, want):
    """Equal bit for bit: ``assert_array_equal`` alone takes ``-0.0 == 0.0``."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(got, dtype=np.float64).view(np.uint64),
        np.ascontiguousarray(want, dtype=np.float64).view(np.uint64),
    )


def plain_reweighted(w, marg, ell, bar, deg):
    """One side's reweighted weights per state, component and value, ``(M, k, q)``,
    written out over the whole table."""
    den = bar - ell
    ok = (~deg & (den > 0.0))[:, None, :]
    num = w[:, :, None] * np.maximum(marg[None, :, :] - ell[:, None, :], 0.0)
    quot = np.divide(num, den[:, None, :], out=np.zeros_like(num), where=ok)
    return np.where(ok, quot, w[:, :, None])


def component_sum(w, marg):
    """Each state's aggregate marginal ``sum_s w[:, s] * marg[s]``, ``(M, q)``,
    added left to right over the components from component 0's term."""
    total = w[:, 0, None] * marg[0]
    for s in range(1, marg.shape[0]):
        total = total + w[:, s, None] * marg[s]
    return total


def assert_tables_fit_their_layer(p, q, dag):
    """Each layer's tables are, bit for bit, the plain ``(M, k, q)`` formulas
    on its own states at its own coordinate, whatever tables the layer
    shares, and each edge of a stepped layer leads to a child row that is
    its reweighting bit for bit.  The aggregate marginals are summed in
    component order, so the reference bits do not depend on a BLAS kernel."""
    for j, (lay, child) in enumerate(zip(dag._layers[:-1], dag._layers[1:])):
        a, b = lay.alpha, lay.beta
        pj, qj = p.components[:, j], q.components[:, j]
        act_a, act_b = (a > 0.0)[:, :, None], (b > 0.0)[:, :, None]
        min_p = np.where(act_a, pj, np.inf).min(axis=1)
        max_p = np.where(act_a, pj, -np.inf).max(axis=1)
        min_q = np.where(act_b, qj, np.inf).min(axis=1)
        max_q = np.where(act_b, qj, -np.inf).max(axis=1)
        ell = np.minimum(min_p, min_q)
        pbar, qbar = component_sum(a, pj), component_sum(b, qj)
        deg_p, deg_q = ~(max_p > ell), ~(max_q > ell)
        w2_raw = np.minimum(pbar, qbar) - ell
        t2 = (w2_raw > 0.0) & ~deg_p & ~deg_q
        assert_same_bits(lay.w1, ell)
        assert_same_bits(lay.w2, np.where(t2, w2_raw, 0.0))
        assert_same_bits(lay.res_p, np.maximum(pbar - qbar, 0.0))
        assert_same_bits(lay.res_q, np.maximum(qbar - pbar, 0.0))
        upd_alpha = plain_reweighted(a, pj, ell, pbar, deg_p)
        assert_same_bits(lay.upd_alpha, upd_alpha)
        if child.alpha is a:  # carried over: the states pass on as they are
            continue
        upd_beta = plain_reweighted(b, qj, ell, qbar, deg_q)
        has1 = lay.w1.sum(axis=1) > 0.0
        child1, child2 = lay.children[:, 0], lay.children[:, 1:]
        assert_same_bits(child.alpha[child1[has1]], a[has1])
        assert_same_bits(child.beta[child1[has1]], b[has1])
        par2, c2 = np.nonzero(t2)
        assert (child2 >= 0).sum() == par2.size
        assert_same_bits(child.alpha[child2[par2, c2]], upd_alpha[par2, :, c2])
        assert_same_bits(child.beta[child2[par2, c2]], upd_beta[par2, :, c2])


def signed_zero_pair():
    """A 3+3, q = 3 perturbed pair in which value 0 has probability zero at
    every other coordinate, spelled ``-0.0`` in some components and ``+0.0``
    in others.  Built without ``validate_mixture``, which would turn each
    ``-0.0`` into ``+0.0``."""
    p, q = benchmark_workloads().perturbed_pair(np.random.default_rng(3), 6, 3, 3)

    def zeroed(m, negative):
        comp = m.components.copy()
        comp[:, ::2, 0] = 0.0
        comp[:, ::2] /= comp[:, ::2].sum(axis=2, keepdims=True)
        comp[negative, ::2, 0] = -0.0
        return mx.Mixture(q=m.q, n=m.n, weights=m.weights, components=comp)

    return zeroed(p, [0, 2]), zeroed(q, [1])


class TestTableBits:
    def test_tables_of_a_wide_pair_are_the_plain_formulas(self):
        p, q = benchmark_workloads().perturbed_pair(np.random.default_rng(0), 7, 4, 3)
        dag = mx.build_dag(p, q)
        assert max(dag.layer_sizes) >= 5000
        assert_tables_fit_their_layer(p, q, dag)

    def test_tables_with_signed_zero_marginals_are_the_plain_formulas(self):
        p, q = signed_zero_pair()
        assert np.signbit(p.components).any() and np.signbit(q.components).any()
        dag = mx.build_dag(p, q)
        assert any(lay.size > 1 for lay in dag._layers)
        assert_tables_fit_their_layer(p, q, dag)


class TestCarryOver:
    def test_runs_of_uniform_coordinates_share_states_and_tables(self):
        p, q = windowed_pair(1, n=60)
        dag = mx.build_dag(p, q)
        uniform = [
            bool((p.components[:, j] == 0.5).all() and (q.components[:, j] == 0.5).all())
            for j in range(p.n)
        ]
        runs = [j for j in range(1, p.n) if uniform[j - 1] and uniform[j]]
        assert len(runs) > 20
        layers = dag._layers
        for j in runs:
            assert layers[j] is layers[j - 1]
            assert layers[j + 1].alpha is layers[j].alpha
            # The failure tables are each depth's own.
            assert not np.shares_memory(dag._pfail[j], dag._pfail[j - 1])
        assert_tables_fit_their_layer(p, q, dag)

    def test_max_states_names_the_first_layer_past_the_bound_inside_a_run(self):
        p, q = windowed_pair(1, n=60)
        dag = mx.build_dag(p, q)
        layers, counts = dag._layers, np.cumsum(dag.layer_sizes).tolist()
        # Depths d where the record is held for at least the third time in a row.
        inside = [d for d in range(2, p.n) if layers[d] is layers[d - 1] is layers[d - 2]]
        assert len(inside) > 10
        for d in inside:
            # Layers 1..d + 1 hold one state more than the bound.
            with pytest.raises(mx.TooLarge, match=f"at layer {d + 1}$"):
                mx.build_dag(p, q, max_states=counts[d] - 1)
        assert mx.build_dag(p, q, max_states=counts[-1]).layer_sizes == dag.layer_sizes

    def test_agreeing_coordinates_with_different_rows_get_their_own_tables(self):
        # The components differ at coordinate 0, so layer 1 holds several
        # states, and all agree on each later coordinate's row.
        rows = [(0.25, 0.75), (0.5, 0.5), (0.5, 0.5)]
        p = mixture([0.5, 0.5], [[[0.9, 0.1], *rows], [[0.2, 0.8], *rows]])
        q = mixture([0.3, 0.7], [[[0.6, 0.4], *rows], [[0.35, 0.65], *rows]])
        dag = mx.build_dag(p, q)
        layers = dag._layers
        assert layers[1].size > 1
        # Layers 1..3 hold the states layer 1 received, carried over.
        assert layers[2].alpha is layers[1].alpha and layers[3].alpha is layers[1].alpha
        assert layers[2].w1 is not layers[1].w1
        assert layers[3].w1 is layers[2].w1
        for j, row in enumerate(rows, start=1):
            np.testing.assert_array_equal(layers[j].w1, np.tile(row, (layers[j].size, 1)))
        assert_tables_fit_their_layer(p, q, dag)

    def test_repeated_coordinate_after_type_two_edges_gets_its_own_tables(self):
        p = mixture([0.5, 0.5], [[[0.9, 0.1]] * 2, [[0.2, 0.8]] * 2])
        q = mixture([0.3, 0.7], [[[0.6, 0.4]] * 2, [[0.35, 0.65]] * 2])
        dag = mx.build_dag(p, q)
        assert dag._layers[1].size != dag._layers[0].size
        assert dag._layers[1].w1 is not dag._layers[0].w1
        assert_tables_fit_their_layer(p, q, dag)

    def test_layers_with_type_two_edges_are_never_carried_over(self, random_dags):
        windowed = [windowed_pair(seed, n=40) for seed in range(3)]
        carried = mixed = 0
        for p, q, dag in [*random_dags, *((p, q, mx.build_dag(p, q)) for p, q in windowed)]:
            for lay, child in zip(dag._layers, dag._layers[1:]):
                only_type_one = (lay.w1.sum(axis=1) > 0.0).all() and not (lay.w2 > 0.0).any()
                assert (child.alpha is lay.alpha) == only_type_one
                carried += bool(only_type_one)
                mixed += bool((lay.w1.sum(axis=1) > 0.0).all() and (lay.w2 > 0.0).any())
            assert_tables_fit_their_layer(p, q, dag)
        assert carried and mixed

    def test_layer_tables_are_read_only(self):
        p, q = windowed_pair(0, n=30)
        dag = mx.build_dag(p, q)
        with pytest.raises(ValueError):
            dag._layers[1].w1[0, 0] = 1.0
        for lay in dag._layers:
            for table in vars(lay).values():
                assert table is None or not table.flags.writeable
        for table in dag._pfail:
            assert not table.flags.writeable

    @pytest.mark.parametrize("name,seed", sorted(PINNED_DEEP_ESTIMATES))
    def test_estimates_are_bit_identical_to_the_per_layer_build(self, name, seed):
        assert estimate_hex(name, seed) == PINNED_DEEP_ESTIMATES[name, seed]

    @pytest.mark.parametrize("draws", sorted(PINNED_RUN_ESTIMATES))
    def test_estimates_are_bit_identical_to_the_per_layer_walk(self, draws):
        # 382 of the 400 layers of this pair are carried, in runs of up to 33.
        assert full_dag_hex(*deep_benchmark_pair(), 0, draws) == PINNED_RUN_ESTIMATES[draws]

    @pytest.mark.parametrize("name,seed", sorted(PINNED_CORE_DEEP_ESTIMATES))
    def test_core_estimates_of_the_deep_instance_are_pinned(self, name, seed):
        got = approx_hex(*read_instance(name), seed, 2000)
        assert got == PINNED_CORE_DEEP_ESTIMATES[name, seed]

    @pytest.mark.parametrize("pair,draws", sorted(PINNED_CORE_RUN_ESTIMATES))
    def test_core_estimates_of_the_benchmark_shape_are_pinned(self, pair, draws):
        got = approx_hex(*CORE_RUN_PAIRS[pair](), 0, draws)
        assert got == PINNED_CORE_RUN_ESTIMATES[pair, draws]

    def test_dag_of_a_long_windowed_pair_stays_small(self):
        # 58,432 states over 2,000 layers, most of them carried.  The DAG
        # holds the layer records and one failure table per depth.
        # Measured peak: 1.14 MB.
        rng = np.random.default_rng(761)
        p, q = benchmark_workloads().windowed_subcube_pair(rng, 2000, window=2000, k1=3, k2=3)
        tracemalloc.start()
        try:
            dag = mx.build_dag(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(dag.layer_sizes) == 58_432
        assert peak < 2_000_000

    def test_failure_masses_of_a_long_run_stay_small(self):
        # 100 repeated coordinates after a 5-coordinate core with 1,255 states
        # in its last layer; 256 draws reach the run with about 7,300
        # (row, state, reach) triples.  Measured peak: 0.72 MB.
        p, q = padded_pair(5, 100)
        dag = mx.build_dag(p, q)
        sigmas = mx.sample_failed_trajectories(dag, np.random.default_rng(0), 256)
        tracemalloc.start()
        try:
            masses = mx.failure_masses(dag, sigmas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        assert masses.tobytes() == per_layer_failure_masses(dag, sigmas).tobytes()

    def test_failure_masses_free_a_run_steps_blocks_before_the_factor_gather(self):
        # 256 draws carry about 56,500 triples into the 100-layer run, each
        # layer's step building its arrays over all of them.  Measured
        # peak: 5.1 MB.
        p, q = padded_pair(9, 100)
        dag = mx.build_dag(p, q)
        sigmas = mx.sample_failed_trajectories(dag, np.random.default_rng(0), 256)
        tracemalloc.start()
        try:
            masses = mx.failure_masses(dag, sigmas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7_000_000
        assert masses.tobytes() == per_layer_failure_masses(dag, sigmas).tobytes()


class TestFailureProbability:
    def test_k1_reduces_to_greedy_product(self, uniform2, point00):
        dag = mx.build_dag(uniform2, point00)
        assert mx.failure_probability(dag) == pytest.approx(0.75, abs=1e-12)

    def test_closed_form_for_single_components(self):
        for seed in range(20):
            r = np.random.default_rng(seed)
            n, q = int(r.integers(1, 9)), int(r.integers(2, 5))
            p, qq = mx.random_instance(n, q, 1, 1, seed=100 + seed)
            expected = 1.0
            for j in range(n):
                tv_j = float(np.maximum(p.components[0, j] - qq.components[0, j], 0).sum())
                expected *= 1.0 - tv_j
            pf = mx.failure_probability(mx.build_dag(p, qq))
            assert pf == pytest.approx(1.0 - expected, abs=1e-10)


class TestEvaluateFailureMass:
    def test_hand_traced_values(self, uniform2, point00):
        dag = mx.build_dag(uniform2, point00)
        assert mx.evaluate_failure_mass(dag, (1, 1)) == pytest.approx(0.25, abs=1e-12)
        assert mx.evaluate_failure_mass(dag, (0, 0)) == 0.0

    def test_identical_mixtures_evaluate_to_zero(self):
        p, _ = mx.random_instance(3, 2, 2, 1, seed=2)
        dag = mx.build_dag(p, p)
        for cfg in lex_configs(3, 2):
            assert mx.evaluate_failure_mass(dag, cfg) == 0.0

    def test_consistency_and_dominance(self):
        for seed in range(15):
            p, q = mx.random_instance(3, 3, 2, 2, seed=30 + seed)
            dag = mx.build_dag(p, q)
            pf = mx.failure_probability(dag)
            total = 0.0
            for cfg in lex_configs(3, 3):
                value = mx.evaluate_failure_mass(dag, cfg)
                floor = max(0.0, mx.mass(p, cfg) - mx.mass(q, cfg))
                assert value >= floor - 1e-10
                total += value
            assert total == pytest.approx(pf, abs=1e-9)

    def test_table_matches_pointwise_queries(self):
        p, q = mx.random_instance(4, 2, 2, 2, seed=17)
        dag = mx.build_dag(p, q)
        table = mx.failure_mass_table(dag)
        for idx, cfg in enumerate(lex_configs(4, 2)):
            assert table[idx] == pytest.approx(mx.evaluate_failure_mass(dag, cfg), abs=1e-13)

    def test_table_size_guard(self):
        p, q = mx.random_instance(15, 2, 1, 1, seed=0)
        dag = mx.build_dag(p, q)
        with pytest.raises(mx.TooLarge):
            mx.failure_mass_table(dag)
        for limit in (0, -1):
            with pytest.raises(mx.ShapeMismatch):
                mx.failure_mass_table(dag, max_configs=limit)

    def test_rejects_bad_configuration(self, uniform2, point00):
        dag = mx.build_dag(uniform2, point00)
        with pytest.raises(mx.ShapeMismatch):
            mx.evaluate_failure_mass(dag, (0, 0, 0))

    def test_batch_rejects_bad_blocks(self, uniform2, point00):
        dag = mx.build_dag(uniform2, point00)
        for block in ([0, 1], [[0, 1, 0]], [[0, 2]], [[0, 1], [-1, 0]]):
            with pytest.raises(mx.ShapeMismatch):
                mx.failure_masses(dag, block)
        assert mx.failure_masses(dag, np.zeros((0, 2), dtype=int)).shape == (0,)

    @settings(derandomize=True, database=None, deadline=None)
    @given(general_pairs())
    def test_batched_masses_sum_and_integrate_to_the_references(self, pair):
        p, q = pair
        dag = mx.build_dag(p, q)
        assert_merged_and_canonical(dag)
        configs = np.array(lex_configs(p.n, p.q))
        masses = mx.failure_masses(dag, configs)
        dense = [dense_failure_mass(dag, cfg) for cfg in configs]
        assert masses.tolist() == pytest.approx(dense, rel=1e-12, abs=1e-15)
        assert masses.sum() == pytest.approx(mx.failure_probability(dag), abs=1e-12)
        hit = masses > 0.0
        f = mx.f_values(dag, configs[hit]) if hit.any() else np.zeros(0)
        assert (masses[hit] * f).sum() == pytest.approx(mx.brute_force_tv(p, q), abs=1e-9)
        perm = np.random.default_rng(0).permutation(len(configs))
        assert mx.failure_masses(dag, configs[perm]).tolist() == masses[perm].tolist()
        for cfg, value in zip(configs, masses):
            assert mx.failure_masses(dag, cfg[None, :])[0] == value


    @pytest.mark.parametrize("n,tilt", [(40, 0.0), (40, 0.01), (400, 0.0)])
    def test_windowed_masses_match_the_per_layer_loop(self, n, tilt):
        p, q = windowed_pair(2, n=n, tilt=tilt)
        dag = mx.build_dag(p, q)
        assert shared_runs(dag)
        rng = np.random.default_rng(3)
        sigmas = np.concatenate(
            [mx.sample_failed_trajectories(dag, rng, 256), rng.integers(0, 2, size=(64, n))]
        )
        masses = mx.failure_masses(dag, sigmas)
        assert (masses > 0.0).any()
        assert masses.tobytes() == per_layer_failure_masses(dag, sigmas).tobytes()

    def test_random_masses_match_the_per_layer_loop(self, random_dags):
        for p, _, dag in random_dags:
            configs = np.array(lex_configs(p.n, p.q))
            assert mx.failure_masses(dag, configs).tobytes() == (
                per_layer_failure_masses(dag, configs).tobytes()
            )


class TestSampleFailedTrajectory:
    def test_deterministic_single_failure(self):
        dag = mx.build_dag(uniform_bits(1), point_mass((0,)))
        rng = np.random.default_rng(0)
        assert {mx.sample_failed_trajectory(dag, rng) for _ in range(64)} == {(1,)}

    def test_zero_discrepancy_raises(self):
        p, _ = mx.random_instance(2, 2, 1, 1, seed=4)
        dag = mx.build_dag(p, p)
        with pytest.raises(mx.ZeroDiscrepancy):
            mx.sample_failed_trajectory(dag, np.random.default_rng(0))

    def test_never_emits_zero_mass_configurations(self, uniform2, point00):
        dag = mx.build_dag(uniform2, point00)
        rng = np.random.default_rng(5)
        draws = {mx.sample_failed_trajectory(dag, rng) for _ in range(2000)}
        assert (0, 0) not in draws
        assert draws == {(0, 1), (1, 0), (1, 1)}

    def test_matches_conditional_law(self):
        p, q = mx.random_instance(2, 3, 2, 2, seed=21)
        dag = mx.build_dag(p, q)
        pf = mx.failure_probability(dag)
        table = mx.failure_mass_table(dag)
        rng = np.random.default_rng(77)
        n_draws = 40_000
        counts = Counter(map(tuple, mx.sample_failed_trajectories(dag, rng, n_draws).tolist()))
        for idx, cfg in enumerate(lex_configs(2, 3)):
            pi = table[idx] / pf
            emp = counts.get(cfg, 0) / n_draws
            if pi == 0.0:
                assert emp == 0.0
            else:
                se = (pi * (1 - pi) / n_draws) ** 0.5
                assert abs(emp - pi) <= 4 * se

    def test_conditional_law_on_canonical_instance(self, uniform2, point00):
        dag = mx.build_dag(uniform2, point00)
        pf = mx.failure_probability(dag)
        table = mx.failure_mass_table(dag)
        rng = np.random.default_rng(99)
        n_draws = 100_000
        counts = Counter(map(tuple, mx.sample_failed_trajectories(dag, rng, n_draws).tolist()))
        for idx, cfg in enumerate(lex_configs(2, 2)):
            pi = table[idx] / pf
            emp = counts.get(cfg, 0) / n_draws
            if pi == 0.0:
                assert emp == 0.0
            else:
                se = (pi * (1 - pi) / n_draws) ** 0.5
                assert abs(emp - pi) <= 3 * se

    @pytest.mark.parametrize("family", ["general", "subcube"])
    def test_tail_draws_match_scalar_draws(self, family):
        # The subcube pair has marginals 0 and 1, so its cumulative rows tie.
        p, q = mx.random_instance(6, 2 if family == "subcube" else 3, 3, 2, seed=8, family=family)
        dag = mx.build_dag(p, q)
        vector, scalar = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(10_000):
            assert mx.sample_failed_trajectory(dag, vector) == scalar_trajectory(dag, scalar)
        assert vector.random() == scalar.random()

    def test_pick_rows_keeps_the_edge_and_tie_rules(self):
        cumulative = np.cumsum(
            [
                [0.0, 0.5, 0.5],
                [0.5, 0.0, 0.5],
                [0.0, 0.0, 1.0],
                [1.0, 0.0, 0.0],
                [0.2, 0.3, 0.0],
                [0.0, 0.0, 0.0],
            ],
            axis=1,
        )
        for u in EDGE_DOUBLES:
            rows = coupling._pick_rows(np.full(len(cumulative), u), cumulative)
            expect = [pick_index(ScriptedRng([u]), row) for row in cumulative]
            assert rows.tolist() == expect

    @pytest.mark.parametrize("family", ["general", "subcube", "windowed"])
    @pytest.mark.parametrize("count", [1, 7, 256])
    def test_blocks_match_sequential_scalar_walks(self, family, count):
        # The subcube pair has marginals 0 and 1, so its cumulative rows tie.
        # The tilted windowed pair has runs of repeated coordinates that
        # carry failure mass.
        if family == "windowed":
            p, q = windowed_pair(1, n=40, k=2, fixed=2, tilt=0.01)
        else:
            p, q = mx.random_instance(6, 2 if family == "subcube" else 3, 3, 2, seed=8, family=family)
        dag = mx.build_dag(p, q)
        batched, scalar = np.random.default_rng(4), np.random.default_rng(4)
        failures = []
        for _ in range(3):
            block = mx.sample_failed_trajectories(dag, batched, count)
            assert block.shape == (count, p.n) and block.dtype == np.int64
            assert [tuple(row) for row in block.tolist()] == [
                scalar_trajectory(dag, scalar, failures) for _ in range(count)
            ]
        assert batched.random() == scalar.random()
        if family == "windowed" and count == 256:
            assert_failures_cover_the_runs(dag, failures)

    @pytest.mark.parametrize("family", ["general", "subcube", "windowed"])
    def test_edge_doubles_pick_like_the_scalar_walk(self, family):
        # Every assignment of the edge and tie doubles to the n + 1 doubles of
        # a draw, so each one reaches the slot pick of every layer, the
        # component pick and the tail picks.
        if family == "windowed":  # a run of three repeated coordinates
            p, q = windowed_pair(1, n=4, k=1, fixed=1, tilt=0.01)
        else:
            p, q = mx.random_instance(3, 2, 3, 2, seed=8 if family == "general" else 3, family=family)
        dag = mx.build_dag(p, q)
        if family == "subcube":  # tied walk and component rows
            assert any(
                (np.diff(walk_row(dag, depth, m)) == 0.0).any()
                for depth in range(p.n)
                for m in range(dag._layers[depth].size)
            )
            assert any((lay.upd_alpha[:, 1:] == 0.0).any() for lay in dag._layers[:-1])
        width = p.n + 1
        script = [u for combo in product(EDGE_DOUBLES, repeat=width) for u in combo]
        block = mx.sample_failed_trajectories(dag, ScriptedRng(script), len(script) // width)
        scalar, failures = ScriptedRng(script), []
        assert [tuple(row) for row in block.tolist()] == [
            scalar_trajectory(dag, scalar, failures) for _ in range(len(block))
        ]
        assert scalar.values == []
        if family == "windowed":
            assert_failures_cover_the_runs(dag, failures)

    def test_non_positive_count_is_a_shape_error(self, uniform2, point00):
        dag = mx.build_dag(uniform2, point00)
        for count in (0, -1):
            with pytest.raises(mx.ShapeMismatch):
                mx.sample_failed_trajectories(dag, np.random.default_rng(0), count)

    def test_walk_that_never_fails_is_a_fact_violation(self, uniform2, point00, monkeypatch):
        # Layers without Type-III mass: every draw takes the Type-I edge at
        # value 0, whose child exists at every layer, so none reaches the
        # failure sink.
        dag = mx.build_dag(uniform2, point00)
        no_failure = [
            lay if lay.res_p is None else replace(lay, res_p=np.zeros_like(lay.res_p))
            for lay in dag._layers
        ]
        monkeypatch.setattr(dag, "_layers", no_failure)
        with pytest.raises(mx.FactViolation, match="never reached the failure sink"):
            mx.sample_failed_trajectories(dag, np.random.default_rng(0), 5)

    def test_sampling_is_thread_safe(self, uniform2, point00):
        # No shared mutable state: per-thread streams reproduce the
        # single-threaded draws exactly when four threads walk one DAG at once.
        from threading import Thread

        def draws(dag_, seed):
            rng = np.random.default_rng(seed)
            return [mx.sample_failed_trajectory(dag_, rng) for _ in range(500)]

        reference_dag = mx.build_dag(uniform2, point00)
        seeds = [11, 22, 33, 44]
        expected = {s: draws(reference_dag, s) for s in seeds}
        dag = mx.build_dag(uniform2, point00)
        results = {}

        def worker(seed):
            results[seed] = draws(dag, seed)

        threads = [Thread(target=worker, args=(s,)) for s in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == expected


class TestSimulateCoupling:
    def test_identical_mixtures_always_agree(self):
        p, _ = mx.random_instance(4, 3, 2, 2, seed=3)
        rng = np.random.default_rng(1)
        for _ in range(300):
            x, y = mx.simulate_coupling(p, p, rng)
            assert x == y

    def test_failure_rate_matches_dag(self):
        p = uniform_bits(1)
        q = point_mass((0,))
        rng = np.random.default_rng(12)
        n_draws = 20_000
        fails = sum(x != y for x, y in (mx.simulate_coupling(p, q, rng) for _ in range(n_draws)))
        se = (0.5 * 0.5 / n_draws) ** 0.5
        assert abs(fails / n_draws - 0.5) <= 4 * se

    def test_failure_joint_matches_dag_masses(self):
        # Dual route: empirical Pr[X = sigma and X != Y] from the direct
        # simulator against the DAG evaluation query.
        p, q = mx.random_instance(2, 2, 2, 2, seed=31)
        dag = mx.build_dag(p, q)
        table = mx.failure_mass_table(dag)
        rng = np.random.default_rng(41)
        n_draws = 30_000
        counts = Counter()
        for _ in range(n_draws):
            x, y = mx.simulate_coupling(p, q, rng)
            if x != y:
                counts[x] += 1
        for idx, cfg in enumerate(lex_configs(2, 2)):
            mass_fail = table[idx]
            emp = counts.get(cfg, 0) / n_draws
            se = max((mass_fail * (1 - mass_fail) / n_draws) ** 0.5, 1e-9)
            assert abs(emp - mass_fail) <= 4 * se

    def test_marginals_close_to_inputs(self):
        p, q = mx.random_instance(2, 2, 2, 2, seed=19)
        rng = np.random.default_rng(23)
        n_draws = 20_000
        cx, cy = Counter(), Counter()
        for _ in range(n_draws):
            x, y = mx.simulate_coupling(p, q, rng)
            cx[x] += 1
            cy[y] += 1
        p_tab, q_tab = mx.mass_table(p), mx.mass_table(q)
        configs = lex_configs(2, 2)
        tv_x = sum(abs(cx.get(c, 0) / n_draws - p_tab[i]) for i, c in enumerate(configs)) / 2
        tv_y = sum(abs(cy.get(c, 0) / n_draws - q_tab[i]) for i, c in enumerate(configs)) / 2
        assert tv_x <= 0.02
        assert tv_y <= 0.02

    def test_pick_at_a_uniform_equal_to_the_total_takes_the_last_positive_weight(self):
        # A uniform of exactly 1.0 lands past every partial sum; the pick
        # falls back to the last index of positive weight, not a trailing zero.
        assert coupling._scalar_pick(ScriptedRng([1.0]), [0.25, 0.0, 0.75, 0.0]) == 2


# sha256 of the --dump bytes: the compact canonical JSON of to_dict(), with
# sorted keys and no whitespace.  The aggregate marginals are summed in
# component order, so the n3q3 DAG has 16 states under every BLAS kernel.
PINNED_DUMPS = {
    "smoke-general-n2q2.json": "c0115f63a9fefd2dba3ceefd0f066147dc5ceab5ba2062e48c4c459e2ab6527b",
    "smoke-general-n3q3.json": "e701440f51db6243511189f1279e9e2f446c1c838e8356c8e119eb097a9ce7de",
    "smoke-subcube-n4.json": "fe7c1f56886f9b1a463cd02e8bd4bbb236f410162f6f316f6472fc2c5a448bde",
    "smoke-subcube-deep-n120.json": "4a6410fcba9647948d6e3e3febfbce860034c846b8a4a30834b84d3f53cb07dc",
}


class TestDump:
    @pytest.mark.parametrize("name", sorted(PINNED_DUMPS))
    def test_dump_bytes_are_pinned(self, name, tmp_path, capsys):
        p, q = mx.parse_instance(json.loads((INSTANCES / name).read_text()))
        text = json.dumps(mx.build_dag(p, q).to_dict(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DUMPS[name]
        dump = tmp_path / "dag.json"
        code = cli.run(["coupling-stats", "--input", str(INSTANCES / name), "--dump", str(dump)])
        capsys.readouterr()
        assert code == 0
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == PINNED_DUMPS[name]

    def test_type_two_labels_name_values_past_int16(self):
        # A Type-II edge at value c is labelled c, for every q.
        qq = 40_000
        p, q = mx.random_instance(1, qq, 2, 2, seed=0)
        dag = mx.build_dag(p, q)
        first = {}  # each layer-2 state's first-created edge
        # The root's Type-I and Type-II edges come first; its ~q^2 / 4
        # Type-III edges are never generated.
        for t in takewhile(lambda t: t.kind != mx.TransitionKind.TYPE_III, dag.iter_transitions()):
            first.setdefault(t.target, t)
        assert len(first) == dag.layer_sizes[1]
        assert sorted(first) == [(2, m) for m in range(dag.layer_sizes[1])]
        labels = [t.label for t in first.values() if t.kind == mx.TransitionKind.TYPE_II]
        assert max(labels) > 2**15  # past the int16 range
        for t in first.values():
            assert t.kind == mx.TransitionKind.TYPE_I or 0 <= t.label < qq, t

    def test_dump_round_trips_counts(self, two_component_pair):
        deep = mx.build_dag(*read_instance("smoke-subcube-deep-n120.json"))
        # Several depths hold one record; its transitions count at each.
        assert any(lay is nxt for lay, nxt in zip(deep._layers, deep._layers[1:]))
        for dag in (deep, mx.build_dag(*two_component_pair)):
            doc = dag.to_dict()
            assert len(doc["states"]) == sum(dag.layer_sizes)
            assert len(doc["transitions"]) == dag.num_transitions == len(list(dag.iter_transitions()))
            assert doc["statistics"]["num_states"] == dag.num_states
        root = doc["states"][0]
        assert root["layer"] == 1 and root["index"] == 0
        assert root["p_fail"] == pytest.approx(0.05)
