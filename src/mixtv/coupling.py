"""Recursive coupling of two mixtures compiled to an explicit state DAG.

The coupling walks the coordinates left to right.  At each coordinate it
extracts the probability mass shared by every active component of both
mixtures (the per-value lower bound), matches as much of the remainder as
possible under reweighted components, and couples whatever is left as a
mismatch.  A state is a (coordinate, reweighting) pair: all paths that reach
one coordinate with byte-equal reweightings share one state, so the DAG
holds one state per distinct reweighting of each layer.  The walk over
states is a layered DAG with three transition kinds:

* Type-I   -- shared mass, both samples take value ``c``, weights unchanged;
* Type-II  -- matched remainder at value ``c``, weights reweighted, at least
  one previously active component becomes inactive;
* Type-III -- mismatch ``(c, c')``, absorbing failure sink.

Dynamic programs over the DAG answer the discrepancy and conditional-sampling
queries used by the Monte Carlo estimator.  Both block queries advance one
layer at a time: the sampling query walks a block of failure-conditioned
draws down the DAG together, and the evaluation query is one forward pass
per block of configurations over the states whose paths agree with them.  A
direct trajectory simulator (:func:`simulate_coupling`) provides an
independent path for statistical cross-validation of the DAG.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    FactViolation,
    NoActiveComponent,
    ShapeMismatch,
    TooLarge,
    ZeroDiscrepancy,
)
from .model import Mixture, as_configuration, as_configurations, check_same_domain


# ---------------------------------------------------------------------------
# DAG construction
# ---------------------------------------------------------------------------


class TransitionKind(str, Enum):
    TYPE_I = "I"
    TYPE_II = "II"
    TYPE_III = "III"


@dataclass(frozen=True)
class State:
    """A reachable coupling state: coordinate layer plus current reweightings.

    A state is its layer plus the bytes of its reweightings: paths that
    reach a layer with byte-equal ``(alpha_bar, beta_bar)`` share one state
    (exact equality, no float tolerance).  ``path_key`` is the state's
    first-created path from the root, which names it uniquely: symbol 0 for
    a Type-I step, symbol ``c + 1`` for a Type-II step at value ``c``.
    """

    layer: int  # 1-based; layer n + 1 holds the terminal states
    path_key: tuple[int, ...]
    alpha_bar: np.ndarray
    beta_bar: np.ndarray

    @property
    def active_count(self) -> int:
        return int((self.alpha_bar > 0.0).sum() + (self.beta_bar > 0.0).sum())


@dataclass(frozen=True)
class Transition:
    source: tuple[int, ...]
    kind: TransitionKind
    label: int | tuple[int, int]  # value c, or the mismatched pair (c, c')
    weight: float
    target: tuple[int, ...] | None  # None is the failure sink


@dataclass
class _Layer:
    """Vectorized per-layer tables; row ``m`` is the ``m``-th state of the layer."""

    alpha: np.ndarray  # (M, k1) current P-side weights
    beta: np.ndarray  # (M, k2)
    # parent and symbol describe the last edge of the state's first-created path
    parent: np.ndarray  # (M,) row in the previous layer; -1 for the root
    symbol: np.ndarray  # (M,) path-key symbol appended by the edge from the parent
    # Transition tables, absent on the terminal layer:
    w1: np.ndarray | None = None  # (M, q) Type-I weight per value
    w2: np.ndarray | None = None  # (M, q) Type-II weight per value
    res_p: np.ndarray | None = None  # (M, q) unmatched P-side mass per value
    res_q: np.ndarray | None = None  # (M, q)
    res_total: np.ndarray | None = None  # (M,) total Type-III mass
    child1: np.ndarray | None = None  # (M,) row of the shared Type-I child, -1 if none
    child2: np.ndarray | None = None  # (M, q) row of the Type-II child per value
    upd_alpha: np.ndarray | None = None  # (M, k1, q) reweighted P-side per value
    pfail: np.ndarray | None = None  # (M,) filled by failure_probability

    @property
    def size(self) -> int:
        return int(self.alpha.shape[0])


def _gather(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """values[idx] with idx == -1 (and empty ``values``) mapping to 0."""
    if values.shape[0] == 0:
        return np.zeros(idx.shape)
    picked = values[np.maximum(idx, 0)]
    return np.where(idx >= 0, picked, 0.0)


class CouplingDag:
    """Explicit state graph of the recursive coupling of two mixtures.

    Immutable once built (the failure-probability table is filled in on
    first use and then cached); all queries may run concurrently.
    """

    def __init__(self, mix_p: Mixture, mix_q: Mixture, layers: list[_Layer]):
        self.mix_p = mix_p
        self.mix_q = mix_q
        self._layers = layers
        self._keys: list[list[tuple[int, ...]]] | None = None
        self._walk_tables: list[np.ndarray] | None = None

    # -- basic shape ------------------------------------------------------

    @property
    def n(self) -> int:
        return self.mix_p.n

    @property
    def q(self) -> int:
        return self.mix_p.q

    @property
    def k1(self) -> int:
        return self.mix_p.k

    @property
    def k2(self) -> int:
        return self.mix_q.k

    @property
    def layer_sizes(self) -> list[int]:
        """States per layer, layers 1..n+1."""
        return [lay.size for lay in self._layers]

    @property
    def failure_reachable(self) -> bool:
        return any(
            lay.res_total is not None and lay.res_total.sum() > 0.0 for lay in self._layers
        )

    @property
    def num_states(self) -> int:
        """Reachable states, counting the failure sink when it is reachable."""
        return sum(self.layer_sizes) + (1 if self.failure_reachable else 0)

    @property
    def num_transitions(self) -> int:
        total = 0
        for lay in self._layers[:-1]:
            total += int((lay.w1 > 0.0).sum()) + int((lay.w2 > 0.0).sum())
            total += int(((lay.res_p > 0.0).sum(axis=1) * (lay.res_q > 0.0).sum(axis=1)).sum())
        return total

    def state_bound(self) -> int:
        """Worst-case state count ``(nq + 1)^(k1 + k2 - 1) + 1`` (exact integer)."""
        return (self.n * self.q + 1) ** (self.k1 + self.k2 - 1) + 1

    # -- state / transition views ----------------------------------------

    def _path_keys(self) -> list[list[tuple[int, ...]]]:
        if self._keys is None:
            keys: list[list[tuple[int, ...]]] = [[()]]
            for lay in self._layers[1:]:
                prev = keys[-1]
                keys.append(
                    [
                        prev[int(par)] + (int(sym),)
                        for par, sym in zip(lay.parent, lay.symbol)
                    ]
                )
            self._keys = keys
        return self._keys

    @property
    def root(self) -> State:
        lay = self._layers[0]
        return State(1, (), lay.alpha[0].copy(), lay.beta[0].copy())

    def iter_states(self) -> Iterator[State]:
        """All non-failure states in (layer, creation index) order."""
        for depth, (lay, keys) in enumerate(zip(self._layers, self._path_keys())):
            for m in range(lay.size):
                yield State(depth + 1, keys[m], lay.alpha[m].copy(), lay.beta[m].copy())

    def iter_transitions(self) -> Iterator[Transition]:
        """All materialized transitions; weights of a state sum to 1."""
        keys = self._path_keys()
        for depth, lay in enumerate(self._layers[:-1]):
            nxt = keys[depth + 1]
            for m in range(lay.size):
                src = keys[depth][m]
                for c in range(self.q):
                    w = float(lay.w1[m, c])
                    if w > 0.0:
                        yield Transition(src, TransitionKind.TYPE_I, c, w, nxt[int(lay.child1[m])])
                for c in range(self.q):
                    w = float(lay.w2[m, c])
                    if w > 0.0:
                        yield Transition(src, TransitionKind.TYPE_II, c, w, nxt[int(lay.child2[m, c])])
                total = float(lay.res_total[m])
                if total > 0.0:
                    for c in range(self.q):
                        rp = float(lay.res_p[m, c])
                        if rp <= 0.0:
                            continue
                        for cc in range(self.q):
                            rq = float(lay.res_q[m, cc])
                            if rq <= 0.0:
                                continue
                            yield Transition(
                                src, TransitionKind.TYPE_III, (c, cc), rp * rq / total, None
                            )

    def pfail_map(self) -> dict[tuple[int, ...], float]:
        """Failure probability per state, keyed by path key (sink excluded)."""
        failure_probability(self)
        out: dict[tuple[int, ...], float] = {}
        for lay, keys in zip(self._layers, self._path_keys()):
            for m in range(lay.size):
                out[keys[m]] = float(lay.pfail[m])
        return out

    def statistics(self) -> dict:
        """Summary used by the CLI: counts, per-layer histogram, discrepancy."""
        return {
            "n": self.n,
            "q": self.q,
            "k1": self.k1,
            "k2": self.k2,
            "num_states": self.num_states,
            "num_transitions": self.num_transitions,
            "layer_sizes": self.layer_sizes,
            "state_bound": self.state_bound(),
            "failure_reachable": self.failure_reachable,
            "discrepancy": failure_probability(self),
        }

    def to_dict(self) -> dict:
        """Full diagnostic dump (states, transitions, failure table)."""
        failure_probability(self)
        pfail = self.pfail_map()
        states = [
            {
                "layer": st.layer,
                "path_key": list(st.path_key),
                "alpha_bar": st.alpha_bar.tolist(),
                "beta_bar": st.beta_bar.tolist(),
                "p_fail": pfail[st.path_key],
            }
            for st in self.iter_states()
        ]
        transitions = [
            {
                "source": list(t.source),
                "kind": t.kind.value,
                "label": list(t.label) if isinstance(t.label, tuple) else t.label,
                "weight": t.weight,
                "target": None if t.target is None else list(t.target),
            }
            for t in self.iter_transitions()
        ]
        return {"statistics": self.statistics(), "states": states, "transitions": transitions}


def _row_hash(bits: np.ndarray) -> np.ndarray:
    """64-bit hash of each row of a ``(M, d)`` uint64 block; every bit counts."""
    mult, shift = np.uint64(0x9E3779B97F4A7C15), np.uint64(29)
    h = np.zeros(bits.shape[0], dtype=np.uint64)
    for col in bits.T:  # array-only uint64 arithmetic wraps without warnings
        h ^= col
        h *= mult
        h ^= h >> shift
    return h


def _merge_equal_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge byte-equal rows of a float64 ``(M, d)`` block, keeping creation order.

    Returns ``(keep, index)``: ``keep`` marks the rows that stay states (the
    first-created row of each set of byte-equal rows), and ``index[m]`` is
    the position among the kept rows of the state row ``m`` merges into.
    Rows are grouped by a 64-bit hash that mixes every bit of every entry,
    then compared byte for byte against their group's first-created row; a
    row whose hash collides with a different row stays its own state, so a
    collision costs one state, never a wrong merge.
    """
    m = rows.shape[0]
    if m == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
    bits = rows.view(np.uint64)
    h = _row_hash(bits)
    order = np.argsort(h)
    hs = h[order]
    new_group = np.empty(m, dtype=bool)
    new_group[0] = True
    np.not_equal(hs[1:], hs[:-1], out=new_group[1:])
    first = np.minimum.reduceat(order, np.flatnonzero(new_group))
    rep = np.empty(m, dtype=np.int64)
    rep[order] = first[np.cumsum(new_group) - 1]
    dup = np.flatnonzero(rep != np.arange(m))
    differ = dup[(bits[dup] != bits[rep[dup]]).any(axis=1)]
    rep[differ] = differ
    keep = rep == np.arange(m)
    return keep, (np.cumsum(keep) - 1)[rep]


def build_dag(p: Mixture, q: Mixture, max_states: int | None = None) -> CouplingDag:
    """Expand the recursive coupling of ``p`` and ``q`` breadth-first by layer.

    Per state and value ``c``: a Type-I edge with weight ``ell`` (the shared
    lower bound), a Type-II edge with weight ``min(pbar, qbar) - ell`` to the
    reweighted child, and Type-III edges to the failure sink with the
    proportional residual rule ``w(c, c') = res_p(c) * res_q(c') / R``.
    Zero-weight edges are never materialized; all Type-I edges of a state
    share one child.  The children of a layer whose ``[alpha | beta]`` rows
    are byte-equal are merged into the first-created one, which keeps its
    ``parent`` and ``symbol``.  Byte-equal rows get byte-equal tables, so the
    merge changes no edge weight, failure probability or sampled value.
    Weights are stored with canonical zeros (never ``-0.0``), so equal
    reweightings are byte-equal.

    Parameters
    ----------
    max_states : int, optional
        Abort with :class:`TooLarge` when the (merged) state count would
        exceed this; a value below 1 is a :class:`ShapeMismatch`.
    """
    check_same_domain(p, q)
    if max_states is not None and max_states < 1:
        raise ShapeMismatch(f"max_states must be at least 1, got {max_states}")
    n, qq = p.n, p.q
    root = _Layer(
        alpha=p.weights[None, :] + 0.0,  # + 0.0 turns a -0.0 weight into +0.0
        beta=q.weights[None, :] + 0.0,
        parent=np.array([-1], dtype=np.int64),
        symbol=np.array([-1], dtype=np.int16),
    )
    if not root.alpha.any() or not root.beta.any():
        raise NoActiveComponent("a mixture has no active component")
    layers = [root]
    count = 1

    for depth in range(n):
        lay = layers[depth]
        m_here = lay.size
        pj = p.components[:, depth, :]  # (k1, q)
        qj = q.components[:, depth, :]  # (k2, q)
        a, b = lay.alpha, lay.beta
        pbar = a @ pj  # (M, q)
        qbar = b @ qj
        act_a = (a > 0.0)[:, :, None]
        act_b = (b > 0.0)[:, :, None]
        min_p = np.where(act_a, pj[None, :, :], np.inf).min(axis=1)
        max_p = np.where(act_a, pj[None, :, :], -np.inf).max(axis=1)
        min_q = np.where(act_b, qj[None, :, :], np.inf).min(axis=1)
        max_q = np.where(act_b, qj[None, :, :], -np.inf).max(axis=1)
        ell = np.minimum(min_p, min_q)

        # Degeneracy is decided structurally (no active marginal above ell),
        # which matches exact arithmetic even when the aggregated marginal
        # rounds away from ell.
        deg_p = ~(max_p > ell)
        deg_q = ~(max_q > ell)
        w2_raw = np.minimum(pbar, qbar) - ell
        t2 = (w2_raw > 0.0) & ~deg_p & ~deg_q

        lay.w1 = ell
        lay.w2 = np.where(t2, w2_raw, 0.0)
        lay.res_p = np.maximum(pbar - qbar, 0.0)
        lay.res_q = np.maximum(qbar - pbar, 0.0)
        lay.res_total = lay.res_p.sum(axis=1)

        # An inactive component may have a marginal below ell; clamping its
        # excess at +0.0 keeps its reweighted weight +0.0 instead of -0.0.
        # Active components have marginals at least ell, so theirs is exact.
        den_p = pbar - ell
        ok_p = ~deg_p & (den_p > 0.0)
        num_a = a[:, :, None] * np.maximum(pj[None, :, :] - ell[:, None, :], 0.0)
        quot_a = np.divide(
            num_a, den_p[:, None, :], out=np.zeros_like(num_a), where=ok_p[:, None, :]
        )
        lay.upd_alpha = np.where(ok_p[:, None, :], quot_a, a[:, :, None])

        den_q = qbar - ell
        ok_q = ~deg_q & (den_q > 0.0)
        num_b = b[:, :, None] * np.maximum(qj[None, :, :] - ell[:, None, :], 0.0)
        quot_b = np.divide(
            num_b, den_q[:, None, :], out=np.zeros_like(num_b), where=ok_q[:, None, :]
        )
        upd_beta = np.where(ok_q[:, None, :], quot_b, b[:, :, None])

        has1 = lay.w1.sum(axis=1) > 0.0
        n1 = int(has1.sum())
        par2, c2 = np.nonzero(t2)  # row-major: parent ascending, then value

        # Children in creation order: Type-I children by parent, then
        # Type-II children by (parent, value).
        alpha = np.concatenate([a[has1], lay.upd_alpha[par2, :, c2]], axis=0)
        beta = np.concatenate([b[has1], upd_beta[par2, :, c2]], axis=0)
        keep, index = _merge_equal_rows(np.concatenate([alpha, beta], axis=1))
        lay.child1 = np.full(m_here, -1, dtype=np.int64)
        lay.child1[has1] = index[:n1]
        lay.child2 = np.full((m_here, qq), -1, dtype=np.int64)
        lay.child2[par2, c2] = index[n1:]

        count += int(keep.sum())
        if max_states is not None and count > max_states:
            raise TooLarge(
                f"state count exceeded max_states={max_states} at layer {depth + 2}"
            )

        layers.append(
            _Layer(
                alpha=alpha[keep],
                beta=beta[keep],
                parent=np.concatenate([np.flatnonzero(has1), par2])[keep],
                symbol=np.concatenate(
                    [np.zeros(n1, dtype=np.int16), (c2 + 1).astype(np.int16)]
                )[keep],
            )
        )

    return CouplingDag(p, q, layers)


# ---------------------------------------------------------------------------
# Queries on the DAG
# ---------------------------------------------------------------------------


def failure_probability(dag: CouplingDag) -> float:
    """Probability that the coupling fails, by backward DP over the layers.

    Fills the per-state failure table on first use.  Always at least the
    total variation distance of the two mixtures (coupling inequality).
    """
    layers = dag._layers
    if layers[0].pfail is None:
        layers[-1].pfail = np.zeros(layers[-1].size)
        for depth in range(len(layers) - 2, -1, -1):
            lay = layers[depth]
            nxt = layers[depth + 1].pfail
            pf1 = _gather(nxt, lay.child1)
            pf2 = _gather(nxt, lay.child2)
            lay.pfail = lay.w1.sum(axis=1) * pf1 + (lay.w2 * pf2).sum(axis=1) + lay.res_total
    return float(layers[0].pfail[0])


# Configurations per failure_masses call in failure_mass_table, and draws per
# block in the estimator.  It bounds the memory of one call: its frontier
# arrays hold one entry per (configuration, frontier state) of a layer.
BLOCK = 256


def failure_masses(dag: CouplingDag, sigmas: Sequence[Sequence[int]]) -> np.ndarray:
    """Failure mass of each configuration row of a ``(B, n)`` block.

    Row ``b`` is the probability that the coupling fails with first sample
    exactly ``sigmas[b]``.  Only paths whose symbols are each 0 or
    ``sigma_j + 1`` (the sigma-frontier) carry that mass, so one forward
    pass carries ``(row of sigmas, state row, reach)`` triples layer by
    layer, one per such path, where reach is the product of the path's edge
    weights.  Two such paths of one row may reach one merged state; their
    triples are kept apart, so each row's sums keep the terms and the order
    they have on the tree of paths.  At
    layer ``j`` a triple fails with mass ``reach * res_p[row, sigma_j]``,
    split over the P-side components by ``upd_alpha[row, :, sigma_j]``;
    component ``s``'s share is then carried forward times
    ``components[s, i, sigma_i]`` at every later coordinate ``i`` (Horner's
    rule for the suffix probabilities, so no per-layer suffix table is
    stored).  Every sum runs over one row's own terms in a fixed order, so a
    row's value does not depend on the other rows of the block.
    """
    cfgs = as_configurations(dag.mix_p, sigmas)
    n_cfg, n = cfgs.shape
    comp = dag.mix_p.components
    # tails[b, s]: mass that failed at an earlier layer with P-side component
    # s, times component s's probability of sigma_b's coordinates since then.
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
        child2 = lay.child2[rows, c]
        go1, go2 = w1 > 0.0, child2 >= 0
        idx = np.concatenate([idx[go1], idx[go2]])
        reach = np.concatenate([reach[go1] * w1[go1], reach[go2] * lay.w2[rows[go2], c[go2]]])
        rows = np.concatenate([lay.child1[rows[go1]], child2[go2]])
    total = tails[:, 0].copy()
    for s in range(1, comp.shape[0]):
        total += tails[:, s]
    return total


def evaluate_failure_mass(dag: CouplingDag, sigma: Sequence[int]) -> float:
    """Probability that the coupling fails with first sample exactly ``sigma``.

    A validated one-row :func:`failure_masses` call.
    """
    return float(failure_masses(dag, as_configuration(dag.mix_p, sigma)[None, :])[0])


def failure_mass_table(dag: CouplingDag, max_configs: int = 2**14) -> np.ndarray:
    """Failure mass of every configuration in lexicographic order (size-guarded).

    One :func:`failure_masses` call per :data:`BLOCK` configurations.
    """
    if max_configs < 1:
        raise ShapeMismatch(f"max_configs must be at least 1, got {max_configs}")
    total = dag.q**dag.n
    if total > max_configs:
        raise TooLarge(f"q^n = {total} exceeds max_configs={max_configs}")
    configs = np.array(list(product(range(dag.q), repeat=dag.n)), dtype=np.int64)
    return np.concatenate(
        [failure_masses(dag, configs[i : i + BLOCK]) for i in range(0, total, BLOCK)]
    )


# ---------------------------------------------------------------------------
# Conditional sampling
# ---------------------------------------------------------------------------


def _walk_tables(dag: CouplingDag) -> list[np.ndarray]:
    """Per-layer cumulative weights of the failure-conditioned walk.

    Row ``m`` holds the cumulative sums of ``3q`` slots: Type-I edges per
    value (weight times child failure probability), then Type-II edges per
    value, then aggregated Type-III mass per first-sample value.
    """
    if dag._walk_tables is None:
        failure_probability(dag)
        tables = []
        layers = dag._layers
        for depth in range(dag.n):
            lay = layers[depth]
            nxt = layers[depth + 1].pfail
            pf1 = _gather(nxt, lay.child1)[:, None] * lay.w1
            pf2 = _gather(nxt, lay.child2) * lay.w2
            tables.append(np.cumsum(np.concatenate([pf1, pf2, lay.res_p], axis=1), axis=1))
        dag._walk_tables = tables
    return dag._walk_tables


def _pick_rows(u: np.ndarray, cumulative: np.ndarray) -> np.ndarray:
    """The slot each row of ``cumulative`` picks with its uniform double ``u``.

    The slot is the count of entries at most ``u * total``, with that target
    held just below the row total.  Below the total this is the first slot
    whose cumulative weight exceeds the target, so a zero-weight slot is
    never picked; a target at or above the total (roundoff at the upper
    edge) picks the first slot whose cumulative weight equals the total.
    """
    total = cumulative[:, -1]
    target = np.minimum(u * total, np.nextafter(total, -np.inf))
    return (cumulative <= target[:, None]).sum(axis=1)


def sample_failed_trajectories(
    dag: CouplingDag, rng: np.random.Generator, count: int
) -> np.ndarray:
    """``count`` samples of the first coordinate sequence conditioned on failure.

    Each row walks the DAG from the root, choosing each edge with
    probability ``weight * p_fail(target) / p_fail(state)``; on the failure
    edge it picks a P-side component by the reweighted P-side weights and
    completes the remaining coordinates by ancestral sampling under that
    component, so every row is distributed exactly as the first sample
    conditioned on the coupling failing.  Returns a ``(count, n)`` int64
    array.

    A row that fails at layer ``d`` uses exactly ``n + 1`` doubles: layer
    ``j <= d`` reads column ``j`` of ``rng.random((count, n + 1))``, the
    component pick reads column ``d + 1`` and tail coordinate ``j > d``
    reads column ``j + 1``.  So row ``b`` is the ``b``-th of ``count``
    sequential one-row calls, and the generator ends in the same state.
    All rows advance together, one layer at a time: the rows still walking
    pick an edge, the rows that failed earlier draw their tail coordinate.
    """
    if count < 1:
        raise ShapeMismatch(f"count must be at least 1, got {count}")
    if failure_probability(dag) <= 0.0:
        raise ZeroDiscrepancy("the coupling never fails; nothing to condition on")
    tables = _walk_tables(dag)
    cum_comp = np.cumsum(dag.mix_p.components, axis=2)  # (k1, n, q)
    qq, n = dag.q, dag.n
    u = rng.random((count, n + 1))
    out = np.empty((count, n), dtype=np.int64)
    walking = np.arange(count)  # draws still on the DAG
    rows = np.zeros(count, dtype=np.int64)  # their states in the current layer
    failed = np.zeros(0, dtype=np.int64)  # draws past their failure layer
    component = np.zeros(0, dtype=np.int64)  # their P-side components
    for depth in range(n):
        if failed.size:
            out[failed, depth] = _pick_rows(u[failed, depth + 1], cum_comp[component, depth])
        if not walking.size:
            continue
        lay = dag._layers[depth]
        band, c = np.divmod(_pick_rows(u[walking, depth], tables[depth][rows]), qq)
        out[walking, depth] = c
        fail = band == 2
        if fail.any():
            weights = np.cumsum(lay.upd_alpha[rows[fail], :, c[fail]], axis=1)
            failed = np.concatenate([failed, walking[fail]])
            component = np.concatenate([component, _pick_rows(u[walking[fail], depth + 1], weights)])
            stay = ~fail
            walking, rows, band, c = walking[stay], rows[stay], band[stay], c[stay]
        rows = np.where(band == 0, lay.child1[rows], lay.child2[rows, c])
    if walking.size:
        raise FactViolation(f"{walking.size} of {count} draws never reached the failure sink")
    return out


def sample_failed_trajectory(dag: CouplingDag, rng: np.random.Generator) -> tuple[int, ...]:
    """One sample conditioned on failure: a one-row :func:`sample_failed_trajectories` call."""
    return tuple(sample_failed_trajectories(dag, rng, 1)[0].tolist())


# ---------------------------------------------------------------------------
# Direct trajectory simulation (independent of the DAG)
# ---------------------------------------------------------------------------


def _scalar_updated(alpha: list[float], margs: list[float], ell: float) -> list[float]:
    if not any(a > 0.0 and mg > ell for a, mg in zip(alpha, margs)):
        return alpha[:]
    den = sum(a * mg for a, mg in zip(alpha, margs)) - ell
    if den <= 0.0:
        return alpha[:]
    return [a * (mg - ell) / den for a, mg in zip(alpha, margs)]


def _scalar_pick(rng: np.random.Generator, weights: list[float]) -> int:
    u = rng.random() * sum(weights)
    acc = 0.0
    last = 0
    for i, w in enumerate(weights):
        if w > 0.0:
            acc += w
            last = i
            if u < acc:
                return i
    return last


def simulate_coupling(
    p: Mixture, q: Mixture, rng: np.random.Generator
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Draw one coupled pair ``(X, Y)`` by direct trajectory execution.

    ``X`` is marginally distributed as ``p`` and ``Y`` as ``q``; the
    residual mass at each coordinate is coupled by the same proportional
    rule as :func:`build_dag`.  This path never touches the DAG, so it
    serves as an independent statistical cross-check of it.
    """
    check_same_domain(p, q)
    n, qq, k1, k2 = p.n, p.q, p.k, q.k
    cp = p.components.tolist()
    cq = q.components.tolist()
    alpha = p.weights.tolist()
    beta = q.weights.tolist()
    xs: list[int] = []
    ys: list[int] = []
    for j in range(n):
        margs_p = [cp[s][j] for s in range(k1)]  # per component: list over values
        margs_q = [cq[t][j] for t in range(k2)]
        pbar = [sum(alpha[s] * margs_p[s][c] for s in range(k1)) for c in range(qq)]
        qbar = [sum(beta[t] * margs_q[t][c] for t in range(k2)) for c in range(qq)]
        ell = [
            min(
                min(margs_p[s][c] for s in range(k1) if alpha[s] > 0.0),
                min(margs_q[t][c] for t in range(k2) if beta[t] > 0.0),
            )
            for c in range(qq)
        ]
        res_p = [max(pbar[c] - qbar[c], 0.0) for c in range(qq)]
        res_q = [max(qbar[c] - pbar[c], 0.0) for c in range(qq)]
        res_total = sum(res_p)

        outcomes: list[tuple[str, int, int, float]] = []
        for c in range(qq):
            if ell[c] > 0.0:
                outcomes.append(("I", c, c, ell[c]))
        for c in range(qq):
            w2 = min(pbar[c], qbar[c]) - ell[c]
            matched = any(
                alpha[s] > 0.0 and margs_p[s][c] > ell[c] for s in range(k1)
            ) and any(beta[t] > 0.0 and margs_q[t][c] > ell[c] for t in range(k2))
            if w2 > 0.0 and matched:
                outcomes.append(("II", c, c, w2))
        for c in range(qq):
            if res_p[c] <= 0.0:
                continue
            for cc in range(qq):
                if res_q[cc] > 0.0:
                    outcomes.append(("III", c, cc, res_p[c] * res_q[cc] / res_total))

        u = rng.random()  # outcome weights sum to 1 up to rounding
        acc = 0.0
        kind, c, cc, _ = outcomes[-1]
        for outcome in outcomes:
            acc += outcome[3]
            if u < acc:
                kind, c, cc, _ = outcome
                break
        xs.append(c)
        ys.append(cc)
        if kind == "II":
            alpha = _scalar_updated(alpha, [margs_p[s][c] for s in range(k1)], ell[c])
            beta = _scalar_updated(beta, [margs_q[t][c] for t in range(k2)], ell[c])
        elif kind == "III":
            alpha = _scalar_updated(alpha, [margs_p[s][c] for s in range(k1)], ell[c])
            beta = _scalar_updated(beta, [margs_q[t][cc] for t in range(k2)], ell[cc])
            s = _scalar_pick(rng, alpha)
            t = _scalar_pick(rng, beta)
            for i in range(j + 1, n):
                xs.append(_scalar_pick(rng, cp[s][i]))
            for i in range(j + 1, n):
                ys.append(_scalar_pick(rng, cq[t][i]))
            break
    return tuple(xs), tuple(ys)
