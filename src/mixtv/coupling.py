"""Recursive coupling of two mixtures compiled to an explicit state DAG.

The coupling walks the coordinates left to right.  At each coordinate it
extracts the probability mass shared by every active component of both
mixtures (the per-value lower bound), matches as much of the remainder as
possible under reweighted components, and couples whatever is left as a
mismatch.  Each reachable combination of (coordinate, reweighting) is a
state; the walk over states is a layered DAG with three transition kinds:

* Type-I   -- shared mass, both samples take value ``c``, weights unchanged;
* Type-II  -- matched remainder at value ``c``, weights reweighted, at least
  one previously active component becomes inactive;
* Type-III -- mismatch ``(c, c')``, absorbing failure sink.

Dynamic programs over the DAG answer the discrepancy, conditional-sampling,
and evaluation queries used by the Monte Carlo estimator.  A direct
trajectory simulator (:func:`simulate_coupling`) provides an independent
path for statistical cross-validation of the DAG.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    NoActiveComponent,
    ShapeMismatch,
    TooLarge,
    ZeroDiscrepancy,
)
from .model import Mixture, as_configuration, check_same_domain


# ---------------------------------------------------------------------------
# Per-value lower bound and component reweighting
# ---------------------------------------------------------------------------


def lower_bound(
    p: Mixture,
    q: Mixture,
    j: int,
    alpha_bar: Sequence[float],
    beta_bar: Sequence[float],
    c: int,
) -> float:
    """Shared lower bound on the coordinate-``j`` marginals at value ``c``.

    Returns the minimum of ``p.components[s, j-1, c]`` over active ``s``
    (``alpha_bar[s] > 0``) and ``q.components[t, j-1, c]`` over active
    ``t``.  The result is bit-identical to one of the stored marginals:
    it is a true minimum of stored values, never recomputed, which is what
    guarantees an exact zero in the reweighting below.
    """
    check_same_domain(p, q)
    if not 1 <= j <= p.n:
        raise ShapeMismatch(f"coordinate j={j} outside 1..{p.n}")
    if not 0 <= c < p.q:
        raise ShapeMismatch(f"value c={c} outside 0..{p.q - 1}")
    a = np.asarray(alpha_bar, dtype=float)
    b = np.asarray(beta_bar, dtype=float)
    if a.shape != (p.k,) or b.shape != (q.k,):
        raise ShapeMismatch("reweighting vectors do not match the component counts")
    act_a, act_b = a > 0.0, b > 0.0
    if not act_a.any() or not act_b.any():
        raise NoActiveComponent("a side of the coupling has no active component")
    return float(
        min(p.components[act_a, j - 1, c].min(), q.components[act_b, j - 1, c].min())
    )


def _updated_weights(w: np.ndarray, margs: np.ndarray, ell: float) -> np.ndarray:
    """Reweight ``w`` by the marginal excess over ``ell`` at one value.

    When no active component has a marginal strictly above ``ell`` the
    excess is identically zero and the weights are returned unchanged
    (the degenerate case; tested structurally rather than via a float
    comparison of the aggregated marginal).  Otherwise a component whose
    marginal equals ``ell`` exactly gets weight exactly 0.0.
    """
    act = w > 0.0
    if not (margs[act] > ell).any():
        return w.copy()
    den = float(w @ margs) - ell
    if den <= 0.0:  # rounding corner: exact arithmetic says den > 0
        return w.copy()
    return w * (margs - ell) / den


def update_weights(
    p: Mixture,
    q: Mixture,
    j: int,
    alpha_bar: Sequence[float],
    beta_bar: Sequence[float],
    c: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Reweighted component vectors after matching value ``c`` at coordinate ``j``.

    Applies ``w_s * (marg_s - ell) / (wbar - ell)`` on each side, where
    ``ell`` is :func:`lower_bound` and ``wbar`` the aggregated marginal;
    each side is returned unchanged when its excess over ``ell`` vanishes.
    """
    ell = lower_bound(p, q, j, alpha_bar, beta_bar, c)
    a = np.asarray(alpha_bar, dtype=float)
    b = np.asarray(beta_bar, dtype=float)
    new_a = _updated_weights(a, p.components[:, j - 1, c], ell)
    new_b = _updated_weights(b, q.components[:, j - 1, c], ell)
    return new_a, new_b


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

    ``path_key`` encodes the choices from the root: symbol 0 for a Type-I
    step, symbol ``c + 1`` for a Type-II step at value ``c``.  States are
    identified by their path key, never by float equality of the weight
    vectors.
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


def build_dag(p: Mixture, q: Mixture, max_states: int | None = None) -> CouplingDag:
    """Expand the recursive coupling of ``p`` and ``q`` breadth-first by layer.

    Per state and value ``c``: a Type-I edge with weight ``ell`` (the shared
    lower bound), a Type-II edge with weight ``min(pbar, qbar) - ell`` to the
    reweighted child, and Type-III edges to the failure sink with the
    proportional residual rule ``w(c, c') = res_p(c) * res_q(c') / R``.
    Zero-weight edges are never materialized; all Type-I edges of a state
    share one child; children are deduplicated by path key.

    Parameters
    ----------
    max_states : int, optional
        Abort with :class:`TooLarge` when the state count would exceed this.
    """
    check_same_domain(p, q)
    n, qq = p.n, p.q
    root = _Layer(
        alpha=p.weights[None, :].copy(),
        beta=q.weights[None, :].copy(),
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

        den_p = pbar - ell
        ok_p = ~deg_p & (den_p > 0.0)
        num_a = a[:, :, None] * (pj[None, :, :] - ell[:, None, :])
        quot_a = np.divide(
            num_a, den_p[:, None, :], out=np.zeros_like(num_a), where=ok_p[:, None, :]
        )
        lay.upd_alpha = np.where(ok_p[:, None, :], quot_a, a[:, :, None])

        den_q = qbar - ell
        ok_q = ~deg_q & (den_q > 0.0)
        num_b = b[:, :, None] * (qj[None, :, :] - ell[:, None, :])
        quot_b = np.divide(
            num_b, den_q[:, None, :], out=np.zeros_like(num_b), where=ok_q[:, None, :]
        )
        upd_beta = np.where(ok_q[:, None, :], quot_b, b[:, :, None])

        has1 = lay.w1.sum(axis=1) > 0.0
        n1 = int(has1.sum())
        par2, c2 = np.nonzero(t2)  # row-major: parent ascending, then value
        n2 = par2.size

        lay.child1 = np.full(m_here, -1, dtype=np.int64)
        lay.child1[has1] = np.arange(n1)
        lay.child2 = np.full((m_here, qq), -1, dtype=np.int64)
        lay.child2[par2, c2] = n1 + np.arange(n2)

        count += n1 + n2
        if max_states is not None and count > max_states:
            raise TooLarge(
                f"state count exceeded max_states={max_states} at layer {depth + 2}"
            )

        layers.append(
            _Layer(
                alpha=np.concatenate([a[has1], lay.upd_alpha[par2, :, c2]], axis=0),
                beta=np.concatenate([b[has1], upd_beta[par2, :, c2]], axis=0),
                parent=np.concatenate([np.flatnonzero(has1), par2]),
                symbol=np.concatenate(
                    [np.zeros(n1, dtype=np.int16), (c2 + 1).astype(np.int16)]
                ),
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


def _suffix_products(comp: np.ndarray, cfg: np.ndarray) -> np.ndarray:
    """sp[s, i] = prod_{u >= i} comp[s, u, cfg[u]], with sp[s, n] = 1."""
    k, n = comp.shape[0], cfg.shape[0]
    sp = np.ones((k, n + 1))
    if n:
        vals = comp[:, np.arange(n), cfg]
        sp[:, :n] = np.cumprod(vals[:, ::-1], axis=1)[:, ::-1]
    return sp


def evaluate_failure_mass(dag: CouplingDag, sigma: Sequence[int]) -> float:
    """Probability that the coupling fails with first sample exactly ``sigma``.

    Backward DP restricted to edges whose value label matches ``sigma`` at
    each layer; a Type-III edge at layer ``j`` contributes its residual mass
    times the suffix probability of ``sigma[j:]`` under the reweighted
    P-side components.
    """
    cfg = as_configuration(dag.mix_p, sigma)
    layers = dag._layers
    sp = _suffix_products(dag.mix_p.components, cfg)
    psi = np.zeros(layers[-1].size)
    for depth in range(dag.n - 1, -1, -1):
        lay = layers[depth]
        c = int(cfg[depth])
        t1 = lay.w1[:, c] * _gather(psi, lay.child1)
        t2 = lay.w2[:, c] * _gather(psi, lay.child2[:, c])
        tau = lay.upd_alpha[:, :, c] @ sp[:, depth + 1]
        psi = t1 + t2 + lay.res_p[:, c] * tau
    return float(psi[0])


def failure_mass_table(dag: CouplingDag, max_configs: int = 2**14) -> np.ndarray:
    """Failure mass of every configuration in lexicographic order (size-guarded).

    One :func:`evaluate_failure_mass` call per configuration.
    """
    total = dag.q**dag.n
    if total > max_configs:
        raise TooLarge(f"q^n = {total} exceeds max_configs={max_configs}")
    return np.array(
        [evaluate_failure_mass(dag, cfg) for cfg in product(range(dag.q), repeat=dag.n)]
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


def _pick_index(rng: np.random.Generator, cumulative: np.ndarray) -> int:
    u = rng.random() * cumulative[-1]
    slot = int(np.searchsorted(cumulative, u, side="right"))
    if slot >= cumulative.shape[0]:  # roundoff at the upper edge
        slot = cumulative.shape[0] - 1
    while slot > 0 and cumulative[slot] == cumulative[slot - 1]:
        slot -= 1
    return slot


def sample_failed_trajectory(dag: CouplingDag, rng: np.random.Generator) -> tuple[int, ...]:
    """One sample of the first coordinate sequence conditioned on failure.

    Walks the DAG from the root, choosing each edge with probability
    ``weight * p_fail(target) / p_fail(state)``; on the failure edge the
    remaining coordinates are completed by ancestral sampling under the
    reweighted P-side components, so the output is distributed exactly as
    the first sample conditioned on the coupling failing.
    """
    if failure_probability(dag) <= 0.0:
        raise ZeroDiscrepancy("the coupling never fails; nothing to condition on")
    tables = _walk_tables(dag)
    comp = dag.mix_p.components
    qq, n = dag.q, dag.n
    out: list[int] = []
    depth, row = 0, 0
    while True:
        slot = _pick_index(rng, tables[depth][row])
        band, c = divmod(slot, qq)
        out.append(c)
        if band == 0:
            row = int(dag._layers[depth].child1[row])
        elif band == 1:
            row = int(dag._layers[depth].child2[row, c])
        else:
            weights = dag._layers[depth].upd_alpha[row, :, c]
            s = _pick_index(rng, np.cumsum(weights))
            for i in range(depth + 1, n):
                out.append(_pick_index(rng, np.cumsum(comp[s, i])))
            return tuple(out)
        depth += 1


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
