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

:func:`build_dag` returns the DAG complete: after the forward pass over the
layers, one backward pass fills each state's failure probability, so the
discrepancy is a table read.  The forward pass does full work only at
layers where the states change: a layer whose states take only Type-I
edges passes them on as they are, and at a coordinate whose marginals
repeat the previous one's the DAG holds that layer's record again; the
failure table is kept per depth.  A state is named by its layer and its
row in that layer, ``(layer, index)``.  The backward pass and both block
queries take one step per layer.  The sampling query walks a block of
failure-conditioned draws down the DAG together, weighing each edge of the
rows it stands on by the failure probability of the edge's target, and the
evaluation query is one forward pass per block of configurations over the
states whose paths agree with them.  A direct trajectory simulator (:func:`simulate_coupling`)
provides an independent path for statistical cross-validation of the DAG.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    FactViolation,
    NoActiveComponent,
    ShapeMismatch,
    TooLarge,
    ZeroDiscrepancy,
)
from .model import Mixture, as_configurations, check_same_domain, config_count


# ---------------------------------------------------------------------------
# DAG construction
# ---------------------------------------------------------------------------


class TransitionKind(str, Enum):
    TYPE_I = "I"
    TYPE_II = "II"
    TYPE_III = "III"


class State(NamedTuple):
    """A reachable coupling state: its layer, its row there, and its reweightings.

    A state is its layer plus the bytes of its reweightings: paths that
    reach a layer with byte-equal ``(alpha_bar, beta_bar)`` share one state
    (exact equality, no float tolerance).  ``(layer, index)`` names it:
    ``index`` is its row in the layer, in creation order.  ``p_fail`` is the
    probability that the coupling fails from it.
    """

    layer: int  # 1-based; layer n + 1 holds the terminal states
    index: int
    alpha_bar: np.ndarray
    beta_bar: np.ndarray
    p_fail: float

    @property
    def active_count(self) -> int:
        return int((self.alpha_bar > 0.0).sum() + (self.beta_bar > 0.0).sum())


class Transition(NamedTuple):
    source: tuple[int, int]  # (layer, index)
    kind: TransitionKind
    label: int | tuple[int, int]  # value c, or the mismatched pair (c, c')
    weight: float
    target: tuple[int, int] | None  # (layer, index); None is the failure sink


@dataclass
class _Layer:
    """One coordinate's forward step, filled by :func:`build_dag`; row ``m`` is the ``m``-th state.

    Layers may share arrays: a layer reached only by Type-I edges holds its
    parent layer's ``alpha`` and ``beta``, and at a repeated coordinate the
    DAG holds its parent's record itself again, so a record holds nothing
    that differs by depth.  Every array is read-only, so no write can reach
    several layers.  A state's total Type-III mass is ``res_p.sum(axis=1)``,
    summed where read.
    A layer that every path fails before holds no state (``M = 0``).
    """

    alpha: np.ndarray  # (M, k1) current P-side weights
    beta: np.ndarray  # (M, k2)
    # Transition tables, absent on the terminal layer:
    w1: np.ndarray | None = None  # (M, q) Type-I weight per value
    w2: np.ndarray | None = None  # (M, q) Type-II weight per value
    res_p: np.ndarray | None = None  # (M, q) unmatched P-side mass per value
    res_q: np.ndarray | None = None  # (M, q)
    # (M, q + 1) child rows: column 0 the shared Type-I child, column 1 + c
    # the Type-II child at value c; -1 where there is none.
    children: np.ndarray | None = None
    upd_alpha: np.ndarray | None = None  # (M, k1, q) reweighted P-side per value

    @property
    def size(self) -> int:
        return int(self.alpha.shape[0])


def _gather(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """values[idx] with idx == -1 mapping to 0: -1 reads an appended zero."""
    return np.append(values, 0.0)[idx]


class CouplingDag:
    """Explicit state graph of the recursive coupling of two mixtures.

    Built whole by :func:`build_dag` and read-only afterwards; all queries
    may run concurrently.  ``_layers[d]`` is the record of layer ``d + 1``,
    which several depths may share; ``_pfail[d]`` is depth ``d``'s own.
    """

    def __init__(self, mix_p: Mixture, mix_q: Mixture, layers: list[_Layer], pfail: list):
        self.mix_p = mix_p
        self.mix_q = mix_q
        self._layers = layers
        self._pfail = pfail  # (M,) per depth: probability that the coupling fails from here

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
        return any((lay.res_p > 0.0).any() for lay in self._layers[:-1])

    @property
    def num_states(self) -> int:
        """Reachable states, counting the failure sink when it is reachable."""
        return sum(self.layer_sizes) + (1 if self.failure_reachable else 0)

    @property
    def num_transitions(self) -> int:
        total, count, prev = 0, 0, None
        for lay in self._layers[:-1]:
            if lay is not prev:  # the depths of a shared record have one count
                prev, count = lay, int((lay.w1 > 0.0).sum()) + int((lay.w2 > 0.0).sum())
                count += int(((lay.res_p > 0.0).sum(axis=1) * (lay.res_q > 0.0).sum(axis=1)).sum())
            total += count
        return total

    def state_bound(self) -> int:
        """Worst-case state count ``(nq + 1)^(k1 + k2 - 1) + 1`` (exact integer)."""
        return (self.n * self.q + 1) ** (self.k1 + self.k2 - 1) + 1

    # -- state / transition views ----------------------------------------

    def iter_states(self) -> Iterator[State]:
        """All non-failure states in (layer, index) order."""
        for depth, (lay, pfail) in enumerate(zip(self._layers, self._pfail)):
            for m, pf in enumerate(pfail.tolist()):
                yield State(depth + 1, m, lay.alpha[m].copy(), lay.beta[m].copy(), pf)

    def iter_transitions(self) -> Iterator[Transition]:
        """All materialized transitions; weights of a state sum to 1."""
        for depth, lay in enumerate(self._layers[:-1]):
            layer, nxt = depth + 1, depth + 2
            tables = (lay.w1, lay.w2, lay.res_p, lay.res_q, lay.children, lay.res_p.sum(axis=1))
            rows = enumerate(zip(*(table.tolist() for table in tables)))
            for m, (w1, w2, res_p, res_q, kids, total) in rows:  # total > 0 wherever some res_p is
                src = (layer, m)
                for c, w in enumerate(w1):
                    if w > 0.0:
                        yield Transition(src, TransitionKind.TYPE_I, c, w, (nxt, kids[0]))
                for c, w in enumerate(w2):
                    if w > 0.0:
                        yield Transition(src, TransitionKind.TYPE_II, c, w, (nxt, kids[c + 1]))
                for c, rp in enumerate(res_p):
                    if rp <= 0.0:
                        continue
                    for cc, rq in enumerate(res_q):
                        if rq > 0.0:
                            w = rp * rq / total
                            yield Transition(src, TransitionKind.TYPE_III, (c, cc), w, None)

    def statistics(self) -> dict:
        """Summary used by the CLI: counts, per-layer histogram, discrepancy."""
        sizes, reachable = self.layer_sizes, self.failure_reachable
        return {
            "n": self.n,
            "q": self.q,
            "k1": self.k1,
            "k2": self.k2,
            "num_states": sum(sizes) + int(reachable),
            "num_transitions": self.num_transitions,
            "layer_sizes": sizes,
            "state_bound": self.state_bound(),
            "failure_reachable": reachable,
            "discrepancy": failure_probability(self),
        }

    def to_dict(self) -> dict:
        """Full diagnostic dump: statistics, :meth:`iter_states` and :meth:`iter_transitions`."""
        states = [
            {**s._asdict(), "alpha_bar": s.alpha_bar.tolist(), "beta_bar": s.beta_bar.tolist()}
            for s in self.iter_states()
        ]
        transitions = [{**t._asdict(), "kind": t.kind.value} for t in self.iter_transitions()]
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
    bits = rows.view(np.uint64)
    h = _row_hash(bits)
    order = np.argsort(h)
    hs = h[order]
    new_group = np.empty(m, dtype=bool)
    new_group[:1] = True
    np.not_equal(hs[1:], hs[:-1], out=new_group[1:])
    first = np.minimum.reduceat(order, np.flatnonzero(new_group))
    rep = np.empty(m, dtype=np.int64)
    rep[order] = first[np.cumsum(new_group) - 1]
    dup = np.flatnonzero(rep != np.arange(m))
    differ = dup[(bits[dup] != bits[rep[dup]]).any(axis=1)]
    rep[differ] = differ
    keep = rep == np.arange(m)
    return keep, (np.cumsum(keep) - 1)[rep]


def _side_bounds(w: np.ndarray, marg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One side's aggregate marginal and per-value bounds over its active components, ``(M, q)`` each.

    ``w`` is the side's ``(M, k)`` weights, ``marg`` its ``(k, q)`` marginals at the
    coordinate.  One pass per component, in component order, adds ``marg[s] * w[:, s]``
    elementwise to component 0's term, so no BLAS kernel sets the aggregate's bits;
    a state with no active component gets the bounds ``inf`` and ``-inf``.  The
    passes run value-major, on ``(q, M)`` arrays whose rows are long where ``q``
    is short, and the results are transposed back to C order.
    """
    wt = np.ascontiguousarray(w.T)
    bar = marg[0, :, None] * wt[0]
    lo, hi = np.full_like(bar, np.inf), np.full_like(bar, -np.inf)
    for s, row in enumerate(marg[:, :, None]):
        if s:
            bar += row * wt[s]
        act = wt[s] > 0.0
        np.minimum(lo, np.where(act, row, np.inf), out=lo)
        np.maximum(hi, np.where(act, row, -np.inf), out=hi)
    return np.ascontiguousarray(bar.T), np.ascontiguousarray(lo.T), np.ascontiguousarray(hi.T)


def _reweighted(
    w: np.ndarray, marg: np.ndarray, ell: np.ndarray, bar: np.ndarray, deg: np.ndarray
) -> np.ndarray:
    """One side's reweighted weights, ``w * (marg - ell) / (bar - ell)``.

    The quotient is taken where the side is not degenerate (``deg``) and
    the denominator is positive, and ``w`` is kept elsewhere.  The
    arguments broadcast to the result's shape: ``(M, k, q)`` for the
    P-side table of every state and value, ``(T, k)`` for the Q side at
    the ``T`` Type-II pairs that become children.
    """
    den = bar - ell
    # An inactive component may have a marginal below ell; clamping its
    # excess at +0.0 keeps its reweighted weight +0.0 instead of -0.0.
    # Active components have marginals at least ell, so theirs is exact.
    num = np.maximum(marg - ell, 0.0)
    num *= w
    out = np.broadcast_to(w, num.shape).copy()  # w repeated over the values
    return np.divide(num, den, out=out, where=~deg & (den > 0.0))


def build_dag(p: Mixture, q: Mixture, max_states: int | None = None) -> CouplingDag:
    """Expand the recursive coupling of ``p`` and ``q`` breadth-first by layer.

    Per state and value ``c``: a Type-I edge with weight ``ell`` (the shared
    lower bound), a Type-II edge with weight ``min(pbar, qbar) - ell`` to the
    reweighted child, and Type-III edges to the failure sink with the
    proportional residual rule ``w(c, c') = res_p(c) * res_q(c') / R``.
    Zero-weight edges are never materialized; all Type-I edges of a state
    share one child.  The children of a layer whose ``[alpha | beta]`` rows
    are byte-equal are merged into the first-created one.  Byte-equal rows
    get byte-equal tables, so the merge changes no edge weight, failure
    probability or sampled value.
    Weights are stored with canonical zeros (never ``-0.0``), so equal
    reweightings are byte-equal.

    A stepped layer's work is on ``(M, q)`` arrays except for the stored
    P-side table ``upd_alpha``: each side's aggregate marginal and bounds
    take one pass per component, in component order (:func:`_side_bounds`),
    and the Q side is reweighted only at the Type-II pairs that become
    children, since no other Q-side reweighting is read.

    The forward pass appends one layer per coordinate.  A layer whose every
    state has a Type-I edge and none has a Type-II edge keeps every
    reweighting, so the next layer reuses its ``alpha`` and ``beta`` arrays
    with Type-I children ``arange(M)``; its rows are already pairwise
    distinct, so the merge is skipped.  When the next coordinate's
    marginals are byte-equal to this one's in every component, the next
    layer's forward step is the same function of the same inputs, so the
    next layer is this same record, and a record is never stepped twice:
    it is held again at each further repeated coordinate, and after the
    run its states pass on to a new record over the same arrays.  Either
    way the tables hold exactly the bytes a full step would compute.

    After the last layer, one backward pass fills each depth's failure
    probabilities, one depth at a time, a shared record's depths each
    included.  All stored arrays are then made read-only.

    Parameters
    ----------
    max_states : int, optional
        Abort with :class:`TooLarge` when the (merged) state count would
        exceed this; a carried-over layer counts all its states.  A value
        below 1 is a :class:`ShapeMismatch`.
    """
    check_same_domain(p, q)
    if max_states is not None and max_states < 1:
        raise ShapeMismatch(f"max_states must be at least 1, got {max_states}")
    n, qq = p.n, p.q
    root = _Layer(
        alpha=p.weights[None, :] + 0.0,  # + 0.0 turns a -0.0 weight into +0.0
        beta=q.weights[None, :] + 0.0,
    )
    if not root.alpha.any() or not root.beta.any():
        raise NoActiveComponent("a mixture has no active component")
    layers = [root]
    count = 1
    # repeat[j]: coordinate j's marginals are byte-equal to coordinate j - 1's
    # in every component of both mixtures; the terminal layer has no coordinate.
    bits_p, bits_q = p.components.view(np.uint64), q.components.view(np.uint64)
    repeat = [False] + (
        (bits_p[:, 1:] == bits_p[:, :-1]).all(axis=(0, 2))
        & (bits_q[:, 1:] == bits_q[:, :-1]).all(axis=(0, 2))
    ).tolist() + [False]

    for depth in range(n):
        lay = layers[depth]
        child = None
        # A record whose children are set is a carried record held again at
        # a repeated coordinate: its states pass on again, unstepped.
        if lay.children is None:
            m_here = lay.size
            a, b = lay.alpha, lay.beta
            pj = p.components[:, depth, :]  # (k1, q)
            qj = q.components[:, depth, :]  # (k2, q)
            pbar, min_p, max_p = _side_bounds(a, pj)  # (M, q) each
            qbar, min_q, max_q = _side_bounds(b, qj)
            ell = np.minimum(min_p, min_q)

            # Degeneracy is decided structurally (no active marginal above
            # ell), which matches exact arithmetic even when the aggregated
            # marginal rounds away from ell.
            deg_p = ~(max_p > ell)
            deg_q = ~(max_q > ell)
            w2_raw = np.minimum(pbar, qbar) - ell
            t2 = (w2_raw > 0.0) & ~deg_p & ~deg_q

            lay.w1 = ell
            lay.w2 = np.where(t2, w2_raw, 0.0)
            lay.res_p = np.maximum(pbar - qbar, 0.0)
            lay.res_q = np.maximum(qbar - pbar, 0.0)

            lay.upd_alpha = _reweighted(
                a[:, :, None], pj, ell[:, None, :], pbar[:, None, :], deg_p[:, None, :]
            )

            has1 = lay.w1.sum(axis=1) > 0.0
            n1 = int(has1.sum())
            par2, c2 = np.nonzero(t2)  # row-major: parent ascending, then value
            lay.children = np.full((m_here, qq + 1), -1, dtype=np.int64)
            if n1 == m_here and par2.size == 0:
                # Only Type-I edges: every state passes on with its
                # reweighting.  A layer's rows are pairwise distinct (merged
                # or carried over), so the merge would keep every row in
                # place; it is skipped.
                lay.children[:, 0] = np.arange(m_here)
            else:
                # Children in creation order: Type-I children by parent, then
                # Type-II children by (parent, value).  Only the Type-II
                # children read a Q-side reweighting.
                upd_beta = _reweighted(
                    b[par2], qj[:, c2].T,
                    ell[par2, c2, None], qbar[par2, c2, None], deg_q[par2, c2, None],
                )
                alpha = np.concatenate([a[has1], lay.upd_alpha[par2, :, c2]], axis=0)
                beta = np.concatenate([b[has1], upd_beta], axis=0)
                keep, index = _merge_equal_rows(np.concatenate([alpha, beta], axis=1))
                lay.children[has1, 0] = index[:n1]
                lay.children[par2, c2 + 1] = index[n1:]
                child = _Layer(alpha=alpha[keep], beta=beta[keep])
        if child is None:
            # The states pass on: a repeated coordinate holds this same record.
            child = lay if repeat[depth + 1] else _Layer(alpha=lay.alpha, beta=lay.beta)
        count += child.size
        if max_states is not None and count > max_states:
            raise TooLarge(f"state count exceeded max_states={max_states} at layer {len(layers) + 1}")
        layers.append(child)

    pfail = [None] * n + [np.zeros(layers[-1].size)]
    for depth in range(n - 1, -1, -1):
        lay = layers[depth]
        if lay is not layers[depth + 1]:  # a shared record's row sums carry over
            w1_sum, res_sum = lay.w1.sum(axis=1), lay.res_p.sum(axis=1)
        pf = _gather(pfail[depth + 1], lay.children)
        pfail[depth] = w1_sum * pf[:, 0] + (lay.w2 * pf[:, 1:]).sum(axis=1) + res_sum
    for table in [*pfail, *(t for lay in layers for t in vars(lay).values())]:
        if table is not None:
            table.flags.writeable = False
    return CouplingDag(p, q, layers, pfail)


# ---------------------------------------------------------------------------
# Queries on the DAG
# ---------------------------------------------------------------------------


def failure_probability(dag: CouplingDag) -> float:
    """Probability that the coupling fails: the root's entry of the failure table.

    :func:`build_dag` fills the table by backward DP over the layers.  Always
    at least the total variation distance of the two mixtures (coupling
    inequality).
    """
    return float(dag._pfail[0][0])


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
    row's value does not depend on the other rows of the block.  The
    triples of the terminal layer are never built.
    """
    cfgs = as_configurations(dag.mix_p, sigmas)
    n_cfg, n = cfgs.shape
    comp = dag.mix_p.components
    k1, qq = comp.shape[0], comp.shape[2]
    # tails[b, s]: mass that failed at an earlier layer with P-side component
    # s, times component s's probability of sigma_b's coordinates since then.
    tails = np.zeros((n_cfg, k1))
    idx = np.arange(n_cfg)
    rows = np.zeros(n_cfg, dtype=np.int64)
    reach = np.ones(n_cfg)
    for depth in range(n):
        lay = dag._layers[depth]
        cell = rows * qq + cfgs[idx, depth]  # flat index of (row, sigma_j) in a (M, q) table
        tails *= comp[:, depth, cfgs[:, depth]].T
        failed = lay.res_p.take(cell)
        failed *= reach
        cell_alpha = cell + rows * ((k1 - 1) * qq)  # flat index of (row, 0, sigma_j) in upd_alpha
        for s in range(k1):
            terms = lay.upd_alpha.take(cell_alpha)
            terms *= failed
            tails[:, s] += np.bincount(idx, weights=terms, minlength=n_cfg)
            cell_alpha += qq
        if depth == n - 1:  # nothing reads the triples of the terminal layer
            break
        w1 = lay.w1.take(cell)
        child2 = lay.children.take(cell + rows + 1)  # (row, 1 + sigma_j) in children
        go1, go2 = w1 > 0.0, child2 >= 0
        idx = np.concatenate([idx[go1], idx[go2]])
        reach = np.concatenate([reach[go1] * w1[go1], reach[go2] * lay.w2.take(cell[go2])])
        rows = np.concatenate([lay.children.take(rows[go1] * (qq + 1)), child2[go2]])
    total = tails[:, 0].copy()
    for s in range(1, k1):
        total += tails[:, s]
    return total


def evaluate_failure_mass(dag: CouplingDag, sigma: Sequence[int]) -> float:
    """Probability that the coupling fails with first sample exactly ``sigma``.

    A one-row :func:`failure_masses` call.
    """
    return float(failure_masses(dag, [sigma])[0])


def failure_mass_table(dag: CouplingDag, max_configs: int = 2**14) -> np.ndarray:
    """Failure mass of every configuration in lexicographic order (size-guarded).

    One :func:`failure_masses` call per :data:`BLOCK` configurations.
    """
    total = config_count(dag.mix_p, max_configs)
    configs = np.array(list(product(range(dag.q), repeat=dag.n)), dtype=np.int64)
    return np.concatenate(
        [failure_masses(dag, configs[i : i + BLOCK]) for i in range(0, total, BLOCK)]
    )


# ---------------------------------------------------------------------------
# Conditional sampling
# ---------------------------------------------------------------------------


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
    pick an edge, the rows that failed earlier draw their tail coordinates.
    """
    if count < 1:
        raise ShapeMismatch(f"count must be at least 1, got {count}")
    if failure_probability(dag) <= 0.0:
        raise ZeroDiscrepancy("the coupling never fails; nothing to condition on")
    cum_comp = np.cumsum(dag.mix_p.components, axis=2)  # (k1, n, q)
    qq, n = dag.q, dag.n
    u = rng.random((count, n + 1))
    out = np.empty((count, n), dtype=np.int64)
    walking = np.arange(count)  # draws still on the DAG
    rows = np.zeros(count, dtype=np.int64)  # their states in the current layer
    failed = np.zeros(0, dtype=np.int64)  # draws past their failure layer
    component = np.zeros(0, dtype=np.int64)  # their P-side components
    for depth in range(n):
        lay = dag._layers[depth]
        if failed.size:
            out[failed, depth] = _pick_rows(u[failed, depth + 1], cum_comp[component, depth])
        if not walking.size:
            continue
        # The walked rows' edge weights times p_fail at each edge's target:
        # [w1 pf(I child) | w2 pf(II child) | res_p], cumulated per row.
        pf = _gather(dag._pfail[depth + 1], lay.children[rows])
        slots = np.concatenate([pf[:, :1] * lay.w1[rows], lay.w2[rows] * pf[:, 1:], lay.res_p[rows]], axis=1)
        band, c = np.divmod(_pick_rows(u[walking, depth], np.cumsum(slots, axis=1)), qq)
        out[walking, depth] = c
        fail = band == 2
        if fail.any():
            weights = np.cumsum(lay.upd_alpha[rows[fail], :, c[fail]], axis=1)
            failed = np.concatenate([failed, walking[fail]])
            component = np.concatenate([component, _pick_rows(u[walking[fail], depth + 1], weights)])
            stay = ~fail
            walking, rows, band, c = walking[stay], rows[stay], band[stay], c[stay]
        # Column 0 of children for a Type-I edge (band 0), column 1 + c for Type-II.
        rows = lay.children.take(rows * (qq + 1) + band * (c + 1))
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
        res_sum = sum(res_p)

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
                    outcomes.append(("III", c, cc, res_p[c] * res_q[cc] / res_sum))

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
