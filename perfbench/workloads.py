"""Workload definitions: seeded instance generators, references, CLI queries and gates.

Each workload owns one instance family.  The instance is drawn from the run's
seed; the program under test only ever sees the instance JSON file.  Every
query's output is checked against a reference computed by a different code
path, with a gate that does not depend on the sampler's random stream.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mixtv import model, oracle, subcube

# Failure probability of the Hoeffding gate for one correct approx query.
HOEFFDING_DELTA = 1e-9
EXACT_TOL = 1e-12
TV_RANGE = (0.1, 0.9)
# --epsilon of approx queries: required by the CLI, unused once --samples is given.
EPSILON = 0.1
MAX_DRAWS = 200


# ---------------------------------------------------------------------------
# Instance families
# ---------------------------------------------------------------------------


def perturbed_pair(
    rng: np.random.Generator, n: int, q: int, k: int, delta: float = 0.1, blend: float = 0.7, conc: float = 1.5
):
    """General pair where Q is a perturbed copy of P.

    P draws Dirichlet(1) weights and Dirichlet(``conc``) marginal rows.  Q's
    component ``t`` is ``(1 - delta) P_t + delta D_t`` row by row, and Q's
    weights are ``(1 - blend) w_P + blend * Dirichlet``.  Coupling P_t with
    Q_t coordinate by coordinate agrees with probability at least
    ``(1 - delta)^n``, so ``TV <= blend + (1 - blend) (1 - (1 - delta)^n)``:
    0.884 at n = 9.  Rows flatter than Dirichlet(1) spread the failed
    trajectories over many configurations, so the estimator's f-value cache
    hits about as rarely on every seed.
    """
    wp = rng.dirichlet(np.ones(k))
    cp = rng.dirichlet(np.full(q, conc), size=(k, n))
    wq = (1.0 - blend) * wp + blend * rng.dirichlet(np.ones(k))
    cq = (1.0 - delta) * cp + delta * rng.dirichlet(np.full(q, conc), size=(k, n))
    return model.validate_mixture((wp, cp)), model.validate_mixture((wq, cq))


def windowed_subcube_pair(rng: np.random.Generator, n: int, window: int, k1: int, k2: int, fixed: int = 3):
    """Uniformly weighted subcube pair whose fixed coordinates lie in ``0..window-1``.

    The window is cut into one stratum per fixed slot (``fixed`` slots per
    component) and each slot takes a random coordinate of its stratum, so
    the layers where the coupling branches are spread the same way for every
    seed; the strata are dealt to components at random.  A component may
    draw one coordinate twice when the window is narrower than the slot
    count, so it fixes "about" ``fixed`` coordinates.  A fixed coordinate
    takes the value of one random target point, so every cube contains that
    point and no two cubes conflict: every cube intersection is non-empty,
    which keeps the exact path's big-integer work the same for every seed.
    Coordinates from ``window`` on are uniform in every component.
    """
    slots = (k1 + k2) * fixed
    edges = np.linspace(0.0, window, slots + 1)
    pos = np.floor(edges[:-1] + rng.random(slots) * np.diff(edges)).astype(np.int64)
    pos = rng.permutation(pos).reshape(k1 + k2, fixed)
    target = rng.integers(0, 2, size=window)
    comps = np.full((k1 + k2, n, 2), 0.5)
    for s in range(k1 + k2):
        comps[s, pos[s]] = np.eye(2)[target[pos[s]]]
    p = model.validate_mixture((np.full(k1, 1.0 / k1), comps[:k1]))
    q = model.validate_mixture((np.full(k2, 1.0 / k2), comps[k1:]))
    return p, q


def coupling_layer_sizes(p, q) -> list[int]:
    """Layer sizes of the coupling DAG of ``p`` and ``q``, derived without building it.

    Which states exist depends only on which components are active, never on
    their weights: a state with active sets (A, B) has one Type-I child
    (same sets) when some shared lower bound ``ell_c`` is positive, and a
    Type-II child per value ``c`` at which both sides keep a component with
    marginal above ``ell_c``; those components form the child's sets.  A DP
    over active-set pairs therefore counts the states of every layer.
    """
    cp, cq = p.components.tolist(), q.components.tolist()
    start = (tuple(np.flatnonzero(p.weights > 0)), tuple(np.flatnonzero(q.weights > 0)))
    layer = {start: 1}
    sizes = [1]
    for j in range(p.n):
        nxt: dict = {}
        for (a, b), count in layer.items():
            ell = [min(min(cp[s][j][c] for s in a), min(cq[t][j][c] for t in b)) for c in range(p.q)]
            children = [(a, b)] if sum(ell) > 0.0 else []
            for c in range(p.q):
                a2 = tuple(s for s in a if cp[s][j][c] > ell[c])
                b2 = tuple(t for t in b if cq[t][j][c] > ell[c])
                if a2 and b2:
                    children.append((a2, b2))
            for child in children:
                nxt[child] = nxt.get(child, 0) + count
        layer = nxt
        sizes.append(sum(nxt.values()))
    return sizes


def truncated_brute_force_tv(p, q, window: int) -> float:
    """Brute-force TV on the first ``window`` coordinates.

    Exact when every component is uniform beyond the window: both mixtures
    are then (window part) x (uniform part), and the uniform factor cancels.
    """
    for m in (p, q):
        if not np.all(m.components[:, window:, :] == 0.5):
            raise ValueError("coordinates beyond the window are not uniform")
    p_head, q_head = (model.validate_mixture((m.weights, m.components[:, :window])) for m in (p, q))
    return oracle.brute_force_tv(p_head, q_head)


def instance_digest(doc) -> str:
    """The digest the CLI reports for an instance document (canonical JSON, SHA-256)."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[np.random.Generator], tuple]  # rng -> (p, q)
    reference: Callable[[object, object], float]  # (p, q) -> independent TV
    command: str  # "approx" or "exact-subcube"
    samples: int | None = None  # --samples of every approx query
    # Accepted range of coupling DAG states; draws outside it are redrawn, so
    # that the per-query cost does not swing with the seed.
    states: tuple[int, int] | None = None

    def instance(self, seed: int):
        """The seed's instance pair, its reference TV and the reference's time.

        The first draw whose DAG size is in range and whose reference TV lies
        in TV_RANGE is taken.
        """
        rng = np.random.default_rng(seed)
        for _ in range(MAX_DRAWS):
            p, q = self.make(rng)
            if self.states is not None and not self.states[0] <= sum(coupling_layer_sizes(p, q)) <= self.states[1]:
                continue
            t0 = time.perf_counter()
            tv_ref = float(self.reference(p, q))
            reference_s = time.perf_counter() - t0
            if TV_RANGE[0] < tv_ref < TV_RANGE[1]:
                return p, q, tv_ref, reference_s
        raise RuntimeError(
            f"{self.name}: no instance with {self.states} DAG states and reference TV in {TV_RANGE} "
            f"in {MAX_DRAWS} draws"
        )

    def argv(self, instance_path: str, query_seed: int) -> list[str]:
        """CLI arguments of one query; only flags the package keeps are passed."""
        if self.command == "approx":
            return [
                "approx",
                "--input", instance_path,
                "--epsilon", repr(EPSILON),
                "--seed", str(query_seed),
                "--samples", str(self.samples),
            ]
        return ["exact-subcube", "--input", instance_path]

    def halfwidth(self, discrepancy: float) -> float:
        """Hoeffding half-width of ``estimate = discrepancy * mean(f)``, f in [0, 1]."""
        return discrepancy * math.sqrt(math.log(2.0 / HOEFFDING_DELTA) / (2.0 * self.samples))

    def check(self, report: dict, tv_ref: float, digest: str) -> str | None:
        """Return why one query's JSON report is wrong, or None when it passes."""
        if report.get("digest") != digest:
            return f"digest {report.get('digest')} is not the instance's {digest}"
        res = report.get("result", {})
        if self.command == "exact-subcube":
            tv = res.get("tv")
            if not isinstance(tv, float) or not abs(tv - tv_ref) <= EXACT_TOL:
                return f"tv {tv!r} differs from reference {tv_ref!r} by more than {EXACT_TOL}"
            return None
        est, disc, samples = res.get("estimate"), res.get("discrepancy"), res.get("samples")
        if samples != self.samples:
            return f"samples {samples!r} != {self.samples}"
        if not isinstance(est, float) or not isinstance(disc, float):
            return f"estimate {est!r} or discrepancy {disc!r} is not a number"
        if not 0.0 <= est <= disc:
            return f"estimate {est!r} outside [0, discrepancy {disc!r}]"
        if disc < tv_ref - 1e-9:
            return f"discrepancy {disc!r} below reference TV {tv_ref!r}"
        if not abs(est - tv_ref) <= self.halfwidth(disc):
            return (
                f"|estimate {est!r} - reference {tv_ref!r}| exceeds the Hoeffding "
                f"half-width {self.halfwidth(disc):.4g}"
            )
        return None


def workloads(toy: bool = False) -> dict[str, Workload]:
    """The benchmark's workloads; ``toy`` shrinks every size so all run in seconds."""
    if toy:
        wide = dict(n=6, q=3, k=2)
        deep = dict(n=40, window=40, k1=2, k2=2)
        exact = dict(n=300, window=10, k1=3, k2=3)
    else:
        wide = dict(n=9, q=4, k=3)
        deep = dict(n=400, window=400, k1=3, k2=3)
        exact = dict(n=20_000, window=20, k1=7, k2=6)
    return {
        "approx-wide": Workload(
            name="approx-wide",
            why="wide shallow coupling DAG: the dense per-sample failure-mass DP dominates",
            make=lambda rng: perturbed_pair(rng, **wide),
            reference=oracle.brute_force_tv,
            command="approx",
            samples=60 if toy else 1000,
            states=None if toy else (54_000, 57_000),
        ),
        "approx-deep": Workload(
            name="approx-deep",
            why="deep thin coupling DAG: per-layer overhead, trajectory draws and the mass loop matter",
            make=lambda rng: windowed_subcube_pair(rng, **deep),
            reference=subcube.exact_subcube_tv,
            command="approx",
            samples=60 if toy else 100,
            states=None if toy else (118_000, 124_000),
        ),
        "exact-wide": Workload(
            name="exact-wide",
            why="exact subcube path: the 3^K inclusion-exclusion chi table and a 3 MB instance parse",
            make=lambda rng: windowed_subcube_pair(rng, **exact),
            reference=lambda p, q: truncated_brute_force_tv(p, q, exact["window"]),
            command="exact-subcube",
        ),
    }
