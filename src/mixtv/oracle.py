"""Ground-truth references: exhaustive enumeration and instance generators.

Everything here is deliberately independent of the solver paths it checks:
the brute-force routines re-derive probabilities directly from the mixture
arrays by full enumeration, and the 3-CNF reduction predicts its distance
from a brute-force satisfying-assignment count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotASubcube,
    NotThreeCnf,
    ShapeMismatch,
    TooLarge,
    WrongAlphabet,
)
from .model import Mixture, check_same_domain, config_count, validate_mixture

_CHUNK = 1 << 16
# Enumeration guards: brute_force_chi_counts walks 2^n points and
# count_satisfying 2^r assignments.
CHI_COUNTS_MAX_N = 24
SAT_MAX_R = 24


def _config_block(start: int, stop: int, n: int, q: int) -> np.ndarray:
    """Configurations ``start..stop-1`` in lexicographic order, one per row."""
    idx = np.arange(start, stop, dtype=np.int64)
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // powers[None, :]) % q


def _block_masses(m: Mixture, block: np.ndarray) -> np.ndarray:
    """Mixture mass of each configuration row, vectorized over the block."""
    out = np.zeros(block.shape[0])
    cols = np.arange(m.n)
    for s in range(m.k):
        prods = np.ones(block.shape[0])
        for i in cols:
            prods *= m.components[s, i, block[:, i]]
        out += m.weights[s] * prods
    return out


def mass_table(m: Mixture, max_configs: int = 2**24) -> np.ndarray:
    """Mass of every configuration in lexicographic order (size-guarded)."""
    total = config_count(m, max_configs)
    out = np.empty(total)
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        out[start:stop] = _block_masses(m, _config_block(start, stop, m.n, m.q))
    return out


def brute_force_tv(p: Mixture, q: Mixture, max_configs: int = 2**24) -> float:
    """Total variation distance by full enumeration: sum of max(0, P - Q)."""
    check_same_domain(p, q)
    total = config_count(p, max_configs)
    acc = 0.0
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        block = _config_block(start, stop, p.n, p.q)
        acc += float(
            np.maximum(_block_masses(p, block) - _block_masses(q, block), 0.0).sum()
        )
    return acc


def brute_force_chi_counts(p: Mixture, q: Mixture) -> dict[tuple[int, ...], int]:
    """Feasibility-vector counts by direct enumeration of all points.

    Re-derives feasibility from the raw marginals (a point is feasible for
    a component iff its probability under that component is positive), so
    the result is independent of the inclusion-exclusion path it validates.
    """
    check_same_domain(p, q)
    if p.q != 2:
        raise WrongAlphabet(f"subcube counting needs q = 2, got q = {p.q}")
    for m in (p, q):
        marg1 = m.components[:, :, 1]
        near = (
            (np.abs(marg1) <= 1e-12)
            | (np.abs(marg1 - 0.5) <= 1e-12)
            | (np.abs(marg1 - 1.0) <= 1e-12)
        )
        if not near.all():
            raise NotASubcube("a marginal is not 0, 1/2, or 1")
    n = p.n
    if n > CHI_COUNTS_MAX_N:
        raise TooLarge(f"n = {n} exceeds the enumeration guard {CHI_COUNTS_MAX_N}")
    k_total = p.k + q.k
    counts = np.zeros(1 << k_total, dtype=np.int64)
    for start in range(0, 1 << n, _CHUNK):
        stop = min(start + _CHUNK, 1 << n)
        block = _config_block(start, stop, n, 2)
        idx = np.zeros(block.shape[0], dtype=np.int64)
        for f in range(k_total):
            comp = p.components[f] if f < p.k else q.components[f - p.k]
            feasible = np.ones(block.shape[0], dtype=bool)
            for i in range(n):
                feasible &= comp[i, block[:, i]] > 0.0
            idx |= feasible.astype(np.int64) << (k_total - 1 - f)
        counts += np.bincount(idx, minlength=1 << k_total)
    return {
        tuple((v >> (k_total - 1 - f)) & 1 for f in range(k_total)): int(counts[v])
        for v in range(1 << k_total)
    }


# ---------------------------------------------------------------------------
# 3-CNF reduction instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CnfFormula:
    """A 3-CNF formula: ``clauses`` hold signed 1-based variable indices."""

    r: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.r < 1:
            raise NotThreeCnf(f"need at least one variable, got r = {self.r}")
        if not self.clauses:
            raise NotThreeCnf("need at least one clause")
        canon = []
        for clause in self.clauses:
            lits = tuple(int(x) for x in clause)
            if len(lits) != 3 or any(lit == 0 for lit in lits):
                raise NotThreeCnf(f"clause {clause} is not three nonzero literals")
            variables = [abs(lit) for lit in lits]
            if len(set(variables)) != 3:
                raise NotThreeCnf(f"clause {clause} repeats a variable")
            if max(variables) > self.r:
                raise NotThreeCnf(f"clause {clause} references a variable beyond r = {self.r}")
            canon.append(tuple(sorted(lits, key=abs)))
        object.__setattr__(self, "clauses", tuple(canon))

    @property
    def m(self) -> int:
        return len(self.clauses)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse a DIMACS CNF document: one ``p cnf r m`` header, then 0-terminated clauses.

    A line starting with ``%`` ends the clause list, as in SATLIB's uniform
    random 3-SAT files, which close with a ``%`` line and a lone ``0``.
    """
    tokens: list[str] = []
    header: tuple[int, int] | None = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise NotThreeCnf(f"second DIMACS header: {line!r}")
            parts = line.split()
            try:
                header = (int(parts[2]), int(parts[3]))
            except (IndexError, ValueError):
                header = None
            if len(parts) != 4 or parts[1] != "cnf" or header is None:
                raise NotThreeCnf(f"malformed DIMACS header: {line!r}")
            continue
        if header is None:
            raise NotThreeCnf(f"clause line before the DIMACS header: {line!r}")
        tokens.extend(line.split())
    if header is None:
        raise NotThreeCnf("missing DIMACS 'p cnf' header")
    r, m = header
    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []
    for tok in tokens:
        try:
            lit = int(tok)
        except ValueError:
            raise NotThreeCnf(f"unexpected token {tok!r} in DIMACS body") from None
        if lit == 0:
            if len(current) != 3:
                raise NotThreeCnf(f"clause {current} does not have exactly 3 literals")
            clauses.append((current[0], current[1], current[2]))
            current = []
        else:
            current.append(lit)
    if current:
        raise NotThreeCnf("trailing literals without a terminating 0")
    if len(clauses) != m:
        raise NotThreeCnf(f"header declares {m} clauses, found {len(clauses)}")
    return CnfFormula(r=r, clauses=tuple(clauses))


def count_satisfying(formula: CnfFormula) -> int:
    """Satisfying assignments over the ``r`` declared variables, by enumeration."""
    if formula.r > SAT_MAX_R:
        raise TooLarge(f"r = {formula.r} exceeds the #SAT enumeration guard {SAT_MAX_R}")
    total = 0
    for start in range(0, 1 << formula.r, _CHUNK):
        stop = min(start + _CHUNK, 1 << formula.r)
        block = np.arange(start, stop, dtype=np.int64)
        sat = np.ones(block.shape[0], dtype=bool)
        for clause in formula.clauses:
            falsified = np.ones(block.shape[0], dtype=bool)
            for lit in clause:
                bit = (block >> (abs(lit) - 1)) & 1
                falsified &= (bit == 0) if lit > 0 else (bit == 1)
            sat &= ~falsified
        total += int(sat.sum())
    return total


def generate_3cnf_instance(formula: CnfFormula) -> tuple[Mixture, Mixture, float]:
    """Reduce a 3-CNF formula to a subcube-mixture instance with known distance.

    Over ``n = max(r, m) + 1`` coordinates (a selector bit followed by the
    variables, dummies appended when there are more clauses than variables):
    the first mixture places one component per clause on the clause's unique
    falsifying assignment with the selector at 0; the second splits mass
    ``1/(2m)`` vs ``1 - 1/(2m)`` between the two selector half-cubes.  The
    returned distance is ``1 - 1/(2m) + 2^-N * S / (2m)`` with ``S`` the
    brute-force satisfying-assignment count over the ``N`` padded variables,
    so ``S`` is recoverable from the distance as ``2m * tv - 2m + 1`` times
    ``2^N``.
    """
    m_clauses = formula.m
    big_n = max(formula.r, m_clauses)
    n = big_n + 1
    uniform = np.array([0.5, 0.5])
    fix0 = np.array([1.0, 0.0])
    fix1 = np.array([0.0, 1.0])

    comps_p = np.tile(uniform, (m_clauses, n, 1))
    comps_p[:, 0] = fix0  # selector bit pinned to 0 in every clause component
    for jc, clause in enumerate(formula.clauses):
        for lit in clause:
            # The falsifying assignment sets a positive literal to 0.
            comps_p[jc, abs(lit)] = fix0 if lit > 0 else fix1
    p = validate_mixture((np.full(m_clauses, 1.0 / m_clauses), comps_p))

    comps_q = np.tile(uniform, (2, n, 1))
    comps_q[0, 0] = fix0
    comps_q[1, 0] = fix1
    lam = 1.0 / (2.0 * m_clauses)
    q = validate_mixture((np.array([lam, 1.0 - lam]), comps_q))

    sat_r = count_satisfying(formula)  # S = sat_r * 2^(N - r); 2^-N S = 2^-r sat_r
    predicted_tv = 1.0 - lam + (sat_r / (1 << formula.r)) * lam
    return p, q, predicted_tv


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

_SUBCUBE_ROWS = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])


def random_instance(
    n: int,
    q: int,
    k1: int,
    k2: int,
    seed: int,
    family: str = "general",
) -> tuple[Mixture, Mixture]:
    """Deterministic random instance: Dirichlet(1) draws, or random subcubes.

    ``family="general"`` draws every weight vector and marginal row from a
    symmetric Dirichlet with concentration 1; ``family="subcube"`` (q = 2
    only) picks each marginal uniformly from fixed-0 / fixed-1 / uniform.
    The same seed always produces the same pair.
    """
    if n < 1 or q < 2 or k1 < 1 or k2 < 1:
        raise ShapeMismatch(f"invalid instance parameters n={n}, q={q}, k1={k1}, k2={k2}")
    if seed < 0:
        raise ShapeMismatch(f"seed must be non-negative, got {seed}")
    if family not in ("general", "subcube"):
        raise ShapeMismatch(f"unknown family {family!r}")
    if family == "subcube" and q != 2:
        raise WrongAlphabet(f"subcube instances need q = 2, got q = {q}")
    rng = np.random.default_rng(seed)

    def draw(k: int) -> Mixture:
        weights = rng.dirichlet(np.ones(k))
        if family == "general":
            comps = rng.dirichlet(np.ones(q), size=(k, n))
        else:
            comps = _SUBCUBE_ROWS[rng.integers(0, 3, size=(k, n))]
        return validate_mixture((weights, comps))

    return draw(k1), draw(k2)
