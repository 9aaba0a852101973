"""Spans around the public calls between the package's modules, recorded from outside.

The tracer replaces module attributes with timing wrappers for the duration
of a traced run and restores them afterwards; nothing in the package is
edited.  Spans live in memory as ``(name, start, end, parent, query)`` and
are written once, at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import numpy as np

import mixtv.cli
import mixtv.coupling
import mixtv.estimator
import mixtv.model
import mixtv.subcube

LAYERS = ("cli", "model", "coupling", "estimator", "subcube")

# (module whose attribute the caller looks up, attribute, span name).  A
# function is patched where its caller finds it: the estimator imports
# coupling's and model's functions by name, the CLI goes through modules.
_PATCH_POINTS = (
    (mixtv.model, "parse_instance", "model.parse_instance"),
    (mixtv.estimator, "mass", "model.mass"),
    (mixtv.estimator, "build_dag", "coupling.build_dag"),
    (mixtv.estimator, "failure_probability", "coupling.failure_probability"),
    (mixtv.estimator, "evaluate_failure_mass", "coupling.evaluate_failure_mass"),
    (mixtv.estimator, "sample_failed_trajectory", "coupling.sample_failed_trajectory"),
    (mixtv.estimator, "approximate_tv", "estimator.approximate_tv"),
    (mixtv.estimator, "f_value", "estimator.f_value"),
    (mixtv.subcube, "classify_subcube", "subcube.classify_subcube"),
    (mixtv.subcube, "chi_table", "subcube.chi_table"),
    (mixtv.subcube, "exact_subcube_tv", "subcube.exact_subcube_tv"),
)
# Return values kept for the first query only, to derive exact counters.
_KEEP_RESULTS = {
    "coupling.build_dag",
    "coupling.sample_failed_trajectory",
    "subcube.classify_subcube",
    "subcube.chi_table",
}
# Path keys of DAGs with more symbols than this are not enumerated (memory).
FRONTIER_MAX_KEY_SYMBOLS = 20_000_000


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, query]
        self.results: dict[str, list] = defaultdict(list)
        self.query = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        keep = name in _KEEP_RESULTS

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.query]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if keep and self.query == 0:
                self.results[name].append(out)
            return out

        return traced

    def install(self) -> None:
        for module, attr, name in _PATCH_POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def cli_run(self, argv: list[str]) -> int:
        """``mixtv.cli.run(argv)`` inside a root span of a new query."""
        self.query += 1
        return self._wrap("cli.run", mixtv.cli.run)(argv)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query"], "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# Metrics from spans
# ---------------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times from the spans: medians over queries, or over calls for ``per call``."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, list[float]] = defaultdict(lambda: [0.0] * (tracer.query + 1))
    count: dict[str, list[int]] = defaultdict(lambda: [0] * (tracer.query + 1))
    calls: dict[str, list[float]] = defaultdict(list)
    first_sample: dict[int, float] = {}
    for i, (name, start, end, _, query) in enumerate(spans):
        total[name][query] += end - start
        count[name][query] += 1
        calls[name].append(end - start)
        total[name.split(".")[0] + ".self"][query] += end - start - child_time[i]
        if name == "coupling.sample_failed_trajectory":
            first_sample.setdefault(query, end - start)

    def med(name):  # median over queries that made the call
        return _median([t for t, c in zip(total[name], count[name]) if c])

    out = {
        "cli.run_s": med("cli.run"),
        "cli.overhead_s": _median(
            [
                run - parse - tv - exact
                for run, parse, tv, exact in zip(
                    total["cli.run"],
                    total["model.parse_instance"],
                    total["estimator.approximate_tv"],
                    total["subcube.exact_subcube_tv"],
                )
            ]
        ),
        "model.parse_instance_s": med("model.parse_instance"),
        "model.mass_s": _median(calls["model.mass"]),
        "coupling.eval_s": _median(calls["coupling.evaluate_failure_mass"]),
        "coupling.sample_s": _median(calls["coupling.sample_failed_trajectory"]),
        "coupling.build_dag_s": med("coupling.build_dag"),
        "coupling.failure_probability_s": med("coupling.failure_probability"),
        "coupling.first_sample_s": _median(list(first_sample.values())),
        "estimator.approximate_tv_s": med("estimator.approximate_tv"),
        "estimator.samples_per_s": _median(
            [
                n / (tv - build - dp)
                for n, tv, build, dp in zip(
                    count["coupling.sample_failed_trajectory"],
                    total["estimator.approximate_tv"],
                    total["coupling.build_dag"],
                    total["coupling.failure_probability"],
                )
                if n
            ]
        ),
        "estimator.f_value_s": _median(calls["estimator.f_value"]),
        "subcube.classify_s": med("subcube.classify_subcube"),
        "subcube.chi_table_s": med("subcube.chi_table"),
        "subcube.exact_s": med("subcube.exact_subcube_tv"),
        "subcube.sum_s": _median(
            [
                exact - classify - chi
                for exact, classify, chi, c in zip(
                    total["subcube.exact_subcube_tv"],
                    total["subcube.classify_subcube"],
                    total["subcube.chi_table"],
                    count["subcube.exact_subcube_tv"],
                )
                if c
            ]
        ),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = _median(total[f"{layer}.self"])
    return out


# ---------------------------------------------------------------------------
# Exact counters from the first query's return values
# ---------------------------------------------------------------------------


def dag_bytes_computed(dag) -> int:
    """Bytes of the DAG's per-state tables, computed from layer sizes and table widths.

    A non-terminal state holds float64 rows alpha (k1), beta (k2), w1, w2,
    res_p, res_q (q each), res_total, pfail, upd_alpha (k1 q) and a walk
    table (3 q); int64 parent, child1 and child2 (q); int16 symbol.  A
    terminal state holds alpha, beta, pfail, parent and symbol.  Cache
    effects and numpy headers are not counted.
    """
    k1, k2, q = dag.k1, dag.k2, dag.q
    inner = 8 * (k1 + k2 + 4 * q + 2 + k1 * q + 3 * q) + 8 * (2 + q) + 2
    terminal = 8 * (k1 + k2 + 1) + 8 + 2
    sizes = dag.layer_sizes
    return sum(sizes[:-1]) * inner + sizes[-1] * terminal


def frontier_sizes(dag, sigmas) -> list[int] | None:
    """σ-frontier size per sample: states whose path symbols are each 0 or σ_j + 1.

    Enumerates ``dag.iter_states()`` path keys; None when the keys would take
    more than FRONTIER_MAX_KEY_SYMBOLS symbols to materialise.
    """
    sizes = dag.layer_sizes
    if sum(depth * m for depth, m in enumerate(sizes)) > FRONTIER_MAX_KEY_SYMBOLS:
        return None
    n = dag.n
    keys = np.zeros((sum(sizes), n), dtype=np.int16)
    for i, state in enumerate(dag.iter_states()):
        keys[i, : len(state.path_key)] = state.path_key
    zero = keys == 0
    out = []
    for sigma in sigmas:
        ok = zero | (keys == np.asarray(sigma, dtype=np.int16) + 1)
        out.append(int(ok.all(axis=1).sum()))
    return out


def counter_metrics(tracer: Tracer) -> dict[str, float]:
    """Counters of the first traced query; they repeat exactly at a fixed seed."""
    res = tracer.results
    out = {
        "coupling.states": 0,
        "coupling.layer_states_max": 0,
        "coupling.dag_bytes_computed": 0,
        "coupling.frontier_states": 0.0,
        "coupling.frontier_fraction": 0.0,
        "estimator.distinct_fraction": 0.0,
        "model.mass_calls": sum(1 for s in tracer.spans if s[0] == "model.mass" and s[4] == 0),
        "estimator.samples": sum(1 for s in tracer.spans if s[0] == "coupling.sample_failed_trajectory" and s[4] == 0),
        "subcube.k_total": 0,
        "subcube.subset_terms": 0,
        "subcube.chi_nonzero": 0,
        "subcube.patterns": 0,
    }
    if res["coupling.build_dag"]:
        dag = res["coupling.build_dag"][0]
        sigmas = res["coupling.sample_failed_trajectory"]
        out["coupling.states"] = dag.num_states
        out["coupling.layer_states_max"] = max(dag.layer_sizes)
        out["coupling.dag_bytes_computed"] = dag_bytes_computed(dag)
        if sigmas:
            out["estimator.distinct_fraction"] = len(set(sigmas)) / len(sigmas)
            frontier = frontier_sizes(dag, sigmas)
            if frontier is not None:
                out["coupling.frontier_states"] = sum(frontier) / len(frontier)
                out["coupling.frontier_fraction"] = out["coupling.frontier_states"] / dag.num_states
    if res["subcube.classify_subcube"]:
        profiles = res["subcube.classify_subcube"]
        k_total = sum(prof.k for prof in profiles)
        n = profiles[0].n
        ones = np.zeros(n, dtype=np.uint64)
        zeros = np.zeros(n, dtype=np.uint64)
        f = 0
        for prof in profiles:
            for s in range(prof.k):
                ones[prof.ones[s] - 1] |= np.uint64(1 << f)
                zeros[prof.zeros[s] - 1] |= np.uint64(1 << f)
                f += 1
        out["subcube.k_total"] = k_total
        out["subcube.subset_terms"] = 3**k_total
        out["subcube.patterns"] = int(np.unique(np.column_stack([ones, zeros]), axis=0).shape[0])
        out["subcube.chi_nonzero"] = sum(1 for v in res["subcube.chi_table"][0].values() if v != 0)
    return out
