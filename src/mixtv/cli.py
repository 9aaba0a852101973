"""Command-line interface: one JSON report per invocation on stdout.

Pipelines consume stdout, which is deterministic for a fixed seed and
input; the human-readable summary (including timings) goes to stderr.
Exit codes: 0 success, 2 usage error, and otherwise the class of the error
(see mixtv.errors): 3 ValidationError or a named file that cannot be
opened, decoded or parsed, 4 TooLarge, 5 NumericalError.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
from itertools import chain
from typing import Any, Callable, Sequence

import numpy as np

from . import coupling, estimator, model, oracle, subcube
from .errors import NumericalError, ShapeMismatch, TooLarge, ValidationError

# A named file that cannot be opened, decoded or parsed is a validation error.
_FILE_ERRORS = (OSError, UnicodeDecodeError, json.JSONDecodeError)
# The keys of the instance layout whose objects hold a mixture's arrays.
_MIXTURES = ("p", "q_dist")

DEFAULT_MAX_STATES = 5_000_000
DEFAULT_MAX_CONFIGS = 2**24


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # JSON error detail instead of argparse's exit
        raise _UsageError(message)


def _canonical(obj: Any) -> str:
    # Documents come from json.load or instance_document and cannot hold cycles.
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


def _float_block(value: Any) -> tuple[np.ndarray, str] | None:
    """``value`` as a float64 array, and its canonical text, if it is a float block.

    A float block is a rectangular (k, n, q) list whose every leaf has type
    exactly ``float``. Returns None for anything else: a ragged or empty
    block, or one with an ``int`` or ``bool`` leaf, as a JSON ``1`` is not
    ``1.0``. Each check is one pass in C over the whole block.

    The text is ``_canonical(value)``. Each distinct row is encoded once,
    from its first float objects in ``value``: rows are told apart by
    their bytes, so ``-0.0`` and ``0.0`` stay apart as they do in the
    encoding. The distinct rows are encoded in one call and split at
    ``],[``, which no float's text holds. A block whose rows are mostly
    distinct is encoded whole, as sorting rows that share nothing only costs.
    """
    if type(value) is not list or set(map(type, value)) != {list}:
        return None
    if set(map(len, value)) != {len(value[0])}:
        return None
    rows = list(chain.from_iterable(value))
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {len(rows[0])}:
        return None
    if set(map(type, chain.from_iterable(rows))) != {float}:
        return None
    k, n, q = len(value), len(value[0]), len(rows[0])
    block = np.fromiter(chain.from_iterable(rows), float, count=k * n * q).reshape(k, n, q)
    keys = block.reshape(k * n, q).view(np.dtype((np.void, 8 * q)))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if 2 * len(first) > k * n:  # mostly distinct rows: nothing to share
        return block, _canonical(value)
    texts = _canonical([rows[i] for i in first.tolist()])[2:-2].split("],[")
    row_texts = np.array(texts, dtype=object)[inverse].reshape(k, n)
    return block, "[" + ",".join("[[" + "],[".join(r) + "]]" for r in row_texts.tolist()) + "]"


def _digest(doc: Any) -> tuple[str, Any]:
    """SHA-256 of ``_canonical(doc)``, and ``doc`` with its float blocks as arrays.

    The hash is fed piece by piece. The instance layout is walked with
    sorted keys: the top-level object, then the mixture objects ``p`` and
    ``q_dist``. Each of their values is hashed as the text that
    :func:`_float_block` returns, or encoded whole when it returns None.
    The returned document is ``doc`` with each float block replaced by its
    array, in copies of the objects walked, so ``doc`` is left as it is.
    """
    sha = hashlib.sha256()
    if type(doc) is not dict:
        sha.update(_canonical(doc).encode())
        return sha.hexdigest(), doc
    out = {}
    sha.update(b"{")
    for i, key in enumerate(sorted(doc)):
        value = doc[key]
        sha.update(f"{',' if i else ''}{_canonical(key)}:".encode())
        if key in _MIXTURES and type(value) is dict:
            value = dict(value)
            sha.update(b"{")
            for j, sub in enumerate(sorted(value)):
                value[sub], text = _float_block(value[sub]) or (value[sub], _canonical(value[sub]))
                sha.update(f"{',' if j else ''}{_canonical(sub)}:{text}".encode())
            sha.update(b"}")
        else:
            sha.update(_canonical(value).encode())
        out[key] = value
    sha.update(b"}")
    return sha.hexdigest(), out


def _load_instance(path: str):
    """Read, digest and validate an instance with the cyclic collector paused.

    The digest's walk converts each float block to its array, and
    ``model.parse_instance`` validates those arrays, so each number is
    converted once.

    A JSON document holds no reference cycles, so reference counting frees
    all of it. With the collector on, building the tree of a wide instance
    (2.6 MB, 520k numbers) sets off three full collections that each rescan
    the whole tree, about 0.1 s in all.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise ShapeMismatch(f"{path}: instance JSON is nested too deeply") from None
            except ValueError as exc:
                if isinstance(exc, _FILE_ERRORS):
                    raise
                # int() refuses a JSON integer of more than 4300 digits.
                raise ShapeMismatch(f"{path}: {exc}") from None
        digest, doc = _digest(doc)  # frees the nested lists that became arrays
        p, q = model.parse_instance(doc)
        del doc  # free the tree before the collector resumes
    finally:
        if enabled:
            gc.enable()
    return p, q, digest


def _build_parser() -> _Parser:
    parser = _Parser(prog="mixtv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    approx = sub.add_parser("approx", help="Monte Carlo relative-error estimate")
    approx.add_argument("--input", required=True, help="instance JSON file")
    approx.add_argument("--epsilon", type=float, required=True)
    approx.add_argument("--seed", type=int, default=0)
    approx.add_argument("--samples", type=int, default=None, help="override the sample count")
    approx.add_argument("--repetitions", type=int, default=1)
    approx.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)

    exact = sub.add_parser("exact-subcube", help="exact distance for subcube mixtures")
    exact.add_argument("--input", required=True)

    brute = sub.add_parser("brute", help="brute-force distance (size-guarded)")
    brute.add_argument("--input", required=True)
    brute.add_argument("--max-configs", type=int, default=DEFAULT_MAX_CONFIGS)

    stats = sub.add_parser("coupling-stats", help="coupling DAG statistics")
    stats.add_argument("--input", required=True)
    stats.add_argument("--dump", default=None, help="write the full DAG as JSON to this file")
    stats.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)

    gen = sub.add_parser("gen", help="generate instances")
    gen_sub = gen.add_subparsers(dest="generator", required=True)

    gen_random = gen_sub.add_parser("random", help="seeded random instance")
    gen_random.add_argument("--n", type=int, required=True)
    gen_random.add_argument("--q", type=int, required=True)
    gen_random.add_argument("--k1", type=int, required=True)
    gen_random.add_argument("--k2", type=int, required=True)
    gen_random.add_argument("--seed", type=int, required=True)
    gen_random.add_argument("--subcube", action="store_true")
    gen_random.add_argument("--output", default=None, help="also write the bare instance here")

    gen_cnf = gen_sub.add_parser("from-cnf", help="3-CNF reduction instance")
    gen_cnf.add_argument("--dimacs", required=True)
    gen_cnf.add_argument("--output", default=None)

    return parser


def _cmd_approx(args) -> tuple[str, dict, list[str], str]:
    p, q, digest = _load_instance(args.input)
    config = estimator.EstimatorConfig(
        epsilon=args.epsilon,
        seed=args.seed,
        samples_override=args.samples,
        repetitions=args.repetitions,
    )
    warnings = []
    if args.samples is not None:
        warnings.append(
            "--samples overrides the theoretical sample count: the 99% guarantee "
            "rests on the empirical coarseness ratio, not the worst case"
        )
    est = estimator.approximate_tv(p, q, config, max_states=args.max_states)
    result = {
        "estimate": est.estimate,
        "discrepancy": est.discrepancy,
        "fbar": est.fbar,
        "gamma": est.gamma,
        "samples": est.samples,
        "seed": est.seed,
        "repetitions": args.repetitions,
    }
    summary = (
        f"approx: estimate={est.estimate:.6g} discrepancy={est.discrepancy:.6g} "
        f"samples={est.samples} elapsed={est.elapsed:.3f}s"
    )
    return digest, result, warnings, summary


def _cmd_exact_subcube(args) -> tuple[str, dict, list[str], str]:
    p, q, digest = _load_instance(args.input)
    tv = subcube.exact_subcube_tv(p, q)
    result = {"tv": tv, "n": p.n, "k1": p.k, "k2": q.k}
    return digest, result, [], f"exact-subcube: tv={tv:.12g}"


def _cmd_brute(args) -> tuple[str, dict, list[str], str]:
    p, q, digest = _load_instance(args.input)
    tv = oracle.brute_force_tv(p, q, max_configs=args.max_configs)
    result = {"tv": tv, "configurations": p.q**p.n}
    return digest, result, [], f"brute: tv={tv:.12g} over {p.q ** p.n} configurations"


def _cmd_coupling_stats(args) -> tuple[str, dict, list[str], str]:
    p, q, digest = _load_instance(args.input)
    dag = coupling.build_dag(p, q, max_states=args.max_states)
    stats = dag.statistics()
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump(dag.to_dict(), fh, sort_keys=True, indent=2)
    summary = (
        f"coupling-stats: states={stats['num_states']} "
        f"transitions={stats['num_transitions']} discrepancy={stats['discrepancy']:.6g} "
        f"bound={stats['state_bound']}"
    )
    return digest, stats, [], summary


def _cmd_gen(args) -> tuple[str, dict, list[str], str]:
    if args.generator == "random":
        family = "subcube" if args.subcube else "general"
        p, q = oracle.random_instance(args.n, args.q, args.k1, args.k2, args.seed, family)
        doc = model.instance_document(p, q)
        result: dict[str, Any] = {"instance": doc, "family": family}
        summary = f"gen random: n={args.n} q={args.q} k1={args.k1} k2={args.k2} family={family}"
    else:
        with open(args.dimacs, "r", encoding="utf-8") as fh:
            formula = oracle.parse_dimacs(fh.read())
        p, q, predicted = oracle.generate_3cnf_instance(formula)
        doc = model.instance_document(p, q)
        result = {
            "instance": doc,
            "predicted_tv": predicted,
            "variables": formula.r,
            "clauses": formula.m,
        }
        summary = f"gen from-cnf: r={formula.r} m={formula.m} predicted_tv={predicted:.12g}"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
    return _digest(doc)[0], result, [], summary


_COMMANDS: dict[str, Callable] = {
    "approx": _cmd_approx,
    "exact-subcube": _cmd_exact_subcube,
    "brute": _cmd_brute,
    "coupling-stats": _cmd_coupling_stats,
    "gen": _cmd_gen,
}


def _emit_error(category: str, detail: str) -> None:
    print(json.dumps({"error": category, "detail": detail}), file=sys.stderr)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse ``argv``, run one subcommand, print the JSON report on stdout."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return 2
    try:
        digest, result, warnings, summary = _COMMANDS[args.command](args)
    except (ValidationError, *_FILE_ERRORS) as exc:
        _emit_error("validation", str(exc))
        return 3
    except TooLarge as exc:
        _emit_error("size-guard", str(exc))
        return 4
    except NumericalError as exc:
        _emit_error("numerical", str(exc))
        return 5
    report = {
        "command": argv,
        "digest": digest,
        "result": result,
        "warnings": warnings,
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    print(summary, file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
