"""Command-line interface: one JSON report per invocation on stdout.

Pipelines consume stdout, which is deterministic for a fixed seed and
input; the human-readable summary (including timings) and the JSON error
detail go to stderr. Stderr carries diagnostics only and is best-effort: a
closed or unwritable stderr changes neither stdout nor the exit code.
Exit codes: 0 success, 1 a stdout that is closed or cannot take the report,
2 usage error, and otherwise the class of the error
(see mixtv.errors): 3 ValidationError or a named file that cannot be
opened, decoded or parsed, 4 TooLarge, 5 NumericalError.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import re
import sys
from itertools import chain
from typing import Any, Callable, Sequence

import numpy as np

from . import coupling, estimator, model, oracle, subcube
from .errors import NumericalError, ShapeMismatch, TooLarge, ValidationError

# A named file that cannot be opened, decoded or parsed is a validation error.
_FILE_ERRORS = (OSError, UnicodeDecodeError, json.JSONDecodeError)
# JSON's whitespace bytes.
_WS = b" \t\n\r"
# 0 for JSON whitespace and one-byte tokens, 1 for every other byte.
_OTHER = bytes(c not in b"[]{},: \t\n\r" for c in range(256))
_SLICE = 1 << 20  # bytes that _runs maps at a time
_OPEN, _CLOSE, _COMMA = b"[],"  # the bytes that _read_block finds separators by
# The low m bytes of a little-endian 8-byte word, at index m.
_LOW_BYTES = np.array([(1 << 8 * m) - 1 for m in range(9)], np.uint64)
# A JSON string: its quotes, and between them any byte but a quote or a
# backslash, or a backslash and the byte it escapes.
_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"', re.S)

DEFAULT_MAX_STATES = 5_000_000
DEFAULT_MAX_CONFIGS = 2**24
# `coupling-stats --dump` refuses a DAG whose states' path keys hold more
# symbols than this: at 56-61 bytes of dump per symbol, about 1 GB.
DUMP_MAX_SYMBOLS = 2**24


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # JSON error detail instead of argparse's exit
        raise _UsageError(message)


def _canonical(obj: Any, default: Callable | None = None) -> str:
    # Documents come from json.load or instance_document and cannot hold cycles.
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), check_circular=False, default=default
    )


def _runs(data: bytes) -> int:
    """How many runs ``data`` holds of bytes other than JSON whitespace and ``[]{},:``."""
    runs, last = 0, 0
    for start in range(0, len(data), _SLICE):  # small temporaries: no fresh pages to fault in
        other = np.frombuffer(data[start : start + _SLICE].translate(_OTHER), np.uint8)
        runs += int(other[0] > last) + int(np.count_nonzero(other[1:] > other[:-1]))
        last = other[-1]
    return runs


def _repeats(byte: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Which rows, the bytes ``byte[starts[i]:ends[i]]``, hold the same bytes as the row before.

    The bytes are compared as little-endian 8-byte words, each masked to the
    bytes left in its row. One pass reads the first word of every row and
    keeps as candidates the rows as long as the row before and with the same
    first word; each further pass reads the next word of the candidates and
    of the rows before them, and drops those whose words differ. A row that
    ends within 8 bytes of the end of ``byte`` is no candidate, so no word is
    read past the end.
    """
    repeat = np.zeros(len(starts), bool)
    if len(starts) < 2:
        return repeat
    last = len(byte) - 8
    words = np.ndarray((last + 1,), "<u8", buffer=byte, strides=(1,))  # the word at each byte
    size = ends - starts
    word = words[np.minimum(starts, last)] & _LOW_BYTES[np.minimum(size, 8)]
    same = (word[1:] == word[:-1]) & (size[1:] == size[:-1]) & (ends[1:] <= last)
    del word
    repeat[1:] = same & (size[1:] <= 8)
    rows = np.flatnonzero(same & (size[1:] > 8)) + 1
    left, here, there = size[rows] - 8, starts[rows] + 8, starts[rows - 1] + 8
    del size, same
    while rows.size:
        same = ((words[here] ^ words[there]) & _LOW_BYTES[np.minimum(left, 8)]) == 0
        repeat[rows[same & (left <= 8)]] = True
        more = same & (left > 8)
        rows, left, here, there = rows[more], left[more] - 8, here[more] + 8, there[more] + 8
    return repeat


def _read_block(span: memoryview) -> np.ndarray | None:
    """The array of the float block that ``span``, compact text from ``[[[`` to ``]]]``, spells.

    A float block is a rectangular (k, n, q) list whose every leaf has type
    exactly ``float`` and is spelled as Python encodes it, so that ``span``
    is the array's canonical text. Any other span is None: a ragged or empty
    block, one with an ``int`` or ``bool`` leaf (a JSON ``1`` is not
    ``1.0``), one with a float spelled otherwise (``0.50``, ``5e-1``), or
    one that is not a block. Rows are found by offset: numpy passes over the
    span's bytes find its row and component separators, and
    :func:`_repeats` marks each row that repeats the row before. Only the
    first row of each run is cut as a text, each distinct text is parsed
    once, in one ``json.loads`` call, and each run gathers its parsed row.
    Rows are told apart by their text, so ``-0.0`` and ``0.0`` stay apart,
    as in the encoding.
    """
    byte = np.frombuffer(span, np.uint8)
    # Each "],[" separates two rows, and one inside a "]],[[" two components:
    # look for them at every "[" past the span's opening "[[[".
    sep = np.flatnonzero(byte == _OPEN)[3:] - 2
    sep = sep[(byte[sep] == _CLOSE) & (byte[sep + 1] == _COMMA)]
    cut = (byte[sep - 1] == _CLOSE) & (byte[sep + 3] == _OPEN)
    rows, k = len(sep) + 1, int(np.count_nonzero(cut)) + 1
    n = rows // k
    # k components of n rows: every n-th separator, and no other, is a component's.
    if rows != k * n or not np.array_equal(np.flatnonzero(cut), np.arange(n - 1, rows - 1, n)):
        return None
    # A row starts after a separator and ends before it; "]],[[" has a bracket more on each side.
    starts = np.concatenate(([3], sep + 3 + cut))
    ends = np.concatenate((sep - cut, [len(span) - 3]))
    del sep, cut
    heads = np.flatnonzero(~_repeats(byte, starts, ends))
    runs = np.diff(heads, append=rows)
    text = span.tobytes()  # slicing bytes is cheaper than slicing the view when most rows are heads
    texts = [text[s:e] for s, e in zip(starts[heads].tolist(), ends[heads].tolist())]
    del text, starts, ends, heads
    distinct = list(dict.fromkeys(texts))
    try:  # "[[],[row],...,[row],[]]": the distinct rows between two empty lists
        joined = b"],[".join([b"[[", *distinct, b"]]"]).decode()
        values = json.loads(joined)
    except (ValueError, RecursionError):  # not UTF-8 or not JSON, or an integer too long to convert
        return None
    # As many lists as the join made hold its brackets only: no row holds one.
    rows_values = values[1:-1]
    if (
        len(rows_values) != len(distinct)
        or set(map(type, rows_values)) != {list}
        or set(map(len, rows_values)) != {len(rows_values[0])}
        or set(map(type, chain.from_iterable(rows_values))) != {float}
        or _canonical(values) != joined  # a float not spelled as it encodes
    ):
        return None
    q = len(rows_values[0])
    array = np.fromiter(chain.from_iterable(rows_values), float, len(distinct) * q).reshape(-1, q)
    if len(distinct) < rows:
        index = dict(zip(distinct, range(len(distinct))))
        array = array[np.fromiter(map(index.__getitem__, texts), np.intp, len(texts))].repeat(runs, axis=0)
    return array.reshape(k, n, q)


def _skeleton(data: bytes) -> tuple[bytes, list[tuple[np.ndarray, memoryview]]]:
    """``data`` without JSON whitespace and with each float block cut out, and those blocks.

    The scan takes the first ``[[[`` in the text and the first ``]]]`` after
    it, and hands that span to :func:`_read_block`. A span that it refuses
    stays in the text, and the scan goes on after its ``]]]``: a block that
    starts at a later ``[[[`` before the same ``]]]``, as in ``[[[[0.5]]]]``,
    is not cut. Each cut block leaves the token ``NaN`` behind, which
    ``json.loads`` hands to its ``parse_constant`` hook in text order, and
    is returned as its array and its span, the array's canonical text.
    The cut stands only if the text is the same document but for its blocks.
    Otherwise ``(data, [])`` is returned, and the file is read by ``json``:

    - when deleting whitespace joins two tokens, that is, the runs of bytes
      other than ``[]{},:`` fall in number (``1.0 5``, ``tr ue``, or a
      string that holds ``a b``);
    - when the skeleton holds a ``NaN`` that no cut block left, as a
      constant or in a string;
    - when its strings differ from those of ``data``: a string held
      whitespace or a cut block.

    So every ``NaN`` token of a skeleton is a cut block, in text order, and
    ``json.loads`` puts each block's array where it puts the block's lists
    when it reads ``data``.
    """
    tight = data
    if any(ws in data for ws in _WS):
        tight = data.translate(None, _WS)
        if _runs(tight) != _runs(data):
            return data, []
    view, pieces, blocks, lo = memoryview(tight), [], [], 0
    start = tight.find(b"[[[")
    while start >= 0 and (end := tight.find(b"]]]", start)) >= 0:
        span = view[start : end + 3]
        if (array := _read_block(span)) is not None:
            pieces += (tight[lo:start], b"NaN")
            blocks.append((array, span))
            lo = end + 3
        start = tight.find(b"[[[", end + 3)
    pieces.append(tight[lo:])
    skeleton = b"".join(pieces)
    if skeleton.count(b"NaN") != len(blocks) or _STRING.findall(skeleton) != _STRING.findall(data):
        return data, []
    return skeleton, blocks


def _parse_json(data: bytes, path: str) -> Any:
    """The document in ``data``, decoded and parsed as ``json.load`` reads a file in text mode."""
    try:
        return json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    except RecursionError:
        raise ShapeMismatch(f"{path}: instance JSON is nested too deeply") from None
    except ValueError as exc:
        if isinstance(exc, _FILE_ERRORS):
            raise
        # int() refuses a JSON integer of more than 4300 digits.
        raise ShapeMismatch(f"{path}: {exc}") from None


def _digest(doc: Any, texts: dict[int, memoryview] | None = None) -> str | None:
    """SHA-256 of ``_canonical(doc)``, where each array in ``doc`` is hashed as its canonical text.

    ``texts`` maps the ``id`` of each array in ``doc`` to its text. The
    encoder writes each array as ``NaN`` and records its text, and the hash
    is fed the encoding with each array's text where its ``NaN`` was. None
    if the encoding holds a ``NaN`` that is not an array, as a string or
    key spelled with escapes (``"\\u004eaN"``) does: it encodes as ``NaN``.
    """
    spliced: list[memoryview] = []

    def block(array: np.ndarray) -> float:
        spliced.append(texts[id(array)])
        return math.nan

    encoded = _canonical(doc, default=block)
    pieces = encoded.split("NaN") if spliced else [encoded]
    if len(pieces) != len(spliced) + 1:
        return None
    sha = hashlib.sha256(pieces[0].encode())
    for text, piece in zip(spliced, pieces[1:]):
        sha.update(text)
        sha.update(piece.encode())
    return sha.hexdigest()


def _read(data: bytes, path: str) -> tuple[Any, str]:
    """The document that the file's bytes ``data`` hold, and its digest.

    Only the skeleton of ``data`` (see :func:`_skeleton`) goes through
    ``json.loads``, which puts each cut block's array where its ``NaN``
    token stands: under whatever key or in whatever list holds it, or
    nowhere when a repeated key replaces it. The document is hashed with
    the arrays in it (see :func:`_digest`). Otherwise the file is decoded
    and parsed whole, as ``json.load`` reads it in text mode: when
    :func:`_skeleton` cuts nothing; when the skeleton is not UTF-8, not
    JSON or not an object, so that the error is the one that reading the
    file raises; and when the encoding holds a ``NaN`` that no block left.
    """
    skeleton, blocks = _skeleton(data)
    arrays = (array for array, _ in blocks)

    def constant(name: str) -> Any:  # each NaN is a cut block, in text order
        return next(arrays) if name == "NaN" else float(name)

    try:
        doc = json.loads(skeleton.decode(), parse_constant=constant) if blocks else None
    except (ValueError, RecursionError):
        doc = None
    texts = {id(array): span for array, span in blocks}
    if type(doc) is dict and (digest := _digest(doc, texts)) is not None:
        return doc, digest
    doc = _parse_json(data, path)
    return doc, _digest(doc)


def _load_instance(path: str):
    """Read, digest and validate an instance.

    The float blocks are read from the file's bytes as arrays, wherever
    they stand in the document (see :func:`_read`): their rows are found by
    offset, a text is cut only for the first row of each run of repeated
    rows, and each distinct row is parsed once. No nested lists or per-row
    objects are built for them, and the digest hashes their canonical texts
    as they are. ``model.parse_instance``, the one place that knows the
    instance layout, validates the document: it reads the arrays of ``p``
    and ``q_dist`` and ignores any other key.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    doc, digest = _read(data, path)
    del data
    p, q = model.parse_instance(doc)
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
        symbols = sum(depth * size for depth, size in enumerate(stats["layer_sizes"]))
        if symbols > DUMP_MAX_SYMBOLS:
            raise TooLarge(
                f"--dump would write {symbols} path-key symbols, above {DUMP_MAX_SYMBOLS}"
            )
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
    text = _canonical(doc)  # the instance's digest is the sha256 of these bytes
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return hashlib.sha256(text.encode()).hexdigest(), result, [], summary


_COMMANDS: dict[str, Callable] = {
    "approx": _cmd_approx,
    "exact-subcube": _cmd_exact_subcube,
    "brute": _cmd_brute,
    "coupling-stats": _cmd_coupling_stats,
    "gen": _cmd_gen,
}


def _to_devnull(stream) -> None:
    """Point ``stream``'s file descriptor at the null device, so that its flush at exit succeeds."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _diagnose(line: str) -> None:
    """Print ``line`` on stderr if stderr takes it; stdout and the exit code never depend on it."""
    if sys.stderr is None:  # fd 2 was closed when Python started; print would fall back to stdout
        return
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:  # a full device, a bad descriptor, or a reader that closed the pipe
        _to_devnull(sys.stderr)


def _emit_error(category: str, detail: str) -> None:
    _diagnose(json.dumps({"error": category, "detail": detail}))


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
    if sys.stdout is None:  # fd 1 was closed when Python started: the report goes nowhere
        return 1
    try:
        print(json.dumps(report, sort_keys=True, indent=2))
        sys.stdout.flush()
    except OSError:
        # A reader that closed the pipe (``| head``) or a full device: the
        # report is cut short, so exit 1.
        _to_devnull(sys.stdout)
        return 1
    _diagnose(summary)
    return 0


def main() -> None:
    """The console script: :func:`run` on ``sys.argv`` in a process of its own.

    The objects that the imports built live until the process exits, so
    they are moved to the collector's permanent generation: neither a
    collection during the query nor the full collections that Python runs
    at exit scan them again. :func:`run` leaves the collector alone, for
    in-process callers.
    """
    gc.freeze()
    sys.exit(run())


if __name__ == "__main__":
    main()
