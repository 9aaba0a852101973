"""Benchmark of the mixtv CLI: one query at a time, each in a fresh process.

    python3 perfbench/run.py --workload approx-wide --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
checkout this file lives in.  A closed loop with one client runs one CLI
query after another for ``--seconds`` seconds, checks every query's output
against an independent reference, and prints the end-to-end metrics
(``--trace 0``) or, from a separate in-process traced run, the per-layer
metrics (``--trace 1``).  The last line of stdout is one JSON object.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
WORKERS_ENV = "MIXTV_WORKERS"
MIN_ROUNDS = 2
# CPUs one round of the timed loop visits (the first of those the benchmark may use).
ROUND_CPUS = 4
QUERY_TIMEOUT_S = 60.0

# The console-script entry point, with the checkout's src/ first on the path.
CLI_LAUNCHER = "import sys; sys.path.insert(0, {src!r}); from mixtv.cli import main; sys.argv[0] = 'mixtv'; main()"
SETUP_PROBE = (
    "import sys; sys.path.insert(0, {src!r}); import json, mixtv; from mixtv import model\n"
    "with open(sys.argv[1], encoding='utf-8') as fh: model.parse_instance(json.load(fh))"
)


def child_env() -> dict[str, str]:
    """The same environment for every child: ours without the worker override."""
    env = dict(os.environ)
    env.pop(WORKERS_ENV, None)
    return env


def spawn(cmd: list[str], timeout: float) -> dict:
    """Run one child to completion; wall time from spawn to exit and its rusage."""
    timed_out = threading.Event()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT)

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = proc.stdout.read(), proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "timed_out": timed_out.is_set(),
        "stdout": out.decode(errors="replace"),
        "stderr": err.decode(errors="replace"),
    }


def judge(workload, code: int, stdout: str, tv_ref: float, digest: str, timed_out: bool = False) -> str | None:
    """Why a query failed (nonzero exit, timeout, bad output), or None."""
    if timed_out:
        return "timeout"
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    return workload.check(report, tv_ref, digest)


def query_seed(seed: int, index: int) -> int:
    return seed * 10_000 + index


def environment() -> dict:
    git = "not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"], capture_output=True, text=True, timeout=30
        )
        git = done.stdout.strip() or "unknown"
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": git,
    }


class Setup:
    """A workload's instance file, digest and reference, made from the seed."""

    def __init__(self, workload, seed: int):
        from workloads import instance_digest
        from mixtv import model

        self.workload = workload
        p, q, self.tv_ref, self.reference_s = workload.instance(seed)
        doc = model.instance_document(p, q)
        self.digest = instance_digest(doc)
        WORK.mkdir(exist_ok=True)
        self.path = WORK / f"{workload.name}-{seed}-{os.getpid()}.json"
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def remove(self) -> None:
        self.path.unlink(missing_ok=True)


def timed_run(setup: Setup, seed: int, seconds: float) -> tuple[dict, int, int]:
    """End-to-end metrics: a closed loop of rounds of (setup probe, CLI query) pairs.

    The CPUs of a shared host run at different speeds at the same moment
    (one 40% slower than the other, and swapping within minutes), and a lone
    child stays on the CPU it starts on.  So a round runs one pair pinned to
    each CPU the benchmark may use, reports the mean over its pairs, and
    the times are medians over rounds.  Probes are spread over the run like
    the queries, so that both medians see the same phases of the machine.
    """
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)[:ROUND_CPUS]
    probe = [sys.executable, "-I", "-c", SETUP_PROBE.format(src=str(SRC)), str(setup.path)]
    launcher = CLI_LAUNCHER.format(src=str(SRC))
    rounds: dict[str, list[float]] = {"wall": [], "cpu": [], "setup": []}
    rss, attempted, failures = [], 0, 0
    deadline = time.perf_counter() + seconds
    try:
        while len(rounds["wall"]) < MIN_ROUNDS or time.perf_counter() < deadline:
            got: dict[str, list[float]] = {key: [] for key in rounds}
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})  # the children inherit it
                res = spawn(probe, QUERY_TIMEOUT_S)
                if res["code"] != 0:
                    raise SystemExit(f"setup probe failed: {res['stderr'][-2000:]}")
                got["setup"].append(res["wall"])
                argv = setup.workload.argv(str(setup.path), query_seed(seed, attempted))
                res = spawn([sys.executable, "-I", "-c", launcher, *argv], QUERY_TIMEOUT_S)
                attempted += 1
                got["wall"].append(res["wall"])
                got["cpu"].append(res["cpu"])
                rss.append(res["maxrss_mb"])
                why = judge(setup.workload, res["code"], res["stdout"], setup.tv_ref, setup.digest, res["timed_out"])
                if why is not None:
                    failures += 1
                    print(f"query {attempted - 1} failed: {why}\n{res['stderr'][-2000:]}", file=sys.stderr)
            for key, values in got.items():
                rounds[key].append(statistics.fmean(values))
    finally:
        os.sched_setaffinity(0, allowed)
    metrics = {
        "wall_s": statistics.median(rounds["wall"]),
        "cpu_s": statistics.median(rounds["cpu"]),
        "peak_rss_mb": max(rss),
        "setup_s": statistics.median(rounds["setup"]),
        "pass_share": (attempted - failures) / attempted,
    }
    return metrics, attempted, failures


def traced_run(setup: Setup, seed: int, seconds: float) -> tuple[dict, int, int]:
    """Per-layer metrics: in-process CLI queries with spans, then one plain call."""
    import mixtv.cli
    import tracing

    os.environ.pop(WORKERS_ENV, None)
    first = setup.workload.argv(str(setup.path), query_seed(seed, 0))

    def plain_run() -> float:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            mixtv.cli.run(first)
            return time.perf_counter() - t0

    plain_run()  # warm-up, so that neither side of the overhead pays first-call costs
    tracer = tracing.Tracer()
    counters: dict = {}
    failures = 0
    tracer.install()
    try:
        deadline = time.perf_counter() + seconds
        while tracer.query < 0 or time.perf_counter() < deadline:
            argv = setup.workload.argv(str(setup.path), query_seed(seed, tracer.query + 1))
            out = io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = tracer.cli_run(argv)
                why = judge(setup.workload, code, out.getvalue(), setup.tv_ref, setup.digest)
            except Exception:  # an uncaught error in the program fails this query only
                why = traceback.format_exc()
            if why is not None:
                failures += 1
                print(f"traced query {tracer.query} failed: {why}", file=sys.stderr)
            if tracer.query == 0:
                counters = tracing.counter_metrics(tracer)
                tracer.results.clear()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    metrics.update(counters)

    plain = plain_run()
    traced_first = tracer.spans[0][2] - tracer.spans[0][1]
    metrics["tracing.overhead_s"] = traced_first - plain
    metrics["tracing.overhead_share"] = (traced_first - plain) / plain
    metrics["tracing.spans"] = sum(1 for span in tracer.spans if span[4] == 0)
    metrics["oracle.reference_s"] = setup.reference_s
    tracer.dump(WORK / f"spans-{setup.workload.name}.json")
    return metrics, tracer.query + 1, failures


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    setup = Setup(workload, seed)
    try:
        print(f"# {workload.name}: seed {seed}, instance digest {setup.digest}, reference TV {setup.tv_ref!r}")
        return (traced_run if trace else timed_run)(setup, seed, seconds)
    finally:
        setup.remove()


def import_program() -> str | None:
    """Put the checkout's src/ first on the path and import mixtv from it, or say why not."""
    if not (SRC / "mixtv" / "cli.py").is_file():
        return f"no mixtv sources at {SRC}"
    sys.path.insert(0, str(SRC))
    import mixtv

    if Path(mixtv.__file__).resolve().parent != SRC / "mixtv":
        return f"imported mixtv from {mixtv.__file__}, not from {SRC}"
    return None


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for one mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = import_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import workloads

    suite = workloads()
    if args.workload != "all" and args.workload not in suite:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(suite)} or all", file=sys.stderr)
        return 2
    names = sorted(suite) if args.workload == "all" else [args.workload]

    print("# environment " + json.dumps(environment(), sort_keys=True))
    units = declared_units(bool(args.trace))
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        got, att, fail = run_workload(suite[name], args.seed, args.seconds, bool(args.trace))
        attempted += att
        failed += fail
        if set(got) != set(units):
            raise SystemExit(f"metrics {sorted(set(got) ^ set(units))} disagree with BENCHMARK.json")
        print(f"# {name}: {att} queries, {fail} failed")
        print(f"{name:12s} {'fail_share':32s} {fail / att:>16.6g} ratio")
        for key, unit in units.items():
            print(f"{name:12s} {key:32s} {got[key]:>16.6g} {unit}")
            metrics[key if len(names) == 1 else f"{name}.{key}"] = {"value": got[key], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
