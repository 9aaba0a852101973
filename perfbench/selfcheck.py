"""Self-check of the benchmark: every workload at toy scale, in seconds.

    python3 perfbench/selfcheck.py

Runs each workload's timed and traced paths on toy-sized instances and
requires every query to pass its correctness gate.  Then it shows that the
gate can fail: one more CLI query per workload is judged against a reference
shifted past the gate's tolerance (down by three Hoeffding half-widths for
approx, up by 1e-9 for exact) and must be rejected.  Exits 0 only when
all of this holds.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    error = run.import_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import EXACT_TOL, workloads

    seed = 7
    problems = []
    launcher = run.CLI_LAUNCHER.format(src=str(run.SRC))
    for name, workload in sorted(workloads(toy=True).items()):
        setup = run.Setup(workload, seed)
        try:
            timed, attempted, failed = run.timed_run(setup, seed, seconds=0.0)
            layers, t_attempted, t_failed = run.traced_run(setup, seed, seconds=0.0)
            res = run.spawn([sys.executable, "-I", "-c", launcher, *workload.argv(str(setup.path), 1)], 60.0)
        finally:
            setup.remove()
        for got, trace in ((timed, False), (layers, True)):
            if set(got) != set(run.declared_units(trace)):
                problems.append(f"{name}: metrics {sorted(set(got) ^ set(run.declared_units(trace)))} disagree with BENCHMARK.json")
        if failed or t_failed:
            problems.append(f"{name}: {failed}/{attempted} timed and {t_failed}/{t_attempted} traced queries failed")
        ok = run.judge(workload, res["code"], res["stdout"], setup.tv_ref, setup.digest)
        if workload.command == "approx":
            disc = json.loads(res["stdout"])["result"]["discrepancy"]
            shift = -3.0 * workload.halfwidth(disc)  # downward, so only the Hoeffding check can trip
        else:
            shift = 1000.0 * EXACT_TOL
        shifted = run.judge(workload, res["code"], res["stdout"], setup.tv_ref + shift, setup.digest)
        if ok is not None:
            problems.append(f"{name}: query failed against the true reference: {ok}")
        if shifted is None:
            problems.append(f"{name}: gate accepted a reference shifted by {shift:.3g}")
        print(f"{name}: reference TV {setup.tv_ref:.6f}; shifted by {shift:.3g} -> rejected: {shifted}")
        for key, unit in {**run.declared_units(False), **run.declared_units(True)}.items():
            print(f"  {key:32s} {timed.get(key, layers.get(key, float('nan'))):>14.6g} {unit}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
