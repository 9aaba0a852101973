import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mixtv as mx
from mixtv import cli
from conftest import uniform_bits, weight_shifted_pair


ROOT = Path(__file__).resolve().parents[1]
# The environment of a child that imports mixtv from this checkout.
SRC_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_cli(capsys, args):
    code = cli.run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(path, p, q):
    path.write_text(json.dumps(mx.instance_document(p, q)))
    return str(path)


@pytest.fixture
def identical_instance(tmp_path):
    p = uniform_bits(2)
    return write_instance(tmp_path / "ident.json", p, p)


@pytest.fixture
def small_instance(tmp_path):
    p, q = mx.random_instance(2, 2, 2, 2, seed=5)
    return write_instance(tmp_path / "small.json", p, q)


class TestApprox:
    def test_early_exit_on_identical(self, capsys, identical_instance):
        code, out, err = run_cli(
            capsys, ["approx", "--input", identical_instance, "--epsilon", "0.1"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["estimate"] == 0
        assert report["result"]["samples"] == 0
        assert report["warnings"] == []
        assert "approx" in err

    def test_override_warns(self, capsys, small_instance):
        code, out, _ = run_cli(
            capsys,
            ["approx", "--input", small_instance, "--epsilon", "0.3", "--samples", "100"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["samples"] == 100
        assert any("override" in w for w in report["warnings"])

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["approx", "--input", "/nope.json", "--epsilon", "0.1"])
        assert code == 3
        assert json.loads(err)["error"] == "validation"

    def test_bad_epsilon_is_validation_error(self, capsys, small_instance):
        for epsilon in ("-1", "inf", "nan"):
            code, _, err = run_cli(
                capsys, ["approx", "--input", small_instance, "--epsilon", epsilon]
            )
            assert code == 3
            assert json.loads(err)["error"] == "validation"

    def test_huge_epsilon_draws_one_sample(self, capsys, small_instance):
        code, out, _ = run_cli(
            capsys, ["approx", "--input", small_instance, "--epsilon", "1e200"]
        )
        assert code == 0
        assert json.loads(out)["result"]["samples"] == 1

    def test_zero_denominator_is_numerical_error(self, capsys, tmp_path):
        # No coordinate agrees, so the core keeps all 2500; each cube is free
        # at about 1667 of them, and 2^-1667 underflows: every sampled sigma
        # has zero failure mass.
        path = write_instance(tmp_path / "underflow.json", *weight_shifted_pair(2500))
        code, out, err = run_cli(
            capsys, ["approx", "--input", path, "--epsilon", "0.5", "--samples", "5"]
        )
        assert code == 5
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "numerical"
        assert "n=2500" in error["detail"]
        assert len(error["detail"]) < 200

    def test_fact_violation_is_numerical_error(self, capsys, monkeypatch, small_instance):
        def violate(*args, **kwargs):
            raise mx.FactViolation("f exceeds 1")

        monkeypatch.setattr(cli.estimator, "approximate_tv", violate)
        code, _, err = run_cli(
            capsys, ["approx", "--input", small_instance, "--epsilon", "0.1"]
        )
        assert code == 5
        assert json.loads(err) == {"error": "numerical", "detail": "f exceeds 1"}


class TestExactAndBrute:
    def test_exact_subcube_agrees_with_brute(self, capsys, tmp_path):
        p, q = mx.random_instance(6, 2, 2, 2, seed=9, family="subcube")
        path = write_instance(tmp_path / "s.json", p, q)
        code, out, _ = run_cli(capsys, ["exact-subcube", "--input", path])
        assert code == 0
        exact = json.loads(out)["result"]["tv"]
        code, out, _ = run_cli(capsys, ["brute", "--input", path])
        assert code == 0
        brute = json.loads(out)["result"]["tv"]
        assert exact == pytest.approx(brute, abs=1e-12)

    def test_exact_subcube_rejects_general(self, capsys, small_instance):
        code, _, err = run_cli(capsys, ["exact-subcube", "--input", small_instance])
        assert code == 3
        assert json.loads(err)["error"] == "validation"

    def test_exact_subcube_names_the_bad_marginal_as_a_float(self, capsys):
        args = ["exact-subcube", "--input", "instances/smoke-general-n2q2.json"]
        code, _, err = run_cli(capsys, args)
        assert code == 3
        assert json.loads(err)["detail"] == (
            "component 0, coordinate 1: marginal 0.5192070886107825 is not 0, 1/2, or 1"
        )

    def test_exact_subcube_size_guard(self, capsys, tmp_path):
        p, q = mx.random_instance(3, 2, 20, 20, seed=0, family="subcube")
        path = write_instance(tmp_path / "k40.json", p, q)
        code, _, err = run_cli(capsys, ["exact-subcube", "--input", path])
        assert code == 4
        assert json.loads(err)["error"] == "size-guard"

    def test_brute_size_guard(self, capsys, tmp_path):
        for n in (30, 15_000):
            p, q = mx.random_instance(n, 2, 1, 1, seed=0)
            path = write_instance(tmp_path / "big.json", p, q)
            code, _, err = run_cli(capsys, ["brute", "--input", path])
            assert code == 4, n
            assert json.loads(err) == {
                "error": "size-guard",
                "detail": f"q^n = 2^{n} exceeds max_configs={cli.DEFAULT_MAX_CONFIGS}",
            }

    def test_non_positive_max_configs_is_validation_error(self, capsys, small_instance):
        for limit in ("0", "-1"):
            code, out, err = run_cli(
                capsys, ["brute", "--input", small_instance, "--max-configs", limit]
            )
            assert code == 3, limit
            assert out == ""
            assert json.loads(err)["error"] == "validation"


class TestCouplingStats:
    def test_state_count_within_bound(self, capsys, small_instance):
        code, out, _ = run_cli(capsys, ["coupling-stats", "--input", small_instance])
        assert code == 0
        stats = json.loads(out)["result"]
        assert stats["state_bound"] == (2 * 2 + 1) ** 3 + 1 == 126
        assert stats["num_states"] <= 126
        assert len(stats["layer_sizes"]) == 3

    def test_dump_file(self, capsys, small_instance, tmp_path):
        dump = tmp_path / "dag.json"
        code, out, _ = run_cli(
            capsys, ["coupling-stats", "--input", small_instance, "--dump", str(dump)]
        )
        assert code == 0
        doc = json.loads(dump.read_text())
        stats = json.loads(out)["result"]
        assert len(doc["transitions"]) == stats["num_transitions"]
        assert doc["states"][0]["layer"] == 1

    def test_dump_too_large_is_refused_before_writing(self, capsys, tmp_path):
        # One state per layer, so the path keys hold 6000 * 6001 / 2 symbols.
        n, h = 6000, [0.5, 0.5]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "q": 2, "n": n,
            "p": {"weights": [1.0], "components": [[h] * n]},
            "q_dist": {"weights": [1.0], "components": [[[1.0, 0.0]] + [h] * (n - 1)]},
        }))
        dump = tmp_path / "dag.json"
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, ["coupling-stats", "--input", str(path), "--dump", str(dump)]
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (4, "")
        assert json.loads(err) == {
            "error": "size-guard",
            "detail": f"--dump would write 18003000 path-key symbols, above {2**24}",
        }
        assert not dump.exists()

    def test_max_states_guard(self, capsys, small_instance):
        code, _, err = run_cli(
            capsys, ["coupling-stats", "--input", small_instance, "--max-states", "2"]
        )
        assert code == 4

    def test_non_positive_max_states_is_validation_error(self, capsys, small_instance):
        for limit in ("0", "-1"):
            for args in (
                ["coupling-stats", "--input", small_instance],
                ["approx", "--input", small_instance, "--epsilon", "0.2", "--samples", "20"],
            ):
                code, out, err = run_cli(capsys, [*args, "--max-states", limit])
                assert code == 3, (args[0], limit)
                assert out == ""
                assert json.loads(err)["error"] == "validation"

    def test_handles_wide_instances(self, capsys, tmp_path):
        p, q = mx.random_instance(50, 4, 2, 2, seed=12)
        path = write_instance(tmp_path / "wide.json", p, q)
        code, out, _ = run_cli(capsys, ["coupling-stats", "--input", path])
        assert code == 0
        stats = json.loads(out)["result"]
        assert stats["num_states"] <= (50 * 4 + 1) ** 3 + 1
        assert len(stats["layer_sizes"]) == 51


class TestGen:
    def test_random_round_trip(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            ["gen", "random", "--n", "3", "--q", "2", "--k1", "2", "--k2", "1",
             "--seed", "7", "--subcube"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["family"] == "subcube"
        p, q = mx.parse_instance(report["result"]["instance"])
        mx.classify_subcube(p)

    def test_random_output_file(self, capsys, tmp_path):
        target = tmp_path / "inst.json"
        code, out, _ = run_cli(
            capsys,
            ["gen", "random", "--n", "2", "--q", "3", "--k1", "1", "--k2", "1",
             "--seed", "1", "--output", str(target)],
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert json.loads(out)["result"]["instance"] == doc

    @pytest.mark.parametrize("generator", ["random", "from-cnf"])
    def test_output_file_holds_the_bytes_it_hashes(self, capsys, tmp_path, generator):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
        args = {
            "random": ["gen", "random", "--n", "5", "--q", "3", "--k1", "2", "--k2", "2",
                       "--seed", "4"],
            "from-cnf": ["gen", "from-cnf", "--dimacs", str(cnf)],
        }[generator]
        target = tmp_path / "inst.json"
        code, out, _ = run_cli(capsys, [*args, "--output", str(target)])
        assert code == 0
        report = json.loads(out)
        data = target.read_bytes()
        assert data == cli._canonical(report["result"]["instance"]).encode()
        assert hashlib.sha256(data).hexdigest() == report["digest"]

    def test_subcube_needs_binary(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["gen", "random", "--n", "2", "--q", "3", "--k1", "1", "--k2", "1",
             "--seed", "1", "--subcube"],
        )
        assert code == 3

    def test_from_cnf_single_clause(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("c single clause\np cnf 3 1\n1 2 3 0\n")
        code, out, _ = run_cli(capsys, ["gen", "from-cnf", "--dimacs", str(cnf)])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["predicted_tv"] == 0.9375
        instance = result["instance"]
        assert instance["n"] == 4
        assert len(instance["p"]["weights"]) == 1
        assert len(instance["q_dist"]["weights"]) == 2

    def test_from_cnf_reads_satlib_files(self, capsys, tmp_path):
        cnf = tmp_path / "uf3-01.cnf"
        cnf.write_text("c SATLIB style\np cnf 3  2 \n 1 2 3 0\n-1 -2 -3 0\n%\n0\n\n")
        code, out, _ = run_cli(capsys, ["gen", "from-cnf", "--dimacs", str(cnf)])
        assert code == 0
        assert json.loads(out)["result"]["instance"]["n"] == 4

    def test_from_cnf_bad_formula(self, capsys, tmp_path):
        cnf = tmp_path / "bad.cnf"
        cnf.write_text("p cnf 3 1\n1 2 0\n")
        code, _, _ = run_cli(capsys, ["gen", "from-cnf", "--dimacs", str(cnf)])
        assert code == 3

    def test_from_cnf_one_header_before_the_clauses(self, capsys, tmp_path):
        for name, text in (
            ("second-header", "p cnf 3 1\np cnf 4 2\n1 2 3 0\n-1 -2 4 0\n"),
            ("clauses-first", "1 2 3 0\np cnf 3 1\n"),
        ):
            cnf = tmp_path / f"{name}.cnf"
            cnf.write_text(text)
            code, out, err = run_cli(capsys, ["gen", "from-cnf", "--dimacs", str(cnf)])
            assert (code, out) == (3, ""), name
            error = json.loads(err)
            assert error["error"] == "validation", name
            assert "DIMACS header" in error["detail"], name


class TestShippedSmokeInstances:
    """The seeded instances under instances/ keep approx and brute in agreement."""

    @pytest.mark.parametrize(
        "name",
        ["smoke-general-n2q2.json", "smoke-general-n3q3.json", "smoke-subcube-n4.json"],
    )
    def test_approx_agrees_with_brute_within_epsilon(self, capsys, name):
        path = f"instances/{name}"
        epsilon = 0.2
        _, out, _ = run_cli(capsys, ["brute", "--input", path])
        brute = json.loads(out)["result"]["tv"]
        for seed in (0, 1, 2):
            code, out, _ = run_cli(
                capsys,
                ["approx", "--input", path, "--epsilon", str(epsilon),
                 "--seed", str(seed), "--samples", "20000"],
            )
            assert code == 0
            estimate = json.loads(out)["result"]["estimate"]
            assert abs(estimate - brute) <= epsilon * brute


class TestReports:
    def test_usage_errors(self, capsys):
        assert run_cli(capsys, ["approx", "--input"])[0] == 2
        assert run_cli(capsys, ["frobnicate"])[0] == 2
        assert run_cli(capsys, [])[0] == 2
        for removed in (["--workers", "2"], ["--gamma", "0.5"]):
            args = ["approx", "--input", "x.json", "--epsilon", "0.1", *removed]
            assert run_cli(capsys, args)[0] == 2

    def test_negative_seed_is_validation_error(self, capsys, small_instance):
        for args in (
            ["approx", "--input", small_instance, "--epsilon", "0.2",
             "--samples", "20", "--seed", "-1"],
            ["gen", "random", "--n", "3", "--q", "2", "--k1", "1", "--k2", "1",
             "--seed", "-1"],
        ):
            code, out, err = run_cli(capsys, args)
            assert code == 3, args[0]
            assert out == ""
            assert json.loads(err)["error"] == "validation"

    @pytest.mark.parametrize(
        "args",
        [
            ["exact-subcube", "--input", "instances/smoke-subcube-n4.json"],
            ["approx", "--input", "instances/smoke-general-n3q3.json", "--epsilon", "0.2",
             "--samples", "300", "--seed", "7"],
            ["coupling-stats", "--input", "instances/smoke-subcube-deep-n120.json"],
        ],
        ids=["exact-subcube", "approx", "coupling-stats"],
    )
    def test_python_dash_m_prints_the_same_report(self, capsys, monkeypatch, args):
        proc = subprocess.run(
            [sys.executable, "-m", "mixtv", *args],
            cwd=ROOT,
            env=SRC_ENV,
            capture_output=True,
            text=True,
            timeout=60,
        )
        monkeypatch.chdir(ROOT)
        code, out, _ = run_cli(capsys, args)
        assert (proc.returncode, code) == (0, 0)
        assert proc.stdout == out

    def test_console_script_runs_with_the_import_heap_frozen(self):
        # main() freezes what the imports built before it calls run().
        script = (
            "import gc, sys\n"
            "from mixtv import cli\n"
            "real_run = cli.run\n"
            "def run():\n"
            "    print(gc.get_freeze_count(), file=sys.stderr)\n"
            "    return real_run()\n"
            "cli.run = run\n"
            "cli.main()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "exact-subcube",
             "--input", "instances/smoke-subcube-n4.json"],
            cwd=ROOT,
            env=SRC_ENV,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stderr.splitlines()[0]) > 0
        assert json.loads(proc.stdout)["result"]["k1"] == 2

    def test_reader_closing_the_pipe_early_exits_1_without_a_traceback(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "mixtv", "coupling-stats",
             "--input", "instances/smoke-subcube-deep-n120.json"],
            cwd=ROOT,
            env=SRC_ENV,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # like `| head` exiting before the report is written
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b""

    @pytest.mark.parametrize("stdout", ["closed-fd", "full-device"])
    def test_unwritable_stdout_exits_1_without_a_traceback(self, stdout):
        command = [sys.executable, "-m", "mixtv", "exact-subcube",
                   "--input", "instances/smoke-subcube-n4.json"]
        if stdout == "closed-fd":  # the shell's >&-: Python starts with sys.stdout None
            command = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                command,
                cwd=ROOT,
                env=SRC_ENV,
                stdout=None if stdout == "closed-fd" else full,
                stderr=subprocess.PIPE,
                timeout=60,
            )
        assert proc.returncode == 1
        assert proc.stderr == b""

    @pytest.mark.parametrize("stderr", ["closed-pipe", "closed-fd", "full-device"])
    @pytest.mark.parametrize(
        "args, code_expected",
        [
            (["exact-subcube", "--input", "instances/smoke-subcube-n4.json"], 0),
            (["exact-subcube", "--input", "instances/missing.json"], 3),
            (["frobnicate"], 2),
        ],
        ids=["report", "missing-file", "usage"],
    )
    def test_unwritable_stderr_changes_neither_stdout_nor_the_exit_code(
        self, capsys, monkeypatch, args, code_expected, stderr
    ):
        command = [sys.executable, "-m", "mixtv", *args]
        if stderr == "closed-fd":  # the shell's 2>&-: Python starts with sys.stderr None
            command = ["sh", "-c", 'exec "$@" 2>&-', "sh", *command]
        with open("/dev/full", "wb") as full:
            sink = {"closed-pipe": subprocess.PIPE, "closed-fd": None, "full-device": full}
            proc = subprocess.Popen(
                command, cwd=ROOT, env=SRC_ENV, stdout=subprocess.PIPE, stderr=sink[stderr]
            )
        if stderr == "closed-pipe":
            proc.stderr.close()  # the reader of stderr is gone before the child writes
        out, _ = proc.communicate(timeout=60)
        monkeypatch.chdir(ROOT)
        code, want, _ = run_cli(capsys, args)
        assert (proc.returncode, code) == (code_expected, code_expected)
        assert out.decode() == want

    def test_usage_error_detail_is_json(self, capsys):
        code, out, err = run_cli(capsys, ["frobnicate"])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "usage"

    def test_stdout_bytes_deterministic(self, capsys, small_instance):
        args = ["approx", "--input", small_instance, "--epsilon", "0.3",
                "--samples", "64", "--seed", "11"]
        _, out1, _ = run_cli(capsys, args)
        _, out2, _ = run_cli(capsys, args)
        assert out1.encode() == out2.encode()

    def test_digest_ignores_whitespace(self, capsys, tmp_path):
        p, q = mx.random_instance(2, 2, 1, 1, seed=3)
        doc = mx.instance_document(p, q)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(doc))
        b.write_text(json.dumps(doc, indent=4))
        _, out_a, _ = run_cli(capsys, ["brute", "--input", str(a)])
        _, out_b, _ = run_cli(capsys, ["brute", "--input", str(b)])
        assert json.loads(out_a)["digest"] == json.loads(out_b)["digest"]

    @pytest.mark.parametrize(
        "args, digest",
        [
            (["brute", "--input", "instances/smoke-general-n2q2.json"],
             "4aba36f6d2880170dff236445acb0faf62152d437d1ce35372c445a8559957bd"),
            (["brute", "--input", "instances/smoke-general-n3q3.json"],
             "d9750ed7956571409cd77b3783aa7815896c0401609f0f278b8f19fb1d86aa04"),
            (["exact-subcube", "--input", "instances/smoke-subcube-n4.json"],
             "f348d6fb0d85523da37ad5ae71acc4adf5cc8306d10987e3a193d5cb90530a0d"),
            (["gen", "random", "--n", "3", "--q", "2", "--k1", "2", "--k2", "2", "--seed", "7"],
             "30a304a52a52cfca6304669984b49482ffba6989850076a10911e32703b83127"),
        ],
    )
    def test_digest_is_pinned(self, capsys, monkeypatch, args, digest):
        # SHA-256 of the canonical encoding; a change to the encoding shows here.
        monkeypatch.chdir(ROOT)
        code, out, _ = run_cli(capsys, args)
        assert code == 0
        assert json.loads(out)["digest"] == digest

    def test_digest_of_the_benchmark_layout(self, capsys, tmp_path):
        # The benchmark writes compact JSON with keys in instance_document order,
        # `gen --output` writes it compact with keys sorted, hand-written files
        # are often indented, and json.dump's default layout puts a space after
        # each "," and ":".
        doc = mx.instance_document(*mx.random_instance(200, 2, 3, 2, seed=8, family="subcube"))
        layouts = {
            "compact": {"separators": (",", ":")},
            "indented": {"sort_keys": True, "indent": 2},
            "default": {},
        }
        digests = set()
        for stem, layout in layouts.items():
            path = tmp_path / f"{stem}.json"
            path.write_text(json.dumps(doc, **layout))
            # Both blocks take the fast path: a fallback to the whole-file parse shows here.
            data = path.read_bytes()
            assert len(cli._skeleton(data)[1]) == 2
            read, _ = cli._read(data, str(path))
            assert [type(read[name]["components"]) for name in ("p", "q_dist")] == [np.ndarray] * 2
            code, out, _ = run_cli(capsys, ["exact-subcube", "--input", str(path)])
            assert code == 0
            digests.add(json.loads(out)["digest"])
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert digests == {hashlib.sha256(canonical.encode()).hexdigest()}

    def test_gen_digest_is_the_read_digest(self, capsys, tmp_path):
        target = tmp_path / "gen.json"
        code, out, _ = run_cli(
            capsys,
            ["gen", "random", "--n", "300", "--q", "2", "--k1", "3", "--k2", "2",
             "--seed", "1", "--subcube", "--output", str(target)],
        )
        assert code == 0
        code, read, _ = run_cli(capsys, ["exact-subcube", "--input", str(target)])
        assert code == 0
        assert json.loads(out)["digest"] == json.loads(read)["digest"]

    def test_report_echoes_command(self, capsys, small_instance):
        args = ["brute", "--input", small_instance]
        _, out, _ = run_cli(capsys, args)
        assert json.loads(out)["command"] == args

    def test_malformed_json_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["brute", "--input", str(path)])
        assert code == 3
        p = uniform_bits(2)
        doc = mx.instance_document(p, p)
        cases = [b"5", b"\xff\xfe not utf-8"]
        for q in ("abc", None, 2.7):
            cases.append(json.dumps({**doc, "q": q}).encode())
        # A JSON integer too large for a float.
        cases.append(json.dumps({**doc, "p": {**doc["p"], "weights": [10**400]}}).encode())
        # Strings and booleans are not numbers.
        for weights, row in ((["1"], [0.5, 0.5]), ([1.0], [" 0.5 ", 0.5]), ([1.0], [True, False])):
            mix = {"weights": weights, "components": [[row, row]]}
            cases.append(json.dumps({**doc, "q_dist": mix}).encode())
        # A null is a non-number too, not a non-finite probability.
        nulls = []
        for weights, row in (([None], [0.5, 0.5]), ([1.0], [None, 0.5])):
            mix = {"weights": weights, "components": [[row, row]]}
            nulls.append(json.dumps({**doc, "p": mix}).encode())
        for raw in cases + nulls:
            path.write_bytes(raw)
            code, _, err = run_cli(capsys, ["exact-subcube", "--input", str(path)])
            assert code == 3, raw[:20]
            assert json.loads(err)["error"] == "validation"
            if raw in nulls:
                assert "must be numbers, got null" in json.loads(err)["detail"]

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_collector_state_is_restored(self, capsys, tmp_path, small_instance, enabled):
        # In process, run() leaves the collector as it found it on every exit
        # path: enabled or not, and nothing frozen (only main() freezes).
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        invalid = tmp_path / "invalid.json"
        invalid.write_text(json.dumps({"q": 2, "n": 1, "p": {}}))
        cases = [
            (small_instance, 0),
            (str(broken), 3),
            (str(invalid), 3),
            (str(tmp_path / "missing.json"), 3),
        ]
        was_enabled = gc.isenabled()
        frozen = gc.get_freeze_count()
        try:
            for path, code_expected in cases:
                (gc.enable if enabled else gc.disable)()
                code, _, _ = run_cli(capsys, ["brute", "--input", path])
                assert (code, gc.isenabled()) == (code_expected, enabled), path
                assert gc.get_freeze_count() == frozen, path
        finally:
            (gc.enable if was_enabled else gc.disable)()


class TestErrorCategories:
    """The class of an error alone decides the exit code and the stderr label."""

    @staticmethod
    def error_classes(cls=mx.MixtvError):
        for sub in cls.__subclasses__():
            yield sub
            yield from TestErrorCategories.error_classes(sub)

    def test_every_error_class_maps_to_one_exit_code(self, capsys, monkeypatch):
        categories = {
            mx.ValidationError: (3, "validation"),
            mx.TooLarge: (4, "size-guard"),
            mx.NumericalError: (5, "numerical"),
        }
        classes = set(self.error_classes())
        assert set(categories) <= classes
        path = str(ROOT / "instances/smoke-subcube-n4.json")
        for cls in classes:
            owners = [v for base, v in categories.items() if issubclass(cls, base)]
            assert len(owners) == 1, cls.__name__
            (code_expected, label), = owners

            def fail(*args, cls=cls, **kwargs):
                raise cls(f"raised {cls.__name__}")

            monkeypatch.setattr("mixtv.subcube.exact_subcube_tv", fail)
            code, out, err = run_cli(capsys, ["exact-subcube", "--input", path])
            assert out == ""
            assert (code, json.loads(err)) == (
                code_expected,
                {"error": label, "detail": f"raised {cls.__name__}"},
            ), cls.__name__

    @pytest.mark.parametrize(
        "args",
        [
            ["approx", "--input", "{bad}", "--epsilon", "0.2"],
            ["exact-subcube", "--input", "{bad}"],
            ["brute", "--input", "{bad}"],
            ["coupling-stats", "--input", "{bad}"],
            ["coupling-stats", "--input", "{good}", "--dump", "{bad}"],
            ["gen", "random", "--n", "2", "--q", "2", "--k1", "1", "--k2", "1",
             "--seed", "0", "--output", "{bad}"],
            ["gen", "from-cnf", "--dimacs", "{bad}"],
        ],
        ids=["approx", "exact-subcube", "brute", "coupling-stats", "dump", "gen-output", "dimacs"],
    )
    def test_unopenable_path_is_validation_error(self, capsys, small_instance, args):
        # A path under a regular file raises NotADirectoryError.
        paths = {"good": small_instance, "bad": f"{small_instance}/x"}
        code, out, err = run_cli(capsys, [a.format(**paths) for a in args])
        assert code == 3
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "validation"
        assert "Not a directory" in error["detail"]

    def test_deeply_nested_json_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 3000 + "]" * 3000)
        code, out, err = run_cli(capsys, ["brute", "--input", str(path)])
        assert code == 3
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "validation"
        assert str(path) in error["detail"]

    def test_over_long_integer_is_validation_error(self, capsys, tmp_path):
        # Python refuses to convert a decimal integer of more than 4300 digits.
        big = "1" + "0" * 5000
        p = uniform_bits(2)
        doc = mx.instance_document(p, p)
        texts = {
            "meta": json.dumps({**doc, "meta": "BIG"}),
            "weight": json.dumps({**doc, "p": {**doc["p"], "weights": ["BIG"]}}),
        }
        for name, text in texts.items():
            path = tmp_path / f"{name}.json"
            path.write_text(text.replace('"BIG"', big))
            code, out, err = run_cli(capsys, ["exact-subcube", "--input", str(path)])
            assert (code, out) == (3, ""), name
            error = json.loads(err)
            assert error["error"] == "validation"
            assert str(path) in error["detail"]
