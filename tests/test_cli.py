"""Command-line surface: reports, exit codes, file formats."""
import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from permpat import backend, build_core, count_inversions, gap, matching, psi
from permpat.cli import main
from permpat.core import Permutation


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args))


def payload(result):
    return json.loads(result.output)


class TestDetect:
    def test_contains(self, runner):
        res = run(runner, "detect", "--pattern", "312", "--text", "24153")
        assert res.exit_code == 0
        doc = payload(res)
        assert doc["command"] == "detect"
        assert doc["result"]["contains"] is True
        assert doc["inputs"]["pattern"] == "3 1 2"

    def test_left_aligned_flag(self, runner):
        res = run(runner, "detect", "--pattern", "12", "--text", "21", "--left-aligned")
        assert res.exit_code == 0
        assert payload(res)["result"]["contains"] is False

    def test_expect_match_and_mismatch(self, runner):
        ok = run(runner, "detect", "--pattern", "312", "--text", "24153", "--expect", "yes")
        assert ok.exit_code == 0
        bad = run(runner, "detect", "--pattern", "312", "--text", "24153", "--expect", "no")
        assert bad.exit_code == 1

    def test_malformed_permutation(self, runner):
        res = run(runner, "detect", "--pattern", "1 1 2", "--text", "24153")
        assert res.exit_code == 2

    def test_file_input(self, runner, tmp_path):
        f = tmp_path / "text.perm"
        f.write_text("2 4 1 5 3\n")
        res = run(runner, "detect", "--pattern", "312", "--text", f"@{f}")
        assert res.exit_code == 0
        assert payload(res)["result"]["contains"] is True

    def test_plain_format(self, runner):
        res = run(runner, "detect", "--pattern", "1", "--text", "1", "--format", "plain")
        assert res.exit_code == 0
        assert "contains: True" in res.output

    def test_report_names_its_backend(self, runner):
        doc = payload(run(runner, "detect", "--pattern", "312", "--text", "24153"))
        assert doc["backend"] == backend.BACKEND_NAME
        assert list(doc) == ["command", "backend", "inputs", "result", "elapsed_ms"]
        assert doc["result"] == {"contains": True}
        plain = run(runner, "detect", "--pattern", "312", "--text", "24153", "--format", "plain")
        assert plain.output.splitlines() == [
            "command: detect", "  pattern: 3 1 2", "  text: 2 4 1 5 3", "  left_aligned: False", "contains: True",
        ]


class TestCount:
    def test_exact(self, runner):
        res = run(runner, "count", "--pattern", "213", "--text", "24153")
        assert payload(res)["result"]["count"] == "3"

    def test_naive(self, runner):
        res = run(runner, "count", "--pattern", "213", "--text", "24153", "--mode", "naive")
        assert payload(res)["result"]["count"] == "3"

    def test_naive_refuses_a_long_text_before_enumerating(self, runner, tmp_path):
        # C(10^5, 2) = 4,999,950,000 pairs would take about an hour
        f = tmp_path / "inc.txt"
        f.write_text(" ".join(map(str, range(1, 10**5 + 1))))
        res = run(runner, "count", "--pattern", "21", "--text", f"@{f}", "--mode", "naive")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [
            "error: text too long for the naive count: C(100000, 2) subsets exceed 10000000"
        ]

    def test_left_mode_reports_both(self, runner):
        res = run(runner, "count", "--pattern", "213", "--text", "24153", "--mode", "left")
        doc = payload(res)["result"]
        assert doc == {"direct": "2", "difference": "2", "agree": True}
        assert res.exit_code == 0

    def test_inversions_without_pattern(self, runner):
        res = run(runner, "count", "--text", "24153", "--mode", "inversions")
        assert payload(res)["result"]["count"] == "4"

    def test_pattern_required_otherwise(self, runner):
        res = run(runner, "count", "--text", "24153")
        assert res.exit_code == 2

    def test_approx(self, runner):
        res = run(runner, "count", "--pattern", "321", "--text", "123", "--mode", "approx")
        assert payload(res)["result"]["estimate"] == "0"

    def test_approx_estimate_past_str_limit(self, runner, tmp_path):
        # isqrt(5000^5000) has 9248 digits, past Python's 4300-digit str limit
        f = tmp_path / "inc.txt"
        f.write_text(" ".join(map(str, range(1, 5001))))
        res = run(runner, "count", "--pattern", f"@{f}", "--text", f"@{f}", "--mode", "approx")
        assert res.exit_code == 2
        assert res.output.strip().splitlines() == [
            "error: estimate has 9248 decimal digits, over the 4300-digit output limit"
        ]

    def test_repeated_value_in_a_million_is_one_short_error_line(self, runner, tmp_path):
        # the message names the first offending position, not the whole text
        values = list(range(1, 10**6 + 1))
        values[-1] = 17
        f = tmp_path / "dup.txt"
        f.write_text(" ".join(map(str, values)))
        res = run(runner, "count", "--mode", "inversions", "--text", f"@{f}")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [
            "error: not a bijection on 1..1000000: value 17 at position 1000000 repeats"
        ]
        assert len(res.stderr.encode()) < 200

    def test_counts_are_decimal_strings(self, runner):
        res = run(runner, "count", "--pattern", "12", "--text", " ".join(map(str, range(1, 31))))
        assert payload(res)["result"]["count"] == str(30 * 29 // 2)


def assert_dumps_line(stdout):
    """stdout is one json.dumps line; returns the report."""
    report = json.loads(stdout)
    assert stdout == json.dumps(report) + "\n"
    return report


ECHO_VALUES = random.Random(17).sample(range(1, 10**5 + 1), 10**5)
ECHO_FILES = {
    "canonical": " ".join(map(str, ECHO_VALUES)),
    "final-newline": " ".join(map(str, ECHO_VALUES)) + "\n",
    "double-space": " ".join(map(str, ECHO_VALUES[:50])) + "  " + " ".join(map(str, ECHO_VALUES[50:])),
    "tab": "\t".join(map(str, ECHO_VALUES)),
    "leading-zero": "0" + " ".join(map(str, ECHO_VALUES)),
}


class TestEcho:
    """Each echoed text is the permutation's one-line form, written into a
    report that equals json.dumps of itself, whether or not the input was
    already canonical."""

    @pytest.mark.parametrize("name", list(ECHO_FILES))
    def test_file_echo(self, runner, tmp_path, name):
        f = tmp_path / f"{name}.txt"
        f.write_text(ECHO_FILES[name])
        res = run(runner, "count", "--mode", "inversions", "--text", f"@{f}")
        assert res.exit_code == 0
        report = assert_dumps_line(res.stdout)
        assert report["inputs"]["text"] == " ".join(map(str, ECHO_VALUES))
        assert report["result"] == {"count": str(count_inversions(Permutation(ECHO_VALUES)))}

    def test_inline_digit_string(self, runner):
        res = run(runner, "detect", "--pattern", "21", "--text", "24153")
        report = assert_dumps_line(res.stdout)
        assert (report["inputs"]["pattern"], report["inputs"]["text"]) == ("2 1", "2 4 1 5 3")

    def test_gap_core_inflations(self, runner):
        res = run(runner, "gap", "core", "--pattern", "21", "--text", "2 4\t1 3\n", "--alpha", "2")
        assert res.exit_code == 0
        report = assert_dumps_line(res.stdout)
        core = build_core(Permutation((2, 1)), Permutation((2, 4, 1, 3)), 2)
        assert report["inputs"]["text"] == "2 4 1 3"
        assert report["result"]["inflated_pattern"] == " ".join(map(str, core.pattern))
        assert report["result"]["inflated_text"] == " ".join(map(str, core.text))

    def test_module_run_writes_the_same_line(self, tmp_path):
        # through the interpreter's own sys.stdout, not the test runner's
        f = tmp_path / "final-newline.txt"
        f.write_text(ECHO_FILES["final-newline"])
        src = os.path.dirname(os.path.dirname(sys.modules["permpat"].__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "permpat.cli", "count", "--mode", "inversions", "--text", f"@{f}"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        report = assert_dumps_line(proc.stdout)
        assert report["inputs"]["text"] == " ".join(map(str, ECHO_VALUES))


@pytest.fixture
def instance_file(tmp_path):
    doc = {
        "G": {"k": 2, "edges": [[1, 2]]},
        "H": {"n": 2, "edges": [[1, 2]]},
        "chi": [1, 2],
    }
    f = tmp_path / "instance.json"
    f.write_text(json.dumps(doc))
    return str(f)


class TestPsi:
    def test_build(self, runner, instance_file):
        res = run(runner, "psi", "build", instance_file)
        assert res.exit_code == 0
        doc = payload(res)["result"]
        assert len(doc["pattern_points"]) == 2 + 5 * 2 + 2
        assert len(doc["text_points"]) == 2 + 5 * 2 + 2
        assert doc["pattern"].count(" ") == 13

    def test_json_report_is_one_dumps_line_that_keeps_escapes(self, runner, instance_file, tmp_path):
        # the report is written as json.dumps gives it; an ANSI escape in
        # an echoed input stays JSON's \u001b
        f = tmp_path / "red\x1b[31m.json"
        os.rename(instance_file, f)
        res = run(runner, "psi", "build", str(f))
        assert res.exit_code == 0
        report = json.loads(res.stdout)
        assert report["inputs"] == {"instance": str(f)}
        assert res.stdout == json.dumps(report) + "\n"
        assert "red\\u001b[31m.json" in res.stdout

    def test_verify_agreement(self, runner, instance_file):
        res = run(runner, "psi", "verify", instance_file)
        assert res.exit_code == 0
        doc = payload(res)["result"]
        assert doc["agree"] is True and doc["psi_answer"] is True

    def test_verify_empty_pattern_graph_prints_empty_witness(self, runner, tmp_path):
        # with k = 0 the empty mapping is a witness: [] and not null
        f = tmp_path / "empty.json"
        f.write_text('{"G":{"k":0},"H":{"n":0},"chi":[]}')
        res = run(runner, "psi", "verify", str(f))
        assert res.exit_code == 0
        doc = payload(res)["result"]
        assert doc["psi_answer"] is True and doc["witness"] == []

    def test_verify_oversize(self, runner, tmp_path):
        doc = {"G": {"k": 1, "edges": []}, "H": {"n": 15, "edges": []}, "chi": [1] * 15}
        f = tmp_path / "big.json"
        f.write_text(json.dumps(doc))
        res = run(runner, "psi", "verify", str(f))
        assert res.exit_code == 2

    @staticmethod
    def assert_refused_at_once(tmp_path, command, doc):
        f = tmp_path / "huge.json"
        f.write_text(doc)
        src = os.path.dirname(os.path.dirname(sys.modules["permpat"].__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "permpat.cli", "psi", command, str(f)],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert proc.returncode == 2
        assert proc.stdout == "" and "too large" in proc.stderr

    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_huge_pattern_graph_refused_at_once(self, tmp_path, command):
        # the pattern side, 2 + 5k + 2|E_G|, is bounded before anything is built
        doc = '{"G":{"k":100000000,"edges":[]},"H":{"n":1,"edges":[]},"chi":[1]}'
        self.assert_refused_at_once(tmp_path, command, doc)

    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_huge_text_graph_refused_at_once(self, tmp_path, command):
        # the text side, 2 + 5n + 2 m_bi, is bounded too: 1,250,002 elements here
        n = 250_000
        doc = json.dumps({"G": {"k": 1, "edges": []}, "H": {"n": n, "edges": []}, "chi": [1] * n})
        self.assert_refused_at_once(tmp_path, command, doc)

    def test_bad_instance_file(self, runner, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        res = run(runner, "psi", "build", str(f))
        assert res.exit_code == 2

    @pytest.mark.parametrize("command", ["build", "verify"])
    @pytest.mark.parametrize(
        "doc",
        [
            '{"G": 1}',
            "[]",
            '{"G": {"k": 2, "edges": [[1]]}, "H": {"n": 2, "edges": []}, "chi": [1, 2]}',
            '{"G": {"k": 2, "edges": []}, "H": {"n": 2, "edges": []}, "chi": null}',
        ],
        ids=["G-not-object", "top-level-list", "short-edge", "chi-null"],
    )
    def test_malformed_instance_is_parse_error(self, runner, tmp_path, command, doc):
        f = tmp_path / "bad.json"
        f.write_text(doc)
        res = run(runner, "psi", command, str(f))
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: malformed instance")

    @pytest.mark.parametrize("command", ["build", "verify"])
    @pytest.mark.parametrize(
        "doc",
        [
            *(
                template.replace("X", number)
                for number in ("1e400", "Infinity")
                for template in (
                    '{"G": {"k": X, "edges": []}, "H": {"n": 1, "edges": []}, "chi": [1]}',
                    '{"G": {"k": 1, "edges": []}, "H": {"n": X, "edges": []}, "chi": [1]}',
                    '{"G": {"k": 1, "edges": []}, "H": {"n": 1, "edges": []}, "chi": [X]}',
                    '{"G": {"k": 2, "edges": [[1, X]]}, "H": {"n": 1, "edges": []}, "chi": [1]}',
                )
            ),
            "[" * 200000,
            '{"G":' * 5000,
        ],
        ids=[
            f"{number}-{field}"
            for number in ("1e400", "Infinity")
            for field in ("k", "n", "chi", "edge")
        ] + ["deep-list", "deep-object"],
    )
    def test_overflow_and_deep_nesting_are_parse_errors(self, runner, tmp_path, command, doc):
        # OverflowError and RecursionError must not reach the user as a
        # traceback with exit 1, which means "verification failed"
        f = tmp_path / "bad.json"
        f.write_text(doc)
        res = run(runner, "psi", command, str(f))
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: malformed instance")


class TestGap:
    def test_core_frozen_example(self, runner):
        res = run(runner, "gap", "core", "--pattern", "21", "--text", "21", "--alpha", "1")
        doc = payload(res)["result"]
        assert doc["inflated_pattern"] == "2 3 1"
        assert doc["inflated_text"] == "3 2 5 4 1"

    def test_build_trivial_branches(self, runner):
        yes = run(runner, "gap", "build", "--pattern", "213", "--text", "24153",
                  "--epsilon", "1/3")
        assert payload(yes)["result"]["branch"] == "trivial_yes"
        no = run(runner, "gap", "build", "--pattern", "12", "--text", "21",
                 "--epsilon", "1/3")
        assert payload(no)["result"]["branch"] == "trivial_no"

    def test_build_rejects_bad_epsilon(self, runner):
        res = run(runner, "gap", "build", "--pattern", "12", "--text", "21",
                  "--epsilon", "1/2")
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("build", "--pattern", "12", "--text", "21"),
            ("check-bounds", "--k", "1", "--n", "100"),
        ],
        ids=["build", "check-bounds"],
    )
    def test_zero_denominator_epsilon_is_parse_error(self, runner, args):
        res = run(runner, "gap", *args, "--epsilon", "1/0")
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.stdout == ""
        assert res.stderr.splitlines() == ["error: epsilon '1/0' has a zero denominator"]

    @pytest.mark.parametrize("epsilon", ["1e-5000", "1e-3000000", "1e-10000000"])
    @pytest.mark.parametrize(
        "args",
        [
            ("build", "--pattern", "12", "--text", "21"),
            ("check-bounds", "--k", "1", "--n", "100"),
        ],
        ids=["build", "check-bounds"],
    )
    def test_epsilon_exponent_refused_at_once(self, args, epsilon):
        # Fraction spends about 7 s expanding 10^3000000 and 50 s on
        # 10^10000000, and the echo of 1/10^5000 is past the int-to-str limit
        src = os.path.dirname(os.path.dirname(sys.modules["permpat"].__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "permpat.cli", "gap", *args, "--epsilon", epsilon],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")

    def test_epsilon_exponent_within_the_limit(self, runner):
        res = run(runner, "gap", "build", "--pattern", "12", "--text", "21", "--epsilon", "1e-4000")
        assert res.exit_code == 0
        assert payload(res)["inputs"]["epsilon"] == "1/1" + "0" * 4000

    def test_check_bounds_above_threshold(self, runner):
        res = run(runner, "gap", "check-bounds", "--epsilon", "2/5", "--k", "1",
                  "--n", "6^25")
        assert res.exit_code == 0
        assert payload(res)["result"]["all_hold"] is True

    def test_check_bounds_n_prime_beyond_str_limit(self, runner):
        # n' = 6*10^4800 + 10^800 - 1: more digits than int-to-str allows
        res = run(runner, "gap", "check-bounds", "--epsilon", "1/3", "--k", "1",
                  "--n", "10^800")
        assert res.exit_code == 0
        assert payload(res)["result"]["n_prime_digits"] == 4801

    def test_check_bounds_rejects_negative_exponent(self, runner):
        res = run(runner, "gap", "check-bounds", "--epsilon", "1/3", "--k", "1",
                  "--n", "0^-1")
        assert res.exit_code == 2

    def test_check_bounds_below_threshold(self, runner):
        res = run(runner, "gap", "check-bounds", "--epsilon", "1/3", "--k", "2",
                  "--n", "100")
        assert res.exit_code == 2

    def test_verify_no_case(self, runner):
        res = run(runner, "gap", "verify", "--pattern", "12", "--text", "21",
                  "--alpha", "1")
        assert res.exit_code == 0
        doc = payload(res)["result"]
        assert doc["touching_initial_block"] == "0"
        assert doc["checks_pass"] is True

    def test_verify_count_past_str_limit(self, runner, tmp_path):
        # the README's way to raise --cap; the count is past Python's
        # 4300-digit str limit, which is bad input, not a traceback
        f = tmp_path / "id1500.txt"
        f.write_text(" ".join(map(str, range(1, 1501))))
        res = run(runner, "gap", "verify", "--pattern", f"@{f}", "--text", f"@{f}",
                  "--alpha", "1", "--cap", "100000000")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [
            "error: total_copies has 4765 decimal digits, over the 4300-digit output limit"
        ]

    def test_core_cap(self, runner):
        res = run(runner, "gap", "core", "--pattern", "12", "--text", "12",
                  "--alpha", "2", "--cap", "8")
        assert res.exit_code == 2


class TestReportGuard:
    """A ValueError while a command computes or renders its result is one
    error line and exit 2, with nothing on stdout."""

    @pytest.mark.parametrize(
        "argv, owner, name",
        [
            (["detect", "--pattern", "12", "--text", "21"], matching, "contains"),
            (["count", "--pattern", "12", "--text", "21"], matching, "count_copies"),
            (["psi", "build", "INSTANCE"], psi.PsiGadget, "to_json_obj"),
            (["psi", "verify", "INSTANCE"], psi.ReductionReport, "to_json_obj"),
            (["gap", "build", "--pattern", "12", "--text", "21", "--epsilon", "1/3"],
             gap.GapInstance, "to_json_obj"),
            (["gap", "core", "--pattern", "12", "--text", "21", "--alpha", "1"], gap, "build_core"),
            (["gap", "check-bounds", "--epsilon", "2/5", "--k", "1", "--n", "6^25"],
             gap.BoundsReport, "to_json_obj"),
            (["gap", "verify", "--pattern", "12", "--text", "21", "--alpha", "1"],
             gap.CoreReport, "to_json_obj"),
        ],
        ids=["detect", "count", "psi-build", "psi-verify", "gap-build", "gap-core",
             "gap-check-bounds", "gap-verify"],
    )
    def test_value_error_is_one_line_and_exit_2(self, runner, instance_file, monkeypatch, argv, owner, name):
        def fail(*args, **kwargs):
            raise ValueError("cannot render")

        monkeypatch.setattr(owner, name, fail)
        res = run(runner, *(instance_file if arg == "INSTANCE" else arg for arg in argv))
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == ["error: cannot render"]


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("detect", "--pattern", "312", "--text", "24153"),
            ("count", "--pattern", "213", "--text", "24153", "--mode", "left"),
            ("gap", "core", "--pattern", "21", "--text", "21", "--alpha", "1"),
        ],
    )
    def test_result_fields_byte_identical(self, runner, args):
        first = payload(run(runner, *args))
        second = payload(run(runner, *args))
        assert json.dumps(first["result"]) == json.dumps(second["result"])
        assert first["inputs"] == second["inputs"]


def readme_usage_commands():
    """The argv of each command in README's Usage block, selfcheck aside."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Command line:\n\n```\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("permpat ")]
    return [argv for argv in commands if argv[0] != "selfcheck"]


PINNED_ERROR_PATHS = [
    ["detect", "--pattern", "213", "--text", "24153", "--left-aligned", "--expect", "no"],
    ["detect", "--pattern", "12", "--text", "2 2 1"],
    ["count", "--pattern", "12", "--text", "@missing.txt"],
    ["gap", "core", "--pattern", "21", "--text", "21", "--alpha", "100000000"],
    ["gap", "build", "--pattern", "12", "--text", "21", "--epsilon", "1/2"],
    ["gap", "check-bounds", "--epsilon", "1/3", "--k", "2", "--n", "100"],
    ["gap", "check-bounds", "--epsilon", "2/5", "--k", "1", "--n", "2^2000000"],
    ["psi", "verify", "instance.json", "--max-text-len", "5"],
    ["gap", "verify", "--pattern", "21", "--text", "2413", "--alpha", "12"],
    ["gap", "verify", "--pattern", "21", "--text", "2413", "--alpha", "12", "--cap", "1000000000"],
]

# sha256 of the lines below, for every README command, each again with
# --format plain, and PINNED_ERROR_PATHS
PINNED_SHA256 = "f1fee7896aa79b18b6cfee664e2f5ff930ea075343529a9f66615f4db700fcaf"


class TestPinnedBytes:
    def test_reports_and_exit_codes_are_pinned(self, runner, tmp_path, monkeypatch):
        # a changed report, exit code or error line, or a README example
        # that stops working, changes the hash
        monkeypatch.chdir(tmp_path)
        (tmp_path / "instance.json").write_text(
            '{"G": {"k": 2, "edges": [[1, 2]]}, "H": {"n": 2, "edges": [[1, 2]]}, "chi": [1, 2]}'
        )
        usage = readme_usage_commands()
        assert len(usage) == 11
        lines = []
        for argv in usage + [argv + ["--format", "plain"] for argv in usage] + PINNED_ERROR_PATHS:
            res = runner.invoke(main, argv)
            stdout = re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": *', res.stdout)
            stdout = re.sub(r'"backend": "[a-z-]+"', '"backend": *', stdout)
            lines.append(f"{shlex.join(argv)} | {res.exit_code} | {stdout} | {res.stderr}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == PINNED_SHA256, "\n".join(lines)


class TestSelfcheck:
    def test_unknown_scale_is_usage_error(self, runner):
        res = run(runner, "selfcheck", "--scale", "huge")
        assert res.exit_code == 2

    def test_quick_passes(self, runner):
        res = run(runner, "selfcheck", "--scale", "quick", "--format", "plain")
        assert res.exit_code == 0, res.output
        assert "passed 12/12" in res.output

    def test_json_report_names_its_backend(self, runner):
        doc = payload(run(runner, "selfcheck", "--scale", "quick"))
        assert (doc["command"], doc["backend"]) == ("selfcheck", backend.BACKEND_NAME)
        assert len(doc["result"]["criteria"]) == 12
