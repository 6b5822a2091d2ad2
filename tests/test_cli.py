"""Command dispatch, output formats, exit codes, and determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from fhc.cli import main


def run(*argv, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "fhc.cli", *argv],
        capture_output=True, text=True, env=env,
    )
    return proc


def capture(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCommands:
    def test_cmp_basic(self, capsys):
        code, out = capture(capsys, "cmp", "{0,1}", "[0:[1:]]", "--k", "2", "--n", "0")
        assert code == 0 and out == "<\n"

    def test_cmp_all_verdicts(self, capsys):
        cases = [
            (("cmp", "{0,1}", "[0:[1:]]"), "<"),
            (("cmp", "[0:[1:]]", "{0,1}"), ">"),
            (("cmp", "{0,0}", "{0}"), "="),
            (("cmp", "0", "1"), "||"),
        ]
        for argv, expected in cases:
            code, out = capture(capsys, *argv)
            assert code == 0 and out.strip() == expected

    def test_jump_height_nested(self, capsys):
        code, out = capture(capsys, "jump-height", "G(0,1,G(0,1,0))")
        assert code == 0 and out == "2\n"

    def test_min(self, capsys):
        code, out = capture(capsys, "min", "{[0:[0],[1]]}")
        assert code == 0 and out == "{[0:[1]]}\n"

    def test_decompose(self, capsys):
        code, out = capture(capsys, "decompose", "{0,0,1}")
        assert code == 0 and out == "0\n1\n"

    def test_encode_eval_round_trip(self, capsys):
        code, out = capture(capsys, "encode", "[0:[1:]]")
        assert code == 0 and out == "(0 .0 1)\n"
        code, out = capture(capsys, "eval", "(0 .0 1)")
        assert code == 0 and out == "{[0:[1]]}\n"

    def test_g2s_s2g(self, capsys):
        code, out = capture(capsys, "g2s", "G(0,1,0)")
        assert code == 0 and out == "(1 .0 0)\n"
        code, out = capture(capsys, "s2g", "(1 .0 0)")
        assert code == 0 and out == "G(0,1,0)\n"

    def test_normalize_window_and_restrict(self, capsys):
        code, out = capture(capsys, "normalize", "(1 .0 0)", "--n", "1", "--m", "2")
        assert code == 0 and out == "(1+0)\n"
        code, out = capture(capsys, "normalize", "((0 .2 0) .0 1)", "--n", "1")
        assert code == 0 and out == "(0 .0 1)\n"

    def test_level_subset(self, capsys):
        code, out = capture(capsys, "level-subset", "{0,1}", "[0:[1:]]")
        assert code == 0 and out == "subset\n"

    def test_witness(self, capsys):
        code, out = capture(capsys, "witness", "[0:[1:]]")
        assert code == 0 and out == "G(1,0,0)\n"

    def test_build_t(self, capsys):
        code, out = capture(capsys, "build-T", "w", "0", "--k", "2", "--n", "0")
        assert code == 0 and out == "{[[0:[0],[1]]]}\n"

    def test_enumerate_format(self, capsys):
        code, out = capture(capsys, "enumerate", "--k", "2", "--nodes", "1",
                            "--level", "1")
        assert code == 0
        assert out.splitlines() == [
            "fhc-segment v1 k=2 nodes=1 level=1", "{}", "{0}", "{1}",
            "covers:", "0 1", "0 2",
        ]

    def test_diagram_is_dot(self, capsys):
        code, out = capture(capsys, "diagram", "--k", "2", "--nodes", "1",
                            "--level", "1")
        assert code == 0
        assert out.startswith("digraph segment {")

    def test_json_format(self, capsys):
        code, out = capture(capsys, "cmp", "{0,1}", "[0:[1:]]", "--format", "json")
        payload = json.loads(out)
        assert payload["verdict"] == "<"
        assert payload["lhs"] == "{0,1}"
        assert payload["rhs"] == "{[0:[1]]}"
        assert payload["params"]["k"] == 2


class TestExitCodes:
    def test_unknown_command(self):
        proc = run("frobnicate")
        assert proc.returncode == 1
        # one line, no argparse usage lines before it
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: argument command: invalid choice")

    def test_user_error(self, capsys):
        assert capture(capsys, "cmp", "[2:]", "0", "--k", "2")[0] == 1

    def test_term_color_outside_alphabet(self, capsys):
        # the first out-of-range color in preorder is the one named
        assert main(["eval", "((0 .0 7) .1 5)", "--k", "2"]) == 1
        assert capsys.readouterr().err == "error: color 7 outside alphabet of size 2\n"

    def test_parse_error(self, capsys):
        assert capture(capsys, "min", "{0,]")[0] == 1

    def test_dot_format_restricted(self, capsys):
        assert capture(capsys, "cmp", "0", "0", "--format", "dot")[0] == 1

    def test_oracle_guard_env(self):
        import os

        env = dict(os.environ, FHC_ORACLE_BOUND="1")
        proc = run("cmp", "[0:[1:]]", "[1:[0:]]", "--oracle", env=env)
        assert proc.returncode == 2
        assert "oracle too large" in proc.stderr
        # the refusal names the requested size, the bound and the guard
        assert proc.stderr == (
            "error: oracle too large: 2**2 = 4 maps exceed the bound 1"
            " (FHC_ORACLE_BOUND)\n"
        )

    def test_segment_guard(self):
        proc = run("enumerate", "--k", "9", "--nodes", "9", "--level", "3")
        assert proc.returncode == 2
        assert "segment too large" in proc.stderr


class TestDeepInput:
    """Nesting past the recursion limit is refused, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ("min", "[" * 500 + "0" + "]" * 500),
        ("cmp", "[0:" * 299 + "[1]" + "]" * 299, "[0:" * 299 + "[0]" + "]" * 299),
    ], ids=["min-500-brackets", "cmp-300-chains"])
    def test_refused_with_exit_2(self, argv):
        proc = run(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: input nests too deeply (Python recursion limit 1000)\n"
        )


class TestNegativeBounds:
    @pytest.mark.parametrize("argv, flag, value", [
        (("enumerate", "--nodes", "-1", "--level", "1"), "--nodes", "-1"),
        (("enumerate", "--nodes", "1", "--level", "-1"), "--level", "-1"),
        (("diagram", "--nodes", "-2", "--level", "1"), "--nodes", "-2"),
        (("cmp", "0", "1", "--n", "-1"), "--n", "-1"),
        (("witness", "0", "--n", "-1"), "--n", "-1"),
        (("build-T", "w", "0", "--n", "-1"), "--n", "-1"),
        (("normalize", "(1 .0 0)", "--n", "1", "--m", "-1"), "--m", "-1"),
    ])
    def test_rejected_with_exit_1(self, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: argument {flag}: must be non-negative, got {value}\n"
        )

    @pytest.mark.parametrize("command", ["enumerate", "diagram"])
    def test_negative_alphabet_on_segments(self, capsys, command):
        code = main([command, "--k", "-1", "--nodes", "2", "--level", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: alphabet size k must be non-negative, got -1\n"
        )

    def test_zero_still_accepted(self, capsys):
        code, out = capture(capsys, "enumerate", "--nodes", "0", "--level", "0")
        assert code == 0 and out.splitlines() == [
            "fhc-segment v1 k=2 nodes=0 level=0", "{}", "covers:",
        ]

    def test_non_integer_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cmp", "0", "1", "--n", "x"])
        assert exc.value.code == 1
        assert "invalid natural value: 'x'" in capsys.readouterr().err


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        import os

        args = ("diagram", "--k", "2", "--nodes", "3", "--level", "1")
        env_a = dict(os.environ, PYTHONHASHSEED="1")
        env_b = dict(os.environ, PYTHONHASHSEED="2")
        out_a = run(*args, env=env_a).stdout
        out_b = run(*args, env=env_b).stdout
        assert out_a == out_b and out_a

    def test_print_parse_round_trip_via_cli(self, capsys):
        code, out = capture(capsys, "min", "{[1:],[0:1,0]}")
        code2, out2 = capture(capsys, "min", out.strip())
        assert out == out2
