"""Command dispatch, output formats, exit codes, and determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from fhc.cli import main


def run(*argv, env=None, timeout=60):
    # a call that runs past ``timeout`` seconds fails its test instead of hanging
    proc = subprocess.run(
        [sys.executable, "-m", "fhc.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
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


    @pytest.mark.parametrize("argv, params", [
        (("normalize", "(1 .0 0)", "--n", "1"), {"n": 1}),
        (("normalize", "(1 .0 0)", "--n", "1", "--m", "2"), {"n": 1, "m": 2}),
        (("g2s", "G(0,1,0)"), {}),
        (("build-T", "w", "1", "--k", "3"), {"k": 3, "n": 0}),
        (("cmp", "0", "1", "--oracle"), {"k": 2, "n": 0, "oracle": True}),
        (("enumerate", "--nodes", "1", "--level", "0"), {"k": 2, "nodes": 1, "level": 0}),
    ])
    def test_json_params_as_declared(self, capsys, argv, params):
        # each subcommand echoes its declared arguments; an unset --m is left out
        code, out = capture(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)["params"] == params


def _subcommands():
    from fhc.cli import build_parser

    names = sorted(build_parser())
    assert names == sorted([
        "cmp", "min", "decompose", "encode", "eval", "g2s", "s2g", "jump-height",
        "normalize", "level-subset", "witness", "build-T", "enumerate", "diagram",
    ])
    return names


@pytest.mark.parametrize("command", _subcommands())
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: fhc {command} ")


COMMANDS = ("(choose from 'cmp', 'min', 'decompose', 'encode', 'eval', 'g2s', 's2g',"
            " 'jump-height', 'normalize', 'level-subset', 'witness', 'build-T', 'enumerate',"
            " 'diagram')")

#: argv, exit code, stderr and stdout of usage errors, of help, and of the
#: argv forms the reader accepts; a help text is pinned by the start of its
#: first line
USAGE = [
    pytest.param((), 1, "error: the following arguments are required: command\n",
                 "", id="no command"),
    pytest.param(("frobnicate",), 1,
                 "error: argument command: invalid choice: 'frobnicate' " + COMMANDS + "\n",
                 "", id="unknown command"),
    pytest.param(("cmp", "0"), 1, "error: the following arguments are required: forest1\n",
                 "", id="missing positional"),
    pytest.param(("enumerate", "--nodes", "1"), 1,
                 "error: the following arguments are required: --level\n",
                 "", id="missing option"),
    pytest.param(("min", "0", "--foo", "3"), 1, "error: unrecognized arguments: --foo 3\n",
                 "", id="unknown option"),
    pytest.param(("min", "0", "--oracle"), 1, "error: unrecognized arguments: --oracle\n",
                 "", id="another command's option"),
    pytest.param(("--foo", "min", "0"), 1, "error: unrecognized arguments: --foo\n",
                 "", id="option before the command"),
    pytest.param(("cmp", "0", "1", "--k"), 1, "error: argument --k: expected one argument\n",
                 "", id="no value"),
    pytest.param(("cmp", "0", "1", "--k", "--n", "1"), 1,
                 "error: argument --k: expected one argument\n",
                 "", id="option as value"),
    pytest.param(("cmp", "0", "1", "--k", "x"), 1, "error: argument --k: invalid int value: 'x'\n",
                 "", id="bad int"),
    pytest.param(("cmp", "0", "1", "--n", "x"), 1,
                 "error: argument --n: invalid natural value: 'x'\n",
                 "", id="bad natural"),
    pytest.param(("build-T", "w", "x"), 1, "error: argument color: invalid int value: 'x'\n",
                 "", id="bad int positional"),
    pytest.param(("cmp", "0", "1", "--n", "-1"), 1,
                 "error: argument --n: must be non-negative, got -1\n",
                 "", id="negative bound"),
    pytest.param(("min", "0", "--format", "xml"), 1,
                 "error: argument --format: invalid choice: 'xml'"
                 " (choose from 'text', 'json', 'dot')\n",
                 "", id="bad format"),
    pytest.param(("min", "0", "--format", "dot"), 1,
                 "error: dot output is only available for diagram\n",
                 "", id="dot outside diagram"),
    pytest.param(("cmp", "0", "1", "--oracle=1"), 1,
                 "error: argument --oracle: ignored explicit argument '1'\n",
                 "", id="flag with a value"),
    pytest.param(("cmp", "0", "1", "--form", "json"), 0, "",
                 '{"lhs": "{0}", "params": {"k": 2, "n": 0, "oracle": false}, "rhs": "{1}",'
                 ' "verdict": "||"}\n',
                 id="unique prefix"),
    pytest.param(("enumerate", "--no", "1", "--l", "0"), 0, "",
                 "fhc-segment v1 k=2 nodes=1 level=0\n{}\n{0}\n{1}\ncovers:\n0 1\n0 2\n",
                 id="prefixes"),
    pytest.param(("min", "{2}", "--k=3"), 0, "",
                 "{2}\n", id="equals"),
    pytest.param(("min", "--k", "3", "--", "{2}"), 0, "",
                 "{2}\n", id="double dash"),
    pytest.param(("min", "0", "--", "--k"), 1, "error: unrecognized arguments: --k\n",
                 "", id="option after double dash"),
    pytest.param(("--", "min", "0"), 1,
                 "error: argument command: invalid choice: '--' " + COMMANDS + "\n",
                 "", id="double dash as command"),
    pytest.param(("min", "{2}", "--k", "2", "--k", "3"), 0, "",
                 "{2}\n", id="last repeat wins"),
    pytest.param(("cmp", "0", "1", "--k", "3", "--k", "x"), 1,
                 "error: argument --k: invalid int value: 'x'\n",
                 "", id="bad repeat"),
    pytest.param(("cmp", "0", "1", "--k", "-1"), 1,
                 "error: alphabet size must be at least 2 (0 for unbounded)\n",
                 "", id="negative value"),
    pytest.param(("build-T", "w", "-1"), 1, "error: color -1 outside alphabet of size 2\n",
                 "", id="negative positional"),
    pytest.param(("min", "-["), 1, "error: the following arguments are required: forest\n",
                 "", id="dash argument"),
    pytest.param(("min", "0", "-["), 1, "error: unrecognized arguments: -[\n",
                 "", id="extra dash argument"),
    pytest.param(("min", "-1 2"), 1, "error: unexpected character '-' (at position 0)\n",
                 "", id="argument with a space"),
    pytest.param(("cmp", "--help", "0", "--k", "x"), 0, "",
                 "usage: fhc cmp [-h] [--k K] [--n N] [--format {text,json,dot}] [--oracle]",
                 id="help before a bad value"),
    pytest.param(("cmp", "0", "--k", "x", "--help"), 1,
                 "error: argument --k: invalid int value: 'x'\n",
                 "", id="help after a bad value"),
    pytest.param(("-h",), 0, "",
                 "usage: fhc [-h]", id="top-level help"),
]


@pytest.mark.parametrize("argv, code, err, out", USAGE)
def test_usage_is_pinned(capsys, argv, code, err, out):
    try:
        got = main(list(argv))
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.err) == (code, err)
    assert captured.out == out or out.startswith("usage: ") and captured.out.startswith(out)


class TestExitCodes:
    def test_unknown_command(self):
        proc = run("frobnicate")
        assert proc.returncode == 1
        # one line, no usage lines before it
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

    @pytest.mark.parametrize("argv, err", [
        (("g2s", "(1 .0 0)"), "error: g2s expects a G-signature term\n"),
        (("s2g", "G(0,1,0)"), "error: s2g expects a star-signature term\n"),
    ])
    def test_translation_refuses_the_other_signature(self, capsys, argv, err):
        assert main(list(argv)) == 1
        assert capsys.readouterr() == ("", err)

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
            "error: oracle too large: 2**2 = 4 maps (bound 1, FHC_ORACLE_BOUND)\n"
        )

    @pytest.mark.parametrize("bound, operands", [
        ("abc", ("{[0:[1]]}", "{[0:[1]]}")), ("-5", ("{[0:[1]]}", "{[0:[1]]}")),
        ("abc", ("{0}", "{0,1}")), ("-5", ("{0}", "{0,1}")),
    ], ids=["abc", "-5", "abc-colors", "-5-colors"])
    def test_oracle_bound_env_must_be_a_count(self, bound, operands):
        # a bound that is no non-negative integer is a usage error, named,
        # also where the operands are colors, which need no map search
        env = dict(os.environ, FHC_ORACLE_BOUND=bound)
        proc = run("cmp", *operands, "--oracle", env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", (
            f"error: FHC_ORACLE_BOUND must be a non-negative integer, got '{bound}'\n"))

    def test_oracle_level0_is_a_set_test(self):
        # ten colors against ten: the map search would need 10**10 maps; the
        # level-0 set test answers at once
        forest = "{0,1,0,1,0,1,0,1,0,1}"
        proc = run("cmp", "--oracle", forest, forest)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "=\n", "")

    def test_build_t_guard(self, capsys):
        # refused at the first product past the bound: T_10 has 1398101 nodes
        assert main(["build-T", "50", "0", "--k", "4"]) == 2
        assert capsys.readouterr() == ("", (
            "error: build-T too large: at least 1398101 nodes (bound 1000000)\n"))

    @pytest.mark.parametrize("alpha, least", [
        ("990", 1048575), ("w^990", 1048575), ("w*990", 1572861),
    ])
    def test_build_t_long_chain_guard(self, capsys, alpha, least):
        # the lower levels down a chain of peels are built from the bottom up,
        # so a long chain meets the size guard, not the recursion limit
        assert main(["build-T", alpha, "0"]) == 2
        assert capsys.readouterr() == ("", (
            f"error: build-T too large: at least {least} nodes (bound 1000000)\n"))

    def test_build_t_alphabet_guard(self, capsys):
        # a nonzero level index stacks a color over all k colors: refused
        # before the k colors are built
        assert main(["build-T", "w^2*2+w+3", "3", "--n", "7", "--k", "1000000"]) == 2
        assert capsys.readouterr() == ("", (
            "error: build-T too large: at least 1000001 nodes (bound 1000000)\n"))
        assert main(["build-T", "0", "3", "--k", str(10**12)]) == 0
        assert capsys.readouterr().out == "{3}\n"

    @pytest.mark.parametrize("argv, grade", [
        (("s2g", "(0 .1000000 1)"), 1000000),
        (("jump-height", "(0 .4000000 1)"), 4000000),
        (("witness", "[0:[1]]", "--n", "1000000"), 1000000),
        (("s2g", "(0 .1001 1)"), 1001),
    ])
    def test_jump_chain_guard(self, capsys, argv, grade):
        # refused before the chain of `grade` nested G's is built
        assert main(list(argv)) == 2
        assert capsys.readouterr() == ("", (
            f"error: jump chain too large: grade {grade} (bound 1000)\n"))

    @pytest.mark.parametrize("argv, grade", [
        (("eval", "(0 .5000 1)"), 5000),
        (("eval", "((0 .0 1) .1001 1)"), 1001),
        (("build-T", "1", "0", "--n", "5000"), 5000),
        (("build-T", "w", "0", "--n", "1000"), 1001),  # a power of w recurses a grade up
    ])
    def test_product_grade_guard(self, capsys, argv, grade):
        # refused before the product nests `grade` deep; nothing in the input nests
        assert main(list(argv)) == 2
        assert capsys.readouterr() == ("", (
            f"error: graded product too large: grade {grade} (bound 1000)\n"))

    def test_grade_guard_spares_what_builds_no_product(self, capsys):
        assert capture(capsys, "build-T", "0", "1", "--n", "5000") == (0, "{1}\n")

    @pytest.mark.parametrize("oracle", [(), ("--oracle",)])
    def test_cmp_relation_level_past_the_forests(self, capsys, oracle):
        # r_drop fixes level 0, so --n 10**12 answers at once, as --n 2 does
        argv = ("cmp", "{0,1}", "[0:[1]]", *oracle)
        assert capture(capsys, *argv, "--n", str(10**12)) == capture(capsys, *argv, "--n", "2")
        assert capture(capsys, *argv, "--n", "2") == (0, "=\n")

    def test_ordinal_syntax_error_names_position(self, capsys):
        assert main(["build-T", "w^2+w^3", "0"]) == 1
        assert capsys.readouterr() == ("", (
            "error: exponents must strictly decrease; input is not canonical"
            " (at position 4)\n"))

    def test_segment_guard(self):
        proc = run("enumerate", "--k", "9", "--nodes", "9", "--level", "3")
        assert proc.returncode == 2
        assert "segment too large" in proc.stderr


#: run ``fhc.cli.main`` in a child that prints its peak resident set (kB) to
#: stderr as the last line, once it is done
PEAK_SCRIPT = (
    "import sys\n"
    "from fhc.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "with open('/proc/self/status') as status:\n"
    "    hwm = [line.split()[1] for line in status if line.startswith('VmHWM:')]\n"
    "print(hwm[0], file=sys.stderr)\n"
    "sys.exit(code)\n"
)


class TestSegmentBounds:
    @pytest.mark.parametrize("argv, code, err", [
        (("enumerate", "--nodes", "3", "--level", str(10**12)), 2,
         "error: segment too large: at least 3000000000004 forests (bound 50000)\n"),
        (("diagram", "--k", "0", "--nodes", str(10**12), "--level", "1"), 0, ""),
        (("enumerate", "--k", str(10**12), "--nodes", str(10**12), "--level", "1"), 2,
         "error: segment too large: at least 2000000000001 forests (bound 50000)\n"),
    ], ids=["huge-level", "no-colors", "huge-k-and-nodes"])
    def test_huge_bounds_end_at_once(self, capsys, argv, code, err):
        # every size and level holds a forest, so these are refused uncounted;
        # without colors the bottom class is the whole segment
        start = time.perf_counter()
        assert main(list(argv)) == code
        assert time.perf_counter() - start < 2
        captured = capsys.readouterr()
        assert captured.err == err
        if code == 0:
            assert captured.out == 'digraph segment {\n  rankdir=BT;\n  n0 [label="{}"];\n}\n'

    @pytest.mark.parametrize("segment, digest", [
        ((3, 5, 2), "8af271333fd803aff6fa70abec3a438b357debd6205e4e975c81ce3fbd06c8d3"),
        ((3, 6, 1), "a7a489377d44eaefb709d721174cb915303659c57e71e76fbb934883622bc340"),
        ((4, 5, 1), "908d8c7fe791de09d6ab281d304177c083995b6cc4a978c4444f9a0361450299"),
        ((2, 8, 2), "9ae06ffebc83b390c3c5fedcd8b7ccdbd123e384d92358410f1e111048487f6a"),
        ((3, 6, 2), "ee127ff2c90003476928bafd7e2ec849f662f95bdbfbc65a2aed5c668540feb2"),
    ], ids=["k3-n5-l2", "k3-n6-l1", "k4-n5-l1", "k2-n8-l2", "k3-n6-l2"])
    def test_diagram_digest(self, capsys, segment, digest):
        # the first three recorded from the pairwise order of _tree_leq before
        # the order table; the last two, once refused for their raw forests
        # (which no segment builds), through hasse_dot with that guard lifted
        # before the guard counted what a segment builds
        k, nodes, level = map(str, segment)
        assert main(["diagram", "--k", k, "--nodes", nodes, "--level", level]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("nodes, level", [(2000, 0), (1000, 1)])
    def test_long_multisets_answer(self, capsys, nodes, level):
        # a multiset takes one frame per distinct tree, not one per copy, so a
        # color or its one-node tree repeated a thousand times is no deep input
        argv = ["enumerate", "--k", "1", "--nodes", str(nodes), "--level", str(level)]
        assert capture(capsys, *argv) == (
            0, f"fhc-segment v1 k=1 nodes={nodes} level={level}\n{{}}\n{{0}}\ncovers:\n0 1\n")

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
    def test_dense_segment_stays_small(self):
        # 9384 classes
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_SCRIPT, "enumerate", "--k", "4", "--nodes", "6",
             "--level", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines().index("covers:") == 1 + 9384
        assert int(proc.stderr) < 100 * 1024  # kB

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
    @pytest.mark.parametrize("k, nodes, level, built", [
        (300, 2, 1, 50001), (10**12, 1, 0, 10**12), (10**4, 2, 0, 50001),
    ], ids=["k300-n2-l1", "huge-k", "k10000-n2-l0"])
    def test_costly_segment_refused_at_once(self, k, nodes, level, built):
        # the generator counts what it builds and stops at the first item past
        # the bound: the k colors before building them, a multiset as it is made
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_SCRIPT, "enumerate", "--k", str(k),
             "--nodes", str(nodes), "--level", str(level)],
            capture_output=True, text=True,
        )
        assert time.perf_counter() - start < 2
        assert proc.returncode == 2
        assert proc.stdout == ""
        err, hwm = proc.stderr.splitlines()
        assert err == (
            f"error: segment too large: at least {built} trees and forests (bound 50000)")
        assert int(hwm) < 100 * 1024  # kB


#: a minimal 60-node chain, its colors alternating from the root down
CHAIN_60 = "[1:[0:" * 29 + "[1:[0]" + "]" * 59


class TestDeepInput:
    """Nesting past the recursion limit is refused, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ("min", "[" * 2000 + "0" + "]" * 2000),
    ], ids=["min-2000-brackets"])
    def test_refused_with_exit_2(self, argv):
        proc = run(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: input nests too deeply (Python recursion limit 1000)\n"
        )

    @pytest.mark.parametrize("argv, out", [
        (("cmp", "[0:" * 330 + "[1]" + "]" * 330, "{}"), ">\n"),
        (("cmp", "{}", "[0:" * 330 + "[1]" + "]" * 330), "<\n"),
        (("jump-height", "G(0,1," * 500 + "0" + ")" * 500), "500\n"),
        (("cmp", "[0:" * 299 + "[1]" + "]" * 299, "[0:" * 299 + "[0]" + "]" * 299), ">\n"),
        (("cmp", "[1:" + "[0:" * 1498 + "[0]" + "]" * 1499, "{0}", "--n", "1"), ">\n"),
        # the map search walks both forests and its maps on its own stacks
        (("cmp", "{0}", "{" + "[0:" * 1499 + "[1]" + "]" * 1499 + "}", "--oracle"), "<\n"),
        (("cmp", "{" + "[0:" * 1499 + "[1]" + "]" * 1499 + "}", "{0}", "--oracle"), ">\n"),
        # each label minimizes as a lone tree, with no frames for a forest round trip
        (("min", "[" * 800 + "0" + "]" * 800), "{0}\n"),
        (("decompose", "[" * 800 + "0" + "]" * 800), "[" * 800 + "0" + "]" * 800 + "\n"),
    ], ids=["cmp-330-chain-bottom", "cmp-bottom-330-chain", "jump-height-500-G",
            "cmp-300-chains", "cmp-n1-1500-chain", "cmp-oracle-color-1500-chain",
            "cmp-oracle-1500-chain-color", "min-800-brackets", "decompose-800-brackets"])
    def test_text_output_prints_no_operand(self, argv, out):
        # only JSON output prints the operands, so text output answers deep
        # input that no layer but the operands' printer recurses through
        proc = run(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")

    @pytest.mark.parametrize("command, out", [
        ("min", "{" + CHAIN_60 + "}\n"), ("decompose", CHAIN_60 + "\n"),
    ], ids=["min", "decompose"])
    def test_deep_chain_minimizes_quickly(self, command, out):
        # the chain is minimal, and each node is minimized once, not once per
        # path down to it: the call answers at once instead of in 2**59 steps
        proc = run(command, "{" + CHAIN_60 + "}", timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


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
