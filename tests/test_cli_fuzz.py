"""Fuzz gate for the command line: every argv ends in exit 0, 1 or 2.

``fhc.cli.main`` runs in-process on argv drawn from the subcommands, their
flags, small and huge integers, and short strings over the forest, term and
ordinal alphabets.  No exception may escape, the exit status (``SystemExit``
included) is 0, 1 or 2, every error is one line on stderr, and a second call
prints the same stdout.
"""

from __future__ import annotations

from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

from hypothesis import given, settings, strategies as st

from fhc.cli import main

#: the positionals of each subcommand: f forest, t term, o ordinal, c color
POSITIONALS = {
    "cmp": "ff", "min": "f", "decompose": "f", "encode": "f", "eval": "t",
    "g2s": "t", "s2g": "t", "jump-height": "t", "normalize": "t",
    "level-subset": "ff", "witness": "f", "build-T": "oc", "enumerate": "",
    "diagram": "",
}
ALPHABETS = {"f": "0123[]{}:, ", "t": "0123().+G, ", "o": "0123w^*+() "}
EXAMPLES = {
    "f": ["{0,1}", "[0:[1:]]", "{[[0:[1]]:[0]]}", "[[1]:[[0:[1]]]]", "{}", "5"],
    "t": ["(0 .2 1)", "G(0,1,0)", "((0 .1 1)+2)", "(0 .300 1)", "G(0,1,G(0,1,0))"],
    "o": ["w^2*2+w+3", "w+1", "w^w", "3", "0", "w^(w+1)*2"],
}
FLAGS = ["--k", "--n", "--m", "--nodes", "--level"]

ints = st.one_of(
    st.integers(-3, 12), st.sampled_from([10**6, 10**12, 2**64, -10**12])
).map(str)
stray = st.one_of(
    ints,
    st.text("0123[]{}:,().+Gw^* -", max_size=6),
    st.sampled_from([*FLAGS, "--format", "--oracle", "--help", "json"]),
)


def positional(kind: str):
    if kind == "c":
        return ints
    examples = st.sampled_from(EXAMPLES[kind])
    return st.one_of(examples, examples, st.text(ALPHABETS[kind], max_size=10))


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(POSITIONALS)))
    argv = [command] + [draw(positional(kind)) for kind in POSITIONALS[command]]
    for flag in draw(st.lists(st.sampled_from([*FLAGS, "--format", "--oracle"]), max_size=3)):
        if flag == "--oracle":
            argv.append(flag)
        elif flag == "--format":
            argv += [flag, draw(st.sampled_from(["text", "json", "dot"]))]
        else:
            argv += [flag, draw(ints)]
    if draw(st.integers(0, 3)) == 0:
        argv.append(draw(stray))
    if command in ("enumerate", "diagram"):
        # the segment bounds come last and stay small: a segment within the
        # refusal bound may take seconds (wide alphabets are refused as soon
        # as the generator has built more than the bound, a huge one before
        # its colors are built)
        argv += [
            "--k", draw(st.one_of(st.integers(-1, 3).map(str),
                                  st.sampled_from([300, 10**4, 10**12]).map(str))),
            "--nodes", str(draw(st.integers(0, 3))),
            "--level", str(draw(st.integers(0, 2))),
        ]
    return argv


def run(argv: list[str]) -> tuple[object, str, str]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(argvs())
def test_cli_never_falls_over(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert run(argv)[1] == out, argv
