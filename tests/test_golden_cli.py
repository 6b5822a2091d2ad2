"""Golden CLI corpus: byte-identical stdout and exact exit codes.

``golden_cli.json`` holds, for every invocation below, the exit code and the
standard output that ``fhc`` printed when the corpus was recorded.  Every
command is covered in ``text`` and ``json``, ``diagram`` also in ``dot``,
plus the error paths (parse error, out-of-range color, the map-search
guard, the segment guard).  Standard error is not compared: refusal
messages may gain detail without changing a verdict.

Re-record (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import gc
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import pytest

from fhc.cli import main

FIXTURE = Path(__file__).with_name("golden_cli.json")

#: argv without --format; each runs in every format
_COMMANDS = [
    ("cmp", "{0,1}", "[0:[1:]]"),
    ("cmp", "0", "1"),
    ("cmp", "{}", "{0,0}"),
    ("cmp", "[[0:[1]]:[0]]", "{[1:[0]],[[0]:[1]]}", "--n", "1"),
    ("cmp", "{0,[1:[0]]}", "[[1]:[[0:[1]]]]", "--k", "3", "--n", "2"),
    ("cmp", "[5:[7]]", "{5,7}", "--k", "0"),
    ("cmp", "[0:[1:]]", "{0,1}", "--oracle"),
    ("cmp", "[[0:[1]]:[[1]]]", "{[[1:[0]]],[[0]]}", "--oracle", "--n", "1"),
    ("min", "{[0:[0],[1]]}"),
    ("min", "{}"),
    ("min", "{0,0,1}"),
    ("min", "{[[0:[1]]:[[0]],[[1:[0]]]],[0:[1]]}"),
    ("min", "[[[0:[1]]:[[1]]]]", "--k", "3"),
    ("decompose", "{0,0,1}"),
    ("decompose", "{[0:[1]],[1],[[0]:[[1]]]}"),
    ("decompose", "{}"),
    ("encode", "[0:[1:]]"),
    ("encode", "{[[0:[1]]:[[1]]],0}", "--n", "1"),
    ("eval", "(0 .0 1)"),
    ("eval", "((0+1) .1 (1 .0 0))"),
    ("eval", "G(0,1,G(1,0,0))"),
    ("g2s", "G(0,1,0)"),
    ("g2s", "G(G(0,1,0),1,G(1,0,1))"),
    ("s2g", "(1 .0 0)"),
    ("s2g", "((0 .1 1) .0 (1+0))"),
    ("jump-height", "G(0,1,G(0,1,0))"),
    ("jump-height", "((0 .2 1) .0 1)"),
    ("normalize", "(1 .0 0)", "--n", "1", "--m", "2"),
    ("normalize", "((0 .2 0) .0 1)", "--n", "1"),
    ("normalize", "((0 .3 1) .1 (0 .2 1))", "--n", "2", "--m", "2"),
    ("level-subset", "{0,1}", "[0:[1:]]"),
    ("level-subset", "[0:[1]]", "[1:[0]]"),
    ("level-subset", "[[0]:[[1]]]", "{[0:[1]],[1:[0]]}"),
    ("witness", "[0:[1:]]"),
    ("witness", "{[[0:[1]]],1}", "--n", "1"),
    ("build-T", "w", "0"),
    ("build-T", "w^2*2+w+3", "1"),
    ("build-T", "w+1", "1", "--n", "1"),
    ("enumerate", "--k", "2", "--nodes", "3", "--level", "2"),
    ("enumerate", "--k", "3", "--nodes", "2", "--level", "1"),
    ("diagram", "--k", "2", "--nodes", "3", "--level", "2"),
    ("diagram", "--k", "3", "--nodes", "2", "--level", "1"),
]

#: (argv, extra environment) of the error paths, in the default format
_ERRORS = [
    (("min", "{0,]"), {}),
    (("cmp", "[2:]", "0", "--k", "2"), {}),
    (("eval", "(0 .0 5)"), {}),
    (("normalize", "((0 .3 1) .1 (0 .0 1))", "--n", "2", "--m", "1"), {}),
    (("cmp", "0", "0", "--format", "dot"), {}),
    (("cmp", "[0:[1:]]", "[1:[0:]]", "--oracle"), {"FHC_ORACLE_BOUND": "1"}),
    (("enumerate", "--k", "9", "--nodes", "9", "--level", "3"), {}),
]


def invocations() -> list[tuple[tuple[str, ...], dict[str, str]]]:
    out = []
    for argv in _COMMANDS:
        formats = ["text", "json"] + (["dot"] if argv[0] == "diagram" else [])
        out.extend(((*argv, "--format", fmt), {}) for fmt in formats)
    return out + _ERRORS


def invoke(argv, env) -> tuple[int, str]:
    """Run ``fhc`` in this process; returns (exit code, stdout)."""
    # the caller's FHC_* settings would change the outputs
    base = {k: v for k, v in os.environ.items() if not k.startswith("FHC_")}
    out = StringIO()
    with mock.patch.dict(os.environ, {**base, **env}, clear=True), \
            redirect_stdout(out), redirect_stderr(StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # help and usage refusals exit from inside main
            code = exc.code
    return code, out.getvalue()


def _load() -> list[dict]:
    # a missing fixture fails the coverage test, not the collection
    return json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []


@pytest.mark.parametrize("case", _load(), ids=lambda c: " ".join(c["argv"]))
def test_golden_output(case):
    code, out = invoke(case["argv"], case["env"])
    assert (code, out) == (case["code"], case["stdout"])


@pytest.mark.parametrize("case", _load(), ids=lambda c: " ".join(c["argv"]))
def test_call_leaves_no_cyclic_garbage(case):
    # every temporary of a call, a refused call's too, dies by reference counting
    gc.collect()
    gc.disable()
    try:
        invoke(case["argv"], case["env"])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_corpus_covers_every_invocation():
    recorded = [(tuple(c["argv"]), c["env"]) for c in _load()]
    assert recorded == invocations()


def record() -> None:
    cases = []
    for argv, env in invocations():
        code, out = invoke(argv, env)
        cases.append({"argv": list(argv), "env": env, "code": code, "stdout": out})
    FIXTURE.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    record()
