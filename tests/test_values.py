"""The value classes: equality, hashing, repr, immutability, pickling, and
what importing the command line loads."""

from __future__ import annotations

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from fhc.hierarchy import LevelDescriptor, QuotientSegment
from fhc.iterated import IForest, color, itree
from fhc.ordinals import ONE, ZERO, Ordinal, ord_compare, parse_ordinal
from fhc.terms import Const, Dot, G, Join

C0, C1 = color(0), color(1)

#: (class, positional arguments, repr as the dataclasses printed it)
VALUES = [
    (IForest, (0, ()), "IForest(level=0, trees=())"),
    (Const, (0,), "Const(color=0)"),
    (Join, (Const(0), Const(1)), "Join(left=Const(color=0), right=Const(color=1))"),
    (G, (Const(1), Const(0), Const(0)),
     "G(on_halt=Const(color=1), on_diverge=Const(color=0), oracle=Const(color=0))"),
    (Dot, (1, Const(0), Join(Const(1), Const(0))),
     "Dot(grade=1, left=Const(color=0), right=Join(left=Const(color=1), right=Const(color=0)))"),
    (Ordinal, (((ONE, 1),),), "Ordinal('w')"),
    (LevelDescriptor, (IForest(0, (C1,)),),
     "LevelDescriptor(forest=IForest(level=0, trees=(ITree(level=0, label=1, children=()),)))"),
    (QuotientSegment, (1, 1, 0, (IForest(0), IForest(0, (C0,))), ((0, 1),)),
     "QuotientSegment(k=1, max_nodes=1, max_level=0, classes=(IForest(level=0, trees=()),"
     " IForest(level=0, trees=(ITree(level=0, label=0, children=()),))), covers=((0, 1),))"),
]


@pytest.mark.parametrize("cls, args, text", VALUES, ids=[v[0].__name__ for v in VALUES])
class TestValueClass:
    def test_equal_fields_equal_objects(self, cls, args, text):
        a, b = cls(*args), cls(*args)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a in {b: None}

    def test_other_type_same_fields_unequal(self, cls, args, text):
        lookalike = type("Lookalike", (cls,), {"__slots__": ()})
        a, b = cls(*args), lookalike(*args)
        assert a != b and b != a
        assert a != tuple(getattr(a, name) for name in cls.__match_args__)

    def test_repr(self, cls, args, text):
        assert repr(cls(*args)) == text

    def test_fields_cannot_be_set_or_deleted(self, cls, args, text):
        a = cls(*args)
        for name in (*cls.__match_args__, "extra"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == cls(*args)

    def test_pickle_and_deepcopy_round_trip(self, cls, args, text):
        a = cls(*args)
        for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
            assert type(b) is cls
            assert b == a and hash(b) == hash(a)

    def test_keyword_construction(self, cls, args, text):
        a = cls(**dict(zip(cls.__match_args__, args)))
        assert a == cls(*args)
        assert tuple(getattr(a, name) for name in cls.__match_args__) == args


@pytest.mark.parametrize("cls, args", [
    (IForest, (2,)), (Ordinal, ()),
], ids=["IForest", "Ordinal"])
def test_defaults(cls, args):
    assert cls(*args) == cls(*args, ())


def test_checks_in_the_constructor():
    for build in (lambda: Const(-1), lambda: Dot(-1, Const(0), Const(1)),
                  lambda: IForest(1, (C0,)), lambda: LevelDescriptor(IForest(0)),
                  lambda: Ordinal(((ZERO, 0),))):
        with pytest.raises(ValueError):
            build()


def _random_ordinal(rng: random.Random, depth: int) -> Ordinal:
    if depth == 0:
        n = rng.randrange(4)
        return Ordinal(((ZERO, n),)) if n else ZERO
    exps = {_random_ordinal(rng, depth - 1) for _ in range(rng.randrange(4))}
    return Ordinal(tuple((e, rng.randint(1, 3)) for e in sorted(exps, reverse=True)))


def test_ordinal_comparisons_agree_with_ord_compare():
    rng = random.Random(15)
    ordinals = [_random_ordinal(rng, 2) for _ in range(60)]
    ordinals += [parse_ordinal(text) for text in ("0", "1", "w", "w+1", "w^w", "w^2*2+w+3")]
    for a, b in itertools.product(ordinals, repeat=2):
        c = ord_compare(a, b)
        assert (a < b, a <= b, a > b, a >= b, a == b) == (c < 0, c <= 0, c > 0, c >= 0, c == 0)
    assert len({ord_compare(a, b) for a, b in itertools.product(ordinals, repeat=2)}) == 3


SRC = Path(__file__).resolve().parent.parent / "src"

#: the site hooks are left out (-S), so only what fhc itself imports is seen;
#: prints the verdict, every module loaded, and the fhc modules not yet run
#: (a module the package loads on first use is no plain module until then)
IMPORT_SCRIPT = """\
import sys
from types import ModuleType
sys.path.insert(0, sys.argv[1])
import fhc.cli
fhc.cli.build_parser()
fhc.cli.main(sys.argv[2:])
print(" ".join(sorted(sys.modules)))
print(" ".join(sorted(name for name, module in sys.modules.items()
                      if name.startswith("fhc.") and type(module) is not ModuleType)))
"""

#: every module bench/shim.py reads from sys.modules for fhc.cli's layers
LAYER_MODULES = {"fhc.cli", "fhc.forests", "fhc.hierarchy", "fhc.iterated", "fhc.notation",
                 "fhc.ordinals", "fhc.terms"}


def _fresh_call(*argv: str, env: dict | None = None) -> tuple[str, set[str], set[str]]:
    proc = subprocess.run([sys.executable, "-S", "-c", IMPORT_SCRIPT, str(SRC), *argv],
                          capture_output=True, text=True, check=True, env=env)
    lines = proc.stdout.split("\n")  # the verdict's first line, ..., modules, unrun, ""
    # a call that prints no verdict has its error line instead
    verdict = lines[0] if len(lines) > 3 else proc.stderr.rstrip("\n")
    return verdict, set(lines[-3].split()), set(lines[-2].split())


def test_cli_import_loads_no_dataclasses_inspect_or_json():
    verdict, loaded, unrun = _fresh_call("cmp", "{0}", "{[0:[1]]}")
    assert verdict == "<"
    assert not loaded & {"argparse", "dataclasses", "inspect", "json"}
    # a forest command runs no term, ordinal or segment code, but every layer's
    # module is in sys.modules for the shim
    assert unrun == {"fhc.terms", "fhc.ordinals", "fhc.hierarchy"}
    assert LAYER_MODULES <= loaded


@pytest.mark.parametrize("argv, verdict", [
    (("eval", "(0 .0 1)"), "{[0:[1]]}"),
    (("s2g", "(1 .0 0)"), "G(0,1,0)"),
    (("jump-height", "G(0,1,G(0,1,0))"), "2"),
])
def test_term_commands_run_no_ordinal_or_segment_code(argv, verdict):
    assert _fresh_call(*argv)[0] == verdict
    assert _fresh_call(*argv)[2] == {"fhc.ordinals", "fhc.hierarchy"}


@pytest.mark.parametrize("argv, verdict", [
    (("enumerate", "--k", "2", "--nodes", "2", "--level", "1"),
     "fhc-segment v1 k=2 nodes=2 level=1"),
    (("diagram", "--k", "2", "--nodes", "2", "--level", "1"), "digraph segment {"),
])
def test_segment_commands_run_no_parser_term_or_ordinal_code(argv, verdict):
    # a segment prints its forests through iterated and parses nothing
    assert _fresh_call(*argv)[0] == verdict
    assert _fresh_call(*argv)[2] == {"fhc.notation", "fhc.terms", "fhc.ordinals"}


@pytest.mark.parametrize("argv, bound, guard, unrun", [
    (("enumerate", "--k", "300", "--nodes", "2", "--level", "1"), None, "segment",
     {"fhc.notation", "fhc.terms", "fhc.ordinals"}),
    (("cmp", "{[0:[1]]}", "{[0:[1]]}", "--oracle"), "1", "oracle",
     {"fhc.terms", "fhc.ordinals", "fhc.hierarchy"}),
], ids=["segment", "oracle"])
def test_refusals_run_no_term_or_ordinal_code(argv, bound, guard, unrun):
    # the exit-2 handler names only the base class of the guards, which the
    # order's module defines
    env = dict(os.environ, FHC_ORACLE_BOUND=bound) if bound else None
    verdict, _, left = _fresh_call(*argv, env=env)
    assert verdict.startswith(f"error: {guard} too large: ")
    assert left == unrun

