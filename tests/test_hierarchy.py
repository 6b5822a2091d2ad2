"""Level verdicts, witnesses, segment enumeration, and the two text outputs."""

from __future__ import annotations

import itertools
import re

import pytest

from fhc import hierarchy as hy
from fhc import iterated, terms
from fhc.hierarchy import (
    EQUAL,
    INCOMPARABLE,
    SUBSET,
    SUPERSET,
    LevelDescriptor,
    SegmentBoundError,
    enumerate_segment,
    hasse_dot,
    level_relation,
    read_segment,
    write_segment,
)
from fhc.notation import parse_forest, serialize_forest

CHAIN = parse_forest("[0:[1:]]")
TWO = parse_forest("{0,1}")


def desc(text: str) -> LevelDescriptor:
    return LevelDescriptor(parse_forest(text))


class TestLevelRelation:
    def test_equal(self):
        assert level_relation(desc("[0:[1:]]"), desc("[0:[1:]]")) == EQUAL

    def test_antichain_base(self):
        assert level_relation(desc("0"), desc("1")) == INCOMPARABLE

    def test_strict_subset(self):
        assert level_relation(desc("{0,1}"), desc("[0:[1:]]")) == SUBSET
        assert level_relation(desc("[0:[1:]]"), desc("{0,1}")) == SUPERSET

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            LevelDescriptor(parse_forest("{}"))

    def test_partial_order_on_classes(self):
        fs = [desc(t) for t in ["0", "1", "{0,1}", "[0:[1:]]", "[1:[0:]]"]]
        for a, b in itertools.product(fs, fs):
            r1, r2 = level_relation(a, b), level_relation(b, a)
            flip = {SUBSET: SUPERSET, SUPERSET: SUBSET,
                    EQUAL: EQUAL, INCOMPARABLE: INCOMPARABLE}
            assert r2 == flip[r1]


class TestWitness:
    def test_constant_partition_for_colors(self):
        assert hy.complete_witness(desc("1")) == terms.Const(1)

    def test_chain_witness(self):
        w = hy.complete_witness(desc("[0:[1:]]"), 0)
        assert w == terms.G(terms.Const(1), terms.Const(0), terms.Const(0))

    def test_witness_order_tracks_level_order(self):
        descriptors = [desc(t) for t in ["0", "1", "{0,1}", "[0:[1:]]", "[1:[0:]]"]]
        for a, b in itertools.product(descriptors, descriptors):
            wa = terms.g_to_s(hy.complete_witness(a))
            wb = terms.g_to_s(hy.complete_witness(b))
            assert terms.term_leq(wa, wb, 0) == iterated.colim_leq(
                a.forest, b.forest, 0
            )


class TestSegments:
    def test_smallest_segment(self):
        seg = enumerate_segment(2, 1, 1)
        assert [serialize_forest(c) for c in seg.classes] == ["{}", "{0}", "{1}"]
        assert set(seg.covers) == {(0, 1), (0, 2)}

    def test_two_node_segment(self):
        seg = enumerate_segment(2, 2, 1)
        texts = [serialize_forest(c) for c in seg.classes]
        assert texts == ["{}", "{0}", "{1}", "{0,1}", "{[0:[1]]}", "{[1:[0]]}"]
        assert (3, 4) in seg.covers and (3, 5) in seg.covers

    def test_covers_are_tight(self):
        seg = enumerate_segment(2, 3, 1)
        classes = seg.classes
        for lo, hi in seg.covers:
            assert iterated.colim_leq(classes[lo], classes[hi], 0)
            assert not iterated.colim_leq(classes[hi], classes[lo], 0)
            for mid in range(len(classes)):
                if mid in (lo, hi):
                    continue
                between = (
                    iterated.colim_leq(classes[lo], classes[mid], 0)
                    and not iterated.colim_leq(classes[mid], classes[lo], 0)
                    and iterated.colim_leq(classes[mid], classes[hi], 0)
                    and not iterated.colim_leq(classes[hi], classes[mid], 0)
                )
                assert not between

    def test_representatives_are_minimal_and_distinct(self):
        seg = enumerate_segment(2, 3, 1)
        for a, b in itertools.combinations(seg.classes, 2):
            assert not (
                iterated.colim_leq(a, b, 0) and iterated.colim_leq(b, a, 0)
            )
        for c in seg.classes:
            assert c == iterated.canonical(iterated.unlift(iterated.iminimize(c)))

    @pytest.mark.parametrize("segment", [
        (2, 3, 1), (2, 3, 2), (3, 3, 1), (2, 4, 1), (3, 2, 2), (2, 4, 2), (3, 4, 1),
    ], ids="k{0[0]}-n{0[1]}-l{0[2]}".format)
    def test_classes_match_pairwise_scan(self, segment):
        # naming each class by its representative groups exactly as
        # comparing every forest with every class found so far
        assert enumerate_segment(*segment).classes == _pairwise_classes(*segment)

    @pytest.mark.parametrize("segment", [
        (2, 3, 1), (2, 3, 2), (2, 3, 3), (3, 3, 1), (2, 4, 2), (3, 4, 1), (4, 3, 1),
    ], ids="k{0[0]}-n{0[1]}-l{0[2]}".format)
    def test_covers_match_pairwise_matrix(self, segment):
        # representatives sit at mixed levels after unlift; deciding the
        # order on all of them lifted to the top level changes no cover
        seg = enumerate_segment(*segment)
        assert len({c.level for c in seg.classes}) > 1
        assert seg.covers == _pairwise_covers(list(seg.classes))

    def test_covers_of_no_class_and_one_class(self):
        assert hy._transitive_reduction([]) == ()
        assert hy._transitive_reduction([parse_forest("[0:[1:]]")]) == ()

    def test_negative_alphabet_refused(self):
        with pytest.raises(ValueError) as exc:
            enumerate_segment(-1, 2, 1)
        assert str(exc.value) == "alphabet size k must be non-negative, got -1"

    def test_empty_alphabet_is_the_bottom_alone(self):
        seg = enumerate_segment(0, 3, 2)
        assert [serialize_forest(c) for c in seg.classes] == ["{}"]
        assert seg.covers == ()

    def test_bound_guard(self):
        with pytest.raises(SegmentBoundError, match="too large"):
            enumerate_segment(3, 12, 2, bound=1000)

    def test_deterministic(self):
        a = enumerate_segment(2, 3, 1)
        b = enumerate_segment(2, 3, 1)
        assert a == b


def _pairwise_classes(k: int, max_nodes: int, max_level: int) -> tuple:
    """The reference bucketing: each forest is compared both ways with every
    class found so far and opens a new class when it matches none."""
    reps: list = []
    for f in iterated.enumerate_forests(k, max_nodes, max_level):
        if not any(iterated.colim_equiv(f, rep, 0) for rep in reps):
            reps.append(iterated.canonical(iterated.unlift(iterated.iminimize(f))))
    return tuple(reps)


def _pairwise_covers(classes: list) -> tuple:
    """The reference covers: the strict order as a matrix of ``colim_leq``
    calls, one per ordered pair, reduced by a scan over every middle class."""
    n = len(classes)
    less = [
        [i != j and iterated.colim_leq(classes[i], classes[j], 0) for j in range(n)]
        for i in range(n)
    ]
    return tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if less[i][j] and not any(less[i][m] and less[m][j] for m in range(n))
    )


class TestHasseDot:
    def test_empty_segment_skeleton(self):
        seg = hy.QuotientSegment(2, 0, 0, (), ())
        assert hasse_dot(seg) == "digraph segment {\n  rankdir=BT;\n}\n"

    def test_six_node_graph(self):
        dot = hasse_dot(enumerate_segment(2, 2, 1))
        assert dot.count("[label=") == 6
        assert dot.count("->") == 6

    def test_output_tokenizes_as_dot(self):
        dot = hasse_dot(enumerate_segment(2, 2, 1))
        assert _dot_parses(dot)


def _dot_parses(text: str) -> bool:
    # minimal DOT structure check: header, then node/edge statements, balanced
    lines = text.strip().splitlines()
    if lines[0] != "digraph segment {" or lines[-1] != "}":
        return False
    node = re.compile(r'^\s*n\d+ \[label="[^"]*"\];$')
    edge = re.compile(r"^\s*n\d+ -> n\d+;$")
    attr = re.compile(r"^\s*\w+=\w+;$")
    return all(
        node.match(ln) or edge.match(ln) or attr.match(ln) for ln in lines[1:-1]
    )


class TestSegmentFile:
    def test_header_and_shape(self):
        seg = enumerate_segment(2, 2, 1)
        text = write_segment(seg)
        lines = text.splitlines()
        assert lines[0] == "fhc-segment v1 k=2 nodes=2 level=1"
        assert "covers:" in lines
        assert lines[1] == "{}"

    def test_round_trip(self):
        seg = enumerate_segment(2, 3, 1)
        back = read_segment(write_segment(seg))
        assert back.k == seg.k
        assert back.classes == seg.classes
        assert back.covers == tuple(sorted(seg.covers))

    def test_rejects_foreign_text(self):
        with pytest.raises(ValueError, match="not a segment file"):
            read_segment("digraph segment {}\n")

    @pytest.mark.parametrize("text, message", [
        ("fhc-segment v1 nodes=1 level=1\n{}\ncovers:\n", "lacks k="),
        ("fhc-segment v1 k=2 level=1\n{}\ncovers:\n", "lacks nodes="),
        ("fhc-segment v1 k=2 nodes=1 level=1 x\n{}\ncovers:\n",
         "header item without '=': 'x'"),
        ("fhc-segment v1 k=2 nodes=1 level=1\n{}\n{0}\ncovers:\n0\n",
         "cover line is not two indices: '0'"),
        ("fhc-segment v1 k=2 nodes=1 level=1\n{}\n{0}\ncovers:\n0 1 2\n",
         "cover line is not two indices"),
        ("fhc-segment v1 k=2 nodes=1 level=1\n{}\n{0}\ncovers:\n0 x\n",
         "cover line is not two indices"),
        ("fhc-segment v1 k=2 nodes=1 level=1\n{}\ncovers:\n0 7\n",
         "cover '0 7' names no class of 1"),
        ("fhc-segment v1 k=2 nodes=1 level=1\n{}\n{0}\ncovers:\n-1 0\n",
         "names no class of 2"),
    ])
    def test_malformed_file_raises_value_error(self, text, message):
        with pytest.raises(ValueError) as err:
            read_segment(text)
        assert type(err.value) is ValueError
        assert message in str(err.value)
