"""Level verdicts, witnesses, segment enumeration, and the two text outputs."""

from __future__ import annotations

import gc
import itertools
import random
import re
import time
from functools import reduce
from operator import or_

import pytest

from fhc import forests, iterated, terms
from fhc import hierarchy as hy
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
    write_segment,
)
from fhc.notation import parse_forest, serialize_forest
from fhc.ordinals import Ordinal, build_t, from_int, ord_compare
from conftest import ORACLE_LABELS, h_leq_rows

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
        (2, 5, 2), (4, 4, 1),
        (2, 3, 3), (3, 4, 2), (3, 5, 1), (2, 4, 3), (4, 3, 1),
        (0, 3, 2), (1, 4, 3), (3, 0, 2), (3, 4, 0), (2, 2, 12),
    ], ids="k{0[0]}-n{0[1]}-l{0[2]}".format)
    def test_classes_match_representatives_of_every_forest(self, segment):
        # the classes come from the minimal forests alone; naming every raw
        # forest by its representative finds the same classes, in order
        reference = tuple(dict.fromkeys(
            map(iterated.representative, iterated.enumerate_forests(*segment))
        ))
        assert enumerate_segment(*segment).classes == reference

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
        # order on them at their own levels changes no cover
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

    @pytest.mark.parametrize("args, message", [
        ((2, -2, 1), "max_nodes must be non-negative, got -2"),
        ((2, 3, -1), "max_level must be non-negative, got -1"),
    ])
    def test_negative_bounds_refused(self, args, message):
        with pytest.raises(ValueError) as exc:
            enumerate_segment(*args)
        assert str(exc.value) == message

    @pytest.mark.parametrize("level", [0, 1, 5, 40])
    def test_two_node_segments_gain_two_classes_a_level(self, level):
        # the lifts of lower classes name no new class; each level adds two
        assert len(enumerate_segment(2, 2, level).classes) == 2 * level + 4

    def test_empty_alphabet_is_the_bottom_alone(self):
        seg = enumerate_segment(0, 3, 2)
        assert [serialize_forest(c) for c in seg.classes] == ["{}"]
        assert seg.covers == ()

    def test_bound_guard(self):
        with pytest.raises(SegmentBoundError, match="too large"):
            enumerate_segment(3, 12, 2, bound=1000)

    def test_bound_counts_what_is_built(self):
        # (2,5,2) builds 541 colors, candidate trees and multisets in all
        assert len(enumerate_segment(2, 5, 2, bound=541).classes) == 26
        with pytest.raises(SegmentBoundError) as exc:
            enumerate_segment(2, 5, 2, bound=540)
        assert str(exc.value) == (
            "segment too large: at least 541 trees and forests (bound 540)")

    @pytest.mark.parametrize("segment", [(4, 4, 1), (2, 5, 2), (3, 4, 2), (9, 9, 3)],
                             ids="k{0[0]}-n{0[1]}-l{0[2]}".format)
    def test_tables_die_with_the_call(self, segment):
        # no reference cycle keeps the generator's or the order table's trees
        # interned once the segment is dropped or refused (9, 9, 3 is): the
        # cyclic collector frees none
        gc.collect()
        gc.disable()
        try:
            try:
                enumerate_segment(*segment)
            except SegmentBoundError:
                pass  # a kept exception would keep the call's frames
            interned = len(iterated._INTERNED)
            gc.collect()
            assert len(iterated._INTERNED) == interned
        finally:
            gc.enable()

    def test_wide_alphabet_answers_quickly(self):
        # every color labels itself in the order table: the table walks the
        # set bits of an up-set, not every bit of the pool
        start = time.perf_counter()
        seg = enumerate_segment(10_000, 1, 0)
        assert time.perf_counter() - start < 5
        assert len(seg.classes) == 10_001
        assert seg.covers == tuple((0, i) for i in range(1, 10_001))

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


class TestOrderTable:
    """The segment order is read off one table of tree up-sets."""

    @pytest.mark.parametrize("segment", [
        (2, 5, 2), (4, 4, 1), (3, 4, 2), (3, 5, 1), (2, 5, 3),
    ], ids="k{0[0]}-n{0[1]}-l{0[2]}".format)
    def test_rows_match_reference(self, segment):
        # the reference decides every pair of distinct trees by _tree_leq
        classes = list(enumerate_segment(*segment).classes)
        rows = hy._class_rows(classes)
        assert rows == h_leq_rows(classes, iterated.LABEL_ORDER)

    @pytest.mark.parametrize("segment", [(2, 5, 2), (3, 3, 2)],
                             ids="k{0[0]}-n{0[1]}-l{0[2]}".format)
    def test_rows_match_map_search(self, segment):
        # the map search decides labels by map search too, at every level
        classes = list(enumerate_segment(*segment).classes)
        rows = hy._class_rows(classes)
        for (i, a), (j, b) in itertools.product(enumerate(classes), repeat=2):
            assert (rows[i] >> j & 1) == forests.h_leq_oracle(a, b, ORACLE_LABELS), (a, b)

    def test_covers_make_no_tree_leq_call(self, monkeypatch):
        classes = list(enumerate_segment(3, 4, 2).classes)
        calls = []
        real = forests._tree_leq

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(forests, "_tree_leq", counting)
        hy._transitive_reduction(classes)
        assert calls == []
        # the counter does see the recursion when it runs
        forests.h_leq(classes[5], classes[9], iterated.LABEL_ORDER)
        assert calls

    def test_covers_build_the_table_once(self, monkeypatch):
        classes = list(enumerate_segment(3, 4, 2).classes)
        calls = []
        real = hy._class_rows

        def counting(reps):
            calls.append(reps)
            return real(reps)

        monkeypatch.setattr(hy, "_class_rows", counting)
        covers = hy._transitive_reduction(classes)
        assert len(calls) == 1
        assert covers == tuple(sorted(covers))

    @pytest.mark.parametrize("seed", range(3))
    def test_covers_in_any_index_order(self, seed):
        # the walk keeps the least classes above each class whatever the index
        # order: on shuffled classes it finds the same covers, renamed
        classes = list(enumerate_segment(3, 4, 2).classes)
        perm = list(range(len(classes)))
        random.Random(seed).shuffle(perm)
        covers = hy._transitive_reduction([classes[p] for p in perm])
        assert sorted((perm[i], perm[j]) for i, j in covers) == list(
            hy._transitive_reduction(classes))


def _recolor(f: iterated.IForest, perm) -> iterated.IForest:
    """``f`` with every color ``c`` replaced by ``perm[c]``."""
    def tree(t):
        if t.level == 0:
            return iterated.color(perm[t.label])
        return iterated.ITree(t.level, tree(t.label), tuple(tree(c) for c in t.children))

    return iterated.IForest(f.level, tuple(tree(t) for t in f.trees))


def _order_from_covers(n: int, covers) -> list[int]:
    """Bit ``j`` of row ``i`` is set when the covers lead from ``i`` up to ``j``."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for lo, hi in covers:
        succ[lo].append(hi)
    ups: dict = {}

    def up(i: int) -> int:
        if i not in ups:
            ups[i] = reduce(or_, map(up, succ[i]), 1 << i)
        return ups[i]

    return [up(i) for i in range(n)]


def _image(classes, perm) -> list[int]:
    """Where recoloring by ``perm`` sends each class, as class indices."""
    where = {c: i for i, c in enumerate(classes)}
    return [where[iterated.representative(_recolor(c, perm))] for c in classes]


def _ordinals(max_exponent: int, max_coefficient: int) -> set:
    """The naturals to 8 and every w^e1*c1 + w^e2*c2 with natural exponents
    e1 > e2 up to ``max_exponent`` and coefficients up to ``max_coefficient``."""
    powers = [from_int(e) for e in range(max_exponent + 1)]
    coefficients = range(1, max_coefficient + 1)
    out = {from_int(n) for n in range(9)}
    out |= {Ordinal(((e, c),)) for e in powers for c in coefficients}
    for e2, e1 in itertools.combinations(powers, 2):
        out |= {Ordinal(((e1, c1), (e2, c2))) for c1 in coefficients for c2 in coefficients}
    return out


class TestTheory:
    """Checks from the theory, on the classes and covers alone."""

    @pytest.mark.parametrize("segment", [
        (2, 5, 2), (2, 6, 2), (2, 7, 1), (2, 5, 3),
    ], ids="k{0[0]}-n{0[1]}-l{0[2]}".format)
    def test_wadge_lemma_for_two_colors(self, segment):
        # a <= b or b <= swap(a), for all classes a, b
        seg = enumerate_segment(*segment)
        n = len(seg.classes)
        rows = _order_from_covers(n, seg.covers)
        for i, j in itertools.product(range(n), repeat=2):
            assert bool(rows[i] >> j & 1) == iterated.colim_leq(
                seg.classes[i], seg.classes[j], 0)
        swap = _image(seg.classes, (1, 0))
        for a, b in itertools.product(range(n), repeat=2):
            assert rows[a] >> b & 1 or rows[b] >> swap[a] & 1, (a, b)

    @pytest.mark.parametrize("segment", [(3, 4, 2), (4, 4, 1)],
                             ids="k{0[0]}-n{0[1]}-l{0[2]}".format)
    def test_color_permutations_are_automorphisms(self, segment):
        seg = enumerate_segment(*segment)
        covers = set(seg.covers)
        for perm in itertools.permutations(range(segment[0])):
            image = _image(seg.classes, perm)
            assert sorted(image) == list(range(len(seg.classes))), perm
            assert {(image[lo], image[hi]) for lo, hi in covers} == covers, perm

    @pytest.mark.parametrize("segment", [(2, 6, 1), (2, 6, 2)],
                             ids="k{0[0]}-n{0[1]}-l{0[2]}".format)
    def test_two_color_classes_are_ordinal_levels(self, segment):
        # for two colors the non-self-dual levels are the T_alpha of the level
        # family (Wadge's hierarchy), so build_t and the ordinal order decide
        # the segment with no code shared with the forest order
        named: dict = {}
        for alpha in _ordinals(max_exponent=5, max_coefficient=3):
            for i in (0, 1):
                name = iterated.representative(build_t(alpha, i, 0, 2))
                named.setdefault(name, []).append((alpha, i))
        seg = enumerate_segment(*segment)
        single = [c for c in seg.classes if len(c.trees) == 1]
        assert all(len(named.get(c, ())) == 1 for c in single), [
            serialize_forest(c) for c in single if len(named.get(c, ())) != 1]
        rows = _order_from_covers(len(seg.classes), seg.covers)
        index = {c: n for n, c in enumerate(seg.classes)}
        for a, b in itertools.product(single, repeat=2):
            (alpha, i), = named[a]
            (beta, j), = named[b]
            ordinal_leq = ord_compare(alpha, beta) < 0 or (alpha == beta and i == j)
            assert bool(rows[index[a]] >> index[b] & 1) == ordinal_leq, (
                serialize_forest(a), serialize_forest(b))
        # the rest are bottom and the self-dual joins of both polarities
        joins = {iterated.representative(iterated.join(*(build_t(alpha, i, 0, 2)
                                                          for i in (0, 1))))
                 for alpha in _ordinals(max_exponent=2, max_coefficient=3)}
        assert {c for c in seg.classes if len(c.trees) != 1} <= joins | {iterated.IForest(0)}

    def test_larger_segments_split_covers(self):
        # a segment holds the classes with a member of at most ``nodes`` color
        # occurrences; it is no initial segment of the quotient, and its covers
        # are covers among its own classes only
        small, large = enumerate_segment(2, 3, 1), enumerate_segment(2, 7, 1)
        assert (len(small.classes), len(small.covers)) == (8, 10)
        assert set(small.classes) <= set(large.classes)

        def strictly_between(lo, hi):
            return [c for c in large.classes
                    if iterated.colim_leq(lo, c) and not iterated.colim_leq(c, lo)
                    and iterated.colim_leq(c, hi) and not iterated.colim_leq(hi, c)]

        split = [(lo, hi) for lo, hi in small.covers
                 if strictly_between(small.classes[lo], small.classes[hi])]
        assert len(split) == 4
        # the join of two 2-node trees has 4 nodes: it falls outside (2,3,1)
        lo, mid, hi = map(parse_forest, ["{[0:[1]]}", "{[0:[1]],[1:[0]]}", "{[0:[1:[0]]]}"])
        assert mid in strictly_between(lo, hi)
        assert (small.classes.index(lo), small.classes.index(hi)) in small.covers

    def test_t_omega_lies_above_every_alternating_chain(self):
        # no finite set holding T_omega is down-closed at level 2 and above
        t_omega = parse_forest("{[[0:[1]]]}")
        assert t_omega == iterated.representative(build_t(Ordinal(((from_int(1), 1),)), 0, 0, 2))
        for nodes in (2, 4, 13, 41, 200):
            for first in (0, 1):
                t = iterated.ITree(1, iterated.color((first + nodes - 1) % 2))
                for i in reversed(range(nodes - 1)):
                    t = iterated.ITree(1, iterated.color((first + i) % 2), (t,))
                chain = iterated.singleton(t)
                assert chain.size == nodes
                assert iterated.colim_leq(chain, t_omega), (nodes, first)
                assert not iterated.colim_leq(t_omega, chain), (nodes, first)

    def test_deciders_agree_at_level_two(self):
        # the structural recursion, the map search, the term order of the
        # encodings and the order table decide alike on every pair of level-2
        # forests, minimal or not, lifted or at their own floor
        fs = [f for f in iterated.enumerate_forests(2, 4, 2) if f.level == 2]
        assert len(fs) == 482
        rows = hy._class_rows(fs)
        table = [[bool(row >> j & 1) for j in range(len(fs))] for row in rows]
        assert {leq for row in table for leq in row} == {True, False}
        codes = {f: terms.encode(f, 0) for f in fs}
        for name, leq in [
            ("colim_leq", iterated.colim_leq),
            ("colim_leq_oracle", iterated.colim_leq_oracle),
            ("term_leq", lambda a, b: terms.term_leq(codes[a], codes[b])),
        ]:
            got = [[leq(a, b) for b in fs] for a in fs]
            wrong = [(serialize_forest(a), serialize_forest(b))
                     for a, row, table_row in zip(fs, got, table)
                     for b, x, y in zip(fs, row, table_row) if x != y]
            assert not wrong, (name, len(wrong), wrong[:3])


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
        # the format read directly: one class per line, then the covers
        seg = enumerate_segment(2, 3, 1)
        lines = write_segment(seg).splitlines()
        split = lines.index("covers:")
        assert tuple(parse_forest(line, seg.k) for line in lines[1:split]) == seg.classes
        assert [tuple(map(int, line.split())) for line in lines[split + 1:]] == sorted(seg.covers)
