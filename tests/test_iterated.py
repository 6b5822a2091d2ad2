"""Iterated forests: lifting, the derived preorders, level shifts, products."""

from __future__ import annotations

import copy
import dataclasses
import gc
import itertools
import pickle
import random
import weakref
from decimal import Decimal
from fractions import Fraction

import pytest

from fhc import forests, iterated
from fhc.iterated import (
    LABEL_ORDER,
    IForest,
    ITree,
    canonical,
    canonical_tree,
    colim_equiv,
    colim_leq,
    colim_leq_oracle,
    color,
    color_forest,
    dot_p,
    enumerate_forests,
    iforest,
    iminimize,
    itree,
    join,
    lift,
    minimal_forests,
    r_drop,
    representative,
    s_lift,
    singleton,
    unlift,
)
from fhc.hierarchy import enumerate_segment
from fhc.notation import parse_forest, serialize_forest
from conftest import (
    ORACLE_LABELS,
    floor_by_dropping,
    minimal_forests_by_minimizing,
    random_iforest,
    random_itree,
    unlift_by_dropping,
)

C0, C1 = color(0), color(1)
F0 = color_forest(0)
F01 = color_forest(0, 1)
CHAIN = iforest(ITree(1, C0, (ITree(1, C1),)))   # level-1 chain 0 -> 1


def some_forests(k=2, seed=7, count=25, max_level=2, max_nodes=3):
    rng = random.Random(seed)
    return [random_iforest(rng, k, max_level, max_nodes) for _ in range(count)]


class TestValidation:
    def test_color_label_required_at_level0(self):
        with pytest.raises(ValueError):
            ITree(0, C0)

    def test_label_level_must_drop_by_one(self):
        with pytest.raises(ValueError):
            ITree(2, C0)

    def test_child_level_matches(self):
        with pytest.raises(ValueError):
            ITree(1, C0, (C1,))

    def test_forest_level_matches_trees(self):
        with pytest.raises(ValueError):
            IForest(0, (itree(C0),))


def _ref_size(t):
    if t.level == 0:
        return 1
    return _ref_size(t.label) + sum(_ref_size(c) for c in t.children)


def _ref_sort_key(t):
    if t.level == 0:
        return (0, t.label)
    return (1, _ref_sort_key(t.label), tuple(sorted(_ref_sort_key(c) for c in t.children)))


def _ref_canonical_tree(t):
    """Reference ``canonical_tree``: the plain recursion, with nothing stored."""
    if t.level == 0:
        return t
    kids = sorted((_ref_canonical_tree(c) for c in t.children), key=lambda c: c.sort_key)
    return ITree(t.level, _ref_canonical_tree(t.label), tuple(kids))


def _all_subtrees(forests):
    """Every tree of ``forests``, with its subtrees and labels at all levels."""
    seen, stack = {}, [t for f in forests for t in f.trees]
    while stack:
        t = stack.pop()
        if t not in seen:
            seen[t] = None
            stack.extend(t.children)
            if t.level:
                stack.append(t.label)
    return list(seen)


class TestInterned:
    def test_identity_is_equality(self):
        assert not dataclasses.is_dataclass(ITree)
        assert ITree.__eq__ is object.__eq__ and ITree.__hash__ is object.__hash__

    def test_equal_trees_are_one_object(self):
        chain = CHAIN.trees[0]                   # [0:[1]], built by hand
        assert parse_forest("{[0:[1]]}").trees[0] is chain
        assert lift(F01, 1).trees == (itree(C0), itree(C1))
        assert lift(F01, 1).trees[1] is chain.children[0]
        assert ITree(1, C0).with_children((ITree(1, C1),)) is chain
        assert unlift(lift(F01, 3)).trees[0] is C0
        assert unlift(lift(CHAIN, 3)).trees[0] is chain
        bushy = ITree(1, C0, (itree(C1), itree(C0)))
        assert canonical_tree(bushy) is ITree(1, C0, (itree(C0), itree(C1)))
        found = [f for f in enumerate_forests(2, 2, 1) if f.trees == (chain,)]
        assert len(found) == 1 and found[0].trees[0] is chain

    @pytest.mark.parametrize("bad, lookalike", [
        ((0, 1.0), (0, 1)),
        ((0, -1), (0, 1)),
        ((0, 1, (C0,)), (0, 1)),
        ((0, C0), (1, C0)),
        ((1, 0), (1, C0)),
        ((2, C0), (1, C0)),
        ((1, C0, (C1,)), (1, C0, (itree(C1),))),
        ((1, C0, (itree(itree(C1)),)), (1, C0, (itree(C1),))),
        # like 1.0, keys equal to color 1's, which the lookup would find
        ((0, Fraction(1)), (0, 1)),
        ((0, Decimal(1)), (0, 1)),
    ])
    def test_ill_formed_raises_after_lookalike_exists(self, bad, lookalike):
        keep = ITree(*lookalike)
        with pytest.raises(ValueError):
            ITree(*bad)
        assert ITree(*lookalike) is keep

    def test_stored_canonical_form_matches_the_recursion(self):
        rng = random.Random(24)
        shuffled = [random_itree(rng, 3, level, 5) for level in (1, 2, 3) for _ in range(60)]
        assert sum(_ref_canonical_tree(t) is not t for t in shuffled) > 20  # children out of order
        trees = _all_subtrees(enumerate_forests(3, 4, 2)) + shuffled
        for t in trees:
            form = canonical_tree(t)
            assert form is _ref_canonical_tree(t)
            assert canonical_tree(t) is form and canonical_tree(form) is form
            assert form not in gc.get_referents(form)  # no cycle through itself
        for f in enumerate_forests(3, 3, 2) + [IForest(3, tuple(shuffled[-3:]))]:
            g = canonical(f)
            assert g == IForest(f.level if f.trees else 0, tuple(sorted(
                map(_ref_canonical_tree, f.trees), key=lambda t: t.sort_key)))
            assert canonical(g) is g  # a canonical forest comes back

    @pytest.mark.parametrize("k, n, level", [(2, 4, 2), (3, 3, 2)])
    def test_size_and_sort_key_match_recursion(self, k, n, level):
        trees = _all_subtrees(enumerate_forests(k, n, level))
        assert len(trees) > 100
        for t in trees:
            assert t.size == _ref_size(t)
            assert t.sort_key == _ref_sort_key(t)

    def test_repr_reads_as_a_constructor_call(self):
        assert repr(color(0)) == "ITree(level=0, label=0, children=())"
        assert repr(itree(C0, itree(C1))) == (
            "ITree(level=1, label=ITree(level=0, label=0, children=()), children=("
            "ITree(level=1, label=ITree(level=0, label=1, children=()), children=()),))"
        )

    def test_pickle_and_deepcopy_return_the_interned_tree(self):
        trees = [t for f in enumerate_forests(2, 3, 2) for t in f.trees]
        assert len(trees) > 100
        for t in trees:
            assert pickle.loads(pickle.dumps(t)) is t
            assert copy.deepcopy(t) is t
        f = parse_forest("{[0:[1]],1}")
        assert copy.deepcopy(f) == f and pickle.loads(pickle.dumps(f)) == f

    def test_immutable(self):
        with pytest.raises(AttributeError):
            C0.size = 2

    def test_unreferenced_trees_are_released(self):
        # the intern table holds its trees weakly: the last reference takes a
        # tree's entry with it, and a stored canonical form makes no cycle, so
        # no collection is needed
        gc.disable()
        try:
            t = ITree(1, color(12345), (itree(color(12347)), itree(color(12346))))
            form = canonical_tree(t)  # kept on t
            keys = [(1, t.label, t.children), (1, form.label, form.children)]
            assert form is not t and all(key in iterated._INTERNED for key in keys)
            gone = [weakref.ref(t), weakref.ref(form)]
            del t, form
            assert [ref() for ref in gone] == [None, None]
            assert not any(key in iterated._INTERNED for key in keys)
        finally:
            gc.enable()


class TestLift:
    def test_color_lifts_to_singleton(self):
        assert lift(F0, 1) == iforest(itree(C0))

    def test_identity_at_same_level(self):
        assert lift(CHAIN, 1) == CHAIN

    def test_shape_preserved_labels_wrapped(self):
        got = lift(CHAIN, 2)
        assert got.level == 2
        root = got.trees[0]
        assert root.label == itree(C0)
        assert root.children[0].label == itree(C1)

    def test_cannot_lower(self):
        with pytest.raises(ValueError, match="cannot lower"):
            lift(CHAIN, 0)

    def test_lift_is_class_preserving(self):
        for f in some_forests():
            up = lift(f, f.level + 2)
            assert colim_equiv(f, up, 0)


class TestColimLeq:
    def test_lift_equivalence(self):
        up = lift(CHAIN, 2)
        assert colim_leq(CHAIN, up, 0) and colim_leq(up, CHAIN, 0)

    def test_color_antichain(self):
        assert not colim_leq(color_forest(0), color_forest(1), 0)

    def test_chain_equals_labels_at_level_one(self):
        assert colim_leq(CHAIN, F01, 1)
        assert colim_leq(F01, CHAIN, 1)
        assert not colim_leq(CHAIN, F01, 0)

    def test_preorder_laws(self):
        fs = some_forests()
        for n in (0, 1):
            for a in fs:
                assert colim_leq(a, a, n)
            for a, b, c in itertools.islice(
                itertools.product(fs, fs, fs), 0, None, 7
            ):
                if colim_leq(a, b, n) and colim_leq(b, c, n):
                    assert colim_leq(a, c, n)

    def test_relations_nested(self):
        fs = some_forests()
        for a, b in itertools.product(fs, fs):
            if colim_leq(a, b, 0):
                assert colim_leq(a, b, 1)
                assert colim_leq(a, b, 2)

    def test_relations_coincide_on_lifted_trees(self):
        # n-fold s-lifted trees compare the same under <=^0 .. <=^n
        trees = [t for f in some_forests() for t in f.trees]
        for n in (1, 2):
            for a, b in itertools.islice(itertools.product(trees, trees), 0, 400, 3):
                sa, sb = singleton(a), singleton(b)
                for _ in range(n):
                    sa, sb = s_lift(sa), s_lift(sb)
                expected = colim_leq(sa, sb, 0)
                for j in range(1, n + 1):
                    assert colim_leq(sa, sb, j) == expected


    def test_drops_stop_at_level_zero(self):
        # r_drop fixes level 0, so a relation level past both operands' levels
        # answers at once, as the definition's n-fold drop does
        fs = some_forests(k=3, max_level=3)
        for a, b in itertools.islice(itertools.product(fs, fs), 0, None, 4):
            top = max(a.level, b.level)
            expected = _lifted_leq(a, b, top + 2)
            assert colim_leq(a, b, 10**12) == expected, (a, b)
            assert colim_leq_oracle(a, b, 10**12) == expected, (a, b)

    @pytest.mark.parametrize("op", [colim_leq, colim_leq_oracle, dot_p])
    def test_negative_level_refused(self, op):
        a = parse_forest("[0:[1]]")
        with pytest.raises(ValueError, match="must be non-negative, got -1"):
            op(a, a, -1)


def _lifted_leq(a, b, n):
    """``a <=^n b`` by the definition: lift both operands to a common level,
    so that every label comparison is between labels of one level, then
    ``r_drop`` both ``n`` times."""
    p = max(a.level, b.level)
    a, b = lift(a, p), lift(b, p)
    for _ in range(n):
        a, b = r_drop(a), r_drop(b)
    return forests.h_leq(a, b, LABEL_ORDER)


class TestUnliftedOrder:
    @pytest.mark.parametrize("k, n, level", [(2, 3, 2), (3, 2, 3)])
    def test_matches_lifted_definition_exhaustively(self, k, n, level):
        fs = enumerate_forests(k, n, level)
        for a, b in itertools.product(fs, fs):
            for m in (0, 1, 2):
                assert colim_leq(a, b, m) == _lifted_leq(a, b, m), (a, b, m)

    def test_matches_lifted_definition_on_random_pairs(self):
        rng = random.Random(2024)
        for _ in range(2000):
            a, b = (random_iforest(rng, 3, 3, 5) for _ in range(2))
            for m in range(4):
                assert colim_leq(a, b, m) == _lifted_leq(a, b, m), (a, b, m)


class TestMapSearchAtEveryLevel:
    """The map search with labels decided by map search, level by level,
    against the structural recursion."""

    def test_agrees_exhaustively_and_names_classes(self):
        fs = enumerate_forests(2, 3, 2)
        assert len(fs) ** 2 == 14_884
        names = [representative(f) for f in fs]
        leq = {(i, j): forests.h_leq_oracle(a, b, ORACLE_LABELS)
               for (i, a), (j, b) in itertools.product(enumerate(fs), repeat=2)}
        for (i, j), verdict in leq.items():
            assert verdict == colim_leq(fs[i], fs[j]), (fs[i], fs[j])
            assert (verdict and leq[j, i]) == (names[i] == names[j]), (fs[i], fs[j])

    def test_agrees_on_random_level3_pairs(self):
        rng = random.Random(3)
        for _ in range(2000):
            a, b = (IForest(3, tuple(random_itree(rng, 3, 3, 3) for _ in range(rng.randint(1, 2))))
                    for _ in range(2))
            assert forests.h_leq_oracle(a, b, ORACLE_LABELS, 10**5) == colim_leq(a, b), (a, b)

    def test_agrees_on_level2_forests_at_their_floor(self):
        # a seeded sample of the pairs of level-2 forests that no lower forest
        # lifts to; every one of the 115,600 pairs agrees, but takes seconds
        fs = [f for f in enumerate_forests(2, 4, 2) if f.level == f.floor == 2]
        assert len(fs) == 340
        rng = random.Random(5)
        pairs = [(rng.choice(fs), rng.choice(fs)) for _ in range(5000)]
        assert {colim_leq(a, b) for a, b in pairs} == {True, False}
        wrong = [(serialize_forest(a), serialize_forest(b)) for a, b in pairs
                 if forests.h_leq_oracle(a, b, ORACLE_LABELS) != colim_leq(a, b)]
        assert not wrong, (len(wrong), wrong[:3])


class TestLevelWalk:
    """Lifting and unlifting stated as properties, on every forest of
    ``enumerate_forests(2, 4, 3)``."""

    @pytest.fixture(scope="class")
    def fs(self):
        return enumerate_forests(2, 4, 3)

    def test_lift_restores_what_unlift_drops(self, fs):
        assert len(fs) == 1769
        for h in fs:
            assert lift(unlift(h), h.level) == h, h

    def test_unlift_is_idempotent(self, fs):
        for h in fs:
            assert unlift(unlift(h)) == unlift(h), h

    def test_unlift_undoes_lift(self, fs):
        for h in fs:
            for m in range(h.level, 5):
                assert unlift(lift(h, m)) == unlift(h), (h, m)

    def test_drops_exactly_the_lifts(self, fs):
        lifts = {canonical(lift(g, g.level + 1)) for g in fs if 0 < g.size and g.level < 3}
        for h in fs:
            if h.level > 0:
                assert (unlift(h).level < h.level) == (canonical(h) in lifts), h

    def test_graded_product_is_s_lift_of_the_dropped_product(self):
        fs = enumerate_forests(2, 2, 2)
        for f, g in itertools.product(fs, fs):
            for p in (1, 2, 3):
                assert dot_p(f, g, p) == s_lift(dot_p(r_drop(f), r_drop(g), p - 1)), (f, g, p)

    def test_deep_segment_has_two_classes(self):
        seg = enumerate_segment(1, 1, 400)
        assert [serialize_forest(c) for c in seg.classes] == ["{}", "{0}"]
        assert seg.covers == ((0, 1),)


def _nested(t: ITree):
    """``t`` and every tree inside it: its label's nested trees and its children's."""
    yield t
    if t.level:
        yield from _nested(t.label)
        for c in t.children:
            yield from _nested(c)


class TestFloor:
    """The floor stored on each node against the reference walk that finds
    how far a tree drops (``conftest._droppable``)."""

    def check(self, f: IForest) -> None:
        for t in {n for top in f.trees for n in _nested(top)}:
            assert t.floor == floor_by_dropping(t), t
        assert unlift(f) == unlift_by_dropping(f), f

    def test_every_subtree_of_an_exhaustive_segment(self):
        fs = enumerate_forests(2, 4, 3)
        assert {t.floor for f in fs for t in f.trees} == {0, 1, 2, 3}
        for f in fs:
            self.check(f)

    def test_seeded_random_forests_and_their_lifts(self):
        rng = random.Random(13)
        for _ in range(2000):
            f = random_iforest(rng, 2, 4, 4)
            for m in range(f.level, 5):
                self.check(lift(f, m))

    def test_floor_of_colors_lifts_and_leaves(self):
        chain = CHAIN.trees[0]                   # [0:[1]]: a child lifts a color
        assert (C0.floor, itree(C0).floor, chain.floor) == (0, 0, 1)
        assert lift(CHAIN, 3).floor == 1 and IForest(3).floor == 0
        assert itree(chain).floor == 2           # a leaf over a level-1 tree
        assert ITree(2, itree(C0), (itree(chain),)).floor == 2  # from the child


class TestShiftMaps:
    def test_s_lift_of_color_stays_in_class(self):
        assert colim_equiv(s_lift(F0), F0, 0)

    def test_s_lift_strictly_above_proper_trees(self):
        up = s_lift(CHAIN)
        assert up == iforest(ITree(2, CHAIN.trees[0]))
        assert colim_leq(CHAIN, up, 0)
        assert not colim_leq(up, CHAIN, 0)

    def test_s_lift_is_join_homomorphism(self):
        for f, g in zip(some_forests(seed=1), some_forests(seed=2)):
            assert colim_equiv(s_lift(join(f, g)), join(s_lift(f), s_lift(g)), 0)

    def test_s_lift_is_order_embedding(self):
        fs = some_forests()
        for a, b in itertools.product(fs, fs):
            assert colim_leq(a, b, 0) == colim_leq(s_lift(a), s_lift(b), 0)

    def test_r_drop_joins_labels(self):
        assert r_drop(CHAIN) == F01

    def test_r_drop_fixes_level_zero(self):
        assert r_drop(F01) == F01

    def test_r_after_s_is_identity(self):
        for f in some_forests():
            assert r_drop(s_lift(f)) == f


class TestDotP:
    def test_colors_stack_to_chain(self):
        assert dot_p(F0, color_forest(1), 0) == CHAIN

    def test_empty_left_neutral(self):
        assert colim_equiv(dot_p(IForest(0), F01, 0), F01, 0)

    def test_grade_zero_join_image(self):
        # instantiated with level-0 operands, where the claim is provable;
        # see the r-image law below for the general form
        f, g = color_forest(0), color_forest(1)
        assert colim_equiv(r_drop(dot_p(f, g, 0)), join(f, g), 0)
        assert colim_equiv(r_drop(dot_p(f, g, 1)), dot_p(f, g, 0), 0)

    def test_product_join_equiv_at_next_level(self):
        # general form, any operand level: F .^p G and F|_|G have equal
        # (p+1)-fold r-images
        for f, g in zip(some_forests(seed=3), some_forests(seed=4)):
            for p in range(3):
                assert colim_equiv(dot_p(f, g, p), join(f, g), p + 1)

    def test_r_image_of_graded_product(self):
        for f, g in zip(some_forests(seed=5), some_forests(seed=6)):
            for p in range(2):
                assert r_drop(dot_p(f, g, p + 1)) == dot_p(r_drop(f), r_drop(g), p)

    def test_associative_up_to_class(self):
        for f, g, h in zip(
            some_forests(seed=8, count=12),
            some_forests(seed=9, count=12),
            some_forests(seed=10, count=12),
        ):
            for p in range(2):
                a = dot_p(dot_p(f, g, p), h, p)
                b = dot_p(f, dot_p(g, h, p), p)
                assert colim_equiv(a, b, 0)

    def test_join_below_product(self):
        for f, g in zip(some_forests(seed=11), some_forests(seed=12)):
            assert colim_leq(join(f, g), dot_p(f, g, 0), 0)

    def test_monotone(self):
        fs = some_forests(count=10)
        for a, b, cc, d in itertools.islice(
            itertools.product(fs, fs, fs, fs), 0, 2000, 17
        ):
            if colim_leq(a, b, 0) and colim_leq(cc, d, 0):
                assert colim_leq(join(a, cc), join(b, d), 0)
                assert colim_leq(dot_p(a, cc, 0), dot_p(b, d, 0), 0)


class TestJoinSemilattice:
    def test_laws_in_quotient(self):
        fs = some_forests(count=10)
        for n in (0, 1):
            for a, b in itertools.product(fs, fs):
                assert colim_equiv(join(a, a), a, n)
                assert colim_equiv(join(a, b), join(b, a), n)
            for a, b, c in itertools.islice(
                itertools.product(fs, fs, fs), 0, None, 11
            ):
                assert colim_equiv(join(join(a, b), c), join(a, join(b, c)), n)

    def test_join_is_least_upper_bound(self):
        fs = some_forests(count=12)
        for n in (0, 1):
            for a, b in itertools.product(fs, fs):
                j = join(a, b)
                assert colim_leq(a, j, n) and colim_leq(b, j, n)
            for a, b, c in itertools.islice(
                itertools.product(fs, fs, fs), 0, None, 7
            ):
                if colim_leq(a, c, n) and colim_leq(b, c, n):
                    assert colim_leq(join(a, b), c, n)


#: every color sequence of up to 4 trees over 3 colors, as level-0 forests
COLOR_SEQUENCES = [
    color_forest(*cs) for n in range(5) for cs in itertools.product(range(3), repeat=n)
]


class TestColorsAtTheBottom:
    """Level 0 runs through the generic order and minimizer, like any level."""

    def test_order_is_set_inclusion(self):
        for a, b in itertools.product(COLOR_SEQUENCES, repeat=2):
            expected = {t.label for t in a.trees} <= {t.label for t in b.trees}
            assert colim_leq(a, b, 0) == expected, (a, b)

    def test_iminimize_keeps_first_occurrences(self):
        for f in COLOR_SEQUENCES:
            labels = [t.label for t in f.trees]
            assert iminimize(f) == color_forest(*dict.fromkeys(labels)), f


class TestIMinimize:
    def test_dedupes_colors(self):
        assert iminimize(color_forest(0, 0)) == color_forest(0)

    def test_inner_labels_minimized(self):
        bushy = ITree(1, C0, (ITree(1, C0), ITree(1, C1)))
        lvl2 = iforest(itree(bushy))
        got = iminimize(lvl2)
        assert got == iforest(itree(CHAIN.trees[0]))

    def test_class_preserved(self):
        for f in some_forests(seed=13):
            assert colim_equiv(iminimize(f), f, 0)

    def test_idempotent(self):
        for f in some_forests(seed=14):
            m = iminimize(f)
            assert iminimize(m) == m

    def test_minimal_equivalents_are_isomorphic(self):
        # justifies using canonical(unlift(iminimize(.))) as the class
        # representative: equal exactly when equivalent
        for segment in [(2, 3, 1), (2, 3, 2), (3, 3, 1), (2, 4, 1)]:
            fs = enumerate_forests(*segment)
            keys = [canonical(unlift(iminimize(f))) for f in fs]
            for (a, ka), (b, kb) in itertools.combinations(zip(fs, keys), 2):
                assert colim_equiv(a, b, 0) == (ka == kb), (segment, a, b)


class TestCanonical:
    def test_sorts_trees_and_children(self):
        messy = iforest(itree(C1), itree(C0))
        assert canonical(messy) == iforest(itree(C0), itree(C1))
        bushy = ITree(1, C0, (itree(C1), itree(C0)))
        assert canonical(iforest(bushy)).trees[0].children == (itree(C0), itree(C1))

    def test_class_preserved(self):
        for f in some_forests(seed=15):
            c = canonical(f)
            assert colim_equiv(c, f, 0)
            assert canonical(c) == c


class TestEnumeration:
    def test_counts_level1(self):
        # 2 colors: trees sized 1..3 number 2, 4, 14
        fs = enumerate_forests(2, 3, 1)
        level1_trees = [
            f for f in fs if f.level == 1 and len(f.trees) == 1
        ]
        by_size = {}
        for f in level1_trees:
            by_size[f.size] = by_size.get(f.size, 0) + 1
        assert by_size == {1: 2, 2: 4, 3: 14}

    @pytest.mark.parametrize("k, n, level", [(3, 4, 2), (4, 4, 1)])
    def test_minimal_forests_are_built_from_minimal_trees(self, k, n, level):
        # the closure minimal_forests relies on: every tree it keeps, and every
        # subtree and label inside one, is left as it is by iminimize
        fs = minimal_forests(k, n, level)
        trees = _all_subtrees(fs)
        assert len(trees) > 100
        for t in trees:
            assert iminimize(singleton(t)) == singleton(t)
        for f in fs:
            assert not any(
                colim_leq(singleton(a), singleton(b), 0)
                for a, b in itertools.permutations(f.trees, 2)
            ), f
            assert iminimize(f) == f

    @pytest.mark.parametrize("k, n, level", [
        (4, 4, 1), (3, 5, 2), (2, 6, 3), (3, 6, 1), (2, 5, 3), (3, 4, 2),
    ])
    def test_local_minimality_matches_whole_minimization(self, k, n, level):
        # over minimal label and children, three local tests decide whether a
        # whole minimization would leave a candidate tree as it is
        assert minimal_forests(k, n, level) == minimal_forests_by_minimizing(k, n, level)

    def test_multisets_try_only_multiplicities_a_later_tree_completes(self, monkeypatch):
        # one color fills each size one way: a call for the multiset and one for
        # its color, with no call for a count that no later tree completes
        calls = 0
        multisets = iterated._multisets

        def count(*args):
            nonlocal calls
            calls += 1
            return multisets(*args)

        monkeypatch.setattr(iterated, "_multisets", count)
        fs = minimal_forests(1, 2000, 0)
        assert [f.size for f in fs] == [0, 1]
        assert calls == 4000

    def test_minimal_forests_are_a_subsequence_of_all_forests(self):
        fs = enumerate_forests(3, 4, 2)
        ranks = [fs.index(f) for f in minimal_forests(3, 4, 2)]
        assert ranks == sorted(ranks) and len(ranks) < len(fs)

    def test_deterministic_and_distinct(self):
        a = enumerate_forests(2, 3, 2)
        b = enumerate_forests(2, 3, 2)
        assert a == b
        assert len(set(a)) == len(a)

    def test_wqo_smoke(self):
        # some pair among 100 seeded random forests must be comparable
        rng = random.Random(20240811)
        fs = [random_iforest(rng, 2, 2, 3) for _ in range(100)]
        hit = any(
            colim_leq(a, b, 0)
            for a, b in itertools.combinations(fs, 2)
        )
        assert hit
