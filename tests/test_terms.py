"""Term signatures, translations, the forest encoding, and the term order."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fhc import iterated
from fhc.iterated import colim_equiv, colim_leq, color_forest, dot_p, enumerate_forests
from fhc.terms import (
    JUMP_BOUND,
    Const,
    Dot,
    G,
    GradeBoundError,
    Join,
    encode,
    g_to_s,
    interpret,
    jump_height,
    jump_term,
    restrict_level,
    s_to_g,
    subterms,
    term_equiv,
    term_leq,
    term_r,
    term_s,
    window_normalize,
)
from conftest import random_iforest

C0, C1 = Const(0), Const(1)
CHAIN = iterated.dot_p(color_forest(0), color_forest(1), 0)


def sterms(max_grade=2, colors=2):
    const = st.integers(0, colors - 1).map(Const)
    return st.recursive(
        const,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda ab: Join(*ab)),
            st.tuples(st.integers(0, max_grade), sub, sub).map(
                lambda t: Dot(t[0], t[1], t[2])
            ),
        ),
        max_leaves=6,
    )


def gterms(colors=2):
    const = st.integers(0, colors - 1).map(Const)
    return st.recursive(
        const,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda ab: Join(*ab)),
            st.tuples(sub, sub, sub).map(lambda t: G(t[0], t[1], t[2])),
        ),
        max_leaves=6,
    )


class TestJumpHeight:
    def test_constants(self):
        for i in range(3):
            assert jump_height(Const(i)) == 0

    def test_jump_constants(self):
        for m in range(7):
            assert jump_height(jump_term(m)) == m

    def test_jump_chain_guard(self):
        # refused before the chain is built, naming the grade and the bound
        chain = jump_term(JUMP_BOUND)
        assert sum(isinstance(x, G) for x in subterms(chain)) == JUMP_BOUND
        with pytest.raises(GradeBoundError, match=(
                rf"^jump chain too large: grade {JUMP_BOUND + 1} \(bound {JUMP_BOUND}\)$")):
            jump_term(JUMP_BOUND + 1)
        with pytest.raises(GradeBoundError):
            s_to_g(Dot(10**12, C0, C1))

    def test_collapsing_combinator(self):
        assert jump_height(G(C0, C0, jump_term(1))) == 0

    def test_join_takes_max(self):
        assert jump_height(Join(jump_term(2), C1)) == 2

    def test_equal_nonconstant_branches_do_not_collapse(self):
        # the collapse rule is syntactic: equal branches that are not
        # constants keep the oracle's contribution
        u = G(C0, C1, C0)
        assert jump_height(G(u, u, C0)) == 1
        assert jump_height(G(u, u, u)) == 2


class TestTranslations:
    def test_g_to_s_base(self):
        assert g_to_s(G(C0, C1, C0)) == Dot(0, C1, C0)
        assert g_to_s(Const(2)) == Const(2)

    def test_g_to_s_counts_oracle_jumps(self):
        assert g_to_s(G(C0, C1, G(C0, C1, C0))) == Dot(1, C1, C0)

    def test_s_to_g_base(self):
        assert s_to_g(Dot(0, C1, C0)) == G(C0, C1, Const(0))
        assert s_to_g(Const(2)) == Const(2)

    def test_s_to_g_expands_jump_constant(self):
        assert s_to_g(Dot(1, C1, C0)) == G(C0, C1, jump_term(1))

    @settings(max_examples=150, deadline=None)
    @given(sterms())
    def test_round_trip_from_star(self, u):
        assert term_equiv(g_to_s(s_to_g(u)), u, 0)

    @settings(max_examples=100, deadline=None)
    @given(gterms())
    def test_round_trip_from_g(self, u):
        v = s_to_g(g_to_s(u))
        assert term_equiv(g_to_s(v), g_to_s(u), 0)


class TestRestrictLevel:
    def test_collapses_equal_constants(self):
        assert restrict_level(Dot(2, C0, C0), 1) == C0

    def test_constant_unchanged(self):
        assert restrict_level(C1, 0) == C1

    def test_low_grade_kept(self):
        assert restrict_level(Dot(0, C1, C0), 1) == Dot(0, C1, C0)

    def test_rejects_unbounded_term(self):
        with pytest.raises(ValueError, match="jump bound"):
            restrict_level(Dot(2, C0, C1), 1)

    def test_collapse_happens_after_recursion(self):
        u = Dot(1, Dot(2, C0, C0), Dot(2, C0, C0))
        assert restrict_level(u, 1) == C0


class TestWindowNormalize:
    def test_low_grade_becomes_join(self):
        assert window_normalize(Dot(0, C1, C0), 1, 2) == Join(C1, C0)

    def test_in_window_kept(self):
        assert window_normalize(Dot(1, C1, C0), 1, 2) == Dot(1, C1, C0)

    def test_applied_per_subterm(self):
        u = Join(Dot(0, C0, C1), Dot(1, C0, C1))
        assert window_normalize(u, 1, 2) == Join(Join(C0, C1), Dot(1, C0, C1))

    def test_rejects_outside_window(self):
        with pytest.raises(ValueError, match="window"):
            window_normalize(Dot(3, C0, C1), 1, 2)

    def test_class_preserved_at_level(self):
        for f in enumerate_forests(2, 3, 2)[1:]:
            u = encode(f, 1)
            assert term_equiv(window_normalize(u, 1, 3), u, 1)

    def test_operands_checked_before_the_grade(self):
        # a G under an out-of-window product is not a star-signature term
        with pytest.raises(TypeError, match="star-signature"):
            window_normalize(Dot(3, G(C0, C1, C0), C1), 1, 2)


def test_subterms_preorder_left_to_right():
    u = Join(Dot(1, C0, Const(2)), G(Const(3), Const(4), C1))
    assert list(subterms(u)) == [
        u, u.left, C0, Const(2), u.right, Const(3), Const(4), C1,
    ]


class TestShifts:
    def test_term_s(self):
        assert term_s(Dot(0, C1, C0)) == Dot(1, C1, C0)

    def test_term_r(self):
        assert term_r(Dot(0, C1, C0)) == Join(C1, C0)

    @settings(max_examples=150, deadline=None)
    @given(sterms())
    def test_r_after_s_identity(self, u):
        assert term_r(term_s(u)) == u

    def test_s_of_encode_is_shifted_encode(self):
        for f in enumerate_forests(2, 3, 2)[1:]:
            for n in (0, 1):
                assert term_s(encode(f, n)) == encode(f, n + 1)
                assert term_r(encode(f, n + 1)) == encode(f, n)

    def test_s_after_r_fixes_shifted_encodes(self):
        for f in enumerate_forests(2, 3, 1)[1:]:
            u = encode(f, 1)
            assert term_s(term_r(u)) == u


class TestEncode:
    def test_color(self):
        assert encode(color_forest(1), 5) == C1

    def test_singleton_defers_to_label(self):
        lifted = iterated.lift(color_forest(1), 1)
        assert encode(lifted, 0) == C1

    def test_chain(self):
        assert encode(CHAIN, 0) == Dot(0, C0, C1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="bottom"):
            encode(iterated.IForest(0), 0)

    def test_grades_within_window(self):
        for f in enumerate_forests(2, 4, 2)[1:]:
            for n in (0, 2):
                u = encode(f, n)
                grades = _grades(u)
                assert all(n <= g < n + max(f.level, 1) for g in grades), (f, u)

    def test_lift_invariant(self):
        for f in enumerate_forests(2, 3, 1)[1:]:
            assert encode(iterated.lift(f, f.level + 1), 0) == encode(f, 0)


def _grades(u):
    match u:
        case Const():
            return []
        case Join(a, b):
            return _grades(a) + _grades(b)
        case Dot(g, a, b):
            return [g] + _grades(a) + _grades(b)


class TestInterpret:
    def test_constant(self):
        assert interpret(C0) == color_forest(0)

    def test_product(self):
        assert colim_equiv(interpret(Dot(0, C0, C1)), CHAIN, 0)

    def test_round_trip_from_forest(self):
        for f in enumerate_forests(2, 3, 2)[1:]:
            assert colim_equiv(interpret(encode(f, 0)), f, 0)

    @settings(max_examples=100, deadline=None)
    @given(sterms())
    def test_round_trip_from_term(self, u):
        assert term_equiv(encode(interpret(u), 0), u, 0)


class TestTermLeq:
    def test_reflexive(self):
        u = Dot(1, Join(C0, C1), C0)
        assert term_leq(u, u, 0)

    def test_constants_incomparable(self):
        assert not term_leq(C0, C1, 0)

    def test_join_strictly_below_product(self):
        assert term_leq(Join(C0, C1), Dot(0, C0, C1), 0)
        assert not term_leq(Dot(0, C0, C1), Join(C0, C1), 0)


def test_encode_preserves_and_reflects_order():
    # the provable pairing: the base order on forests against the n-th
    # derived order on shift-n encodings, for every shift
    fs = enumerate_forests(2, 3, 1)[1:]
    for n in (0, 1, 2):
        for f, g in itertools.product(fs, fs):
            assert colim_leq(f, g, 0) == term_leq(encode(f, n), encode(g, n), n)


def test_encode_homomorphism_laws():
    rng = random.Random(4711)
    for _ in range(60):
        f = random_iforest(rng, 2, 2, 3)
        g = random_iforest(rng, 2, 2, 3)
        if f.is_empty() or g.is_empty():
            continue
        for n in (0, 1):
            lhs = encode(iterated.join(f, g), n)
            rhs = Join(encode(f, n), encode(g, n))
            assert term_equiv(lhs, rhs, n)
            p = rng.randint(0, 2)
            lhs = encode(dot_p(f, g, p), n)
            rhs = Dot(n + p, encode(f, n), encode(g, n))
            assert term_equiv(lhs, rhs, n)


def test_jump_height_matches_restriction_threshold():
    # Fact-3 consistency: the computed height is the least grade bound that
    # admits a restricted form of the encoding
    for f in enumerate_forests(2, 3, 2)[1:]:
        u = encode(iterated.iminimize(f), 0)
        h = jump_height(s_to_g(u))
        for n in range(4):
            ok = True
            try:
                restrict_level(u, n)
            except ValueError:
                ok = False
            assert ok == (n >= h), (f, u, h, n)
