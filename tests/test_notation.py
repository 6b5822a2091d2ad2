"""Forest and term text: grammar, lifting, canonical round trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from fhc import iterated
from fhc.notation import (
    ParseError,
    parse_forest,
    parse_term,
    serialize_forest,
    serialize_term,
    serialize_tree,
)
from fhc.terms import Const, Dot, G, Join

from test_terms import gterms, sterms
from conftest import random_iforest


class TestForestGrammar:
    def test_bare_color(self):
        assert parse_forest("0") == iterated.color_forest(0)

    def test_chain_with_trailing_colon(self):
        f = parse_forest("[0:[1:]]")
        assert f == iterated.dot_p(iterated.color_forest(0), iterated.color_forest(1), 0)

    def test_singleton_without_colon(self):
        assert parse_forest("[1]") == parse_forest("[1:]")

    def test_braced_forest_of_singletons(self):
        f = parse_forest("{[0:], [1:]}")
        assert f.level == 1
        assert iterated.colim_equiv(f, iterated.color_forest(0, 1), 0)

    def test_empty_forest(self):
        assert parse_forest("{}").is_empty()

    def test_mixed_levels_lifted(self):
        f = parse_forest("{0,[1:]}")
        assert f.level == 1
        assert iterated.colim_equiv(f, iterated.color_forest(0, 1), 0)

    def test_nested_labels(self):
        f = parse_forest("[[0:[1]]:]")
        assert f.level == 2
        assert f.trees[0].label.level == 1

    def test_color_bound(self):
        with pytest.raises(ValueError, match="alphabet"):
            parse_forest("[2:]", k=2)
        parse_forest("[7:]", k=None)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_forest("{0,]")
        assert err.value.position == 3

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_forest("0 0")

    def test_syntax_checked_before_colors(self):
        # "[5:" ends early and "[5:]]" trails; both hold the bad color 5
        for text in ["[5:", "[5:]]", "{7,}"]:
            with pytest.raises(ParseError):
                parse_forest(text, k=2)

    def test_first_bad_color_in_text_order(self):
        for text, bad in [("[5:]", 5), ("{[0:5],3}", 5), ("{3,[0:5]}", 3)]:
            with pytest.raises(ValueError) as err:
                parse_forest(text, k=2)
            assert not isinstance(err.value, ParseError)
            assert str(err.value) == f"color {bad} outside alphabet of size 2"

    def test_empty_braces_are_level0(self):
        assert parse_forest("{}", k=2) == iterated.IForest(0)


class TestForestRoundTrip:
    def test_reference_shapes(self):
        for text in ["{}", "{0}", "{0,1}", "{[0:[1]]}", "{[[0:[1]]]}"]:
            f = parse_forest(text, k=None)
            assert serialize_forest(f) == text

    def test_serialization_is_canonical(self):
        f = parse_forest("{[1:], [0:[1],[0]]}", k=2)
        assert serialize_forest(f) == "{[0:[0],[1]],[1]}"
        assert parse_forest(serialize_forest(f)) == iterated.canonical(f)

    @settings(max_examples=100, deadline=None)
    @given(sterms())
    def test_interpreted_terms_round_trip(self, u):
        f = __import__("fhc.terms", fromlist=["interpret"]).interpret(u)
        assert parse_forest(serialize_forest(f), k=None) == iterated.canonical(f)

    def test_random_forests_round_trip(self):
        import random

        rng = random.Random(99)
        for _ in range(50):
            f = random_iforest(rng, 3, 2, 3)
            assert parse_forest(serialize_forest(f), k=None) == iterated.canonical(f)


class TestTermGrammar:
    def test_g_combinator(self):
        assert parse_term("G(0,1,0)") == G(Const(0), Const(1), Const(0))

    def test_graded_product(self):
        assert parse_term("(1 .0 0)") == Dot(0, Const(1), Const(0))

    def test_join_inside_product(self):
        assert parse_term("((0+1) .1 0)") == Dot(1, Join(Const(0), Const(1)), Const(0))

    def test_mixing_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            parse_term("(G(0,1,0) .0 1)")

    def test_malformed(self):
        for bad in ["(0+)", "G(0,1)", "(0 . 1)", "(0 .x 1)", ")", "(0 + 1"]:
            with pytest.raises(ValueError):
                parse_term(bad)

    @settings(max_examples=100, deadline=None)
    @given(sterms())
    def test_sterm_round_trip(self, u):
        assert parse_term(serialize_term(u)) == u

    @settings(max_examples=100, deadline=None)
    @given(gterms())
    def test_gterm_round_trip(self, u):
        assert parse_term(serialize_term(u)) == u


def test_serialize_tree_matches_forest_member():
    f = parse_forest("{[0:1,0]}")
    assert serialize_tree(f.trees[0]) == "[0:[0],[1]]"
