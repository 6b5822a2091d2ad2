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
from fhc.ordinals import parse_ordinal
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


#: (grammar, text, str(error), error position or None for a plain ValueError)
PARSE_ERRORS = [
    # a character outside the grammar is refused before any syntax error;
    # Unicode white space separates tokens, and a non-decimal digit is no digit
    ("forest", "{0,x}", "unexpected character 'x' (at position 3)", 3),
    ("forest", "0 ]x", "unexpected character 'x' (at position 3)", 3),
    ("forest", "[0:\u00b2]", "unexpected character '\u00b2' (at position 3)", 3),
    ("forest", "{0,\u00a0\u3000a}", "unexpected character 'a' (at position 5)", 5),
    ("term", "(0 .x 1)", "unexpected character 'x' (at position 4)", 4),
    ("term", "G[0,1,2)", "unexpected character '[' (at position 1)", 1),
    ("ordinal", "w^x", "unexpected character 'x' (at position 2)", 2),
    # end of input after every kind of open token
    ("forest", "", "expected a tree (at position 0)", 0),
    ("forest", "[", "expected a tree (at position 1)", 1),
    ("forest", "{", "expected a tree (at position 1)", 1),
    ("forest", "[0:", "expected a tree (at position 3)", 3),
    ("forest", "[0", "unexpected end of input, expected ] (at position 2)", 2),
    ("forest", "{0", "unexpected end of input, expected } (at position 2)", 2),
    ("forest", "[0:1", "unexpected end of input, expected ] (at position 4)", 4),
    ("forest", "{0,", "expected a tree (at position 3)", 3),
    ("term", "", "expected a term (at position 0)", 0),
    ("term", "(", "expected a term (at position 1)", 1),
    ("term", "(0", "unexpected end of input, expected more input (at position 2)", 2),
    ("term", "(0 .", "grade expected after '.', got end of input (at position 4)", 4),
    ("term", "(0 .1", "expected a term (at position 5)", 5),
    ("term", "(0+1", "unexpected end of input, expected ) (at position 4)", 4),
    ("term", "G", "unexpected end of input, expected ( (at position 1)", 1),
    ("term", "G(", "expected a term (at position 2)", 2),
    ("term", "G(0,1", "unexpected end of input, expected , (at position 5)", 5),
    ("ordinal", "w^(2", "unexpected end of input, expected ) (at position 4)", 4),
    ("ordinal", "w*", "coefficient expected after '*', got end of input (at position 2)", 2),
    # a wrong token where a closer, a separator, an operator or a grade is due
    ("forest", "[0,1]", "expected ']', got ',' (at position 2)", 2),
    ("forest", "[0:1 2]", "expected ']', got '2' (at position 5)", 5),
    ("forest", "{0:1}", "expected '}', got ':' (at position 2)", 2),
    ("forest", "{0 1}", "expected '}', got '1' (at position 3)", 3),
    ("forest", "]", "expected a tree, got ']' (at position 0)", 0),
    ("forest", "[:]", "expected a tree, got ':' (at position 1)", 1),
    ("forest", "{{}}", "expected a tree, got '{' (at position 1)", 1),
    ("term", ")", "expected a term, got ')' (at position 0)", 0),
    ("term", "G(0 1,2)", "expected ',', got '1' (at position 4)", 4),
    ("term", "(0 .1 1 2)", "expected ')', got '2' (at position 8)", 8),
    # the operator error names the token after the bad one
    ("term", "(0 1)", "expected '+' or '.', got '1' (at position 4)", 4),
    ("term", "(0 , 1)", "expected '+' or '.', got ',' (at position 5)", 5),
    ("ordinal", "w+", "expected 'w' or a number, got end of input (at position 2)", 2),
    ("ordinal", "w*0", "coefficients are positive (at position 2)", 2),
    ("ordinal", "w+w",
     "exponents must strictly decrease; input is not canonical (at position 2)", 2),
    # trailing input, empty list items, and syntax ahead of colors
    ("forest", "0 0", "trailing input '0' (at position 2)", 2),
    ("forest", "{0}]", "trailing input ']' (at position 3)", 3),
    ("term", "(0+1)2", "trailing input '2' (at position 5)", 5),
    ("ordinal", "3 w", "trailing input 'w' (at position 2)", 2),
    ("forest", "{0,}", "expected a tree, got '}' (at position 3)", 3),
    ("forest", "[0:,]", "expected a tree, got ',' (at position 3)", 3),
    ("forest", "{5,]", "expected a tree, got ']' (at position 3)", 3),
    ("forest", "[5:[7]]", "color 5 outside alphabet of size 2", None),
    # a decimal digit of another script is a digit
    ("forest", "[0:\u0663]", "color 3 outside alphabet of size 2", None),
    ("term", "(G(0,1,0) .0 1)", "mixed signatures: term uses both G(...) and .p", None),
]


@pytest.mark.parametrize("grammar, text, message, position", PARSE_ERRORS)
def test_parse_errors_are_pinned(grammar, text, message, position):
    parse = {"forest": parse_forest, "term": parse_term, "ordinal": parse_ordinal}[grammar]
    with pytest.raises(ValueError) as err:
        parse(text)
    assert str(err.value) == message
    assert getattr(err.value, "position", None) == position
    assert isinstance(err.value, ParseError) == (position is not None)


class TestDeepText:
    """The parsers keep their open trees and terms on a stack, not in frames."""

    DEPTH = 5000  # five times the default recursion limit

    def test_bracket_nest(self):
        f = parse_forest("[" * self.DEPTH + "0" + "]" * self.DEPTH)
        assert f.level == self.DEPTH and len(f.trees) == 1
        t = f.trees[0]
        while t.level:
            assert not t.children
            t = t.label
        assert t.label == 0

    def test_child_chain(self):
        f = parse_forest("[0:" * self.DEPTH + "[1]" + "]" * self.DEPTH)
        assert f.level == 1 and f.size == self.DEPTH + 1

    def test_left_nested_join_chain(self):
        u = parse_term("(" * self.DEPTH + "0" + "+1)" * self.DEPTH)
        length = 0
        while isinstance(u, Join):
            assert u.right == Const(1)
            u, length = u.left, length + 1
        assert (u, length) == (Const(0), self.DEPTH)
