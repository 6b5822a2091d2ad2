"""CNF ordinal arithmetic, the text syntax, and the graded level family."""

from __future__ import annotations

import itertools
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from fhc import iterated, ordinals
from fhc.notation import ParseError, serialize_forest
from fhc.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    build_t,
    format_ordinal,
    from_int,
    omega_pow,
    ord_compare,
    parse_ordinal,
    peel_last,
)


def small_ordinals(depth=2):
    if depth == 0:
        return st.integers(0, 3).map(from_int)
    exps = st.lists(
        st.tuples(small_ordinals(depth - 1), st.integers(1, 3)),
        max_size=3,
    )

    def build(pairs):
        pairs = sorted(
            {tuple(p) for p in pairs}, key=lambda p: p[0], reverse=True
        )
        dedup, seen = [], set()
        for exp, coef in pairs:
            if exp not in seen:
                seen.add(exp)
                dedup.append((exp, coef))
        return Ordinal(tuple(dedup))

    return exps.map(build)


class TestOrdinal:
    def test_canonical_invariant_enforced(self):
        with pytest.raises(ValueError):
            Ordinal(((ZERO, 1), (ONE, 1)))
        with pytest.raises(ValueError):
            Ordinal(((ONE, 0),))

    def test_compare_examples(self):
        assert ord_compare(ZERO, ZERO) == 0
        assert ord_compare(OMEGA, from_int(3)) == 1
        assert ord_compare(parse_ordinal("w^2+1"), parse_ordinal("w^2*2")) == -1

    def test_total_order_dunders(self):
        assert ZERO < ONE < OMEGA < omega_pow(OMEGA)

    @settings(max_examples=100, deadline=None)
    @given(small_ordinals(), small_ordinals(), small_ordinals())
    def test_compare_is_total_order(self, a, b, c):
        assert ord_compare(a, b) == -ord_compare(b, a)
        if a <= b <= c:
            assert a <= c


class TestPeelLast:
    def test_one(self):
        assert peel_last(ONE) == (ZERO, ZERO)

    def test_omega(self):
        assert peel_last(OMEGA) == (ZERO, ONE)

    def test_drops_trailing_term(self):
        assert peel_last(parse_ordinal("w^2*2+w")) == (parse_ordinal("w^2*2"), ONE)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            peel_last(ZERO)

    @settings(max_examples=100, deadline=None)
    @given(small_ordinals())
    def test_reconstruction(self, a):
        if a.is_zero():
            return
        # a = beta + w^gamma: beta is a with one w^gamma fewer at the end
        beta, gamma = peel_last(a)
        exp, coef = a.terms[-1]
        assert gamma == exp
        assert beta.terms == a.terms[:-1] + (((exp, coef - 1),) if coef > 1 else ())
        assert all(e >= gamma for e, _ in beta.terms)


class TestSyntax:
    @pytest.mark.parametrize(
        "text",
        ["0", "3", "w", "w*2", "w^2*2+w+3", "w^w", "w^w*2", "w^(w+1)", "w^w^2"],
    )
    def test_round_trip(self, text):
        assert format_ordinal(parse_ordinal(text)) == text

    @pytest.mark.parametrize("bad", ["w+w", "3+w", "1+1", "w*0", "0+1", "", "w^"])
    def test_non_canonical_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_ordinal(bad)

    @pytest.mark.parametrize("bad, position", [
        ("", 0), (" ", 0), ("x", 0), ("w+", 2), ("w^", 2), ("w*", 2), ("w*0", 2),
        ("w*x", 2), ("0+w", 2), ("w+0", 2), ("w+w", 2), ("w^(2", 4), ("(w)", 0),
        ("w)", 1), ("1 2", 2), ("w^w^", 4), ("w^2+w^3", 4), ("w^2+w^(1", 8),
    ])
    def test_syntax_errors_name_their_position(self, bad, position):
        with pytest.raises(ParseError) as exc:
            parse_ordinal(bad)
        assert exc.value.position == position
        assert str(exc.value).endswith(f"(at position {position})")

    def test_surrounding_blanks_allowed(self):
        # the tokenizer skips blanks, as for forests and terms
        assert parse_ordinal(" w^2 * 2 + w ") == parse_ordinal("w^2*2+w")

    @settings(max_examples=100, deadline=None)
    @given(small_ordinals())
    def test_format_parse_identity(self, a):
        assert parse_ordinal(format_ordinal(a)) == a


class TestBuildT:
    def test_zero_is_bare_color(self):
        assert build_t(ZERO, 1, 3, 2) == iterated.color_forest(1)

    def test_one_minimizes_to_chain(self):
        t = build_t(ONE, 0, 0, 2)
        m = iterated.iminimize(t)
        chain = iterated.dot_p(iterated.color_forest(0), iterated.color_forest(1), 0)
        assert iterated.colim_equiv(t, chain, 0)
        assert m == iterated.canonical(m)

    def test_omega_is_lifted_successor_one_grade_up(self):
        tw = build_t(OMEGA, 0, 0, 2)
        assert iterated.colim_equiv(tw, iterated.s_lift(build_t(ONE, 0, 0, 2)), 0)
        for m in range(5):
            tm = build_t(from_int(m), 0, 0, 2)
            assert iterated.colim_leq(tm, tw, 0)
            assert not iterated.colim_leq(tw, tm, 0)

    def test_always_join_irreducible_after_minimize(self):
        for text in ["1", "3", "w", "w+1", "w*2", "w^2"]:
            for i in (0, 1):
                t = build_t(parse_ordinal(text), i, 0, 2)
                assert len(iterated.iminimize(t).trees) == 1, (text, i)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_one_pass_join_equals_pairwise(self, monkeypatch, k):
        # lifting composes, so joining the k lower levels at once gives the
        # forest that joining them pairwise, left to right, gives
        texts = ["0", "1", "3", "w", "w+1", "w+3", "w*2", "w*2+1", "w^2", "w^2+w",
                 "w^2*2", "w^2*2+w", "w^2*2+w+3"]
        ords = [parse_ordinal(t) for t in texts]
        one_pass = [build_t(a, i, n, k) for a in ords for i in (0, k - 1) for n in (0, 1)]

        def pairwise(f, g):
            p = max(f.level, g.level)
            return iterated.IForest(p, iterated.lift(f, p).trees + iterated.lift(g, p).trees)

        monkeypatch.setattr(ordinals.iterated, "join", lambda *fs: reduce(pairwise, fs))
        assert one_pass == [build_t(a, i, n, k) for a in ords for i in (0, k - 1) for n in (0, 1)]

    @pytest.mark.parametrize("k", [2, 50, 1000])
    def test_wide_successor_builds_each_tree_once(self, monkeypatch, k):
        # each color, and its one-node tree a level up, is built once; the
        # product adds its root and lifts its head; printing builds nothing
        calls = []
        new = iterated.ITree.__new__
        monkeypatch.setattr(iterated.ITree, "__new__",
                            lambda cls, *args: calls.append(args) or new(cls, *args))
        text = serialize_forest(build_t(ONE, 0, 0, k))
        assert len(calls) == 2 * k + 2
        assert text == "{[0:" + ",".join(f"[{i}]" for i in range(k)) + "]}"

    def test_infinite_alphabet_rejected(self):
        with pytest.raises(ValueError, match="finite alphabet"):
            build_t(ONE, 0, 0, None)

    def test_color_range_checked(self):
        with pytest.raises(ValueError):
            build_t(ONE, 2, 0, 2)

    def test_strict_monotonicity_small(self):
        ords = [parse_ordinal(t) for t in ["0", "1", "2", "w", "w+1"]]
        for a, b in itertools.combinations(ords, 2):
            lo, hi = build_t(a, 0, 0, 2), build_t(b, 0, 0, 2)
            assert iterated.colim_leq(lo, hi, 0)
            assert not iterated.colim_leq(hi, lo, 0)

    def test_polarities_incomparable(self):
        for text in ["1", "w", "w*2"]:
            a = build_t(parse_ordinal(text), 0, 0, 2)
            b = build_t(parse_ordinal(text), 1, 0, 2)
            assert not iterated.colim_leq(a, b, 0)
            assert not iterated.colim_leq(b, a, 0)

    def test_k3_successor_spans_all_colors(self):
        t = build_t(ONE, 0, 0, 3)
        assert iterated.colim_equiv(
            iterated.r_drop(iterated.lift(t, 1)), iterated.color_forest(0, 1, 2), 0
        )

    def test_witness_jump_height_tracks_nesting(self):
        # the symbolic complete member of a level sits as many jumps up as
        # the level index nests
        from fhc.terms import encode, jump_height, s_to_g

        for text in ["1", "2", "5", "w", "w+1", "w*2", "w^2", "w^2+w"]:
            t = build_t(parse_ordinal(text), 0, 0, 2)
            assert jump_height(s_to_g(encode(t, 0))) == t.level, text
