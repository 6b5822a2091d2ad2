"""Cantor-normal-form ordinals below epsilon_0 and the graded level family.

An ordinal is a finite sum ``w^e1*c1 + ... + w^er*cr`` with strictly
decreasing ordinal exponents and positive integer coefficients; the empty
sum is zero.  Only what the level family needs is provided: comparison,
peeling off the last power, and a text syntax (``w^2*2+w+3``).

``build_t`` turns an ordinal and a color into the tree index of the
corresponding hierarchy level, by induction on the ordinal: zero gives the
bare color, a successor stacks the color over the join of all one-step-lower
levels, a power of omega recurses into the exponent one grade up, and a
mixed limit multiplies the leading-power level onto the join of the rest.
"""

from __future__ import annotations

from functools import total_ordering

from . import iterated
from .forests import BoundError, Record
from .iterated import IForest
from .notation import ParseError, _lexicon, _Tokens
from .terms import check_grade

#: the most nodes ``build_t`` builds; its results share subtrees, which print unfolded
BUILD_T_BOUND = 1_000_000


class OutputBoundError(BoundError):
    """Raised when a level index has too many nodes to print."""


@total_ordering
class Ordinal(Record):
    """CNF term list; invariant: decreasing exponents, positive coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: tuple[tuple["Ordinal", int], ...] = ()) -> None:
        prev = None
        for exp, coef in terms:
            if not isinstance(exp, Ordinal) or coef < 1:
                raise ValueError("CNF terms need ordinal exponents and positive coefficients")
            if prev is not None and ord_compare(exp, prev) >= 0:
                raise ValueError("CNF exponents must strictly decrease")
            prev = exp
        self._set(terms, hash(terms))

    def __lt__(self, other: "Ordinal") -> bool:
        if type(other) is not Ordinal:
            return NotImplemented
        return self.terms < other.terms

    def __repr__(self) -> str:
        return f"Ordinal({format_ordinal(self)!r})"

    def is_zero(self) -> bool:
        return not self.terms


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise ValueError("ordinals are non-negative")
    return Ordinal(((ZERO, n),)) if n else ZERO


def omega_pow(exp: Ordinal, coef: int = 1) -> Ordinal:
    return Ordinal(((exp, coef),))


OMEGA = omega_pow(ONE)


def ord_compare(a: Ordinal, b: Ordinal) -> int:
    """-1, 0 or 1: the tuple order of the term lists, lexicographic on
    (exponent, coefficient) pairs with a proper prefix below."""
    return (a.terms > b.terms) - (a.terms < b.terms)


def peel_last(a: Ordinal) -> tuple[Ordinal, Ordinal]:
    """Write ``a = beta + w^gamma`` with gamma the smallest exponent of ``a``.

    ``beta`` is ``a`` with the last coefficient decremented (term dropped at
    zero) and is always a multiple of ``w^gamma``.
    """
    if a.is_zero():
        raise ValueError("zero has no last term")
    exp, coef = a.terms[-1]
    if coef > 1:
        beta = Ordinal(a.terms[:-1] + ((exp, coef - 1),))
    else:
        beta = Ordinal(a.terms[:-1])
    return beta, exp


# ---------------------------------------------------------------------------
# Text syntax: 0 | naturals | w | w^<ord> | *<nat> coefficients | + sums.

_ORDINAL = _lexicon("w^*+()")


def parse_ordinal(text: str) -> Ordinal:
    """Parse the canonical syntax; non-canonical input is rejected, never
    normalized.  Errors are ``ParseError``s naming their position."""
    tokens = _Tokens(text, _ORDINAL)
    ordinal = _parse_sum(tokens)
    tokens.finish()
    return ordinal


def _parse_sum(tokens: _Tokens) -> Ordinal:
    terms = [_parse_term(tokens)]
    while tokens.accept("+"):
        start = tokens.index
        exp, coef = _parse_term(tokens)
        if ord_compare(exp, terms[-1][0]) >= 0:
            raise ParseError("exponents must strictly decrease; input is not canonical",
                             tokens.position(start))
        if coef == 0:
            raise ParseError("zero coefficient in a sum", tokens.position(start))
        terms.append((exp, coef))
    return ZERO if terms == [(ZERO, 0)] else Ordinal(tuple(terms))


def _parse_term(tokens: _Tokens) -> tuple[Ordinal, int]:
    if not tokens.accept("w"):
        return ZERO, tokens.natural("expected 'w' or a number")
    exp = _parse_factor(tokens) if tokens.accept("^") else ONE
    if not tokens.accept("*"):
        return exp, 1
    start = tokens.index
    coef = tokens.natural("coefficient expected after '*'")
    if coef < 1:
        raise ParseError("coefficients are positive", tokens.position(start))
    return exp, coef


def _parse_factor(tokens: _Tokens) -> Ordinal:
    """A power atom: nat, w, w^factor, or a parenthesized sum."""
    if tokens.accept("("):
        ordinal = _parse_sum(tokens)
        tokens.take(")")
        return ordinal
    if tokens.accept("w"):
        return omega_pow(_parse_factor(tokens)) if tokens.accept("^") else OMEGA
    return from_int(tokens.natural("exponent expected after '^'"))


def format_ordinal(a: Ordinal) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for exp, coef in a.terms:
        if exp.is_zero():
            parts.append(str(coef))
            continue
        if exp == ONE:
            body = "w"
        else:
            inner = format_ordinal(exp)
            body = f"w^({inner})" if "+" in inner or "*" in inner else f"w^{inner}"
        parts.append(body if coef == 1 else f"{body}*{coef}")
    return "+".join(parts)


# ---------------------------------------------------------------------------
# The ordinal-indexed family of level indices.

def build_t(alpha: Ordinal, i: int, n: int, k: int) -> IForest:
    """The level index for ordinal ``alpha``, polarity color ``i``, grade
    ``n``, over a finite alphabet of ``k`` colors.

    Products in the successor and limit clauses are taken at grade ``n``,
    which makes the grade parameter drive depth growth across powers of
    omega (guarded by the monotonicity acceptance test).  A product of more
    than BUILD_T_BOUND nodes is refused as soon as its head and one of its
    ``k`` equal-sized parts are built.
    """
    if k is None or k < 2:
        raise ValueError("finite alphabet required for the level family (k >= 2)")
    if not 0 <= i < k:
        raise ValueError(f"color {i} outside alphabet of size {k}")
    return _level(alpha, i, n, k, {})


def _level(a: Ordinal, col: int, grade: int, k: int, memo: dict) -> IForest:
    # build_t's forest for ``a``, ``col`` and ``grade``, each kept in ``memo``
    key = (a, col, grade)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if a.is_zero():
        out = iterated.color_forest(col)
    else:
        beta, gamma = peel_last(a)
        if beta.is_zero() and not gamma.is_zero():
            # a pure power of omega recurses into the exponent, one grade up
            out = _level(gamma, col, grade + 1, k, memo)
        else:
            # col (successor) or the last power, stacked over the join of
            # all lower levels
            check_grade(grade)
            # the lower levels down the chain of peels (a successor's finite
            # tail, say), built bottom-up in the order the calls below
            # would build them, but without a frame a step
            lower, b = [], beta
            while not (b.is_zero() or (b, 0, grade) in memo):
                lower.append(b)
                b = peel_last(b)[0]
            for b in reversed(lower):
                _level(b, 0, grade, k, memo)
            first = _level(beta, 0, grade, k, memo)
            head = _level(gamma if gamma.is_zero() else omega_pow(gamma), col, grade, k, memo)
            # the product keeps all of head and all k parts
            _check_size(head.size + k * first.size)
            rest = (_level(beta, j, grade, k, memo) for j in range(1, k))
            out = iterated.dot_p(head, iterated.join(first, *rest), grade)
            _check_size(out.size)
    memo[key] = out
    return out


def _check_size(least: int) -> None:
    if least > BUILD_T_BOUND:
        raise OutputBoundError("build-T", f"at least {least} nodes", BUILD_T_BOUND)
