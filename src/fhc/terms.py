"""Variable-free terms describing the algebra of complete numberings.

Two signatures share the constants and the binary join.  The first carries
the ternary mind-change combinator ``G`` (value flips from the diverge-branch
to the halt-branch when an oracle computation stops); the second replaces it
with the graded sequential products ``.^p`` whose grade records how many
jumps the implicit oracle sits above the bottom degree.

Every term denotes an iterated colored forest through ``interpret``; the
order and equivalence questions about the numbering algebra are decided
there, which is what makes the quotient structure computably presentable.
``encode`` is the converse direction: the canonical term of a forest, with a
chosen jump shift.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import cache, lru_cache, reduce

from . import iterated
from .forests import BoundError, Record
from .iterated import IForest, ITree


class Const(Record):
    """A constant color ``i``; denotes the constant partition."""

    __slots__ = ("color",)

    def __init__(self, color: int) -> None:
        if color < 0:
            raise ValueError("colors are non-negative")
        self._set(color)


class Join(Record):
    __slots__ = ("left", "right", "_hash")

    def __init__(self, left: "Term", right: "Term") -> None:
        self._set(left, right, hash((left, right)))


class G(Record):
    """Mind-change combinator: ``on_diverge`` until the oracle halts, then
    ``on_halt`` takes over."""

    __slots__ = ("on_halt", "on_diverge", "oracle", "_hash")

    def __init__(self, on_halt: "GTerm", on_diverge: "GTerm", oracle: "GTerm") -> None:
        self._set(on_halt, on_diverge, oracle, hash((on_halt, on_diverge, oracle)))


class Dot(Record):
    """``left .^grade right``: the graded sequential product."""

    __slots__ = ("grade", "left", "right", "_hash")

    def __init__(self, grade: int, left: "STerm", right: "STerm") -> None:
        if grade < 0:
            raise ValueError("grade must be a natural number")
        self._set(grade, left, right, hash((grade, left, right)))


GTerm = Const | Join | G
STerm = Const | Join | Dot
Term = Const | Join | G | Dot


#: the highest grade of a jump chain or graded product; either nests as deep
#: as its grade, and nothing deeper than the Python recursion limit prints
JUMP_BOUND = 1000


class GradeBoundError(BoundError):
    """Raised when a jump chain or product would be deeper than JUMP_BOUND."""


def check_grade(p: int, what: str = "graded product") -> None:
    """Refuse ``what`` at grade ``p`` past JUMP_BOUND, before it is built."""
    if p > JUMP_BOUND:
        raise GradeBoundError(what, f"grade {p}", JUMP_BOUND)


def jump_term(n: int) -> GTerm:
    """The n-th jump constant: 0 for n = 0, then G(0, 1, previous)."""
    check_grade(n, "jump chain")
    t: GTerm = Const(0)
    for _ in range(n):
        t = G(Const(0), Const(1), t)
    return t


def jump_height(u: GTerm) -> int:
    """How many jumps above bottom the denoted numbering sits.

    Purely syntactic: a G whose halt and diverge branches are the same
    constant collapses to that constant, regardless of the oracle.
    """
    match u:
        case Const():
            return 0
        case Join(left, right):
            return max(jump_height(left), jump_height(right))
        case G(on_halt, on_diverge, oracle):
            if isinstance(on_halt, Const) and on_halt == on_diverge:
                return 0
            return max(
                jump_height(on_halt),
                jump_height(on_diverge),
                jump_height(oracle) + 1,
            )
    raise TypeError(f"not a G-signature term: {u!r}")


def g_to_s(u: GTerm) -> STerm:
    """Translate the mind-change combinator into graded products."""
    match u:
        case Const():
            return u
        case Join(left, right):
            return Join(g_to_s(left), g_to_s(right))
        case G(on_halt, on_diverge, oracle):
            return Dot(jump_height(oracle), g_to_s(on_diverge), g_to_s(on_halt))
    raise TypeError(f"not a G-signature term: {u!r}")


def subterms(u: Term) -> Iterator[Term]:
    """Every subterm of ``u``, itself first, in preorder from left to right."""
    stack = [u]
    while stack:
        u = stack.pop()
        yield u
        match u:
            case Join(left, right) | Dot(_, left, right):
                stack += (right, left)
            case G(on_halt, on_diverge, oracle):
                stack += (oracle, on_diverge, on_halt)


def _rebuild(u: STerm, dot: Callable[[int, STerm, STerm], Term]) -> Term:
    """Rebuild a star-signature term bottom-up: constants and joins stay,
    each product becomes ``dot(grade, left, right)`` of its rebuilt operands.
    """
    match u:
        case Const():
            return u
        case Join(left, right):
            return Join(_rebuild(left, dot), _rebuild(right, dot))
        case Dot(grade, left, right):
            return dot(grade, _rebuild(left, dot), _rebuild(right, dot))
    raise TypeError(f"not a star-signature term: {u!r}")


def s_to_g(u: STerm) -> GTerm:
    """Expand graded products back into the mind-change combinator.

    This is the single place where the operand swap between the two
    signatures happens: ``left .^p right`` becomes
    ``G(right', left', jump_term(p))``; each grade's chain is built once.
    """
    chain = cache(jump_term)
    return _rebuild(u, lambda p, left, right: G(right, left, chain(p)))


def restrict_level(u: STerm, n: int) -> STerm:
    """Rewrite ``u`` into a term whose grades all lie below ``n``.

    Operands are restricted first; a product of grade >= n survives only by
    collapsing two syntactically equal constant operands.  Anything else at
    such a grade denotes a numbering above the n-th jump and is rejected.
    """

    def dot(grade: int, left: STerm, right: STerm) -> STerm:
        if grade < n:
            return Dot(grade, left, right)
        if isinstance(left, Const) and left == right:
            return left
        raise ValueError(f"term exceeds jump bound {n}")

    return _rebuild(u, dot)


def window_normalize(u: STerm, n: int, m: int) -> STerm:
    """Push ``u`` into the grade window [n, n+m): low grades become joins.

    Grades at or above ``n + m`` are outside the window and rejected.
    """

    def dot(grade: int, left: STerm, right: STerm) -> STerm:
        if grade >= n + m:
            raise ValueError(f"term outside window [{n}, {n + m})")
        return Join(left, right) if grade < n else Dot(grade, left, right)

    return _rebuild(u, dot)


def term_s(u: STerm) -> STerm:
    """Shift every grade up by one (the level-shift on terms)."""
    return _rebuild(u, lambda p, left, right: Dot(p + 1, left, right))


def term_r(u: STerm) -> STerm:
    """Shift grades down by one; a grade-0 product falls apart into a join."""
    return _rebuild(
        u, lambda p, left, right: Dot(p - 1, left, right) if p else Join(left, right)
    )


# ---------------------------------------------------------------------------
# Between forests and terms.

def encode(f: IForest, shift: int = 0) -> STerm:
    """The canonical term of a forest, with grades starting at ``shift``.

    All grades of the result lie in [shift, shift + level).  The empty
    forest denotes the bottom class, which no term reaches.
    """
    if f.is_empty():
        raise ValueError("bottom has no term")
    return reduce(Join, [_encode_tree(t, shift) for t in f.trees])


@lru_cache(maxsize=None)
def _encode_tree(t: ITree, shift: int) -> STerm:
    if t.level == 0:
        return Const(t.label)
    if not t.children:
        return _encode_tree(t.label, shift + 1)
    children = reduce(Join, [_encode_tree(c, shift) for c in t.children])
    return Dot(shift, _encode_tree(t.label, shift + 1), children)


@lru_cache(maxsize=None)
def interpret(u: STerm) -> IForest:
    """Evaluate a term in the forest algebra (joins and graded products)."""
    match u:
        case Const(color):
            return iterated.color_forest(color)
        case Join(left, right):
            return iterated.join(interpret(left), interpret(right))
        case Dot(grade, left, right):
            check_grade(grade)
            return iterated.dot_p(interpret(left), interpret(right), grade)
    raise TypeError(f"not a star-signature term: {u!r}")


def term_leq(u: STerm, v: STerm, n: int = 0) -> bool:
    """Decide the n-th derived order between the denoted numberings."""
    return iterated.colim_leq(interpret(u), interpret(v), n)


def term_equiv(u: STerm, v: STerm, n: int = 0) -> bool:
    return term_leq(u, v, n) and term_leq(v, u, n)
