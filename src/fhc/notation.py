"""Text syntax for iterated forests and for terms.

Forests: a bare natural is a color; ``[label:child,child]`` is a tree whose
label is written one level down (``[0]`` and ``[0:]`` are the singleton tree
labeled 0); ``{t,t,...}`` collects trees, ``{}`` is the empty forest.
Operands at mixed nesting levels are lifted upward automatically, so
``{0,[1:]}`` is a level-1 forest.

Terms: ``(u+v)`` is the join, ``(u .p v)`` the grade-p product, and
``G(a,b,c)`` the mind-change combinator; a number is a constant color.
The two product symbols select the signature and may not be mixed.

Serialization is canonical: children and forest members are emitted in
structural-key order, so equal quotient classes of minimal forests print
identically, byte for byte.
"""

from __future__ import annotations

import re

from . import iterated
from .iterated import IForest, ITree
from .terms import Const, Dot, G, Join, Term, subterms


class ParseError(ValueError):
    """Syntax error with the offending token position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Forest text.

_FOREST_TOKEN = re.compile(r"\s*(\d+|[\[\]{}:,])")


class _Tokens:
    def __init__(self, text: str, pattern: re.Pattern) -> None:
        self.items: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = pattern.match(text, pos)
            if not m:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            self.items.append((m.group(1), m.start(1)))
            pos = m.end()
        self.index = 0

    def peek(self) -> str | None:
        if self.index < len(self.items):
            return self.items[self.index][0]
        return None

    def position(self) -> int:
        if self.index < len(self.items):
            return self.items[self.index][1]
        return self.items[-1][1] + len(self.items[-1][0]) if self.items else 0

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError(
                f"unexpected end of input, expected {expected or 'more input'}",
                self.position(),
            )
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, got {tok!r}", self.position())
        self.index += 1
        return tok

    def accept(self, tok: str) -> bool:
        """Take ``tok`` if it comes next."""
        if self.peek() != tok:
            return False
        self.index += 1
        return True

    def natural(self, expected: str) -> int:
        """Take a number, or fail with the message ``expected``."""
        tok = self.peek()
        if tok is None or not tok.isdigit():
            got = "end of input" if tok is None else repr(tok)
            raise ParseError(f"{expected}, got {got}", self.position())
        self.index += 1
        return int(tok)

    def finish(self) -> None:
        """Refuse any input left over."""
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}", self.position())


def parse_forest(text: str, k: int | None = 2) -> IForest:
    """Parse forest text; colors must stay below ``k`` (None = unbounded).

    Syntax errors take precedence over out-of-range colors; of those, the
    first in text order is reported.
    """
    tokens = _Tokens(text, _FOREST_TOKEN)
    colors: list[int] = []  # every color read, in text order
    if tokens.accept("{"):
        trees = _parse_trees(tokens, "}", colors)
        tokens.take("}")
    else:
        trees = [_parse_tree(tokens, colors)]
    tokens.finish()
    bad = [c for c in colors if k is not None and c >= k]
    if bad:
        raise ValueError(f"color {bad[0]} outside alphabet of size {k}")
    level = max((t.level for t in trees), default=0)
    return IForest(level, tuple(iterated.lift_tree(t, level) for t in trees))


def _parse_trees(tokens: _Tokens, close: str, colors: list[int]) -> list[ITree]:
    """Comma-separated trees up to (not including) ``close``; may be none."""
    trees: list[ITree] = []
    if tokens.peek() != close:
        trees.append(_parse_tree(tokens, colors))
        while tokens.accept(","):
            trees.append(_parse_tree(tokens, colors))
    return trees


def _parse_tree(tokens: _Tokens, colors: list[int]) -> ITree:
    tok = tokens.peek()
    if tok is None:
        raise ParseError("expected a tree", tokens.position())
    if tok.isdigit():
        tokens.take()
        colors.append(int(tok))
        return iterated.color(int(tok))
    if not tokens.accept("["):
        raise ParseError(f"expected a tree, got {tok!r}", tokens.position())
    label = _parse_tree(tokens, colors)
    children = _parse_trees(tokens, "]", colors) if tokens.accept(":") else []
    tokens.take("]")
    level = max([label.level + 1] + [c.level for c in children])
    return ITree(
        level,
        iterated.lift_tree(label, level - 1),
        tuple(iterated.lift_tree(c, level) for c in children),
    )


def serialize_tree(t: ITree) -> str:
    return _tree_text(iterated.canonical_tree(t))


def _tree_text(t: ITree) -> str:
    if t.level == 0:
        return str(t.label)
    body = _tree_text(t.label)
    if t.children:
        return f"[{body}:{','.join(_tree_text(c) for c in t.children)}]"
    return f"[{body}]"


def serialize_forest(f: IForest) -> str:
    """Canonical text of a forest: sorted, braced, parseable back."""
    f = iterated.canonical(f)
    return "{" + ",".join(_tree_text(t) for t in f.trees) + "}"


# ---------------------------------------------------------------------------
# Term text.

_TERM_TOKEN = re.compile(r"\s*(\d+|[().+,]|G)")


def parse_term(text: str) -> Term:
    """Parse a term; returns a G-signature or star-signature term.

    The combinator ``G(...)`` and the graded product ``.p`` may not appear
    in the same term.
    """
    tokens = _Tokens(text, _TERM_TOKEN)
    term = _parse_term_expr(tokens)
    tokens.finish()
    if _uses_g(term) and _uses_dot(term):
        raise ValueError("mixed signatures: term uses both G(...) and .p")
    return term


def _parse_term_expr(tokens: _Tokens) -> Term:
    tok = tokens.peek()
    if tok is None:
        raise ParseError("expected a term", tokens.position())
    if tok.isdigit():
        tokens.take()
        return Const(int(tok))
    if tokens.accept("G"):
        tokens.take("(")
        a = _parse_term_expr(tokens)
        tokens.take(",")
        b = _parse_term_expr(tokens)
        tokens.take(",")
        c = _parse_term_expr(tokens)
        tokens.take(")")
        return G(a, b, c)
    if tokens.accept("("):
        left = _parse_term_expr(tokens)
        op = tokens.take()
        if op == "+":
            right = _parse_term_expr(tokens)
            tokens.take(")")
            return Join(left, right)
        if op == ".":
            grade = tokens.natural("grade expected after '.'")
            right = _parse_term_expr(tokens)
            tokens.take(")")
            return Dot(grade, left, right)
        raise ParseError(f"expected '+' or '.', got {op!r}", tokens.position())
    raise ParseError(f"expected a term, got {tok!r}", tokens.position())


def _uses_g(u: Term) -> bool:
    return any(isinstance(x, G) for x in subterms(u))


def _uses_dot(u: Term) -> bool:
    return any(isinstance(x, Dot) for x in subterms(u))


def serialize_term(u: Term) -> str:
    match u:
        case Const(color):
            return str(color)
        case Join(left, right):
            return f"({serialize_term(left)}+{serialize_term(right)})"
        case Dot(grade, left, right):
            return f"({serialize_term(left)} .{grade} {serialize_term(right)})"
        case G(on_halt, on_diverge, oracle):
            parts = ",".join(
                serialize_term(x) for x in (on_halt, on_diverge, oracle)
            )
            return f"G({parts})"
    raise TypeError(f"not a term: {u!r}")
