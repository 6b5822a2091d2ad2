"""Text syntax for iterated forests and for terms.

Forests: a bare natural is a color; ``[label:child,child]`` is a tree whose
label is written one level down (``[0]`` and ``[0:]`` are the singleton tree
labeled 0); ``{t,t,...}`` collects trees, ``{}`` is the empty forest.
Operands at mixed nesting levels are lifted upward automatically, so
``{0,[1:]}`` is a level-1 forest.

Terms: ``(u+v)`` is the join, ``(u .p v)`` the grade-p product, and
``G(a,b,c)`` the mind-change combinator; a number is a constant color.
The two product symbols select the signature and may not be mixed.
"""

from __future__ import annotations

import re

from . import iterated, terms
from .iterated import IForest, ITree, serialize_forest, serialize_tree  # printed in iterated


class ParseError(ValueError):
    """Syntax error with the offending token position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Tokens: one scan of the text, for forests, terms and ``ordinals`` alike.

def _lexicon(symbols: str) -> tuple[re.Pattern, re.Pattern]:
    """The pattern of a token (a natural or one of ``symbols``) after white
    space, and the pattern of a character that is neither."""
    symbols = re.escape(symbols)
    return re.compile(rf"\s*(\d+|[{symbols}])"), re.compile(rf"[^\s\d{symbols}]")


class _Tokens:
    """The tokens of ``text`` as strings, found by one scan; a token's
    position is recomputed only for an error."""

    def __init__(self, text: str, lexicon: tuple[re.Pattern, re.Pattern]) -> None:
        self.text, (self.pattern, other) = text, lexicon
        bad = other.search(text)
        if bad:
            raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
        self.items: list[str] = self.pattern.findall(text)
        self.index = 0

    def position(self, index: int) -> int:
        """Where token ``index`` starts; past the last token, where it ends."""
        spans = [m.span(1) for m in self.pattern.finditer(self.text)] or [(0, 0)]
        return spans[index][0] if index < len(spans) else spans[-1][1]

    def error(self, index: int, expected: str, at_end: str | None = None) -> ParseError:
        """``expected, got 'token'`` at token ``index``; past the last token,
        ``at_end`` (default ``expected``)."""
        if index < len(self.items):
            return ParseError(f"{expected}, got {self.items[index]!r}", self.position(index))
        return ParseError(expected if at_end is None else at_end, self.position(index))

    def wrong(self, index: int, due: str) -> ParseError:
        """The error for token ``index`` where the token ``due`` belongs."""
        return self.error(index, f"expected {due!r}", f"unexpected end of input, expected {due}")

    def trailing(self, index: int) -> ParseError:
        return ParseError(f"trailing input {self.items[index]!r}", self.position(index))

    def take(self, expected: str) -> None:
        if not self.accept(expected):
            raise self.wrong(self.index, expected)

    def accept(self, tok: str) -> bool:
        """Take ``tok`` if it comes next."""
        found = self.items[self.index:self.index + 1] == [tok]
        self.index += found
        return found

    def natural(self, expected: str) -> int:
        """Take a number, or fail with the message ``expected``."""
        tok = self.items[self.index] if self.index < len(self.items) else ""
        if not tok.isdigit():
            raise self.error(self.index, expected, f"{expected}, got end of input")
        self.index += 1
        return int(tok)

    def finish(self) -> None:
        """Refuse any input left over."""
        if self.index < len(self.items):
            raise self.trailing(self.index)


# ---------------------------------------------------------------------------
# Forest text.

_FOREST_SYMBOLS = "[]{}:,"
_FOREST = _lexicon(_FOREST_SYMBOLS)


def parse_forest(text: str, k: int | None = 2) -> IForest:
    """Parse forest text; colors must stay below ``k`` (None = unbounded).

    Syntax errors take precedence over out-of-range colors; of those, the
    first in text order is reported.  One loop over the tokens keeps the
    open trees on a stack, so any depth of nesting parses.
    """
    tokens = _Tokens(text, _FOREST)
    colors: dict[str, ITree] = {}  # each color token once, in text order
    made: dict[tuple, ITree] = {}  # each tree once, by its label and children
    stack: list[list] = [[]]  # the forest's trees, then each open tree's label and children
    braced = tokens.items[:1] == ["{"]
    # a tree is due (``want``), which ``close`` may replace to end a list; or
    # else ``sep`` or ``close`` is due; "" is the end of the input
    want, sep, close = True, None, "}" if braced else None
    for i, tok in enumerate(tokens.items[braced:] + [""], braced):
        if want and tok != close:
            if tok == "[":
                stack.append([])
                close = None
                continue
            if tok in _FOREST_SYMBOLS:
                raise tokens.error(i, "expected a tree")
            t = colors.get(tok) or colors.setdefault(tok, iterated.color(int(tok)))
        elif tok == close:
            if tok == "}":
                want, sep, close = False, None, None
                continue
            key = tuple(stack.pop())
            t = made.get(key) or made.setdefault(key, iterated.itree(*key))
        elif tok == sep:
            want, close = True, "]" if tok == ":" else None
            continue
        elif close or tok:
            raise tokens.wrong(i, close) if close else tokens.trailing(i)
        else:
            break
        # ``t`` is complete: the label or a child of the open tree, or a tree
        # of the forest
        stack[-1].append(t)
        want = False
        if len(stack) > 1:
            sep, close = ":" if len(stack[-1]) == 1 else ",", "]"
        else:
            sep, close = (",", "}") if braced else (None, None)
    for t in colors.values():
        if k is not None and t.label >= k:
            raise ValueError(f"color {t.label} outside alphabet of size {k}")
    return iterated.iforest(*stack[0]) if stack[0] else IForest(0)


# ---------------------------------------------------------------------------
# Term text.

_TERM_SYMBOLS = "().+,G"
_TERM = _lexicon(_TERM_SYMBOLS)


def parse_term(text: str) -> terms.Term:
    """Parse a term; returns a G-signature or star-signature term.

    The combinator ``G(...)`` and the graded product ``.p`` may not appear
    in the same term.  As in ``parse_forest``, one loop keeps the open terms
    on a stack, so any depth of nesting parses.
    """
    tokens = _Tokens(text, _TERM)
    consts: dict[str, terms.Const] = {}
    stack: list[list] = []  # open terms: [constructor or None, operand...]
    # what is due: None a term, "+" an operator, "." a grade, "" nothing
    # (the term is done), else that token; the token "" ends the input
    due = None
    for i, tok in enumerate(tokens.items + [""]):
        if due is None:
            if tok in ("(", "G"):
                stack.append([None] if tok == "(" else [terms.G])
                due = None if tok == "(" else "("
                continue
            if tok in _TERM_SYMBOLS:
                raise tokens.error(i, "expected a term")
            u = consts.get(tok) or consts.setdefault(tok, terms.Const(int(tok)))
        elif due == "+":
            if not tok:
                raise tokens.error(i, "unexpected end of input, expected more input")
            if tok not in ("+", "."):
                raise ParseError(f"expected '+' or '.', got {tok!r}", tokens.position(i + 1))
            stack[-1][0], due = (terms.Join, None) if tok == "+" else (terms.Dot, ".")
            continue
        elif due == ".":
            if not tok.isdigit():
                raise tokens.error(i, "grade expected after '.'",
                                   "grade expected after '.', got end of input")
            stack[-1].insert(1, int(tok))
            due = None
            continue
        elif tok != due:
            raise tokens.wrong(i, due) if due else tokens.trailing(i)
        elif not tok:
            break
        elif tok == ")":
            make, *operands = stack.pop()
            u = make(*operands)
        else:
            due = None
            continue
        # ``u`` is complete: an operand of the open term, or the whole term
        if stack:
            stack[-1].append(u)
            make = stack[-1][0]
            due = "+" if make is None else "," if make is terms.G and len(stack[-1]) < 4 else ")"
        else:
            due = ""
    if "G" in tokens.items and "." in tokens.items:
        raise ValueError("mixed signatures: term uses both G(...) and .p")
    return u


def serialize_term(u: terms.Term) -> str:
    match u:
        case terms.Const(color):
            return str(color)
        case terms.Join(left, right):
            return f"({serialize_term(left)}+{serialize_term(right)})"
        case terms.Dot(grade, left, right):
            return f"({serialize_term(left)} .{grade} {serialize_term(right)})"
        case terms.G(on_halt, on_diverge, oracle):
            parts = ",".join(
                serialize_term(x) for x in (on_halt, on_diverge, oracle)
            )
            return f"G({parts})"
    raise TypeError(f"not a term: {u!r}")
