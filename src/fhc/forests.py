"""Finite labeled trees and forests under the homomorphic embedding order.

A forest is a finite multiset of finite rooted trees whose nodes carry labels
from some preorder.  Forest ``A`` lies below forest ``B`` when some monotone
map of node posets sends every node of ``A`` to a node of ``B`` with a larger
or equal label.  This module decides that order two independent ways (a
structural recursion and a brute-force search over node maps), minimizes
forests within their equivalence class, and provides the sequential product.

The core runs on the iterated ``ITree``/``IForest`` over any label preorder
``q(a, b)``, a predicate on labels, the trees one level down (a color is its
own label), assumed reflexive and transitive on the labels used.  A k-labeled
forest is a level-1 iterated forest, colors under equality.
"""

from __future__ import annotations

import os
from functools import partial
from operator import attrgetter, eq
from typing import Any, Callable, Iterator

DEFAULT_ORACLE_BOUND = 10_000_000
ORACLE_BOUND_ENV = "FHC_ORACLE_BOUND"


class BoundError(RuntimeError):
    """A computation refused before it outgrows a resource bound, raised as
    ``BoundError(guard, size, bound)``: what is refused, the size it asks
    for, and the bound (with the setting that overrides it, if any)."""

    def __init__(self, guard: str, size: str, bound: int | str) -> None:
        super().__init__(guard, size, bound)

    def __str__(self) -> str:
        return "{} too large: {} (bound {})".format(*self.args)


class OracleBoundError(BoundError):
    """Raised when the brute-force search space exceeds the configured bound."""


class Record:
    """An immutable value whose fields are its slots, but ``_hash``.

    Records are equal when they are of one type with equal fields, hash by
    their fields, print as ``Name(field=value, ...)``, refuse to set or delete
    a field, and pickle and copy through their constructor.  A subclass
    declares its fields as slots, then ``_hash`` if it stores the hash of its
    fields when it is built, and its ``__init__`` sets them with ``_set``.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if cls.__slots__:  # else the fields are the base's
            cls.__match_args__ = tuple(name for name in cls.__slots__ if name != "_hash")
        cls._key = attrgetter(*cls.__match_args__)  # the fields as one value, for == and hash
        if "_hash" in cls.__slots__:
            cls.__hash__ = lambda self: self._hash

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


#: Labels comparable only to themselves (equality as the preorder).
ANTICHAIN = eq


# ---------------------------------------------------------------------------
# The embedding order, decided by structural recursion.

def _nodes(t) -> Iterator:
    """All subtrees of ``t`` in preorder; one per node, without recursion."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(reversed(t.children))


def _tree_leq(a, b, q: Callable, memo: dict) -> bool:
    key = (a, b)
    hit = memo.get(key)
    if hit is not None:
        return hit
    # a color is its own label; only a tree with no children can be a color
    if not a.children:
        label = a.label if a.level else a
        if not b.children:
            out = q(label, b.label if b.level else b)
        else:
            out = any(q(label, n.label) for n in _nodes(b))
    elif not b.children:
        label = b.label if b.level else b
        out = all(q(n.label, label) for n in _nodes(a))
    elif q(a.label, b.label):
        out = all(_tree_leq(c, b, q, memo) for c in a.children)
    else:
        out = any(_tree_leq(a, c, q, memo) for c in b.children)
    memo[key] = out
    return out


def h_leq(a, b, q: Callable) -> bool:
    """Decide whether ``a`` embeds into ``b`` over the label preorder ``q``.

    The empty forest is below everything; otherwise every tree of ``a`` must
    embed into some tree of ``b``.
    """
    memo: dict = {}
    return all(
        any(_tree_leq(ta, tb, q, memo) for tb in b.trees) for ta in a.trees
    )


# ---------------------------------------------------------------------------
# The same order decided from the definition: search for a monotone,
# label-respecting map of nodes.  Ground truth for the recursion above.

def _flatten(f) -> tuple[list[Any], list[int]]:
    """Preorder node labels and parent indices (-1 for roots of trees)."""
    labels: list[Any] = []
    parents: list[int] = []
    stack = [(t, -1) for t in reversed(f.trees)]
    while stack:
        t, parent = stack.pop()
        if t.children:  # t is node len(labels), parent of its children
            stack += [(c, len(labels)) for c in reversed(t.children)]
        labels.append(t.label if t.level else t)  # a color is its own label
        parents.append(parent)
    return labels, parents


def oracle_bound() -> int:
    text = os.environ.get(ORACLE_BOUND_ENV, str(DEFAULT_ORACLE_BOUND))
    if not text.strip().isdecimal():
        raise ValueError(f"{ORACLE_BOUND_ENV} must be a non-negative integer, got {text!r}")
    return int(text)


def h_leq_oracle(a, b, q: Callable, bound: int | None = None) -> bool:
    """Decide the embedding order by exhausting node maps from ``a`` to ``b``.

    Intended for small inputs; refuses when the map space ``|b| ** |a|``
    exceeds ``bound`` (default from FHC_ORACLE_BOUND or 10**7).
    """
    if bound is None:
        bound = oracle_bound()
    a_labels, a_parents = _flatten(a)
    b_labels, b_parents = _flatten(b)
    if not a_labels:
        return True
    maps = len(b_labels) ** len(a_labels)
    if maps > bound:
        raise OracleBoundError("oracle", f"{len(b_labels)}**{len(a_labels)} = {maps} maps",
                               f"{bound}, {ORACLE_BOUND_ENV}")
    if not b_labels:
        return False

    def below(i: int, j: int) -> bool:
        # j is i or a descendant of i in b's node poset
        while j != -1:
            if j == i:
                return True
            j = b_parents[j]
        return False

    # depth-first over a's nodes in preorder, without recursion: node i moves
    # from its image (-1 before the first) to the next that respects its label
    # and its parent's image or, with none left, backs up to node i - 1
    n, m = len(a_labels), len(b_labels)
    image, i = [-1] * n, 0
    while 0 <= i < n:
        label, p = a_labels[i], a_parents[i]
        for j in range(image[i] + 1, m):
            if q(label, b_labels[j]) and (p == -1 or below(image[p], j)):
                image[i] = j
                i += 1
                break
        else:
            image[i] = -1
            i -= 1
    return i == n


# ---------------------------------------------------------------------------
# Minimization: the least-node-count representative of a class.

def minimize(f, q: Callable):
    """Return a forest of minimum node count equivalent to ``f``.

    Follows the standard recursion: dominated trees are dropped, nodes whose
    whole path from the root stays below the root label are spliced out, and
    a root covering its only child is removed.  Each subtree is minimized
    once, before its parent splices.
    """
    return f.with_trees(_min_trees(f.trees, q))


def _min_trees(trees: tuple, q: Callable) -> tuple:
    return tuple(_min_tree(t, q) for t in _undominated(trees, q))


def _undominated(trees: tuple, q: Callable) -> tuple:
    # drop a tree strictly below another, or a duplicate of an earlier one
    leq = partial(_tree_leq, q=q, memo={})
    return tuple(t for i, t in enumerate(trees) if not any(
        j != i and leq(t, u) and (j < i or not leq(u, t)) for j, u in enumerate(trees)))


def _min_tree(t, q: Callable):
    if not t.children:
        return t
    root = t.label
    # splicing brings up only subtrees of minimal children, which are minimal
    # already: only the dominated ones are left to drop
    kids = _undominated(tuple(_strip_dominated(_min_trees(t.children, q), root, q)), q)
    if len(kids) == 1 and q(root, kids[0].label):
        return kids[0]
    return t.with_children(kids)


def _strip_dominated(trees: tuple, root: Any, q: Callable) -> Iterator:
    # splice out every node reachable from the root through labels <= root
    for c in trees:
        if q(c.label, root):
            yield from _strip_dominated(c.children, root, q)
        else:
            yield c


def is_join_irreducible(f, q: Callable) -> bool:
    """Whether ``f`` is not a join of two strictly smaller classes."""
    if f.is_empty():
        raise ValueError("bottom element: the empty forest is not join-irreducible")
    return len(minimize(f, q).trees) == 1


def canonical_decomposition(f, q: Callable) -> tuple:
    """The pairwise incomparable minimal trees joining to ``f``.

    Empty for the empty forest (supremum of the empty family).
    """
    return minimize(f, q).trees


# ---------------------------------------------------------------------------
# The sequential product.

def seq_product(f, g):
    """Put a copy of ``g`` above every leaf of ``f``.

    An empty ``f`` acts as a single virtual leaf, so the bottom element is
    neutral on the left.
    """
    if f.is_empty():
        return g
    return f.with_trees(tuple(_graft(t, g.trees) for t in f.trees))


def _graft(t, top: tuple):
    # ``t`` with the trees of ``top`` above each of its leaves
    return t.with_children(tuple(_graft(c, top) for c in t.children) or top)
