"""Finite labeled trees and forests under the homomorphic embedding order.

A forest is a finite multiset of finite rooted trees whose nodes carry labels
from some preorder.  Forest ``A`` lies below forest ``B`` when some monotone
map of node posets sends every node of ``A`` to a node of ``B`` with a larger
or equal label.  This module decides that order two independent ways (a
structural recursion and a brute-force search over node maps), minimizes
forests within their equivalence class, and provides the join and sequential
product that make the quotient a semilattice.

All but ``join`` run on any trees with ``label``/``children`` (and
``with_children``) in any forests with ``trees``: ``LTree`` and ``ITree``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import reduce
from operator import and_, or_
from typing import Any, Callable, Iterator, Sequence

DEFAULT_ORACLE_BOUND = 10_000_000
ORACLE_BOUND_ENV = "FHC_ORACLE_BOUND"


class OracleBoundError(RuntimeError):
    """Raised when the brute-force search space exceeds the configured bound."""


@dataclass(frozen=True)
class LabelPreorder:
    """A label domain given by its comparison predicate.

    ``leq`` must be reflexive and transitive on every label actually used;
    this is assumed, not checked.
    """

    leq: Callable[[Any, Any], bool]
    name: str = "preorder"

    def __repr__(self) -> str:
        return f"LabelPreorder({self.name})"


#: Labels comparable only to themselves (equality as the preorder).
ANTICHAIN = LabelPreorder(lambda a, b: a == b, "antichain")


@dataclass(frozen=True)
class LTree:
    """A finite rooted tree with a label at every node.

    Child order is stored but carries no meaning for the embedding order;
    canonicalization may reorder children freely.
    """

    label: Any
    children: tuple["LTree", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.label, self.children)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    @property
    def size(self) -> int:
        return 1 + sum(c.size for c in self.children)

    def with_children(self, children: tuple["LTree", ...]) -> "LTree":
        return LTree(self.label, children)


@dataclass(frozen=True)
class LForest:
    """A finite sequence of trees; the empty forest is the bottom element."""

    trees: tuple[LTree, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.trees))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    @property
    def size(self) -> int:
        return sum(t.size for t in self.trees)

    def is_empty(self) -> bool:
        return not self.trees


def tree(label: Any, *children: LTree) -> LTree:
    return LTree(label, tuple(children))


def forest(*trees: LTree) -> LForest:
    return LForest(tuple(trees))


def singleton(label: Any) -> LForest:
    return LForest((LTree(label),))


# ---------------------------------------------------------------------------
# The embedding order, decided by structural recursion.

def _nodes(t) -> Iterator:
    """All subtrees of ``t`` in preorder; one per node."""
    yield t
    for c in t.children:
        yield from _nodes(c)


def _tree_leq(a, b, q: LabelPreorder, memo: dict) -> bool:
    key = (a, b)
    hit = memo.get(key)
    if hit is not None:
        return hit
    a_single = not a.children
    b_single = not b.children
    if a_single and b_single:
        out = q.leq(a.label, b.label)
    elif a_single:
        out = any(q.leq(a.label, n.label) for n in _nodes(b))
    elif b_single:
        out = all(q.leq(n.label, b.label) for n in _nodes(a))
    elif q.leq(a.label, b.label):
        out = all(_tree_leq(c, b, q, memo) for c in a.children)
    else:
        out = any(_tree_leq(a, c, q, memo) for c in b.children)
    memo[key] = out
    return out


def h_leq(a, b, q: LabelPreorder) -> bool:
    """Decide whether ``a`` embeds into ``b`` over the label preorder ``q``.

    The empty forest is below everything; otherwise every tree of ``a`` must
    embed into some tree of ``b``.
    """
    memo: dict = {}
    return all(
        any(_tree_leq(ta, tb, q, memo) for tb in b.trees) for ta in a.trees
    )


def h_leq_rows(fs: Sequence, q: LabelPreorder) -> list[int]:
    """``h_leq`` on all pairs of ``fs``: bit ``j`` of row ``i`` is set when
    ``fs[i]`` embeds into ``fs[j]``.  Each pair of distinct trees is decided
    once, with one memo; a tree's up-set is the forests holding a tree above
    it, and a row intersects the up-sets of its forest's trees."""
    holders: dict = {}
    for i, f in enumerate(fs):
        for t in f.trees:
            holders[t] = holders.get(t, 0) | 1 << i
    memo: dict = {}
    above = {
        t: reduce(or_, (h for u, h in holders.items() if _tree_leq(t, u, q, memo)), 0)
        for t in holders
    }
    return [reduce(and_, (above[t] for t in f.trees), (1 << len(fs)) - 1) for f in fs]


def h_equiv(a, b, q: LabelPreorder) -> bool:
    return h_leq(a, b, q) and h_leq(b, a, q)


# ---------------------------------------------------------------------------
# The same order decided from the definition: search for a monotone,
# label-respecting map of nodes.  Ground truth for the recursion above.

def _flatten(f) -> tuple[list[Any], list[int]]:
    """Preorder node labels and parent indices (-1 for roots of trees)."""
    labels: list[Any] = []
    parents: list[int] = []

    def walk(t, parent: int) -> None:
        idx = len(labels)
        labels.append(t.label)
        parents.append(parent)
        for c in t.children:
            walk(c, idx)

    for t in f.trees:
        walk(t, -1)
    return labels, parents


def oracle_bound() -> int:
    return int(os.environ.get(ORACLE_BOUND_ENV, DEFAULT_ORACLE_BOUND))


def h_leq_oracle(a, b, q: LabelPreorder, bound: int | None = None) -> bool:
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
        raise OracleBoundError(
            f"oracle too large: {len(b_labels)}**{len(a_labels)} = {maps} maps"
            f" exceed the bound {bound} ({ORACLE_BOUND_ENV})"
        )
    if not b_labels:
        return False

    def below(i: int, j: int) -> bool:
        # j is i or a descendant of i in b's node poset
        while j != -1:
            if j == i:
                return True
            j = b_parents[j]
        return False

    image = [-1] * len(a_labels)

    def assign(i: int) -> bool:
        if i == len(a_labels):
            return True
        p = a_parents[i]
        for j in range(len(b_labels)):
            if not q.leq(a_labels[i], b_labels[j]):
                continue
            if p != -1 and not below(image[p], j):
                continue
            image[i] = j
            if assign(i + 1):
                return True
        image[i] = -1
        return False

    return assign(0)


# ---------------------------------------------------------------------------
# Minimization: the least-node-count representative of a class.

def minimize(f, q: LabelPreorder):
    """Return a forest of minimum node count equivalent to ``f``.

    Follows the standard recursion: dominated trees are dropped, nodes whose
    whole path from the root stays below the root label are spliced out, and
    a root covering its only child is removed.
    """
    return replace(f, trees=_min_trees(f.trees, q))


def _min_trees(trees: tuple, q: LabelPreorder) -> tuple:
    if len(trees) > 1:
        memo: dict = {}
        kept = []
        for i, t in enumerate(trees):
            dominated = False
            for j, u in enumerate(trees):
                if i == j or not _tree_leq(t, u, q, memo):
                    continue
                # strictly below, or a duplicate of an earlier tree
                if not _tree_leq(u, t, q, memo) or j < i:
                    dominated = True
                    break
            if not dominated:
                kept.append(t)
        trees = kept
    return tuple(_min_tree(t, q) for t in trees)


def _min_tree(t, q: LabelPreorder):
    if not t.children:
        return t
    root = t.label
    kids = _min_trees(t.children, q)
    kids = _min_trees(tuple(_strip_dominated(kids, root, q)), q)
    if len(kids) == 1 and q.leq(root, kids[0].label):
        return kids[0]
    return t.with_children(kids)


def _strip_dominated(trees: tuple, root: Any, q: LabelPreorder) -> Iterator:
    # splice out every node reachable from the root through labels <= root
    for c in trees:
        if q.leq(c.label, root):
            yield from _strip_dominated(c.children, root, q)
        else:
            yield c


def is_join_irreducible(f, q: LabelPreorder) -> bool:
    """Whether ``f`` is not a join of two strictly smaller classes."""
    if f.is_empty():
        raise ValueError("bottom element: the empty forest is not join-irreducible")
    return len(minimize(f, q).trees) == 1


def canonical_decomposition(f, q: LabelPreorder) -> tuple:
    """The pairwise incomparable minimal trees joining to ``f``.

    Empty for the empty forest (supremum of the empty family).
    """
    return minimize(f, q).trees


# ---------------------------------------------------------------------------
# Semilattice operations.

def join(f: LForest, g: LForest) -> LForest:
    """Concatenation of tree sequences; the supremum in the quotient."""
    return LForest(f.trees + g.trees)


def seq_product(f, g):
    """Put a copy of ``g`` above every leaf of ``f``.

    An empty ``f`` acts as a single virtual leaf, so the bottom element is
    neutral on the left.
    """
    if f.is_empty():
        return g

    def graft(t):
        return t.with_children(tuple(graft(c) for c in t.children) or g.trees)

    return replace(f, trees=tuple(graft(t) for t in f.trees))
