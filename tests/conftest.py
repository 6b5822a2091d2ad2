"""Shared enumeration and random-generation helpers for the test suite."""

from __future__ import annotations

import random
from collections.abc import Callable
from functools import reduce
from itertools import permutations
from operator import and_, or_

from fhc import forests, iterated


def all_lforests(k: int, max_nodes: int) -> list[iterated.IForest]:
    """Every canonical k-labeled forest with at most ``max_nodes`` nodes, incl.
    empty: the level-1 forests of ``iterated.enumerate_forests`` and its empty
    forest, which sits at level 0."""
    return [
        f for f in iterated.enumerate_forests(k, max_nodes, 1)
        if f.level == 1 or f.is_empty()
    ]


def random_iforest(
    rng: random.Random, k: int, max_level: int, max_nodes: int
) -> iterated.IForest:
    """A pseudo-random iterated forest: bounded level, size, uniform colors."""
    level = rng.randint(0, max_level)
    n_trees = rng.randint(0 if level > 0 else 1, 2)
    return iterated.IForest(
        level, tuple(random_itree(rng, k, level, max_nodes) for _ in range(n_trees))
    )


def random_itree(
    rng: random.Random, k: int, level: int, max_nodes: int
) -> iterated.ITree:
    if level == 0:
        return iterated.color(rng.randrange(k))
    label = random_itree(rng, k, level - 1, max_nodes)
    n_children = rng.randint(0, max(0, max_nodes - 1))
    children = tuple(
        random_itree(rng, k, level, max(1, max_nodes // 2)) for _ in range(n_children)
    )
    return iterated.ITree(level, label, children)


def h_leq_rows(fs: list, q: Callable) -> list[int]:
    """Reference order rows: bit ``j`` of row ``i`` is set when ``fs[i]``
    embeds into ``fs[j]``.  Each pair of distinct trees is decided once by
    ``forests._tree_leq``, with one memo; a tree's up-set is the forests
    holding a tree above it, and a row intersects the up-sets of its trees."""
    holders: dict = {}
    for i, f in enumerate(fs):
        for t in f.trees:
            holders[t] = holders.get(t, 0) | 1 << i
    memo: dict = {}
    above = {
        t: reduce(or_, (h for u, h in holders.items() if forests._tree_leq(t, u, q, memo)), 0)
        for t in holders
    }
    return [reduce(and_, (above[t] for t in f.trees), (1 << len(fs)) - 1) for f in fs]


def _droppable(trees: tuple[iterated.ITree, ...], most: int) -> int:
    # how many levels, up to ``most``, lifting can take back from every tree:
    # a leaf whose label drops to a color drops to that color, any other tree
    # as far as its label and each of its children do
    for t in trees:
        if not most:
            break
        label = _droppable((t.label,), min(most, t.level - 1))
        if t.children or label < t.level - 1:
            most = _droppable(t.children, label)
    return most


def floor_by_dropping(t: iterated.ITree) -> int:
    """Reference ``ITree.floor``: the level after a walk finds how far ``t`` drops."""
    return t.level - _droppable((t,), t.level)


def unlift_by_dropping(f: iterated.IForest) -> iterated.IForest:
    """Reference ``iterated.unlift``: one walk finds how far every tree drops,
    and the trees are rebuilt that low."""
    level = f.level - _droppable(f.trees, f.level)
    if level == f.level:
        return f
    return iterated.IForest(level, tuple(iterated._moved(t, level) for t in f.trees))


def is_minimal_by_minimizing(t: iterated.ITree) -> bool:
    """Reference minimality: a whole minimization leaves ``t`` as it is."""
    return forests._min_tree(t, iterated.LABEL_ORDER) is t


def minimal_forests_by_minimizing(k: int, max_size: int, max_level: int) -> list:
    """Reference ``iterated.minimal_forests``: candidate trees kept by a whole
    minimization instead of the local test."""
    def keep(label, children):
        return is_minimal_by_minimizing(iterated.ITree(label.level + 1, label, children))

    return [
        f for f in iterated._forests(k, max_size, max_level, keep)
        if not any(iterated.tree_leq0(a, b) for a, b in permutations(f.trees, 2))
    ]


def ORACLE_LABELS(a: iterated.ITree, b: iterated.ITree) -> bool:
    """The label preorder of every level, decided by the map search alone:
    with ``forests.h_leq_oracle`` it decides ``colim_leq`` with no structural
    recursion.  Colors compare by identity; otherwise two labels, trees one
    level down, are compared by the map search, whose labels come back here."""
    if a.level == b.level == 0:
        return a is b
    return forests.h_leq_oracle(iterated.singleton(a), iterated.singleton(b), ORACLE_LABELS)
