"""Shared enumeration and random-generation helpers for the test suite."""

from __future__ import annotations

import random

from fhc.forests import LForest, LTree
from fhc import iterated


def all_lforests(k: int, max_nodes: int) -> list[LForest]:
    """Every canonical forest with at most ``max_nodes`` nodes, incl. empty.

    The level-1 forests of ``iterated.enumerate_forests``, colors read as ints.
    """
    return [
        LForest(tuple(_ltree(t) for t in f.trees))
        for f in iterated.enumerate_forests(k, max_nodes, 1)
        if f.level == 1 or f.is_empty()
    ]


def _ltree(t: iterated.ITree) -> LTree:
    return LTree(t.label.label, tuple(_ltree(c) for c in t.children))


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
