"""Iterated colored forests: trees labeled by trees labeled by ... colors.

Level 0 holds the bare colors ``0 .. k-1``; a tree at level ``m+1`` is a
finite rooted tree whose every node carries a level-``m`` tree as its label.
All levels embed into one big structure via the canonical lifting ``lift``
(a color becomes the singleton tree it labels), and the order compares
forests of different levels as they are: lifting keeps a tree's shape and
only relabels, so a color meets a tree as its one-node tree.

On top of the embedding order ``<=^0`` the module provides the level-shift
maps ``s_lift`` (wrap as a one-node tree a level up) and ``r_drop`` (join all
node labels a level down), the derived preorders ``<=^n`` that compare
``r_drop`` images, the graded sequential products, and minimization.
"""

from __future__ import annotations

import weakref
from functools import cache, lru_cache, partial
from itertools import chain, permutations, starmap
from operator import attrgetter
from typing import Callable

from . import forests
from .forests import BoundError, Record


class SegmentBoundError(BoundError):
    """Raised when a segment would build more than its bound."""


class ITree:
    """One tree of an iterated forest, interned: equal trees are one object.

    At level 0 the ``label`` is a color (an int) and there are no children;
    at level ``m > 0`` the label is an ``ITree`` of level ``m - 1`` and the
    children are trees of the same level ``m``.  Equality and hashing are
    identity.  ``size`` counts the color occurrences through all nestings;
    ``sort_key`` orders trees structurally, children as a sorted multiset;
    ``floor`` is the lowest level that lifting could have built the tree from
    (a leaf whose label comes from a color comes from that color).  The
    canonical form is kept on the tree once ``canonical_tree`` has built it.
    """

    __slots__ = ("level", "label", "children", "size", "sort_key", "floor", "_canon", "__weakref__")

    def __new__(cls, level: int, label: "int | ITree", children: tuple["ITree", ...] = ()):
        if level == 0 and not (isinstance(label, int) and label >= 0):
            # before the lookup, which would find color 1 for the label 1.0
            raise ValueError("level-0 tree must be labeled by a color")
        key = (level, label, children)
        t = (ref := _INTERNED.get(key)) and ref()
        if t is not None:
            return t  # an interned key was checked when its tree was built
        if level == 0:
            if children:
                raise ValueError("level-0 tree has no children")
            size, sort_key, floor = 1, (0, label), 0
        elif not isinstance(label, ITree) or label.level != level - 1:
            raise ValueError(f"level-{level} tree needs a level-{level - 1} label")
        elif any(c.level != level for c in children):
            raise ValueError("children must sit at the parent's level")
        else:
            size = label.size + sum(c.size for c in children)
            sort_key = (1, label.sort_key, tuple(sorted(c.sort_key for c in children)))
            floor = 0  # a leaf over a lifted color comes from that color
            if children or label.floor:
                floor = max((label.floor + 1, *(c.floor for c in children)))
        t = object.__new__(cls)
        _set(t, "level", level)
        _set(t, "label", label)
        _set(t, "children", children)
        _set(t, "size", size)
        _set(t, "sort_key", sort_key)
        _set(t, "floor", floor)
        # a color, or a leaf over one, is canonical; other forms are built on demand
        _set(t, "_canon", None if level < 2 and not children else _UNBUILT)
        _INTERNED[key] = weakref.KeyedRef(t, _forget, key)
        return t

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ITree is immutable")

    def __repr__(self) -> str:
        return f"ITree(level={self.level!r}, label={self.label!r}, children={self.children!r})"

    def __reduce__(self):
        # pickle and copy rebuild through __new__, which returns the interned tree
        return ITree, (self.level, self.label, self.children)

    def with_children(self, children: tuple["ITree", ...]) -> "ITree":
        return ITree(self.level, self.label, children)


def _forget(ref: weakref.KeyedRef) -> None:
    # the tree died: drop its entry, unless a new tree took the key since
    if _INTERNED.get(ref.key) is ref:
        del _INTERNED[ref.key]


#: every live tree's weak reference by ``(level, label, children)``
_INTERNED: dict[tuple, weakref.KeyedRef] = {}
_set = object.__setattr__
_UNBUILT = object()  # the canonical form of a tree before it is asked for
_SORT_KEY = attrgetter("sort_key")


class IForest(Record):
    """A finite sequence of same-level trees; may be empty at any level."""

    __slots__ = ("level", "trees")

    def __init__(self, level: int, trees: tuple[ITree, ...] = ()) -> None:
        for t in trees:
            if t.level != level:
                raise ValueError("forest level differs from tree level")
        self._set(level, trees)

    @property
    def size(self) -> int:
        return sum(t.size for t in self.trees)

    @property
    def floor(self) -> int:
        return max((t.floor for t in self.trees), default=0)

    def is_empty(self) -> bool:
        return not self.trees

    def with_trees(self, trees: tuple[ITree, ...]) -> "IForest":
        return IForest(self.level, trees)


def color(i: int) -> ITree:
    return ITree(0, i)


def color_forest(*colors: int) -> IForest:
    return IForest(0, tuple(color(i) for i in colors))


def itree(label: ITree, *children: ITree) -> ITree:
    """``[label:children]``: the label and children lifted to one level."""
    level = max([label.level + 1, *[c.level for c in children]])
    return ITree(level, _moved(label, level - 1), tuple(_moved(c, level) for c in children))


def iforest(*trees: ITree) -> IForest:
    """The trees lifted to one level."""
    if not trees:
        raise ValueError("level of an empty forest is ambiguous; use IForest")
    level = max(t.level for t in trees)
    return IForest(level, tuple(_moved(t, level) for t in trees))


def singleton(t: ITree) -> IForest:
    return IForest(t.level, (t,))


# ---------------------------------------------------------------------------
# Lifting between levels.

def lift(f: IForest, target: int) -> IForest:
    """Embed ``f`` at a higher level without changing its class."""
    if target < f.level:
        raise ValueError("cannot lower level by lifting")
    if target == f.level:
        return f
    return IForest(target, tuple(_moved(t, target) for t in f.trees))


def _moved(t: ITree, level: int) -> ITree:
    # ``t`` lifted, or lowered no further than its floor, to ``level`` in one walk
    if t.level == level:
        return t
    if level == 0:
        return _moved(t.label, 0)  # a chain of one-node trees over its color
    label = t if t.level == 0 else t.label  # a color labels its one-node tree
    return ITree(level, _moved(label, level - 1), tuple(_moved(c, level) for c in t.children))


def unlift(f: IForest) -> IForest:
    """Drop as many levels as lifting can reconstruct; class-preserving.

    The result is the lowest-level member of the class with the same shape,
    e.g. the lift of a color forest comes back down to the colors: the
    forest rebuilt at the highest floor of its trees.
    """
    level = f.floor
    return f if level == f.level else IForest(level, tuple(_moved(t, level) for t in f.trees))


# ---------------------------------------------------------------------------
# The order at relation level 0: the embedding order, instantiated with the
# label preorder one level down (down to color equality at the bottom).

@lru_cache(maxsize=None)
def tree_leq0(a: ITree, b: ITree) -> bool:
    """The embedding order on two trees of any levels: colors by identity,
    which interning makes equality; a color meets a tree as its one-node tree."""
    return a is b if a.level == b.level == 0 else forests._tree_leq(a, b, tree_leq0, {})


#: the label preorder of every level: labels are trees one level down
LABEL_ORDER = tree_leq0


@lru_cache(maxsize=None)
def forest_leq0(a: IForest, b: IForest) -> bool:
    """The embedding order on two forests of any levels."""
    return forests.h_leq(a, b, LABEL_ORDER)


def colim_leq(a: IForest, b: IForest, n: int = 0) -> bool:
    """Decide ``a <=^n b``; operands may sit at different levels.

    ``<=^0`` is the embedding order, which lifting to a common level would
    not change; ``<=^(n+1)`` compares the ``r_drop`` images at ``n``.
    """
    return forest_leq0(*_dropped(a, b, n))


def _dropped(a: IForest, b: IForest, n: int) -> tuple[IForest, IForest]:
    """``a`` and ``b`` after ``n`` ``r_drop``s, which change nothing at level 0."""
    if n < 0:
        raise ValueError(f"grade or relation level must be non-negative, got {n}")
    for _ in range(min(n, max(a.level, b.level))):
        a, b = r_drop(a), r_drop(b)
    return a, b


def colim_equiv(a: IForest, b: IForest, n: int = 0) -> bool:
    return colim_leq(a, b, n) and colim_leq(b, a, n)


def colim_leq_oracle(a: IForest, b: IForest, n: int = 0) -> bool:
    """``colim_leq`` decided by the brute-force map search; small inputs only."""
    a, b = _dropped(a, b, n)
    bound = forests.oracle_bound()  # read, and checked, whatever the operands
    if a.level == b.level == 0:
        return set(a.trees) <= set(b.trees)
    return forests.h_leq_oracle(a, b, LABEL_ORDER, bound)


# ---------------------------------------------------------------------------
# Level-shift maps and graded products.

def s_lift(f: IForest) -> IForest:
    """Wrap every tree as the label of a fresh one-node tree a level up."""
    return IForest(f.level + 1, tuple(ITree(f.level + 1, t) for t in f.trees))


def r_drop(f: IForest) -> IForest:
    """Join all node labels one level down; fixes level-0 forests."""
    if f.level == 0:
        return f
    return IForest(
        f.level - 1, tuple(n.label for t in f.trees for n in forests._nodes(t))
    )


def join(*fs: IForest) -> IForest:
    """All trees of the forests, lifted to the highest of their levels."""
    p = max(f.level for f in fs)
    return IForest(p, tuple(chain.from_iterable(lift(f, p).trees for f in fs)))


def dot_p(f: IForest, g: IForest, p: int = 0) -> IForest:
    """The graded sequential product ``f .^p g``.

    Grade 0 stacks ``g`` above every leaf of ``f`` (after lifting to a common
    level, at least 1); grade ``p`` is the grade-0 product of the ``p``-fold
    ``r_drop`` images, ``s_lift``ed ``p`` times.
    """
    f, g = _dropped(f, g, p)
    level = max(f.level, g.level, 1)
    h = forests.seq_product(lift(f, level), lift(g, level))
    for _ in range(p):
        h = s_lift(h)
    return h


# ---------------------------------------------------------------------------
# Minimization and canonical form.

def iminimize(f: IForest) -> IForest:
    """The least representative: minimal as a forest, labels minimal too."""
    shape = forests.minimize(f, LABEL_ORDER)
    return IForest(f.level, tuple(_imin_labels(t) for t in shape.trees))


def _imin_labels(t: ITree) -> ITree:
    if t.level <= 1:
        return t  # every label is a color, already least
    label = _imin_labels(forests._min_tree(t.label, LABEL_ORDER))  # a lone tree is undominated
    return ITree(t.level, label, tuple(_imin_labels(c) for c in t.children))


def representative(f: IForest) -> IForest:
    """The name of the class of ``f``: its canonical minimal form.

    Minimal forests are unique up to isomorphism, so two forests are
    equivalent exactly when their representatives are equal.
    """
    return canonical(unlift(iminimize(f)))


def canonical(f: IForest) -> IForest:
    """Reorder children and trees by a structural key; class-preserving.

    Empty forests come out at level 0: they all denote the bottom class and
    the text form carries no level.  A forest already canonical comes back.
    """
    if f.is_empty():
        return IForest(0) if f.level else f
    trees = tuple(sorted(map(canonical_tree, f.trees), key=_SORT_KEY))
    return f if trees == f.trees else IForest(f.level, trees)


def canonical_tree(t: ITree) -> ITree:
    """``t`` with all children in ``sort_key`` order: built once per tree and
    kept on it, as None on a canonical tree, which may not refer to itself."""
    form = t._canon
    if form is _UNBUILT:
        label = canonical_tree(t.label)
        kids = tuple(sorted(map(canonical_tree, t.children), key=_SORT_KEY))
        form = t if label is t.label and kids == t.children else ITree(t.level, label, kids)
        _set(t, "_canon", None if form is t else form)
        _set(form, "_canon", None)
    return t if form is None else form


# ---------------------------------------------------------------------------
# Canonical text, read back by ``notation``: children and forest members in
# ``sort_key`` order, so equal classes of minimal forests print alike, byte for byte.

def serialize_tree(t: ITree) -> str:
    return _tree_text(canonical_tree(t))


def _tree_text(t: ITree) -> str:
    if t.level == 0:
        return str(t.label)
    kids = ",".join(map(_tree_text, t.children))
    return f"[{_tree_text(t.label)}:{kids}]" if kids else f"[{_tree_text(t.label)}]"


def serialize_forest(f: IForest) -> str:
    """Canonical text of a forest: sorted, braced, parseable back."""
    return "{" + ",".join(map(_tree_text, canonical(f).trees)) + "}"


# ---------------------------------------------------------------------------
# Deterministic enumeration (canonical representatives only).

def enumerate_forests(k: int, max_size: int, max_level: int) -> list[IForest]:
    """All canonical forests with level up to ``max_level`` and size up to
    ``max_size``, in a fixed (size-ascending) order; the empty forest first.
    """
    return _forests(k, max_size, max_level, lambda label, children: True)


def minimal_forests(
    k: int, max_size: int, max_level: int, bound: int | None = None
) -> list[IForest]:
    """The forests of ``enumerate_forests`` that ``iminimize`` fixes, in its order.

    Relies on closure: the label and each child of a minimal tree are minimal
    trees, so a minimal tree is a minimal label over minimal children that
    minimization leaves as it is, and a minimal forest is a multiset of
    minimal trees none of which embeds into another.  Over minimal parts the
    test is local: no child is labelled below the root or embeds into another
    child, and a root with one child is not labelled below that child's label.
    Refuse once the colors, candidate trees and multisets counted pass ``bound``.
    """
    leq = partial(forests._tree_leq, q=LABEL_ORDER, memo={})  # one memo for the call

    @cache
    def apart(trees: tuple[ITree, ...]) -> bool:
        return not any(starmap(leq, permutations(trees, 2)))

    def minimal(label: ITree, kids: tuple[ITree, ...]) -> bool:
        return not (any(leq(c.label, label) for c in kids) or not apart(kids)
                    or len(kids) == 1 and leq(label, kids[0].label))

    return _forests(k, max_size, max_level, minimal, bound, apart)


def _forests(k: int, max_size: int, max_level: int, keep: Callable,
             bound: int | None = None, apart: Callable = bool) -> list[IForest]:
    # forests in a fixed order, of trees built from kept parts when ``keep(label,
    # children)`` passes, whose trees pass ``apart`` (``bool`` passes all)
    built = 0

    def counted(item, n: int = 1):
        # every color and multiset is counted as it is built, a candidate as tested
        nonlocal built
        built += n
        if bound is not None and built > bound:
            raise SegmentBoundError("segment", f"at least {built} trees and forests", bound)
        return item

    trees, tuples, pools = {}, {}, {}  # pools: each level's trees by ascending size
    out = [IForest(0)]
    # size outer, level inner: each table entry is built after the entries it reads
    for size in range(1, max_size + 1):
        for level in range(max_level + 1):
            if level == 0:  # colors are always kept
                trees[size, 0] = [color(i) for i in counted(range(k), k)] if size == 1 else []
            else:
                if size == 1 and k:  # the empty multiset, counted when a leaf first needs it
                    tuples[0, level] = [counted(())]
                # the canonical trees of exactly this size, in sort_key order
                trees[size, level] = sorted((
                    ITree(level, label, ch)
                    for label_size in range(1, size + 1)
                    for label in trees[label_size, level - 1]
                    for ch in tuples[size - label_size, level]
                    if counted(keep(label, ch))
                ), key=_SORT_KEY)
            pool = pools.setdefault(level, [])
            pool += trees[size, level]
            tuples[size, level] = [counted(ch) for ch in _multisets(pool, 0, size)]
            out += (IForest(level, ch) for ch in tuples[size, level] if apart(ch))
    return out


def _multisets(pool: list[ITree], start: int, remaining: int, acc: tuple[ITree, ...] = ()):
    # ``acc`` plus each multiset of pool trees from ``start`` on whose sizes sum to
    # ``remaining``, as sorted tuples: each tree goes in as often as fits, down to
    # once, while what is left fits a later tree (the pool ascends by size)
    if remaining == 0:
        yield acc
        return
    for i in range(start, len(pool)):
        t = pool[i]
        if t.size > remaining:
            break
        least = pool[i + 1].size if i + 1 < len(pool) else remaining + 1
        exact = [remaining // t.size] if remaining % t.size == 0 else []
        for m in exact + [*range((remaining - least) // t.size, 0, -1)]:
            yield from _multisets(pool, i + 1, remaining - m * t.size, acc + (t,) * m)


def count_forests(k: int, max_size: int, max_level: int) -> int:
    """How many forests ``enumerate_forests`` yields."""
    return len(enumerate_forests(k, max_size, max_level))
