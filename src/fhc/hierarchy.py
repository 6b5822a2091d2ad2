"""Level semantics over the discrete space of naturals.

A level descriptor is a nonempty iterated forest; the corresponding class
of k-partitions is never materialized.  Verdicts about inclusion between
levels are read off the embedding order of the descriptors, which is sound
and complete here: descriptor order implies level inclusion, and the
hierarchy does not collapse, so non-order implies non-inclusion.  The
complete member of a level is returned symbolically, as the mind-change
term of the descriptor.

The quotient machinery generates a segment, the classes with a member of at
most ``nodes`` color occurrences and level at most ``level``, one minimal
forest each.  It decides their order from one table of tree up-sets built
bottom-up over subtrees, reads off it the covers among those classes (a
class outside can lie between, so they need not be covers of the quotient),
and emits the poset as a Hasse diagram (DOT text) or a line-oriented cache
file.  Both outputs are deterministic, byte for byte.
"""

from __future__ import annotations

from functools import reduce
from operator import and_

from . import iterated, terms
from .forests import Record
from .iterated import IForest, SegmentBoundError

EQUAL = "equal"
SUBSET = "subset"
SUPERSET = "superset"
INCOMPARABLE = "incomparable"

DEFAULT_SEGMENT_BOUND = 50_000


class LevelDescriptor(Record):
    """Index of one hierarchy level; join-irreducible descriptors are the
    non-self-dual levels (single trees)."""

    __slots__ = ("forest",)

    def __init__(self, forest: IForest) -> None:
        if forest.is_empty():
            raise ValueError("a level descriptor needs a nonempty forest")
        self._set(forest)


def level_relation(t: LevelDescriptor, v: LevelDescriptor) -> str:
    """Inclusion verdict between the two levels over the naturals.

    ``subset``/``superset`` are strict; ``incomparable`` certifies that
    neither level contains the other.
    """
    fwd = iterated.colim_leq(t.forest, v.forest, 0)
    bwd = iterated.colim_leq(v.forest, t.forest, 0)
    if fwd and bwd:
        return EQUAL
    if fwd:
        return SUBSET
    if bwd:
        return SUPERSET
    return INCOMPARABLE


def complete_witness(t: LevelDescriptor, shift: int = 0) -> terms.GTerm:
    """A symbolic description of a partition complete in the level.

    The term is read as a nested mind-change procedure over iterated jump
    oracles; it is never evaluated as an actual numbering.
    """
    return terms.s_to_g(terms.encode(t.forest, shift))


# ---------------------------------------------------------------------------
# Quotient segments.

class QuotientSegment(Record):
    """The classes with a member of at most ``max_nodes`` color occurrences
    and level at most ``max_level``: no initial segment of the quotient.

    ``classes`` holds one minimal canonical representative per equivalence
    class; ``covers`` is the transitive reduction of the strict order among
    those classes, as (lower index, upper index) pairs in ascending order.
    """

    __slots__ = ("k", "max_nodes", "max_level", "classes", "covers")

    def __init__(self, k: int, max_nodes: int, max_level: int,
                 classes: tuple[IForest, ...], covers: tuple[tuple[int, int], ...]) -> None:
        self._set(k, max_nodes, max_level, classes, covers)


def enumerate_segment(
    k: int, max_nodes: int, max_level: int, bound: int = DEFAULT_SEGMENT_BOUND
) -> QuotientSegment:
    """The classes of the forests within the bounds, with their covers.

    Each class comes from its one minimal forest at its own floor (the
    others are lifts of lower classes), named as ``iterated.representative``
    names it; classes appear in order of their smallest member.  Refuse when the
    colors, trees and multisets the generator builds exceed ``bound``; without
    colors the bottom class is all there is.
    """
    for name, value in (("alphabet size k", k), ("max_nodes", max_nodes),
                        ("max_level", max_level)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    if k == 0:
        return QuotientSegment(k, max_nodes, max_level, (IForest(0),), ())
    # with a color, every size and level holds a forest: huge bounds go uncounted
    least = 1 + max_nodes * (max_level + 1)
    if least > bound:
        raise SegmentBoundError("segment", f"at least {least} forests", bound)
    minimal = iterated.minimal_forests(k, max_nodes, max_level, bound)
    reps = [iterated.canonical(f) for f in minimal if f.floor == f.level]
    covers = _transitive_reduction(reps)
    return QuotientSegment(k, max_nodes, max_level, tuple(reps), covers)


def _transitive_reduction(reps: list[IForest]) -> tuple[tuple[int, int], ...]:
    # for class i, take the lowest class j left above it and drop all above j
    # from what is left and from the covers found: a least class above i is
    # above no visited class, and a visited class that is not least goes when
    # a least class below it is visited, in any index order; i ascends and the
    # survivors are read low bit first, so covers come ordered by (lower, upper)
    rows = _class_rows(reps)
    covers = []
    for i, row in enumerate(rows):
        row &= ~(1 << i)
        found = 0
        while row:
            j = (row & -row).bit_length() - 1
            row &= ~rows[j]
            found = found & ~rows[j] | 1 << j
        while found:
            j = (found & -found).bit_length() - 1
            covers.append((i, j))
            found ^= 1 << j
    return tuple(covers)


def _class_rows(reps: list[IForest]) -> list[int]:
    """Bit ``j`` of row ``i`` is set when ``reps[i] <= reps[j]``.

    Read off one table of up-sets, bitsets over a pool (the classes' trees
    closed under labels and children, each after its parts) and the classes.
    It is built bottom-up over subtrees, as tree inclusion is (Kilpelainen &
    Mannila): t sits below what holds a node u with label t <= label u and
    every child of t below u.  A color is its own label.
    """
    pool: dict = {}
    _parts_first((t for f in reps for t in f.trees), pool)
    n = len(pool)
    holding, labelled = [1 << p for p in range(n)], [0] * n
    for p, t in enumerate(pool):
        labelled[pool[t.label] if t.level else p] |= 1 << p

    def labelled_in(s: int) -> int:  # the pool trees labelled by a member of s
        s &= (1 << n) - 1
        out = 0
        while s:  # over the set bits only
            low = s & -s
            out |= labelled[low.bit_length() - 1]
            s ^= low
        return out

    for j, f in enumerate(reps):
        for t in f.trees:
            holding[pool[t]] |= 1 << n + j  # a class holds its trees
    for p, t in reversed(list(enumerate(pool))):
        for c in t.children:
            holding[pool[c]] |= holding[p]
    up, above = [0] * n, [0] * n  # above: the trees labelled above a label
    for p, t in enumerate(pool):
        cands = 1 << p
        if t.level:
            cands = reduce(and_, (up[pool[c]] for c in t.children), above[pool[t.label]])
        while cands:  # the lowest candidate holds no other: holders come later
            up[p] |= holding[(cands & -cands).bit_length() - 1]
            cands &= ~up[p]
            if not (cands or t.level):  # a color sits below what is labelled above it
                cands = labelled_in(up[p]) & ~up[p]
        above[p] = labelled_in(up[p]) if labelled[p] else 0
    full = (1 << n + len(reps)) - 1
    return [reduce(and_, (up[pool[t]] for t in f.trees), full) >> n for f in reps]


def _parts_first(ts, pool: dict) -> None:
    # number each tree not yet in the pool after its label and children, depth first
    for t in ts:
        if t not in pool:
            _parts_first((t.label, *t.children) if t.level else (), pool)
            pool[t] = len(pool)


def hasse_dot(seg: QuotientSegment) -> str:
    """The segment as a DOT digraph, one node per class, one edge per cover."""
    lines = ["digraph segment {", "  rankdir=BT;"]
    for idx, rep in enumerate(seg.classes):
        lines.append(f'  n{idx} [label="{iterated.serialize_forest(rep)}"];')
    for lo, hi in seg.covers:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Segment cache file: a stable line-oriented text format, written only.

def write_segment(seg: QuotientSegment) -> str:
    lines = [f"fhc-segment v1 k={seg.k} nodes={seg.max_nodes} level={seg.max_level}"]
    lines.extend(iterated.serialize_forest(rep) for rep in seg.classes)
    lines.append("covers:")
    lines.extend(f"{lo} {hi}" for lo, hi in seg.covers)
    return "\n".join(lines) + "\n"

