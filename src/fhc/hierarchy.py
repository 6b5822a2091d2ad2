"""Level semantics over the discrete space of naturals.

A level descriptor is a nonempty iterated forest; the corresponding class
of k-partitions is never materialized.  Verdicts about inclusion between
levels are read off the embedding order of the descriptors, which is sound
and complete here: descriptor order implies level inclusion, and the
hierarchy does not collapse, so non-order implies non-inclusion.  The
complete member of a level is returned symbolically, as the mind-change
term of the descriptor.

The quotient machinery enumerates the minimal forests within resource
bounds, one per equivalence class, and emits the resulting poset as a Hasse
diagram (DOT text) or a line-oriented cache file.  Both outputs are
deterministic, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from . import forests, iterated, notation, terms
from .iterated import LABEL_ORDER, IForest
from .terms import GTerm

EQUAL = "equal"
SUBSET = "subset"
SUPERSET = "superset"
INCOMPARABLE = "incomparable"

DEFAULT_SEGMENT_BOUND = 200_000


class SegmentBoundError(RuntimeError):
    """Raised when the requested segment enumeration is too large."""


@dataclass(frozen=True)
class LevelDescriptor:
    """Index of one hierarchy level; join-irreducible descriptors are the
    non-self-dual levels (single trees)."""

    forest: IForest

    def __post_init__(self) -> None:
        if self.forest.is_empty():
            raise ValueError("a level descriptor needs a nonempty forest")


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


def complete_witness(t: LevelDescriptor, shift: int = 0) -> GTerm:
    """A symbolic description of a partition complete in the level.

    The term is read as a nested mind-change procedure over iterated jump
    oracles; it is never evaluated as an actual numbering.
    """
    return terms.s_to_g(terms.encode(t.forest, shift))


# ---------------------------------------------------------------------------
# Quotient segments.

@dataclass(frozen=True)
class QuotientSegment:
    """An initial segment of the quotient poset.

    ``classes`` holds one minimal canonical representative per equivalence
    class; ``covers`` is the transitive reduction of the strict order, as
    (lower index, upper index) pairs.
    """

    k: int
    max_nodes: int
    max_level: int
    classes: tuple[IForest, ...]
    covers: tuple[tuple[int, int], ...]


def enumerate_segment(
    k: int, max_nodes: int, max_level: int, bound: int = DEFAULT_SEGMENT_BOUND
) -> QuotientSegment:
    """The classes of the forests within the bounds, with their covers.

    Each class comes from its minimal forest alone, named as
    ``iterated.representative`` names it; classes appear in order of their
    smallest member.  Refuse when the raw forests exceed ``bound``.
    """
    if k < 0:
        raise ValueError(f"alphabet size k must be non-negative, got {k}")
    total = iterated.count_forests(k, max_nodes, max_level)
    if total > bound:
        raise SegmentBoundError(
            f"segment too large: {total} forests exceed the bound {bound}"
        )
    minimal = iterated.minimal_forests(k, max_nodes, max_level)
    reps = list(dict.fromkeys(iterated.canonical(iterated.unlift(f)) for f in minimal))
    covers = _transitive_reduction(reps)
    return QuotientSegment(k, max_nodes, max_level, tuple(reps), covers)


def _transitive_reduction(reps: list[IForest]) -> tuple[tuple[int, int], ...]:
    # the strict order as bitset rows, decided on the classes at their own levels
    rows = forests.h_leq_rows(reps, LABEL_ORDER)
    less = [row & ~(1 << i) for i, row in enumerate(rows)]
    through = [reduce(or_, (less[m] for m in _bits(row)), 0) for row in less]
    return tuple((i, j) for i, row in enumerate(less) for j in _bits(row & ~through[i]))


def _bits(x: int) -> list[int]:
    """The indices of the set bits of ``x``, ascending."""
    return [m for m, bit in enumerate(reversed(bin(x))) if bit == "1"]


def hasse_dot(seg: QuotientSegment) -> str:
    """The segment as a DOT digraph, one node per class, one edge per cover."""
    lines = ["digraph segment {", "  rankdir=BT;"]
    for idx, rep in enumerate(seg.classes):
        lines.append(f'  n{idx} [label="{notation.serialize_forest(rep)}"];')
    for lo, hi in sorted(seg.covers):
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Segment cache file: a stable line-oriented text format.

def write_segment(seg: QuotientSegment) -> str:
    lines = [f"fhc-segment v1 k={seg.k} nodes={seg.max_nodes} level={seg.max_level}"]
    lines.extend(notation.serialize_forest(rep) for rep in seg.classes)
    lines.append("covers:")
    lines.extend(f"{lo} {hi}" for lo, hi in sorted(seg.covers))
    return "\n".join(lines) + "\n"


def read_segment(text: str) -> QuotientSegment:
    """Parse the cache format; any malformed file raises ``ValueError``."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty segment file")
    header = lines[0].split()
    if header[:2] != ["fhc-segment", "v1"]:
        raise ValueError(f"not a segment file: {lines[0]!r}")
    params = {}
    for item in header[2:]:
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"segment header item without '=': {item!r}")
        params[key] = value
    try:
        k, nodes, level = (int(params[key]) for key in ("k", "nodes", "level"))
    except KeyError as exc:
        raise ValueError(f"segment header lacks {exc.args[0]}=") from None
    classes: list[IForest] = []
    covers: list[tuple[int, int]] = []
    in_covers = False
    for line in lines[1:]:
        if not line.strip():
            continue
        if line.strip() == "covers:":
            in_covers = True
            continue
        if in_covers:
            try:
                lo, hi = map(int, line.split())
            except ValueError:
                raise ValueError(f"cover line is not two indices: {line!r}") from None
            if min(lo, hi) < 0 or max(lo, hi) >= len(classes):
                raise ValueError(f"cover {line!r} names no class of {len(classes)}")
            covers.append((lo, hi))
        else:
            classes.append(notation.parse_forest(line, k))
    return QuotientSegment(k, nodes, level, tuple(classes), tuple(covers))
