"""Seeded inputs for the fhc benchmark.

Every workload is a list of ``Call`` records: the argv handed to
``python -m fhc`` plus what the correctness gate needs to know about it.
Inputs are generated here, from the seed alone, without importing the
program: a change to ``fhc`` cannot change what the benchmark feeds it.

``queries`` is stratified so that two seeds stress the same layers by the
same amount: the command of each slot, its node count (a log-uniform grid
from 1 to ``MAX_NODES``), its alphabet size, its nesting level and the kind
of its second operand are fixed; the seed draws tree shapes, colors, label
sizes, the extra trees of ``cmp`` partners and the order of operands.

Shapes are bounded so that every input succeeds at the commit that defined
the benchmark.  Trees are at most ``MAX_DEPTH`` deep, nodes have at most
``MAX_BRANCH`` children and forests at most ``MAX_TREES`` trees (twice as
many in the superset operand of a comparison).  Unbounded
inputs still fail in the program with ``RecursionError``: ``encode`` turns
``n`` siblings into an ``n``-long ``Join`` chain that the term printer
recurses through, a 300-node chain breaks ``cmp``, and 500-deep nesting
breaks ``min``.  Making those inputs succeed is separate work with its own
workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

MAX_NODES = 6000
MAX_DEPTH = 6
MAX_BRANCH = 8
MAX_TREES = 8
#: ``cmp --oracle`` pairs stay far inside the default map-search bound
#: (|b| ** |a| <= 10**7): at most this many top-level nodes per operand
ORACLE_NODES = 5

#: ordinals for ``build-T``; the ROADMAP names ``w^2*2+w+3``
ORDINALS = ("0", "3", "w", "w+1", "w*2", "w^2", "w^2*2+w+3", "w^3")

#: command of each ``queries`` slot, in slot order
QUERY_MIX = (
    ("cmp", 8), ("cmp-n1", 6), ("cmp-oracle", 6), ("level-subset", 7),
    ("min", 8), ("decompose", 8), ("encode", 8), ("witness", 7),
    ("eval", 8), ("g2s", 7), ("s2g", 7), ("jump-height", 7),
    ("normalize", 7), ("build-T", 6),
)

#: the calls of ``segments``: a wide segment, whose time goes to raw
#: enumeration, then a dense one, whose time goes to comparisons.  They run as
#: one workload, not two: on its own the 6-second wide call strayed by up to a
#: quarter from one 40-second run to the next, as the host's speed drifted.
SEGMENTS = (
    ("enumerate", "--k", "2", "--nodes", "5", "--level", "2"),
    ("diagram", "--k", "4", "--nodes", "4", "--level", "1"),
)
#: the same segments shrunk for the smoke test
TINY_SEGMENTS = (
    ("enumerate", "--k", "2", "--nodes", "3", "--level", "2"),
    ("diagram", "--k", "3", "--nodes", "2", "--level", "1"),
)


@dataclass(frozen=True)
class Call:
    """One CLI invocation.  ``pair`` holds the two forest texts of an
    oracle-sized ``cmp`` with its ``--n`` and ``--k``, for the gate."""

    argv: tuple[str, ...]
    pair: tuple[str, str, int, int] | None = None


# ---------------------------------------------------------------------------
# Random forests as nested tuples: a color is an int, a tree of level >= 1 is
# (label, children), a forest is (level, trees).


def _shape(rng: random.Random, nodes: int) -> list[list[int]]:
    """Child lists of a random rooted tree: depth and branching bounded."""
    children: list[list[int]] = [[]]
    depth = [0]
    open_ = [0]  # nodes that may still take a child
    for node in range(1, nodes):
        i = rng.randrange(len(open_))
        parent = open_[i]
        children[parent].append(node)
        children.append([])
        depth.append(depth[parent] + 1)
        if len(children[parent]) == MAX_BRANCH:
            open_[i] = open_[-1]
            open_.pop()
        if depth[node] < MAX_DEPTH:
            open_.append(node)
    return children


def _parts(rng: random.Random, total: int, count: int) -> list[int]:
    """A random composition of ``total`` into ``count`` positive parts."""
    cuts = sorted(rng.sample(range(1, total), count - 1)) if count > 1 else []
    bounds = [0, *cuts, total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _tree(rng: random.Random, k: int, level: int, size: int):
    """A random tree of ``level`` with exactly ``size`` colors in it."""
    if level == 0:
        return rng.randrange(k)
    # at level 1 every label is one color; higher labels share the size
    nodes = size if level == 1 else max(1, size // 3)
    nodes = min(nodes, (MAX_BRANCH ** (MAX_DEPTH + 1) - 1) // (MAX_BRANCH - 1))
    labels = [_tree(rng, k, level - 1, s) for s in _parts(rng, size, nodes)]
    kids = _shape(rng, nodes)

    def build(i: int):
        return (labels[i], [build(c) for c in kids[i]])

    return build(0)


def random_forest(rng: random.Random, k: int, level: int, size: int):
    count = rng.randint(1, min(size, MAX_TREES))
    return (level, [_tree(rng, k, level, s) for s in _parts(rng, size, count)])


def tree_text(t, level: int) -> str:
    if level == 0:
        return str(t)
    label, kids = t
    head = tree_text(label, level - 1)
    if not kids:
        return f"[{head}]"
    return f"[{head}:{','.join(tree_text(c, level) for c in kids)}]"


def forest_text(f) -> str:
    level, trees = f
    return "{" + ",".join(tree_text(t, level) for t in trees) + "}"


# ---------------------------------------------------------------------------
# Terms: the encoding of a forest, built here from its definition.  A term
# is ("c", color) | ("+", u, v) | (".", grade, u, v) | ("G", a, b, c).


def _join_all(parts):
    out = parts[0]
    for p in parts[1:]:
        out = ("+", out, p)
    return out


def _encode_tree(t, level: int, shift: int):
    if level == 0:
        return ("c", t)
    label, kids = t
    head = _encode_tree(label, level - 1, shift + 1)
    if not kids:
        return head
    return (".", shift, head, _join_all([_encode_tree(c, level, shift) for c in kids]))


def encode(f, shift: int):
    level, trees = f
    return _join_all([_encode_tree(t, level, shift) for t in trees])


def _jump(grade: int):
    u = ("c", 0)
    for _ in range(grade):
        u = ("G", ("c", 0), ("c", 1), u)
    return u


def s_to_g(u):
    if u[0] == "c":
        return u
    if u[0] == "+":
        return ("+", s_to_g(u[1]), s_to_g(u[2]))
    _, grade, left, right = u
    return ("G", s_to_g(right), s_to_g(left), _jump(grade))


def term_text(u) -> str:
    if u[0] == "c":
        return str(u[1])
    if u[0] == "+":
        return f"({term_text(u[1])}+{term_text(u[2])})"
    if u[0] == ".":
        return f"({term_text(u[2])} .{u[1]} {term_text(u[3])})"
    return "G(" + ",".join(term_text(x) for x in u[1:]) + ")"


# ---------------------------------------------------------------------------
# Workloads.


def _slots():
    """(command, node count, k, level, variant) per slot; independent of the
    seed.  ``variant`` counts the slots of one command and picks the kind of
    input where a command takes several."""
    commands = [(cmd, j) for cmd, n in QUERY_MIX for j in range(n)]
    sized = [i for i, (cmd, _) in enumerate(commands)
             if cmd not in ("cmp-oracle", "build-T")]
    # the log-uniform grid is dealt to the sized slots by a fixed shuffle,
    # so every command sees small and large inputs
    grid = [round(math.exp((j + 0.5) / len(sized) * math.log(MAX_NODES)))
            for j in range(len(sized))]
    random.Random("fhc-bench-grid").shuffle(grid)
    nodes = dict(zip(sized, grid))
    return [(cmd, nodes.get(i, 0), 2 + i % 3, i % 4, j)
            for i, (cmd, j) in enumerate(commands)]


def queries(seed: int, tiny: bool = False) -> list[Call]:
    """The ``queries`` list; ``tiny`` keeps one slot per command with a
    hundredth of its nodes, for the smoke test."""
    rng = random.Random(seed)
    slots = _slots()
    if tiny:
        first: dict[str, tuple] = {}
        for cmd, nodes, k, level, variant in slots:
            first.setdefault(cmd, (cmd, max(1, nodes // 100), k, level, variant))
        slots = list(first.values())
    return [_call(rng, *slot) for slot in slots]


def _call(rng: random.Random, cmd: str, nodes: int, k: int, level: int,
          variant: int) -> Call:
    ks = ["--k", str(k)]
    if cmd == "build-T":
        return Call(("build-T", rng.choice(ORDINALS), str(rng.randrange(k)),
                     *ks, "--n", str(rng.randrange(2))))
    if cmd == "cmp-oracle":
        n = rng.randrange(2)
        a = random_forest(rng, k, rng.randrange(3), rng.randint(1, ORACLE_NODES))
        b = random_forest(rng, k, rng.randrange(3), rng.randint(1, ORACLE_NODES))
        a_text, b_text = forest_text(a), forest_text(b)
        return Call(("cmp", a_text, b_text, *ks, "--n", str(n), "--oracle"),
                    (a_text, b_text, n, k))
    forest = random_forest(rng, k, level, nodes)
    if cmd in ("cmp", "cmp-n1", "level-subset"):
        other = _partner(rng, k, forest, variant)
        a, b = forest_text(forest), forest_text(other)
        if rng.random() < 0.5:
            a, b = b, a
        n = 1 if cmd == "cmp-n1" else 0
        pair = (a, b, n, k) if max(nodes, _size(other)) <= ORACLE_NODES else None
        if cmd == "level-subset":
            return Call(("level-subset", a, b, *ks), pair)
        return Call(("cmp", a, b, *ks, "--n", str(n)), pair)
    if cmd in ("min", "decompose"):
        return Call((cmd, forest_text(forest), *ks))
    shift = rng.randrange(3)
    if cmd in ("encode", "witness"):
        return Call((cmd, forest_text(forest), *ks, "--n", str(shift)))
    term = encode(forest, shift)
    top = shift + level  # every grade lies in [shift, top)
    if cmd == "eval":
        text = term_text(s_to_g(term) if variant % 2 else term)
        return Call(("eval", text, *ks))
    if cmd == "g2s":
        return Call(("g2s", term_text(s_to_g(term))))
    if cmd == "s2g":
        return Call(("s2g", term_text(term)))
    if cmd == "jump-height":
        return Call(("jump-height", term_text(s_to_g(term))))
    if cmd == "normalize":
        if variant % 2:
            return Call(("normalize", term_text(term), "--n", str(top + rng.randrange(2))))
        low = rng.randrange(top + 1)
        return Call(("normalize", term_text(term), "--n", str(low),
                     "--m", str(top - low + 1 + rng.randrange(2))))
    raise ValueError(f"unknown query command {cmd!r}")


def _size(f) -> int:
    def tree_size(t, level):
        if level == 0:
            return 1
        label, kids = t
        return tree_size(label, level - 1) + sum(tree_size(c, level) for c in kids)

    level, trees = f
    return sum(tree_size(t, level) for t in trees)


def _partner(rng: random.Random, k: int, forest, variant: int):
    """A second operand: a superset of ``forest`` (the comparison must
    visit every tree), a fresh forest of the same size, or the same one."""
    level, trees = forest
    kind = variant % 5
    if kind < 2:
        extra = random_forest(rng, k, level, max(1, _size(forest) // 4))[1]
        merged = trees + extra
        rng.shuffle(merged)
        return (level, merged)
    if kind < 4:
        return random_forest(rng, k, rng.randrange(4), _size(forest))
    return forest


def workload(name: str, seed: int, tiny: bool = False) -> list[Call]:
    if name == "queries":
        return queries(seed, tiny)
    return [Call(argv) for argv in (TINY_SEGMENTS if tiny else SEGMENTS)]


WORKLOADS = ("queries", "segments")
