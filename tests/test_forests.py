"""Embedding order, oracle agreement, minimization, and semilattice laws,
on k-labeled forests: the level-1 iterated forests, colors under equality."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fhc import forests
from fhc.forests import (
    ANTICHAIN,
    BoundError,
    OracleBoundError,
    canonical_decomposition,
    h_leq,
    h_leq_oracle,
    is_join_irreducible,
    minimize,
    seq_product,
)
from fhc.iterated import (
    IForest,
    ITree,
    colim_leq,
    color,
    color_forest,
    iforest,
    iminimize,
    itree,
    join,
    singleton,
)
from conftest import all_lforests, h_leq_rows


def equivalent(a: IForest, b: IForest) -> bool:
    """Whether each of ``a`` and ``b`` embeds into the other."""
    return h_leq(a, b, ANTICHAIN) and h_leq(b, a, ANTICHAIN)


def tree(i: int, *children: ITree) -> ITree:
    """The level-1 tree with color ``i`` at its root over ``children``."""
    return itree(color(i), *children)


def single(i: int) -> IForest:
    return singleton(tree(i))


#: the empty forest, as ``all_lforests`` yields it
EMPTY = IForest(0)
CHAIN01 = iforest(tree(0, tree(1)))
TWO = iforest(tree(0), tree(1))

def total(a: ITree, b: ITree) -> bool:
    """Colors ordered 0 < 1 < 2: a total order, unlike the default antichain."""
    return a.label <= b.label


def ltrees(max_nodes=3, labels=2):
    label = st.integers(0, labels - 1).map(color)
    return st.recursive(
        label.map(lambda c: ITree(1, c)),
        lambda kids: st.tuples(label, st.lists(kids, max_size=max_nodes - 1)).map(
            lambda lc: ITree(1, lc[0], tuple(lc[1]))
        ),
        max_leaves=max_nodes,
    )


def lforests(max_trees=3, **kw):
    return st.lists(ltrees(**kw), max_size=max_trees).map(
        lambda ts: IForest(1, tuple(ts))
    )


class TestHLeq:
    def test_singleton_reflexive(self):
        assert h_leq(single(0), single(0), ANTICHAIN)

    def test_singleton_antichain(self):
        assert not h_leq(single(0), single(1), ANTICHAIN)

    def test_chain_vs_two_singletons(self):
        # expected values confirmed by the definitional oracle below
        assert h_leq_oracle(CHAIN01, TWO, ANTICHAIN) is False
        assert h_leq_oracle(TWO, CHAIN01, ANTICHAIN) is True
        assert not h_leq(CHAIN01, TWO, ANTICHAIN)
        assert h_leq(TWO, CHAIN01, ANTICHAIN)

    def test_empty_forest_is_bottom(self):
        assert h_leq(EMPTY, CHAIN01, ANTICHAIN)
        assert h_leq(EMPTY, EMPTY, ANTICHAIN)
        assert not h_leq(CHAIN01, EMPTY, ANTICHAIN)

    @pytest.mark.parametrize("q", [ANTICHAIN, total], ids=["antichain", "chain"])
    def test_rows_match_pairwise(self, q):
        # the reference rows that the segment order table is checked against;
        # the family repeats trees across forests and holds equivalent
        # forests, which must carry each other's bits
        fs = all_lforests(2, 3) + [join(TWO, TWO), EMPTY]
        expected = [
            sum(1 << j for j, b in enumerate(fs) if h_leq(a, b, q)) for a in fs
        ]
        assert h_leq_rows(fs, q) == expected
        assert h_leq_rows([], q) == []


def test_label_orders_see_colors_as_trees():
    # a color is its own label: a label order is called on level-0 trees,
    # never on the ints they carry, by the recursion and the map search alike
    seen = []

    def recording(a, b):
        seen.extend((a, b))
        return a is b

    fs = [color_forest(0), color_forest(0, 1), color_forest(1, 1), CHAIN01, TWO,
          iforest(tree(1, tree(0), tree(1)))]
    for a, b in itertools.product(fs, repeat=2):
        assert h_leq(a, b, recording) == h_leq_oracle(a, b, recording) == colim_leq(a, b)
    assert seen and all(type(x) is ITree and x.level == 0 for x in seen)
    assert {x.label for x in seen} == {0, 1}


def test_k_labeled_order_is_the_level_1_order():
    # a k-labeled forest is a level-1 iterated forest: the paper's order and
    # minimization over labels under equality are the iterated ones
    fs = all_lforests(3, 3)
    for a, b in itertools.product(fs, fs):
        assert h_leq(a, b, ANTICHAIN) == colim_leq(a, b), (a, b)
    for f in fs:
        assert minimize(f, ANTICHAIN) == iminimize(f), f


class TestOracle:
    def test_agrees_on_reference_cases(self):
        for a, b in [(single(0), single(0)), (single(0), single(1)),
                     (CHAIN01, TWO), (TWO, CHAIN01)]:
            assert h_leq_oracle(a, b, ANTICHAIN) == h_leq(a, b, ANTICHAIN)

    def test_empty_source_maps_trivially(self):
        assert h_leq_oracle(EMPTY, TWO, ANTICHAIN)

    def test_duplicate_trees_collapse(self):
        assert h_leq_oracle(iforest(tree(0), tree(0)), single(0), ANTICHAIN)

    def test_bound_guard(self):
        big = iforest(*[tree(0, tree(0), tree(0)) for _ in range(4)])
        with pytest.raises(OracleBoundError):
            h_leq_oracle(big, big, ANTICHAIN, bound=10)

    def test_bound_refusal_names_size_and_bound(self):
        with pytest.raises(OracleBoundError) as err:
            h_leq_oracle(CHAIN01, CHAIN01, ANTICHAIN, bound=1)
        assert isinstance(err.value, BoundError)
        assert err.value.args == ("oracle", "2**2 = 4 maps", "1, FHC_ORACLE_BOUND")
        assert str(err.value) == "oracle too large: 2**2 = 4 maps (bound 1, FHC_ORACLE_BOUND)"

    def test_exhaustive_agreement_small(self):
        fs = all_lforests(2, 3)
        for a, b in itertools.product(fs, fs):
            assert h_leq(a, b, ANTICHAIN) == h_leq_oracle(a, b, ANTICHAIN), (a, b)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("FHC_ORACLE_BOUND", "1")
        with pytest.raises(OracleBoundError):
            h_leq_oracle(TWO, TWO, ANTICHAIN)


@settings(max_examples=150, deadline=None)
@given(lforests(), lforests(), lforests())
def test_h_leq_preorder_laws(a, b, c):
    assert h_leq(a, a, ANTICHAIN)
    if h_leq(a, b, ANTICHAIN) and h_leq(b, c, ANTICHAIN):
        assert h_leq(a, c, ANTICHAIN)


_small = lforests(max_trees=2, max_nodes=3).filter(lambda f: f.size <= 5)


@settings(max_examples=150, deadline=None)
@given(_small, _small)
def test_h_leq_matches_oracle(a, b):
    assert h_leq(a, b, ANTICHAIN) == h_leq_oracle(a, b, ANTICHAIN)


class TestMinimize:
    def test_duplicate_tree_deleted(self):
        assert minimize(iforest(tree(0), tree(0)), ANTICHAIN) == single(0)

    def test_branching_tree_becomes_chain(self):
        got = minimize(iforest(tree(0, tree(0), tree(1))), ANTICHAIN)
        assert got == CHAIN01
        # brute force: no equivalent forest with fewer nodes exists
        src = iforest(tree(0, tree(0), tree(1)))
        for other in all_lforests(2, 1):
            assert not (
                h_leq_oracle(src, other, ANTICHAIN)
                and h_leq_oracle(other, src, ANTICHAIN)
            )

    def test_singleton_fixed(self):
        for i in range(3):
            assert minimize(single(i), ANTICHAIN) == single(i)

    def test_root_below_single_child_dropped(self):
        # over the total order 0 < 1, the chain 0->1 collapses to {1}
        assert minimize(CHAIN01, total) == single(1)

    def test_path_through_root_label_spliced(self):
        # 0 -> 0 -> 1 keeps only one 0 on the path
        got = minimize(iforest(tree(0, tree(0, tree(1)))), ANTICHAIN)
        assert got == CHAIN01

    def test_chain_minimizes_each_node_once(self, monkeypatch):
        # the children are minimal once minimized, and so is all that splicing
        # brings up: 21 calls on a 21-node chain, not one per root-to-node path
        chain = tree(0)
        for i in range(20):
            chain = tree((i + 1) % 2, chain)
        calls = []
        real = forests._min_tree

        def counting(t, q):
            calls.append(t)
            return real(t, q)

        monkeypatch.setattr(forests, "_min_tree", counting)
        assert minimize(singleton(chain), ANTICHAIN).trees[0] is chain
        assert len(calls) == 21


def test_minimize_is_optimal_exhaustively():
    fs = all_lforests(2, 4)
    by_size: dict[int, list[IForest]] = {}
    for f in fs:
        by_size.setdefault(f.size, []).append(f)
    for f in fs:
        m = minimize(f, ANTICHAIN)
        assert equivalent(m, f)
        for smaller_size in range(m.size):
            for other in by_size.get(smaller_size, []):
                assert not equivalent(other, f), (f, m, other)


def test_minimize_is_optimal_three_colors():
    fs = all_lforests(3, 3)
    by_size: dict[int, list[IForest]] = {}
    for f in fs:
        by_size.setdefault(f.size, []).append(f)
    for f in fs:
        m = minimize(f, ANTICHAIN)
        assert equivalent(m, f)
        for size in range(m.size):
            for other in by_size.get(size, []):
                assert not equivalent(other, f), (f, m, other)


def test_minimal_equivalent_forests_have_equal_size():
    fs = all_lforests(2, 3)
    for a, b in itertools.combinations(fs, 2):
        if equivalent(a, b):
            assert minimize(a, ANTICHAIN).size == minimize(b, ANTICHAIN).size


@settings(max_examples=100, deadline=None)
@given(lforests())
def test_minimize_properties(f):
    m = minimize(f, ANTICHAIN)
    assert equivalent(m, f)
    assert m.size <= f.size
    # minimality criteria on the output
    for t in m.trees:
        for c in t.children:
            assert not ANTICHAIN(c.label, t.label)
        if len(t.children) == 1:
            assert not ANTICHAIN(t.label, t.children[0].label)
    for a, b in itertools.combinations(m.trees, 2):
        assert not h_leq(singleton(a), singleton(b), ANTICHAIN)
        assert not h_leq(singleton(b), singleton(a), ANTICHAIN)


class TestJoinIrreducible:
    def test_singleton(self):
        assert is_join_irreducible(single(0), ANTICHAIN)

    def test_two_singletons(self):
        assert not is_join_irreducible(TWO, ANTICHAIN)

    def test_branching_tree(self):
        assert is_join_irreducible(iforest(tree(0, tree(0), tree(1))), ANTICHAIN)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="bottom"):
            is_join_irreducible(EMPTY, ANTICHAIN)


class TestDecomposition:
    def test_two_components(self):
        assert canonical_decomposition(TWO, ANTICHAIN) == (tree(0), tree(1))

    def test_duplicate_removed(self):
        got = canonical_decomposition(iforest(tree(0), tree(0), tree(1)), ANTICHAIN)
        assert got == (tree(0), tree(1))

    def test_minimal_tree_is_its_own_component(self):
        assert canonical_decomposition(CHAIN01, ANTICHAIN) == CHAIN01.trees

    def test_empty_forest_empty_family(self):
        assert canonical_decomposition(EMPTY, ANTICHAIN) == ()


class TestJoin:
    def test_concatenation(self):
        assert join(single(0), single(1)) == TWO

    def test_bottom_neutral(self):
        assert join(CHAIN01, EMPTY) == CHAIN01

    def test_idempotent_up_to_equivalence(self):
        j = join(single(0), single(0))
        assert j == iforest(tree(0), tree(0))
        assert equivalent(j, single(0))


def test_join_is_least_upper_bound():
    fs = all_lforests(2, 2)
    for a, b in itertools.product(fs, fs):
        j = join(a, b)
        assert h_leq(a, j, ANTICHAIN) and h_leq(b, j, ANTICHAIN)
        for h in fs:
            if h_leq(a, h, ANTICHAIN) and h_leq(b, h, ANTICHAIN):
                assert h_leq(j, h, ANTICHAIN)


def test_join_irreducible_distributes():
    fs = all_lforests(2, 2)
    for f in fs:
        if f.is_empty() or not is_join_irreducible(f, ANTICHAIN):
            continue
        for g, h in itertools.product(fs, fs):
            if h_leq(f, join(g, h), ANTICHAIN):
                assert h_leq(f, g, ANTICHAIN) or h_leq(f, h, ANTICHAIN)


class TestSeqProduct:
    def test_single_leaf(self):
        assert seq_product(single(0), single(1)) == CHAIN01

    def test_associative_on_chains(self):
        left = seq_product(seq_product(single(0), single(1)), single(0))
        right = seq_product(single(0), seq_product(single(1), single(0)))
        expected = iforest(tree(0, tree(1, tree(0))))
        assert left == expected and right == expected

    def test_copies_above_every_leaf(self):
        got = seq_product(TWO, single(0))
        assert got == iforest(tree(0, tree(0)), tree(1, tree(0)))

    def test_empty_left_returns_right(self):
        assert seq_product(EMPTY, TWO) == TWO

    def test_empty_right_returns_left(self):
        assert seq_product(TWO, EMPTY) == TWO


@settings(max_examples=100, deadline=None)
@given(lforests(), lforests())
def test_join_below_product(f, g):
    assert h_leq(join(f, g), seq_product(f, g), ANTICHAIN)


@settings(max_examples=60, deadline=None)
@given(lforests(max_trees=2), lforests(max_trees=2), lforests(max_trees=2))
def test_product_associative_up_to_equivalence(f, g, h):
    a = seq_product(seq_product(f, g), h)
    b = seq_product(f, seq_product(g, h))
    assert equivalent(a, b)
