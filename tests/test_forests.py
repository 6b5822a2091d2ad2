"""Embedding order, oracle agreement, minimization, and semilattice laws."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fhc.forests import (
    ANTICHAIN,
    LabelPreorder,
    LForest,
    LTree,
    OracleBoundError,
    canonical_decomposition,
    forest,
    h_equiv,
    h_leq,
    h_leq_oracle,
    h_leq_rows,
    is_join_irreducible,
    join,
    minimize,
    seq_product,
    singleton,
    tree,
)
from conftest import all_lforests

CHAIN01 = forest(tree(0, tree(1)))
CHAIN10 = forest(tree(1, tree(0)))
TWO = forest(tree(0), tree(1))

#: labels ordered 0 < 1 < 2 (a total order, unlike the default antichain)
TOTAL = LabelPreorder(lambda a, b: a <= b, "chain")


def ltrees(max_nodes=3, labels=2):
    label = st.integers(0, labels - 1)
    return st.recursive(
        label.map(lambda i: tree(i)),
        lambda kids: st.tuples(label, st.lists(kids, max_size=max_nodes - 1)).map(
            lambda lc: LTree(lc[0], tuple(lc[1]))
        ),
        max_leaves=max_nodes,
    )


def lforests(max_trees=3, **kw):
    return st.lists(ltrees(**kw), max_size=max_trees).map(
        lambda ts: LForest(tuple(ts))
    )


class TestHLeq:
    def test_singleton_reflexive(self):
        assert h_leq(singleton(0), singleton(0), ANTICHAIN)

    def test_singleton_antichain(self):
        assert not h_leq(singleton(0), singleton(1), ANTICHAIN)

    def test_chain_vs_two_singletons(self):
        # expected values confirmed by the definitional oracle below
        assert h_leq_oracle(CHAIN01, TWO, ANTICHAIN) is False
        assert h_leq_oracle(TWO, CHAIN01, ANTICHAIN) is True
        assert not h_leq(CHAIN01, TWO, ANTICHAIN)
        assert h_leq(TWO, CHAIN01, ANTICHAIN)

    def test_empty_forest_is_bottom(self):
        empty = LForest(())
        assert h_leq(empty, CHAIN01, ANTICHAIN)
        assert h_leq(empty, empty, ANTICHAIN)
        assert not h_leq(CHAIN01, empty, ANTICHAIN)

    @pytest.mark.parametrize("q", [ANTICHAIN, TOTAL], ids=["antichain", "chain"])
    def test_rows_match_pairwise(self, q):
        # the family repeats trees across forests and holds equivalent
        # forests, which must carry each other's bits
        fs = all_lforests(2, 3) + [join(TWO, TWO), LForest(())]
        expected = [
            sum(1 << j for j, b in enumerate(fs) if h_leq(a, b, q)) for a in fs
        ]
        assert h_leq_rows(fs, q) == expected
        assert h_leq_rows([], q) == []


class TestOracle:
    def test_agrees_on_reference_cases(self):
        for a, b in [(singleton(0), singleton(0)), (singleton(0), singleton(1)),
                     (CHAIN01, TWO), (TWO, CHAIN01)]:
            assert h_leq_oracle(a, b, ANTICHAIN) == h_leq(a, b, ANTICHAIN)

    def test_empty_source_maps_trivially(self):
        assert h_leq_oracle(LForest(()), TWO, ANTICHAIN)

    def test_duplicate_trees_collapse(self):
        assert h_leq_oracle(forest(tree(0), tree(0)), singleton(0), ANTICHAIN)

    def test_bound_guard(self):
        big = forest(*[tree(0, tree(0), tree(0)) for _ in range(4)])
        with pytest.raises(OracleBoundError):
            h_leq_oracle(big, big, ANTICHAIN, bound=10)

    def test_bound_refusal_names_size_and_bound(self):
        with pytest.raises(OracleBoundError) as err:
            h_leq_oracle(CHAIN01, CHAIN01, ANTICHAIN, bound=1)
        assert str(err.value) == (
            "oracle too large: 2**2 = 4 maps exceed the bound 1 (FHC_ORACLE_BOUND)"
        )

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
        assert minimize(forest(tree(0), tree(0)), ANTICHAIN) == singleton(0)

    def test_branching_tree_becomes_chain(self):
        got = minimize(forest(tree(0, tree(0), tree(1))), ANTICHAIN)
        assert got == CHAIN01
        # brute force: no equivalent forest with fewer nodes exists
        src = forest(tree(0, tree(0), tree(1)))
        for other in all_lforests(2, 1):
            assert not (
                h_leq_oracle(src, other, ANTICHAIN)
                and h_leq_oracle(other, src, ANTICHAIN)
            )

    def test_singleton_fixed(self):
        for i in range(3):
            assert minimize(singleton(i), ANTICHAIN) == singleton(i)

    def test_root_below_single_child_dropped(self):
        # over the total order 0 < 1, the chain 0->1 collapses to {1}
        assert minimize(CHAIN01, TOTAL) == singleton(1)

    def test_path_through_root_label_spliced(self):
        # 0 -> 0 -> 1 keeps only one 0 on the path
        got = minimize(forest(tree(0, tree(0, tree(1)))), ANTICHAIN)
        assert got == CHAIN01


def test_minimize_is_optimal_exhaustively():
    fs = all_lforests(2, 4)
    by_size: dict[int, list[LForest]] = {}
    for f in fs:
        by_size.setdefault(f.size, []).append(f)
    for f in fs:
        m = minimize(f, ANTICHAIN)
        assert h_equiv(m, f, ANTICHAIN)
        for smaller_size in range(m.size):
            for other in by_size.get(smaller_size, []):
                assert not h_equiv(other, f, ANTICHAIN), (f, m, other)


def test_minimize_is_optimal_three_colors():
    fs = all_lforests(3, 3)
    by_size: dict[int, list[LForest]] = {}
    for f in fs:
        by_size.setdefault(f.size, []).append(f)
    for f in fs:
        m = minimize(f, ANTICHAIN)
        assert h_equiv(m, f, ANTICHAIN)
        for size in range(m.size):
            for other in by_size.get(size, []):
                assert not h_equiv(other, f, ANTICHAIN), (f, m, other)


def test_minimal_equivalent_forests_have_equal_size():
    fs = all_lforests(2, 3)
    for a, b in itertools.combinations(fs, 2):
        if h_equiv(a, b, ANTICHAIN):
            assert minimize(a, ANTICHAIN).size == minimize(b, ANTICHAIN).size


@settings(max_examples=100, deadline=None)
@given(lforests())
def test_minimize_properties(f):
    m = minimize(f, ANTICHAIN)
    assert h_equiv(m, f, ANTICHAIN)
    assert m.size <= f.size
    # minimality criteria on the output
    for t in m.trees:
        for c in t.children:
            assert not ANTICHAIN.leq(c.label, t.label)
        if len(t.children) == 1:
            assert not ANTICHAIN.leq(t.label, t.children[0].label)
    for a, b in itertools.combinations(m.trees, 2):
        assert not h_leq(forest(a), forest(b), ANTICHAIN)
        assert not h_leq(forest(b), forest(a), ANTICHAIN)


class TestJoinIrreducible:
    def test_singleton(self):
        assert is_join_irreducible(singleton(0), ANTICHAIN)

    def test_two_singletons(self):
        assert not is_join_irreducible(TWO, ANTICHAIN)

    def test_branching_tree(self):
        assert is_join_irreducible(forest(tree(0, tree(0), tree(1))), ANTICHAIN)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="bottom"):
            is_join_irreducible(LForest(()), ANTICHAIN)


class TestDecomposition:
    def test_two_components(self):
        assert canonical_decomposition(TWO, ANTICHAIN) == (tree(0), tree(1))

    def test_duplicate_removed(self):
        got = canonical_decomposition(forest(tree(0), tree(0), tree(1)), ANTICHAIN)
        assert got == (tree(0), tree(1))

    def test_minimal_tree_is_its_own_component(self):
        assert canonical_decomposition(CHAIN01, ANTICHAIN) == CHAIN01.trees

    def test_empty_forest_empty_family(self):
        assert canonical_decomposition(LForest(()), ANTICHAIN) == ()


class TestJoin:
    def test_concatenation(self):
        assert join(singleton(0), singleton(1)) == TWO

    def test_bottom_neutral(self):
        assert join(CHAIN01, LForest(())) == CHAIN01

    def test_idempotent_up_to_equivalence(self):
        j = join(singleton(0), singleton(0))
        assert j == forest(tree(0), tree(0))
        assert h_equiv(j, singleton(0), ANTICHAIN)


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
        assert seq_product(singleton(0), singleton(1)) == CHAIN01

    def test_associative_on_chains(self):
        left = seq_product(seq_product(singleton(0), singleton(1)), singleton(0))
        right = seq_product(singleton(0), seq_product(singleton(1), singleton(0)))
        expected = forest(tree(0, tree(1, tree(0))))
        assert left == expected and right == expected

    def test_copies_above_every_leaf(self):
        got = seq_product(TWO, singleton(0))
        assert got == forest(tree(0, tree(0)), tree(1, tree(0)))

    def test_empty_left_returns_right(self):
        assert seq_product(LForest(()), TWO) == TWO

    def test_empty_right_returns_left(self):
        assert seq_product(TWO, LForest(())) == TWO


@settings(max_examples=100, deadline=None)
@given(lforests(), lforests())
def test_join_below_product(f, g):
    assert h_leq(join(f, g), seq_product(f, g), ANTICHAIN)


@settings(max_examples=60, deadline=None)
@given(lforests(max_trees=2), lforests(max_trees=2), lforests(max_trees=2))
def test_product_associative_up_to_equivalence(f, g, h):
    a = seq_product(seq_product(f, g), h)
    b = seq_product(f, seq_product(g, h))
    assert h_equiv(a, b, ANTICHAIN)
