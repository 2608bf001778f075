import math

import pytest

from oracles import avoids_long_crossing
from tamari import classify
from tamari.posets import (
    enumerate_interval_posets,
    make_poset,
    to_interval,
    universe,
)
from tamari.trees import (
    BinaryTree,
    TamariInterval,
    Y,
    enumerate_trees,
    left_comb,
    right_comb,
    tamari_leq,
)


def fuss_catalan(n):
    return math.comb(3 * n, n) // (2 * n + 1)


def new_count_formula(n):
    return (
        3 * 2 ** (n - 2) * math.factorial(2 * n - 2)
        // (math.factorial(n - 1) * math.factorial(n + 1))
    )


class TestHasse:
    def test_empty(self):
        assert classify.hasse(make_poset(3, [])) == frozenset()

    def test_chain(self):
        p = make_poset(3, [(1, 2), (2, 3)])
        assert classify.hasse(p) == {(1, 2), (2, 3)}

    def test_twelve_gon_poset(self, twelve_gon_tree):
        from tamari.noncrossing import nct_to_poset

        p = nct_to_poset(twelve_gon_tree)
        assert classify.hasse(p) == {
            (2, 1), (10, 1), (3, 10), (6, 10), (8, 10),
            (5, 6), (4, 5), (7, 8), (9, 8),
        }


class TestExceptional:
    def test_all_small_posets(self):
        for n in (1, 2):
            assert all(
                classify.is_exceptional(p) for p in enumerate_interval_posets(n)
            )

    def test_forbidden_fork(self):
        assert not classify.is_exceptional(make_poset(3, [(2, 1), (2, 3)]))

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 12), (4, 55), (5, 273)])
    def test_counts(self, n, count):
        got = sum(classify.is_exceptional(p) for p in enumerate_interval_posets(n))
        assert got == count == fuss_catalan(n)


class TestModern:
    def test_needs_three_elements(self):
        assert all(classify.is_modern(p) for p in enumerate_interval_posets(2))

    def test_pattern_direction(self):
        # arrows leaving the middle element are fine...
        assert classify.is_modern(make_poset(3, [(2, 1), (2, 3)]))
        # ...arrows entering it from both sides are not
        assert not classify.is_modern(make_poset(3, [(1, 2), (3, 2)]))

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 12), (4, 56)])
    def test_counts_match_new_shift(self, n, count):
        got = sum(classify.is_modern(p) for p in enumerate_interval_posets(n))
        assert got == count == new_count_formula(n + 1)


class TestNewPoset:
    def test_empty_relation_is_new(self):
        for n in range(1, 5):
            assert classify.is_new_ip(make_poset(n, []))

    def test_increasing_from_one(self):
        assert not classify.is_new_ip(make_poset(2, [(1, 2)]))

    def test_decreasing_from_n(self):
        assert not classify.is_new_ip(make_poset(2, [(2, 1)]))

    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 12), (5, 56)])
    def test_counts(self, n, count):
        got = sum(classify.is_new_ip(p) for p in enumerate_interval_posets(n))
        assert got == count == new_count_formula(n)


class TestStat:
    def test_conventions(self):
        s = classify.stat(make_poset(5, []))
        assert (s.ir, s.dr) == (5, 1)

    def test_direct_reads(self):
        s = classify.stat(make_poset(3, [(1, 2), (3, 2)]))
        assert (s.ir, s.dr) == (1, 3)
        s = classify.stat(make_poset(3, [(2, 1), (2, 3)]))
        assert (s.ir, s.dr) == (2, 2)


class TestInfinitelyModern:
    def test_empty(self):
        assert classify.is_infinitely_modern(make_poset(4, []))

    def test_conflicting_statistic(self):
        assert not classify.is_infinitely_modern(make_poset(3, [(1, 2), (3, 2)]))

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 12), (4, 55), (5, 273)])
    def test_counts(self, n, count):
        got = sum(
            classify.is_infinitely_modern(p) for p in enumerate_interval_posets(n)
        )
        assert got == count

    def test_literal_pattern_is_weaker(self):
        # the strict 4-element pattern misses this non-infinitely-modern poset
        p = make_poset(3, [(1, 2), (3, 2)])
        assert avoids_long_crossing(p)
        assert not classify.is_infinitely_modern(p)

    def test_literal_pattern_only_errs_one_way(self):
        for n in range(1, 5):
            for p in enumerate_interval_posets(n):
                if classify.is_infinitely_modern(p):
                    assert avoids_long_crossing(p)


class TestNewInterval:
    def test_size_one(self):
        assert classify.is_new_interval(TamariInterval(Y, Y))

    def test_size_two(self):
        news = [
            (lower, upper)
            for lower in enumerate_trees(2)
            for upper in enumerate_trees(2)
            if tamari_leq(lower, upper)
            and classify.is_new_interval(TamariInterval(lower, upper))
        ]
        assert news == [(left_comb(2), right_comb(2))]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_agrees_with_poset_criterion(self, n):
        for p in enumerate_interval_posets(n):
            interval = to_interval(p)
            assert classify.is_new_interval(interval) == classify.is_new_ip(p)

    def test_deep_combs(self):
        # 3,000 deep: the spans come from an iterative walk
        n = 3000
        assert classify.is_new_interval(TamariInterval(left_comb(n), right_comb(n)))
        assert classify.leaf_spans(left_comb(n)) == {(1, k + 1) for k in range(1, n + 1)}


class TestNewPair:
    """The new test on leaf spans cached per tree against the same test on
    the two trees of ``to_interval(p)``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_equals_the_interval_test(self, n):
        u = universe(n)
        for p, lower, upper in zip(u.posets, u.lowers, u.uppers):
            assert classify.is_new_pair(n, lower, upper) == (
                classify.is_new_interval(to_interval(p))
            )

    def test_large_balanced_tree(self):
        # 4,095 nodes: the spans of each tree are linear in its size
        t = None
        for _ in range(12):
            t = BinaryTree(t, t)
        assert len(classify.leaf_spans(t)) == 4095
        assert not classify.is_new_interval(TamariInterval(t, t))


def recursive_leaf_spans(t):
    """The recursive leaf-span walk that ``leaf_spans`` replaced."""
    spans = set()

    def go(node, lo):
        # returns index of the first leaf right of this subtree
        if node is None:
            return lo + 1
        mid = go(node.left, lo)
        hi = go(node.right, mid)
        spans.add((lo, hi - 1))
        return hi

    go(t, 1)
    return spans


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7])
def test_leaf_spans_match_the_recursive_walk(n):
    for t in enumerate_trees(n):
        assert classify.leaf_spans(t) == recursive_leaf_spans(t)


class TestNiceShape:
    def test_new_size_two_interval(self):
        shape = classify.nice_shape(TamariInterval(left_comb(2), right_comb(2)))
        assert shape == (Y, Y)
        assert tamari_leq(*shape)

    def test_missing_decomposition(self):
        assert classify.nice_shape(
            TamariInterval(right_comb(2), right_comb(2))
        ) is None

    def test_characterizes_new_at_4(self):
        count = 0
        for p in enumerate_interval_posets(4):
            interval = to_interval(p)
            shape = classify.nice_shape(interval)
            is_new = shape is not None and tamari_leq(shape[0], shape[1])
            assert is_new == classify.is_new_interval(interval)
            count += is_new
        assert count == 12
