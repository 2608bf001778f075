import math

import pytest
from hypothesis import given, strategies as st

from oracles import (
    covers,
    dec_relations,
    graft,
    inc_relations,
    mirror,
    recursive_tree_repr,
    recursive_tree_to_text,
    span_or_relation_masks,
    transitive_closure,
    tree_from_text,
    tree_relations,
)
from tamari.trees import (
    Y,
    BinaryTree,
    TamariInterval,
    enumerate_trees,
    left_comb,
    relation_masks,
    right_comb,
    size,
    tamari_leq,
    tree_from_obj,
    tree_to_obj,
    tree_to_text,
)


def catalan(n):
    # independent of the enumeration: closed binomial formula
    return math.comb(2 * n, n) // (n + 1)


def random_tree(draw, n):
    trees = enumerate_trees(n)
    return trees[draw.draw(st.integers(0, len(trees) - 1))]


small_trees = st.integers(0, 6).flatmap(
    lambda n: st.sampled_from(enumerate_trees(n))
)


class TestEnumeration:
    def test_size_zero_is_the_single_leaf(self):
        assert enumerate_trees(0) == (None,)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_catalan_counts(self, n):
        assert len(enumerate_trees(n)) == catalan(n)

    def test_all_distinct(self):
        for n in range(7):
            trees = enumerate_trees(n)
            assert len(set(trees)) == len(trees)

    def test_canonical_order_starts_at_right_comb(self):
        # left-subtree size 0 comes first
        assert enumerate_trees(3)[0] == right_comb(3)
        assert enumerate_trees(3)[-1] == left_comb(3)


class TestDeepTrees:
    # deeper than the interpreter's default recursion limit of 1000
    def test_size_of_a_deep_comb(self):
        assert size(left_comb(3000)) == 3000
        assert size(right_comb(3000)) == 3000

    def test_tree_from_obj_of_a_deep_comb(self):
        obj = None
        for _ in range(3000):
            obj = [obj, None]
        t = tree_from_obj(obj)
        assert size(t) == 3000
        for _ in range(3000):
            assert t.right is None
            t = t.left
        assert t is None

    def test_tree_to_obj_of_a_deep_comb(self):
        obj = tree_to_obj(right_comb(3000))
        for _ in range(3000):
            assert obj[0] is None
            obj = obj[1]
        assert obj is None

    def test_relation_masks_of_a_deep_comb(self):
        # in a left comb every vertex lies below every larger label
        n = 1500
        up = relation_masks(left_comb(n))
        assert up == tuple((1 << n) - (1 << i) for i in range(1, n + 1))

    def test_relation_masks_match_the_span_or_oracle_on_deep_combs(self):
        for t in (left_comb(3000), right_comb(3000)):
            assert relation_masks(t) == span_or_relation_masks(t)

    def test_equality_and_hash_of_deep_combs(self):
        a, b = left_comb(3000), left_comb(3000)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != right_comb(3000)
        assert a != left_comb(2999)
        # two 3,000-node trees that differ only in their deepest node
        c, d = BinaryTree(left=Y), BinaryTree(right=Y)
        for _ in range(2998):
            c, d = BinaryTree(left=c), BinaryTree(left=d)
        assert size(c) == size(d) == 3000 and c != d
        assert {a, b, c} == {a, c}


class TestRelationMasks:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_match_the_span_or_oracle(self, n):
        for t in enumerate_trees(n):
            assert relation_masks(t) == span_or_relation_masks(t)


class TestEquality:
    def test_by_shape(self):
        assert BinaryTree() == Y and BinaryTree(Y, None) == left_comb(2)
        assert left_comb(2) != right_comb(2)
        assert Y != None and None != Y
        assert BinaryTree() != (None, None)

    def test_hash_agrees_with_equality(self):
        for n in range(6):
            for t in enumerate_trees(n):
                if t is not None:
                    twin = tree_from_obj(tree_to_obj(t))
                    assert twin == t and hash(twin) == hash(t)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Y.left = Y


class TestInducedPoset:
    def test_size_one_empty(self):
        assert tree_relations(Y) == frozenset()

    def test_size_zero_rejected(self):
        with pytest.raises(ValueError):
            tree_relations(None)

    def test_size_two_combs(self):
        assert tree_relations(left_comb(2)) == {(1, 2)}
        assert tree_relations(right_comb(2)) == {(2, 1)}

    def test_inorder_figure(self, inorder_figure_tree):
        generators = {(2, 3), (1, 5), (6, 8), (3, 1), (4, 3), (7, 6), (8, 5)}
        assert tree_relations(inorder_figure_tree) == transitive_closure(
            frozenset(generators)
        )

    def test_interval_conditions_hold(self):
        # both halves of every induced relation are convex
        for t in enumerate_trees(5):
            rel = tree_relations(t)
            for (x, y) in rel:
                lo, hi = min(x, y), max(x, y)
                assert all((b, y) in rel for b in range(lo + 1, hi))


class TestTamariOrder:
    def test_reflexive(self):
        for t in enumerate_trees(4):
            assert tamari_leq(t, t)

    def test_size_mismatch(self):
        for t1, t2 in [(Y, left_comb(2)), (left_comb(3), right_comb(2)),
                       (right_comb(2), left_comb(3)), (None, Y), (Y, None)]:
            with pytest.raises(ValueError, match="trees must have equal size"):
                tamari_leq(t1, t2)

    def test_empty_trees(self):
        assert tamari_leq(None, None)

    def test_combs_are_extreme(self):
        for t in enumerate_trees(4):
            assert tamari_leq(left_comb(4), t)
            assert tamari_leq(t, right_comb(4))

    def test_agrees_with_inc_inclusion(self):
        for t1 in enumerate_trees(4):
            for t2 in enumerate_trees(4):
                assert tamari_leq(t1, t2) == (
                    inc_relations(t2) <= inc_relations(t1)
                )

    def test_matches_rotation_reachability_at_4(self):
        # oracle: transitive closure of the covering moves
        trees = enumerate_trees(4)
        reach = {t: {t} for t in trees}
        changed = True
        while changed:
            changed = False
            for t in trees:
                for s in list(reach[t]):
                    for c in covers(s):
                        if c not in reach[t]:
                            reach[t].add(c)
                            changed = True
        comparable = 0
        for t1 in trees:
            for t2 in trees:
                assert tamari_leq(t1, t2) == (t2 in reach[t1])
                comparable += t2 in reach[t1]
        assert comparable == 68

    def test_partial_order_axioms(self):
        trees = enumerate_trees(4)
        for t1 in trees:
            for t2 in trees:
                if tamari_leq(t1, t2) and tamari_leq(t2, t1):
                    assert t1 == t2
                for t3 in trees:
                    if tamari_leq(t1, t2) and tamari_leq(t2, t3):
                        assert tamari_leq(t1, t3)


class TestCovers:
    def test_right_comb_is_maximal(self):
        for n in range(1, 6):
            assert covers(right_comb(n)) == []

    def test_left_comb_of_two(self):
        assert covers(left_comb(2)) == [right_comb(2)]

    def test_rotation_goes_up_by_one(self):
        for t in enumerate_trees(4):
            for c in covers(t):
                assert tamari_leq(t, c) and t != c
                # exactly one cover step: no tree strictly between
                assert not any(
                    tamari_leq(t, m) and tamari_leq(m, c) and m not in (t, c)
                    for m in enumerate_trees(4)
                )

    def test_bfs_from_minimum_reaches_everything(self):
        frontier, seen = [left_comb(3)], {left_comb(3)}
        while frontier:
            new = [c for t in frontier for c in covers(t) if c not in seen]
            seen.update(new)
            frontier = new
        assert seen == set(enumerate_trees(3))


class TestGraft:
    def test_identity_graft(self):
        for t in enumerate_trees(3):
            assert graft(None, 1, t) == t

    def test_on_y(self):
        assert graft(Y, 1, Y) == left_comb(2)
        assert graft(Y, 2, Y) == right_comb(2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            graft(Y, 3, Y)
        with pytest.raises(ValueError):
            graft(Y, 0, Y)

    @given(small_trees, small_trees, st.data())
    def test_size_additivity(self, t, s, data):
        i = data.draw(st.integers(1, size(t) + 1))
        assert size(graft(t, i, s)) == size(t) + size(s)

    def test_grafted_subtree_is_intact(self):
        s = left_comb(2)
        for t in enumerate_trees(3):
            for i in range(1, 5):
                grafted = graft(t, i, s)
                assert size(grafted) == 5


class TestMirror:
    def test_fixed_points(self):
        assert mirror(Y) == Y
        assert mirror(None) is None

    def test_combs(self):
        assert mirror(left_comb(4)) == right_comb(4)

    @given(small_trees)
    def test_involution(self, t):
        assert mirror(mirror(t)) == t

    def test_relabels_relations(self):
        for t in enumerate_trees(4):
            n = 4
            expected = {(n + 1 - x, n + 1 - y) for (x, y) in inc_relations(t)}
            assert dec_relations(mirror(t)) == expected

    def test_reverses_order_at_3(self):
        trees = enumerate_trees(3)
        pairs = 0
        for t1 in trees:
            for t2 in trees:
                assert tamari_leq(t1, t2) == tamari_leq(mirror(t2), mirror(t1))
                pairs += 1
        assert pairs == 25


class TestSerialization:
    def test_text_round_trip(self):
        for t in enumerate_trees(4):
            assert tree_from_text(tree_to_text(t)) == t

    def test_left_comb_text(self):
        assert tree_to_text(left_comb(2)) == "((L L) L)"

    @pytest.mark.parametrize("n", range(8))
    def test_text_matches_the_recursive_version(self, n):
        for t in enumerate_trees(n):
            assert tree_to_text(t) == recursive_tree_to_text(t)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_repr_matches_the_recursive_dataclass_repr(self, n):
        for t in enumerate_trees(n):
            assert repr(t) == recursive_tree_repr(t)

    def test_deep_combs(self):
        # deeper than the interpreter's recursion limit
        k = 3000
        assert tree_to_text(left_comb(k)) == "(" * k + "L" + " L)" * k
        assert tree_to_text(right_comb(k)) == "(L " * k + "L" + ")" * k
        assert repr(left_comb(k)) == (
            "BinaryTree(left=" * k + "None" + ", right=None)" * k
        )
        assert repr(right_comb(k)) == (
            "BinaryTree(left=None, right=" * k + "None" + ")" * k
        )
        interval = repr(TamariInterval(left_comb(k), right_comb(k)))
        assert interval.startswith("TamariInterval(lower=BinaryTree(left=")

    def test_bad_text(self):
        for bad in ["", "(L", "(L L) L", "x", "(L L L)"]:
            with pytest.raises(ValueError):
                tree_from_text(bad)
