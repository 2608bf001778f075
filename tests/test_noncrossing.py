import itertools
import math

import pytest

from tamari import classify
from tamari.noncrossing import (
    NoncrossingPartition,
    NoncrossingTree,
    PlantOutcome,
    boundary_tree,
    edge_labels,
    enumerate_ncp,
    enumerate_nct,
    make_partition,
    ncp_from_json,
    ncp_interval_to_ip,
    ncp_leq,
    ncp_to_json,
    nct_compose,
    nct_from_json,
    nct_to_json,
    nct_to_poset,
    partition_of_tree,
    poset_to_nct,
    tree_of_partition,
)
from tamari.posets import RangeRelation, enumerate_interval_posets, validate
from tamari.trees import enumerate_trees, left_comb, right_comb, tree_from_text


def fuss_catalan(n):
    return math.comb(3 * n, n) // (2 * n + 1)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


class TestNoncrossingTree:
    def test_rejects_crossing(self):
        with pytest.raises(ValueError):
            NoncrossingTree(3, frozenset({(0, 2), (1, 3), (0, 1)}))

    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            NoncrossingTree(3, frozenset({(0, 1), (1, 2), (0, 2)}))

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(ValueError):
            NoncrossingTree(3, frozenset({(0, 1), (1, 2)}))

    @pytest.mark.parametrize("n,count", [
        (1, 1), (2, 3), (3, 12), (4, 55), (5, 273), (6, 1428), (7, 7752),
        (8, 43263),
        pytest.param(9, 246675, marks=pytest.mark.slow),  # about 8 s
    ])
    def test_counts(self, n, count):
        trees = enumerate_nct(n)
        assert len(trees) == count == fuss_catalan(n)
        assert len(set(trees)) == len(trees)


class TestEdgeLabels:
    def test_boundary_tree_keeps_indices(self):
        for n in range(1, 6):
            labels = edge_labels(boundary_tree(n))
            assert labels == {(k - 1, k): k for k in range(1, n + 1)}

    def test_twelve_gon_figure(self, twelve_gon_tree):
        assert edge_labels(twelve_gon_tree) == {
            (0, 10): 1, (1, 2): 2, (2, 3): 3, (3, 4): 4, (3, 5): 5,
            (3, 6): 6, (6, 7): 7, (6, 9): 8, (8, 9): 9, (2, 10): 10,
            (10, 11): 11,
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_always_a_bijection(self, n):
        for t in enumerate_nct(n):
            labels = edge_labels(t)
            assert sorted(labels.values()) == list(range(1, n + 1))
            assert set(labels) == t.edges


class TestPosetCorrespondence:
    def test_boundary_tree_gives_empty_poset(self):
        for n in range(1, 5):
            assert nct_to_poset(boundary_tree(n)).relations == frozenset()

    def test_twelve_gon_covers(self, twelve_gon_tree):
        p = nct_to_poset(twelve_gon_tree)
        assert classify.hasse(p) == {
            (2, 1), (10, 1), (3, 10), (6, 10), (8, 10),
            (5, 6), (4, 5), (7, 8), (9, 8),
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_image_is_exactly_the_exceptional_posets(self, n):
        image = {nct_to_poset(t) for t in enumerate_nct(n)}
        expected = {
            p for p in enumerate_interval_posets(n) if classify.is_exceptional(p)
        }
        assert image == expected
        assert len(image) == len(enumerate_nct(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_round_trip(self, n):
        for t in enumerate_nct(n):
            assert poset_to_nct(nct_to_poset(t)) == t

    def test_non_exceptional_rejected(self):
        p = validate(RangeRelation(3, frozenset({(2, 1), (2, 3)})))
        with pytest.raises(ValueError):
            poset_to_nct(p)


def restrict(p, elements):
    idx = {v: i + 1 for i, v in enumerate(elements)}
    pairs = frozenset(
        (idx[a], idx[b]) for (a, b) in p.relations if a in idx and b in idx
    )
    return validate(RangeRelation(len(elements), pairs))


BASED_SQUARE = NoncrossingTree(3, frozenset({(0, 3), (0, 1), (2, 3)}))


def rebuild(p):
    # reassemble poset_to_nct(p) from triangles and based squares using
    # only operadic composition, following the decomposition by maxima
    maxima = [
        v for v in range(1, p.n + 1)
        if not any((v, w) in p.relations for w in range(1, p.n + 1))
    ]
    if len(maxima) > 1:
        parts = [
            restrict(p, sorted(
                x for x in range(1, p.n + 1) if x == m or (x, m) in p.relations
            ))
            for m in maxima
        ]
        t = boundary_tree(len(maxima))
        for slot in range(len(maxima), 0, -1):
            t = nct_compose(t, slot, _rebuild_based(parts[slot - 1]))
            assert isinstance(t, NoncrossingTree)
        return t
    return _rebuild_based(p)


def _rebuild_based(p):
    n = p.n
    if n == 1:
        return NoncrossingTree(1, frozenset({(0, 1)}))
    (m,) = [
        v for v in range(1, n + 1)
        if not any((v, w) in p.relations for w in range(1, n + 1))
    ]
    below = [x for x in range(1, n + 1) if x < m]
    above = [x for x in range(1, n + 1) if x > m]
    if below and above:
        t = nct_compose(BASED_SQUARE, 3, rebuild(restrict(p, above)))
        return nct_compose(t, 1, rebuild(restrict(p, below)))
    if below:
        tri = NoncrossingTree(2, frozenset({(0, 2), (0, 1)}))
        return nct_compose(tri, 1, rebuild(restrict(p, below)))
    tri = NoncrossingTree(2, frozenset({(0, 2), (1, 2)}))
    return nct_compose(tri, 2, rebuild(restrict(p, above)))


class TestCompose:
    def test_side_out_of_range(self):
        t = boundary_tree(2)
        with pytest.raises(ValueError):
            nct_compose(t, 0, t)
        with pytest.raises(ValueError):
            nct_compose(t, 3, t)

    def test_diagonal_in_neither_is_a_plant(self):
        f = NoncrossingTree(2, frozenset({(0, 2), (1, 2)}))
        g = NoncrossingTree(2, frozenset({(0, 1), (1, 2)}))
        out = nct_compose(f, 1, g)
        assert isinstance(out, PlantOutcome)
        assert (out.f, out.i, out.g) == (f, 1, g)

    def test_diagonal_in_one_is_dropped(self):
        f = boundary_tree(2)
        g = NoncrossingTree(2, frozenset({(0, 2), (1, 2)}))
        out = nct_compose(f, 1, g)
        assert out == NoncrossingTree(3, frozenset({(1, 2), (0, 2), (2, 3)}))

    def test_diagonal_in_both_is_kept(self):
        f = NoncrossingTree(2, frozenset({(0, 2), (1, 2)}))
        g = NoncrossingTree(2, frozenset({(0, 2), (0, 1)}))
        out = nct_compose(f, 2, g)
        assert (1, 3) in out.edges
        assert out == NoncrossingTree(3, frozenset({(0, 3), (1, 3), (1, 2)}))

    def test_size_is_additive(self):
        for f in enumerate_nct(2):
            for g in enumerate_nct(3):
                for i in (1, 2):
                    out = nct_compose(f, i, g)
                    if isinstance(out, NoncrossingTree):
                        assert out.n == 4

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reassembly_from_triangles(self, n):
        for p in enumerate_interval_posets(n):
            if classify.is_exceptional(p):
                assert rebuild(p) == poset_to_nct(p)


class TestNoncrossingPartition:
    def test_rejects_crossing_blocks(self):
        with pytest.raises(ValueError):
            make_partition([[1, 3], [2, 4]])

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            make_partition([[1, 2], [2, 3]])
        with pytest.raises(ValueError):
            NoncrossingPartition(((2, 1),))

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 14), (5, 42)])
    def test_counts(self, n, count):
        parts = enumerate_ncp(n)
        assert len(parts) == count == catalan(n)
        assert len(set(parts)) == len(parts)

    def test_crossing_pattern_excluded_at_4(self):
        crossing = (((1, 3), (2, 4)))
        assert all(p.blocks != crossing for p in enumerate_ncp(4))


class TestPartitionTreeBijection:
    def test_combs(self):
        assert partition_of_tree(left_comb(4)).blocks == ((1,), (2,), (3,), (4,))
        assert partition_of_tree(right_comb(4)).blocks == ((1, 2, 3, 4),)

    def test_figure_partition(self):
        pi = make_partition([[1, 2, 7], [3, 4], [5, 6], [8]])
        t = tree_of_partition(pi)
        assert t == tree_from_text("((L (L (((L (L L)) (L L)) L))) L)")
        assert partition_of_tree(t) == pi

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_round_trip(self, n):
        for t in enumerate_trees(n):
            assert tree_of_partition(partition_of_tree(t)) == t
        for pi in enumerate_ncp(n):
            assert partition_of_tree(tree_of_partition(pi)) == pi


class TestRefinementOrder:
    def test_extremes(self):
        bottom = make_partition([[k] for k in range(1, 5)])
        top = make_partition([[1, 2, 3, 4]])
        for pi in enumerate_ncp(4):
            assert ncp_leq(bottom, pi)
            assert ncp_leq(pi, top)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            ncp_leq(make_partition([[1]]), make_partition([[1], [2]]))

    def test_monotone_into_tamari(self):
        from tamari.trees import tamari_leq

        for pi1, pi2 in itertools.product(enumerate_ncp(4), repeat=2):
            if ncp_leq(pi1, pi2):
                assert tamari_leq(tree_of_partition(pi1), tree_of_partition(pi2))


class TestPartitionIntervals:
    def test_requires_an_interval(self):
        pi1 = make_partition([[1, 2]])
        pi2 = make_partition([[1], [2]])
        with pytest.raises(ValueError):
            ncp_interval_to_ip(pi1, pi2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bijection_with_exceptional(self, n):
        parts = enumerate_ncp(n)
        image = {
            ncp_interval_to_ip(a, b)
            for a, b in itertools.product(parts, repeat=2)
            if ncp_leq(a, b)
        }
        expected = {
            p for p in enumerate_interval_posets(n) if classify.is_exceptional(p)
        }
        assert image == expected
        count = sum(ncp_leq(a, b) for a, b in itertools.product(parts, repeat=2))
        assert count == len(image)

    def test_count_at_five(self):
        parts = enumerate_ncp(5)
        count = sum(ncp_leq(a, b) for a, b in itertools.product(parts, repeat=2))
        assert count == 273 == fuss_catalan(5)


class TestSerialization:
    def test_nct_round_trip(self):
        for t in enumerate_nct(4):
            assert nct_from_json(nct_to_json(t)) == t

    def test_nct_wire_format(self):
        text = nct_to_json(boundary_tree(2))
        assert text == '{"n": 2, "edges": [[0, 1], [1, 2]]}'

    def test_ncp_round_trip(self):
        for pi in enumerate_ncp(4):
            assert ncp_from_json(ncp_to_json(pi)) == pi

    def test_ncp_wire_format(self):
        text = ncp_to_json(make_partition([[1, 3], [2]]))
        assert text == '{"n": 3, "blocks": [[1, 3], [2]]}'
