import itertools
import math

import pytest

from oracles import (
    bell_scan_ncp,
    chord_crossings,
    grafted_tree_of_partition,
    left_comb,
    pairwise_nct_to_poset,
    right_comb,
    tree_from_text,
    walked_partition_of_tree,
)
from tamari import classify
from tamari.noncrossing import (
    NoncrossingPartition,
    NoncrossingTree,
    PlantOutcome,
    _is_tree,
    boundary_tree,
    count_nct,
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
from tamari.posets import (
    MAX_OBJECT_SIZE,
    RangeRelation,
    enumerate_interval_posets,
    to_interval,
    validate,
)
from tamari.trees import (
    enumerate_trees,
    relation_masks,
    size,
)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_crossing_sweep_matches_the_pairwise_oracle(self, n):
        # every set of n chords of the based (n+1)-gon: the constructor
        # accepts exactly the spanning trees with no two chords crossing,
        # and the pair its error names does cross
        chords = list(itertools.combinations(range(n + 1), 2))
        for combo in itertools.combinations(chords, n):
            edges = frozenset(combo)
            try:
                NoncrossingTree(n, edges)
            except ValueError as exc:
                error = str(exc)
            else:
                error = ""
            if not _is_tree(n, edges):
                assert error == "edge set is not a spanning tree"
            elif not chord_crossings(edges):
                assert error == ""
            else:
                named = {f"edges {e1} and {e2} cross" for e1, e2 in chord_crossings(edges)}
                assert error in named

    @pytest.mark.parametrize("n,count", [
        (1, 1), (2, 3), (3, 12), (4, 55), (5, 273), (6, 1428), (7, 7752),
        (8, 43263),
        pytest.param(9, 246675, marks=pytest.mark.slow),  # about 8 s
    ])
    def test_counts(self, n, count):
        trees = enumerate_nct(n)
        assert len(trees) == count == fuss_catalan(n) == count_nct(n)
        assert len(set(trees)) == len(trees)

    def test_count_is_fuss_catalan_up_to_thirty(self):
        assert [count_nct(n) for n in range(1, 31)] == [
            fuss_catalan(n) for n in range(1, 31)
        ]

    def test_count_of_size_zero_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            count_nct(0)


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

    @pytest.mark.parametrize("n", [
        1, 2, 3, 4, 5, 6, 7,
        pytest.param(8, marks=pytest.mark.slow),
    ])
    def test_chord_masks_match_the_closed_pairwise_nesting(self, n):
        for t in enumerate_nct(n):
            assert nct_to_poset(t) == pairwise_nct_to_poset(t)


def fan(n):
    return NoncrossingTree(n, frozenset((0, k) for k in range(1, n + 1)))


def caterpillar(n):
    # fan edges at even k, boundary edges at odd k
    edges = ((0, k) if k % 2 == 0 else (k - 1, k) for k in range(1, n + 1))
    return NoncrossingTree(n, frozenset(edges))


@pytest.mark.parametrize("make", [fan, boundary_tree, caterpillar])
def test_maps_match_their_oracles_at_the_size_limit(make):
    # the chord map, and both partition maps on the bounds of its image
    t = make(MAX_OBJECT_SIZE)
    p = nct_to_poset(t)
    assert p == pairwise_nct_to_poset(t)
    assert poset_to_nct(p) == t
    interval = to_interval(p)
    for tree in (interval.lower, interval.upper):
        pi = partition_of_tree(tree)
        assert pi == walked_partition_of_tree(tree)
        assert tree_of_partition(pi) == grafted_tree_of_partition(pi) == tree


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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_bell_scan(self, n):
        assert enumerate_ncp(n) == bell_scan_ncp(n)

    def test_size_below_one_rejected(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                enumerate_ncp(n)

    def test_crossing_pattern_excluded_at_4(self):
        crossing = (((1, 3), (2, 4)))
        assert all(p.blocks != crossing for p in enumerate_ncp(4))

    def test_size_is_stored_outside_equality_hash_and_repr(self):
        p = make_partition([[1, 3], [2]])
        assert p.n == 3
        assert repr(p) == "NoncrossingPartition(blocks=((1, 3), (2,)))"
        assert p == NoncrossingPartition(((1, 3), (2,)))
        assert hash(p) == hash((p.blocks,))  # the generated hash, without n
        assert ncp_to_json(p) == '{"n": 3, "blocks": [[1, 3], [2]]}'

    def test_many_singletons(self):
        p = make_partition([[k] for k in range(1, 3001)])
        assert p.n == 3000 and len(p.blocks) == 3000


def pairwise_crossings(blocks):
    """The all-pairs crossing test the stack pass replaced: the pairs of
    blocks, in block order, with i < j < k < l for i, k in the first and
    j, l in the second."""
    return [
        (b1, b2)
        for b1, b2 in itertools.combinations(blocks, 2)
        for i, k in itertools.combinations(b1, 2)
        if any(i < j < k < l for j in b2 for l in b2)
    ]


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for idx in range(len(part)):
            yield part[:idx] + [[first] + part[idx]] + part[idx + 1:]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_crossing_check_matches_the_pairwise_oracle(n):
    for part in set_partitions(list(range(1, n + 1))):
        blocks = tuple(sorted(tuple(sorted(b)) for b in part))
        crossings = pairwise_crossings(blocks)
        if not crossings:
            assert make_partition(part).blocks == blocks
            continue
        with pytest.raises(ValueError) as info:
            make_partition(part)
        named = {f"blocks {b1} and {b2} cross" for b1, b2 in crossings}
        assert str(info.value) in named


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

    @staticmethod
    def recursive_partition_of_tree(t):
        """The recursive walk the iterative one replaced."""
        parent = list(range(size(t) + 1))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        def go(node, lo):
            if node is None:
                return lo
            mid = go(node.left, lo)
            hi = go(node.right, mid + 1)
            if node.right is not None:
                parent[find(mid + 1 + size(node.right.left))] = find(mid)
            return hi

        go(t, 1)
        groups = {}
        for x in range(1, len(parent)):
            groups.setdefault(find(x), []).append(x)
        return make_partition(groups.values())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_the_recursive_walk(self, n):
        for t in enumerate_trees(n):
            assert partition_of_tree(t) == self.recursive_partition_of_tree(t)

    @pytest.mark.parametrize("n", [
        1, 2, 3, 4, 5, 6, 7,
        pytest.param(8, marks=pytest.mark.slow),
    ])
    def test_match_the_walks_they_replaced(self, n):
        for t in enumerate_trees(n):
            assert partition_of_tree(t) == walked_partition_of_tree(t)
        for pi in enumerate_ncp(n):
            assert tree_of_partition(pi) == grafted_tree_of_partition(pi)

    @pytest.mark.parametrize("make", [left_comb, right_comb])
    def test_combs_at_the_size_limit_match_the_walks(self, make):
        t = make(MAX_OBJECT_SIZE)
        pi = partition_of_tree(t)
        assert pi == walked_partition_of_tree(t)
        assert tree_of_partition(pi) == grafted_tree_of_partition(pi) == t

    def test_deep_combs(self):
        # deeper than the interpreter's recursion limit
        n = 1200
        singletons = make_partition([[k] for k in range(1, n + 1)])
        assert partition_of_tree(left_comb(n)) == singletons
        got = tree_of_partition(singletons)
        assert relation_masks(got) == relation_masks(left_comb(n))
        assert got == left_comb(n)
        one_block = make_partition([range(1, n + 1)])
        assert partition_of_tree(right_comb(n)) == one_block
        got = tree_of_partition(one_block)
        assert relation_masks(got) == relation_masks(right_comb(n))
        assert got == right_comb(n)


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
