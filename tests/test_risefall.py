import pytest

from oracles import graft, is_valid
from tamari import classify, risefall
from tamari.posets import (
    RangeRelation,
    _pack,
    enumerate_interval_posets,
    make_poset,
    to_interval,
    universe,
    validate,
)
from tamari.trees import (
    Y,
    BinaryTree,
    dec_masks,
    enumerate_trees,
    inc_masks,
    relation_masks,
    tamari_leq,
)


def stat_classes(n):
    classes = {}
    for p in enumerate_interval_posets(n):
        s = classify.stat(p)
        if s.dr <= s.ir:
            classes.setdefault((s.dr, s.ir), []).append(p)
    return classes


class TestRise:
    def test_figure_example(self):
        r = risefall.rise(make_poset(3, [(2, 1), (2, 3)]))
        assert r == RangeRelation(4, frozenset({(2, 1), (3, 4)}))

    def test_empty(self):
        assert risefall.rise(make_poset(3, [])) == RangeRelation(4, frozenset())

    def test_conflict_is_caught_by_validation(self):
        r = risefall.rise(make_poset(3, [(1, 2), (3, 2)]))
        assert {(2, 3), (3, 2)} <= r.pairs
        assert not is_valid(r)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_valid_iff_modern(self, n):
        for p in enumerate_interval_posets(n):
            assert is_valid(risefall.rise(p)) == classify.is_modern(p)


class TestFall:
    def test_figure_example(self):
        q = make_poset(4, [(2, 1), (3, 4)])
        assert validate(risefall.fall(q)) == make_poset(3, [(2, 1), (2, 3)])

    def test_empty(self):
        assert risefall.fall(make_poset(4, [])) == RangeRelation(3, frozenset())

    def test_domain_preconditions(self):
        with pytest.raises(ValueError):
            risefall.fall(make_poset(2, [(1, 2)]))
        with pytest.raises(ValueError):
            risefall.fall(make_poset(2, [(2, 1)]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip_on_modern(self, n):
        for p in enumerate_interval_posets(n):
            if classify.is_modern(p):
                q = validate(risefall.rise(p))
                assert validate(risefall.fall(q)) == p

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_round_trip_on_new(self, n):
        for q in enumerate_interval_posets(n):
            if classify.is_new_ip(q):
                p = validate(risefall.fall(q))
                assert classify.is_modern(p)
                assert validate(risefall.rise(p)) == q


class TestRiseK:
    def test_identity_and_single(self):
        p = make_poset(3, [(2, 1), (2, 3)])
        assert risefall.rise_k(p, 0) == p.as_relation()
        assert risefall.rise_k(p, 1) == risefall.rise(p)

    def test_triple_rise(self):
        r = risefall.rise_k(make_poset(3, [(2, 1), (2, 3)]), 3)
        assert r == RangeRelation(6, frozenset({(2, 1), (5, 6)}))
        assert is_valid(r)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            risefall.rise_k(make_poset(2, []), -1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_oracle_matches_statistic(self, n):
        for p in enumerate_interval_posets(n):
            assert risefall.iterated_rise_valid(p) == classify.is_infinitely_modern(p)


class TestGraftedShape:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rise_grafts_on_y(self, n):
        # the interval of the rise is [Y o1 S1, Y o2 T1]
        for p in enumerate_interval_posets(n):
            if not classify.is_modern(p):
                continue
            sub = to_interval(p)
            interval = to_interval(validate(risefall.rise(p)))
            assert interval.lower == graft(Y, 1, sub.lower)
            assert interval.upper == graft(Y, 2, sub.upper)


class TestInsert:
    def test_empty_poset_top_corner(self):
        for n in range(1, 5):
            p = make_poset(n, [])
            assert risefall.insert_fik(p, 1, n + 1) == make_poset(n + 1, [])

    def test_paper_figure(self):
        p = make_poset(5, [(4, 5), (3, 5), (2, 1), (3, 1)])
        q = risefall.insert_fik(p, 2, 4)
        assert q.inc == {(4, 5), (4, 6), (3, 6), (5, 6)}
        assert q.dec == {(2, 1), (3, 1), (4, 1)}

    def test_rejects_bad_indices(self):
        p = make_poset(2, [])
        with pytest.raises(ValueError):
            risefall.insert_fik(p, 2, 1)
        with pytest.raises(ValueError):
            risefall.insert_fik(p, 0, 1)

    def test_rejects_out_of_class_posets(self):
        p = make_poset(3, [(1, 2), (2, 3), (1, 3)])  # ir = 1
        with pytest.raises(ValueError):
            risefall.insert_fik(p, 1, 4)

    def test_union_reproduces_size_three(self):
        produced = []
        for p in enumerate_interval_posets(2):
            s = classify.stat(p)
            if s.dr > s.ir:
                continue
            for i in range(1, 4):
                for k in range(i, 4):
                    if s.dr <= i and k - 1 <= s.ir:
                        produced.append(risefall.insert_fik(p, i, k))
        infmod = [
            p for p in enumerate_interval_posets(3)
            if classify.is_infinitely_modern(p)
        ]
        assert len(produced) == len(set(produced)) == 12
        assert set(produced) == set(infmod)


class TestRemove:
    def test_empty(self):
        for n in range(1, 5):
            assert risefall.remove_rho(make_poset(n + 1, [])) == make_poset(n, [])

    def test_inverts_paper_figure(self):
        p = make_poset(5, [(4, 5), (3, 5), (2, 1), (3, 1)])
        assert risefall.remove_rho(risefall.insert_fik(p, 2, 4)) == p

    def test_rejects_non_infinitely_modern(self):
        with pytest.raises(ValueError):
            risefall.remove_rho(make_poset(3, [(1, 2), (3, 2)]))

    def test_rejects_size_one(self):
        with pytest.raises(ValueError):
            risefall.remove_rho(make_poset(1, []))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bijection_classwise(self, n):
        upper = stat_classes(n + 1)
        lower = stat_classes(n)
        for i in range(1, n + 2):
            for k in range(i, n + 2):
                domain = [
                    p
                    for (dr, ir), ps in lower.items()
                    for p in ps
                    if dr <= i and k - 1 <= ir
                ]
                image = {risefall.insert_fik(p, i, k) for p in domain}
                assert image == set(upper.get((i, k), []))
                assert len(image) == len(domain)
                for p in domain:
                    assert risefall.remove_rho(risefall.insert_fik(p, i, k)) == p


def chain_above(k, t):
    """k (+) T: the chain 1..k, each vertex the right child of the one
    before, above T relabelled by +k."""
    for _ in range(k):
        t = BinaryTree(None, t)
    return t


def chain_below(s, k):
    """S (+)' k: vertices n+1..n+k above S as a left chain."""
    for _ in range(k):
        s = BinaryTree(s, None)
    return s


class TestAllRises:
    """``all_rises_valid`` against the rise-by-rise validation it replaces
    in ``verify``, and its two statements on trees."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.slow)])
    def test_equals_iterated_rise_valid(self, n):
        u = universe(n)
        for p, lower, upper in zip(u.posets, u.lowers, u.uppers):
            assert risefall.all_rises_valid(n, lower, upper) == (
                risefall.iterated_rise_valid(p)
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kth_rise_is_the_pair_of_chained_trees(self, n):
        u = universe(n)
        for p, lower, upper in zip(u.posets, u.lowers, u.uppers):
            s, t = u.trees[lower], u.trees[upper]
            for k in range(1, n + 2):
                low = relation_masks(chain_below(s, k))
                high = relation_masks(chain_above(k, t))
                risen = risefall.rise_k(p, k)
                assert risen.up == tuple(
                    a | b for a, b in zip(dec_masks(low), inc_masks(high))
                )
                assert is_valid(risen) == tamari_leq(
                    chain_below(s, k), chain_above(k, t)
                )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_bounds_from_the_chained_trees(self, n):
        for t, bound in zip(enumerate_trees(n), risefall._rise_bounds(n)):
            want = -1
            for k in range(1, n + 2):
                want &= _pack(dec_masks(relation_masks(chain_above(k, t)))[:n])
            assert bound == want
