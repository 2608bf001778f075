import math
import pickle

import pytest
from hypothesis import given, strategies as st

from oracles import (
    ENUMERATION_COLUMNS,
    dec_relations,
    inc_relations,
    inline_family_tables,
    interval_pair_scan,
    is_valid,
    left_comb,
    mirror,
    packed_caps,
    packed_rise_bounds,
    posets_with_trees,
    relation_mask_tables,
    right_comb,
    transitive_closure,
    walked_tree_data,
)
from tamari import census, posets
from tamari.posets import (
    IntervalConditionViolated,
    IntervalPoset,
    NotAPoset,
    RangeRelation,
    _lower_tree,
    _upper_tree,
    enumerate_interval_posets,
    from_interval,
    interval_members,
    linear_extensions,
    make_poset,
    mirror_poset,
    poset_from_json,
    poset_to_json,
    to_interval,
    tree_poset,
    universe,
    validate,
)
from tamari.trees import (
    TamariInterval,
    dec_masks,
    enumerate_trees,
    inc_masks,
    relation_masks,
    subtree_spans,
    tamari_leq,
)


def interval_count_formula(n):
    return 2 * math.factorial(4 * n + 1) // (
        math.factorial(n + 1) * math.factorial(3 * n + 2)
    )


class TestValidate:
    def test_empty_is_valid(self):
        p = validate(RangeRelation(3, frozenset()))
        assert p.relations == frozenset()

    def test_figure_poset_of_size_3(self):
        assert is_valid(RangeRelation(3, frozenset({(2, 3), (2, 1)})))

    def test_gap_violates_condition_one(self):
        with pytest.raises(IntervalConditionViolated) as exc:
            validate(RangeRelation(3, frozenset({(1, 3)})))
        assert exc.value.witness == (1, 2, 3)
        assert exc.value.condition == 1

    def test_gap_violates_condition_two(self):
        with pytest.raises(IntervalConditionViolated) as exc:
            validate(RangeRelation(3, frozenset({(3, 1)})))
        assert exc.value.witness == (1, 2, 3)
        assert exc.value.condition == 2

    def test_cycle_detected(self):
        with pytest.raises(NotAPoset) as exc:
            validate(RangeRelation(2, frozenset({(1, 2), (2, 1)})))
        assert set(exc.value.cycle) == {1, 2}

    def test_closure_is_taken(self):
        p = validate(RangeRelation(3, frozenset({(3, 2), (2, 1)})))
        assert (3, 1) in p.relations

    def test_out_of_range_pairs_rejected(self):
        with pytest.raises(ValueError):
            RangeRelation(2, frozenset({(1, 3)}))
        with pytest.raises(ValueError):
            RangeRelation(2, frozenset({(1, 1)}))

    def test_unclosed_poset_constructor_rejected(self):
        with pytest.raises(ValueError):
            IntervalPoset(3, frozenset({(3, 2), (2, 1)}))


class TestCarrier:
    def test_pairs_from_a_one_shot_iterator(self):
        rel = RangeRelation(3, iter([(2, 1), (2, 3)]))
        assert rel.pairs == frozenset({(2, 1), (2, 3)})
        p = IntervalPoset(3, iter([(2, 1), (2, 3)]))
        assert p.relations == rel.pairs
        assert make_poset(3, iter([(2, 1), (2, 3)])) == p

    def test_poset_is_a_relation_on_the_same_masks(self):
        p = make_poset(3, [(2, 1), (2, 3)])
        assert isinstance(p, RangeRelation)
        assert p.up == p.as_relation().up == RangeRelation(3, p.relations).up
        assert p != p.as_relation()

    def test_frozen_without_instance_dict(self):
        p = make_poset(2, [(1, 2)])
        for obj in (p, p.as_relation()):
            with pytest.raises(AttributeError):
                obj.n = 3
            assert not hasattr(obj, "__dict__")

    def test_pickle_round_trip_keeps_the_class(self):
        p = make_poset(3, [(2, 1), (2, 3)])
        for obj in (p, p.as_relation()):
            back = pickle.loads(pickle.dumps(obj))
            assert type(back) is type(obj)
            assert back == obj and hash(back) == hash(obj)


class TestIntervalBijection:
    def test_singleton_interval_is_tree_poset(self, inorder_figure_tree):
        p = from_interval(TamariInterval(inorder_figure_tree, inorder_figure_tree))
        assert p == tree_poset(inorder_figure_tree)

    def test_whole_lattice_is_empty_poset(self):
        for n in range(1, 6):
            p = from_interval(TamariInterval(left_comb(n), right_comb(n)))
            assert p.relations == frozenset()

    def test_size_two_images(self):
        images = set()
        for lower in enumerate_trees(2):
            for upper in enumerate_trees(2):
                if tamari_leq(lower, upper):
                    images.add(from_interval(TamariInterval(lower, upper)))
        assert images == {
            make_poset(2, []),
            make_poset(2, [(1, 2)]),
            make_poset(2, [(2, 1)]),
        }

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            TamariInterval(right_comb(2), left_comb(2))

    def test_figure_rise_poset_maps_to_drawn_interval(self):
        # {2 <| 1, 2 <| 3}: lower tree has 2 above 1; upper has 2 above 3
        interval = to_interval(make_poset(3, [(2, 1), (2, 3)]))
        assert dec_relations(interval.lower) == {(2, 1)}
        assert tree_poset(interval.upper).inc == {(2, 3)}

    def test_empty_poset_maps_to_combs(self):
        for n in range(1, 5):
            interval = to_interval(make_poset(n, []))
            assert interval.lower == left_comb(n)
            assert interval.upper == right_comb(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trips(self, n):
        for p in enumerate_interval_posets(n):
            assert from_interval(to_interval(p)) == p
        for lower in enumerate_trees(n):
            for upper in enumerate_trees(n):
                if tamari_leq(lower, upper):
                    interval = TamariInterval(lower, upper)
                    assert to_interval(from_interval(interval)) == interval


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_interval_counts(self, n):
        assert len(enumerate_interval_posets(n)) == interval_count_formula(n)

    def test_canonical_order(self):
        posets = enumerate_interval_posets(3)
        keys = [p.sort_key() for p in posets]
        assert keys == sorted(keys)
        assert len(set(posets)) == len(posets)

    def test_small_relations_exist(self):
        # every increasing relation forces the length-1 relation below it
        for p in enumerate_interval_posets(4):
            for (x, y) in p.inc:
                assert (y - 1, y) in p.relations
            for (x, y) in p.dec:
                assert (y + 1, y) in p.relations

    def test_size_zero_rejected(self):
        with pytest.raises(ValueError):
            enumerate_interval_posets(0)

    def test_each_call_returns_a_fresh_list(self):
        first = enumerate_interval_posets(3)
        second = enumerate_interval_posets(3)
        assert first == second and first is not second
        first.clear()
        second.append(None)
        assert len(enumerate_interval_posets(3)) == 13
        assert None not in enumerate_interval_posets(3)


class TestUniverse:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_pairs_index_the_trees_of_each_poset(self, n):
        u = universe(n)
        assert u.trees == enumerate_trees(n)
        listed = list(posets_with_trees(n))
        assert [p for p, _, _ in listed] == enumerate_interval_posets(n)
        assert len(listed) == interval_count_formula(n)
        for p, lower, upper in listed:
            low, high = relation_masks(u.trees[lower]), relation_masks(u.trees[upper])
            assert p.up == tuple(a | b for a, b in zip(dec_masks(low), inc_masks(high)))

    def test_one_cache_per_size(self):
        u = universe(4)
        assert universe(4) is u

    def test_size_zero_rejected(self):
        with pytest.raises(ValueError):
            universe(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_per_tree_round_trip_is_the_interval_round_trip(self, n):
        # the round trip verify checks per tree, against the one it replaced
        u = universe(n)
        per_tree = all(
            _lower_tree(dec) == t and _upper_tree(inc) == t
            for t, dec, inc in zip(u.trees, u.decs, u.incs)
        )
        listed = list(posets_with_trees(n))
        per_poset = all(from_interval(to_interval(p)) == p for p, _, _ in listed)
        assert per_tree and per_poset
        for p, lower, upper in listed:
            assert to_interval(p) == TamariInterval(u.trees[lower], u.trees[upper])


class TestIntervalPairs:
    """The bracket-vector generator against the packed pair scan it replaced."""

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 4, 5, 6, 7, 8, pytest.param(9, marks=pytest.mark.slow)]
    )
    def test_pairs_equal_the_scan(self, n):
        generated = [
            (lower, upper)
            for upper, lowers in posets._interval_pairs(universe(n))
            for lower in lowers
        ]
        assert generated == interval_pair_scan(relation_mask_tables(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_brackets_are_the_right_subtree_sizes(self, n):
        for t, r in zip(enumerate_trees(n), universe(n).brackets):
            assert tuple(r) == tuple(hi - v for v, _, hi in sorted(subtree_spans(t)))


class TestLazyUniverse:
    def test_census_builds_no_poset(self, monkeypatch):
        built = []
        trusted = posets._interval_poset

        def counting(*args):
            built.append(None)
            return trusted(*args)

        monkeypatch.setattr(posets, "_interval_poset", counting)
        universe.cache_clear()
        census.census(6)
        assert not built
        assert not set(vars(universe(6))) & ENUMERATION_COLUMNS
        assert len(enumerate_interval_posets(6)) == len(built) == 2530

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_posets_equal_the_eager_build(self, n):
        trees = enumerate_trees(n)
        eager = tuple(
            validate(RangeRelation(n, dec_relations(trees[low]) | inc_relations(trees[up])))
            for low, up in interval_pair_scan(relation_mask_tables(n))
        )
        assert tuple(enumerate_interval_posets(n)) == eager


class TestColumns:
    """Every column of the universe against the per-size cache it
    replaced, on every tree."""

    SIZES = [1, 2, 3, 4, 5, 6, 7, 8, pytest.param(9, marks=pytest.mark.slow)]

    @pytest.mark.parametrize("n", SIZES)
    def test_tables_equal_the_relation_mask_tables(self, n):
        u, tables = universe(n), relation_mask_tables(n)
        assert u.decs == tables.decs
        assert u.incs == tables.incs
        assert tuple(map(tuple, u.brackets)) == tables.brackets
        assert u.by_inc == tables.by_inc
        assert u.by_dec == tables.by_dec
        assert u.inc_json == tables.inc_json
        assert u.dec_json == tables.dec_json

    @pytest.mark.parametrize("n", SIZES)
    def test_classifier_columns_equal_the_walk(self, n):
        u, data = universe(n), walked_tree_data(n)
        assert u.ir == data.ir
        assert u.dr == data.dr
        assert u.exc_lower == data.exc_lower
        assert u.exc_upper == data.exc_upper
        assert tuple(map(frozenset, u.spans)) == data.spans
        # the child masks that pair_families read from the walk
        kids = [
            tuple(sum(bool(size) << v for v, size in enumerate(row)) for row in column)
            for column in (u.lefts, u.brackets)
        ]
        assert kids == [data.left_kids, data.right_kids]

    @pytest.mark.parametrize("n", SIZES)
    def test_bitset_columns_equal_the_inline_tables(self, n):
        u = universe(n)
        assert (u.at_most, u.dr_at_most, u.span_bits, u.witness) == inline_family_tables(n)

    @pytest.mark.parametrize("n", SIZES)
    def test_rise_caps_equal_the_packed_bounds(self, n):
        assert tuple(map(packed_caps, universe(n).rise_caps)) == packed_rise_bounds(n)


class TestIntervalMasks:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_from_interval_is_dec_lower_or_inc_upper(self, n):
        for lower in enumerate_trees(n):
            for upper in enumerate_trees(n):
                if tamari_leq(lower, upper):
                    p = from_interval(TamariInterval(lower, upper))
                    want = dec_relations(lower) | inc_relations(upper)
                    assert p.relations == transitive_closure(want) == want

    def test_equality_and_hash_ignore_the_masks(self):
        lower, upper = left_comb(3), right_comb(3)
        a, b = TamariInterval(lower, upper), TamariInterval(lower, upper)
        object.__setattr__(b, "masks", ((), ()))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert "masks" not in repr(a)
        assert a.masks == (relation_masks(lower), relation_masks(upper))

    def test_empty_interval_has_no_poset(self):
        interval = TamariInterval(None, None)
        assert interval.masks == ((), ())
        with pytest.raises(ValueError):
            from_interval(interval)


class TestMirrorPoset:
    def test_empty(self):
        assert mirror_poset(make_poset(3, [])) == make_poset(3, [])

    def test_single_relation(self):
        assert mirror_poset(make_poset(2, [(1, 2)])) == make_poset(2, [(2, 1)])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_involution(self, n):
        for p in enumerate_interval_posets(n):
            assert mirror_poset(mirror_poset(p)) == p

    def test_commutes_with_tree_mirror(self):
        for p in enumerate_interval_posets(3):
            interval = to_interval(p)
            mirrored = TamariInterval(
                mirror(interval.upper), mirror(interval.lower)
            )
            assert from_interval(mirrored) == mirror_poset(p)


class TestMembers:
    def test_singleton(self, inorder_figure_tree):
        p = tree_poset(inorder_figure_tree)
        assert interval_members(p) == [inorder_figure_tree]

    def test_whole_lattice_of_size_2(self):
        assert set(interval_members(make_poset(2, []))) == set(enumerate_trees(2))

    def test_pairwise_oracle_at_4(self):
        # member multiset equals the comparable-pairs count
        total = sum(len(interval_members(p)) for p in enumerate_interval_posets(4))
        trees = enumerate_trees(4)
        expected = sum(
            tamari_leq(a, b) and tamari_leq(b, c)
            for a in trees
            for b in trees
            for c in trees
        )
        assert total == expected


class TestLinearExtensions:
    def test_antichain(self):
        exts = linear_extensions(3, frozenset())
        assert len(exts) == 6
        assert exts == sorted(exts)

    def test_chain(self):
        assert linear_extensions(3, frozenset({(1, 2), (2, 3)})) == [(1, 2, 3)]

    def test_rejects_cycles(self):
        with pytest.raises(NotAPoset):
            linear_extensions(2, frozenset({(1, 2), (2, 1)}))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_partition_over_members(self, n):
        # the extensions of an interval-poset split disjointly over the
        # posets of its member trees
        for p in enumerate_interval_posets(n):
            whole = linear_extensions(p.n, p.relations)
            parts = []
            for t in interval_members(p):
                q = tree_poset(t)
                parts.extend(linear_extensions(q.n, q.relations))
            assert len(parts) == len(set(parts))
            assert sorted(parts) == sorted(whole)


class TestSerialization:
    def test_round_trip(self):
        for p in enumerate_interval_posets(3):
            assert poset_from_json(poset_to_json(p)) == p

    def test_pairs_mean_first_below_second(self):
        text = poset_to_json(make_poset(3, [(2, 1), (2, 3)]))
        assert '"inc": [[2, 3]]' in text
        assert '"dec": [[2, 1]]' in text


valid_pairs = st.lists(
    st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(lambda p: p[0] != p[1]),
    max_size=6,
)


@given(valid_pairs)
def test_validate_never_accepts_broken_relations(pairs):
    rel = RangeRelation(5, frozenset(pairs))
    try:
        p = validate(rel)
    except (NotAPoset, IntervalConditionViolated):
        return
    closed = transitive_closure(rel.pairs)
    assert p.relations == closed
    assert not any((y, x) in closed for (x, y) in closed)
    for (x, y) in closed:
        lo, hi = min(x, y), max(x, y)
        assert all((b, y) in closed for b in range(lo + 1, hi))
