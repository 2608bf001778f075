"""Differential tests of the bitmask interval-poset core against the
pair-set implementation it replaced.

The oracle below is the earlier frozenset-of-pairs code: a recursive tree
walk, a depth-first transitive closure, the axiom check over sorted pairs,
the closure-and-compare constructor, the Hasse diagram and the classifiers
over pair sets, ``to_interval`` through Hasse forests, the range check of
the pair-set ``RangeRelation``, and rise, fall, the iterated rise,
insertion, removal and the mirror over pair sets.  It stays here so that
every later change to the mask code is still checked against it.
"""

from __future__ import annotations

import json
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from oracles import avoids_long_crossing, transitive_closure, tree_relations
from tamari import classify
from tamari.risefall import fall, insert_fik, iterated_rise_valid, remove_rho, rise, rise_k
from tamari.posets import (
    IntervalConditionViolated,
    IntervalPoset,
    InvalidIntervalPoset,
    NotAPoset,
    RangeRelation,
    enumerate_interval_posets,
    mirror_poset,
    poset_to_json,
    to_interval,
    validate,
)
from tamari.trees import BinaryTree, TamariInterval, enumerate_trees

SIZES = [1, 2, 3, 4, 5, 6]


# -- the pair-set oracle ------------------------------------------------------

def oracle_tree_relations(t, lo=1):
    """(next unused label, pairs (i, j) with i strictly inside the subtree of j)."""
    if t is None:
        return lo, frozenset()
    mid, left_rel = oracle_tree_relations(t.left, lo)
    hi, right_rel = oracle_tree_relations(t.right, mid + 1)
    here = frozenset((i, mid) for i in range(lo, hi) if i != mid)
    return hi, left_rel | right_rel | here


def oracle_closure(pairs):
    succ = {}
    for (a, b) in pairs:
        succ.setdefault(a, set()).add(b)
    closure = set()
    for start in succ:
        seen = set()
        stack = list(succ[start])
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(succ.get(v, ()))
        closure.update((start, v) for v in seen if v != start)
    return frozenset(closure)


def oracle_find_cycle(pairs):
    for (a, b) in pairs:
        if (b, a) in pairs:
            return (a, b, a)
    raise AssertionError("no 2-cycle found in non-antisymmetric closure")


def oracle_check_axioms(closed):
    if any((y, x) in closed for (x, y) in closed):
        raise NotAPoset(oracle_find_cycle(closed))
    for (x, y) in sorted(closed):
        if x < y:
            for b in range(x + 1, y):
                if (b, y) not in closed:
                    raise IntervalConditionViolated(x, b, y, 1)
        else:
            for b in range(y + 1, x):
                if (b, y) not in closed:
                    raise IntervalConditionViolated(y, b, x, 2)


def oracle_construct(relations):
    """The old constructor: axioms on the given pairs, then closedness."""
    oracle_check_axioms(relations)
    if oracle_closure(relations) != relations:
        raise InvalidIntervalPoset("relation is not transitively closed")
    return relations


def oracle_validate(pairs):
    return oracle_construct(oracle_closure(pairs))


def oracle_hasse(n, rel):
    return frozenset(
        (a, b)
        for (a, b) in rel
        if not any((a, c) in rel and (c, b) in rel for c in range(1, n + 1))
    )


def oracle_is_exceptional(n, rel):
    covers = oracle_hasse(n, rel)
    for y in range(1, n + 1):
        ups = [b for (a, b) in covers if a == y]
        if any(b < y for b in ups) and any(b > y for b in ups):
            return False
    return True


def oracle_is_modern(n, rel):
    for (x, y) in rel:
        if x < y and any((z, y) in rel for z in range(y + 1, n + 1)):
            return False
    return True


def oracle_is_new_ip(n, rel):
    if any(x == 1 and x < y for (x, y) in rel):
        return False
    if any(x == n and x > y for (x, y) in rel):
        return False
    for (j, i) in rel:
        if i < j and (i + 1, j + 1) in rel:
            return False
    return True


def oracle_stat(n, rel):
    incs = [k for (k, l) in rel if l == k + 1]
    decs = [i for (i, j) in rel if j == i - 1]
    return (min(incs) if incs else n, max(decs) if decs else 1)


def oracle_avoids_long_crossing(rel):
    for (w, x) in rel:
        if w < x:
            for (z, y) in rel:
                if x < y < z:
                    return False
    return True


def oracle_forest(n, pairs):
    children = {v: [] for v in range(1, n + 1)}
    roots = []
    for v in range(1, n + 1):
        ups = [y for (x, y) in pairs if x == v]
        if not ups:
            roots.append(v)
            continue
        parent = next(y for y in ups if all(u == y or (y, u) in pairs for u in ups))
        children[parent].append(v)
    for v in children:
        children[v].sort()
    return children, roots


def oracle_binarize_inc(roots, children):
    if not roots:
        return None
    first, rest = roots[0], roots[1:]
    return BinaryTree(
        oracle_binarize_inc(children[first], children),
        oracle_binarize_inc(rest, children),
    )


def oracle_binarize_dec(roots, children):
    if not roots:
        return None
    last, rest = roots[-1], roots[:-1]
    return BinaryTree(
        oracle_binarize_dec(rest, children),
        oracle_binarize_dec(children[last], children),
    )


def oracle_to_interval(n, rel):
    dec_children, dec_roots = oracle_forest(n, frozenset(p for p in rel if p[0] > p[1]))
    inc_children, inc_roots = oracle_forest(n, frozenset(p for p in rel if p[0] < p[1]))
    return TamariInterval(
        oracle_binarize_dec(dec_roots, dec_children),
        oracle_binarize_inc(inc_roots, inc_children),
    )


def oracle_sort_key(n, rel):
    inc = sorted(p for p in rel if p[0] < p[1])
    dec = sorted(p for p in rel if p[0] > p[1])
    return (n, inc, dec)


def oracle_json(n, rel):
    return json.dumps({
        "size": n,
        "inc": sorted([a, b] for (a, b) in rel if a < b),
        "dec": sorted([b, a] for (b, a) in rel if b > a),
    })


def oracle_rise(n, rel):
    """Size n+1: decreasing pairs kept, each increasing (x, y) -> (x+1, y+1)."""
    return n + 1, frozenset((x + 1, y + 1) if x < y else (x, y) for (x, y) in rel)


def oracle_fall(n, rel):
    """Size n-1: decreasing pairs kept, each increasing (x, y) -> (x-1, y-1)."""
    if any(x == 1 for (x, y) in rel if x < y):
        raise ValueError("fall undefined: increasing relation starting at 1")
    if any(x == n for (x, y) in rel if x > y):
        raise ValueError(f"fall undefined: decreasing relation starting at {n}")
    return n - 1, frozenset((x - 1, y - 1) if x < y else (x, y) for (x, y) in rel)


def oracle_rise_k(n, rel, k):
    for _ in range(k):
        n, rel = oracle_rise(n, rel)
    return n, rel


def oracle_range_check(n, pairs):
    """The check of the pair-set ``RangeRelation``, in set order."""
    for (x, y) in pairs:
        if not (1 <= x <= n and 1 <= y <= n) or x == y:
            raise ValueError(f"pair ({x},{y}) out of range for size {n}")


def oracle_insert_fik(n, rel, i, k):
    """Insertion: every pair shifted around k (increasing) or i (decreasing),
    plus k <| k+1 and i <| i-1."""
    if not 1 <= i <= k <= n + 1:
        raise ValueError(f"need 1 <= i <= k <= {n + 1}, got i={i}, k={k}")
    ir, dr = oracle_stat(n, rel)
    if not (dr <= i and k - 1 <= ir):
        raise ValueError(
            f"poset with stat (ir={ir}, dr={dr}) not insertable at (i={i}, k={k})"
        )
    pairs = set()
    if k <= n:
        pairs.add((k, k + 1))
    if i >= 2:
        pairs.add((i, i - 1))
    for (x, y) in rel:
        if x < y:
            if y < k:
                pairs.add((x, y))
            elif x < k:
                pairs.add((x, y + 1))
            else:
                pairs.add((x + 1, y + 1))
        else:  # y <| x with y < x, shifted around i
            hi, lo = x, y
            if i <= lo:
                pairs.add((hi + 1, lo + 1))
            elif i <= hi:
                pairs.add((hi + 1, lo))
            else:
                pairs.add((hi, lo))
    result = oracle_validate(frozenset(pairs))
    assert oracle_stat(n + 1, result) == (k, i), "insertion left the wrong statistic"
    return result


def oracle_remove_rho(n, rel):
    """Removal: drop the vertex ir on the increasing side and dr on the
    decreasing side."""
    k, i = oracle_stat(n, rel)
    if i > k:
        raise ValueError("removal requires an infinitely modern poset")
    if n < 2:
        raise ValueError("removal requires size at least 2")
    pairs = set()
    for (a, b) in rel:
        if a < b:
            if a < k < b:
                pairs.add((a, b - 1))
            elif k < a:
                pairs.add((a - 1, b - 1))
        else:  # b <| a with b < a
            if a < i:
                pairs.add((a, b))
            elif b < i < a:
                pairs.add((a - 1, b))
    result = oracle_validate(frozenset(pairs))
    ir, dr = oracle_stat(n - 1, result)
    assert dr <= i and k - 1 <= ir, "removal left the statistic out of range"
    return result


def oracle_mirror(n, rel):
    return oracle_construct(frozenset((n + 1 - a, n + 1 - b) for (a, b) in rel))


def outcome(fn, *args):
    """What ``fn(*args)`` gives: ``("ok", value)`` or the exception's type
    and message."""
    try:
        return "ok", fn(*args)
    except (AssertionError, ValueError) as exc:
        return type(exc), str(exc)


def oracle_iterated_rise_valid(n, rel, k_max=None):
    """Every rise up to ``k_max`` (default n+1) validates; rises go on from
    the unclosed risen relation."""
    if k_max is None:
        k_max = n + 1
    for _ in range(k_max):
        n, rel = oracle_rise(n, rel)
        try:
            oracle_validate(rel)
        except InvalidIntervalPoset:
            return False
    return True


@lru_cache(maxsize=None)
def oracle_posets(n):
    """Every interval-poset of size n, as pair sets in the canonical order."""
    trees = enumerate_trees(n)
    rels = [oracle_tree_relations(t)[1] for t in trees]
    decs = [frozenset(p for p in r if p[0] > p[1]) for r in rels]
    incs = [frozenset(p for p in r if p[0] < p[1]) for r in rels]
    out = [
        oracle_validate(decs[i] | incs[j])
        for i in range(len(trees))
        for j in range(len(trees))
        if decs[i] <= decs[j]
    ]
    out.sort(key=lambda rel: oracle_sort_key(n, rel))
    return out


# -- exhaustive comparison up to size 6 ---------------------------------------

@pytest.mark.parametrize("n", SIZES)
def test_tree_relations_match(n):
    for t in enumerate_trees(n):
        assert tree_relations(t) == oracle_tree_relations(t)[1]


@pytest.mark.parametrize("n", SIZES)
def test_enumeration_order_and_json_bytes(n):
    posets = enumerate_interval_posets(n)
    oracle = oracle_posets(n)
    assert [p.relations for p in posets] == oracle
    assert [p.sort_key() for p in posets] == [oracle_sort_key(n, r) for r in oracle]
    assert [poset_to_json(p) for p in posets] == [oracle_json(n, r) for r in oracle]


@pytest.mark.parametrize("n", SIZES)
def test_classifiers_match(n):
    for p, rel in zip(enumerate_interval_posets(n), oracle_posets(n)):
        assert classify.hasse(p) == oracle_hasse(n, rel)
        assert classify.is_exceptional(p) == oracle_is_exceptional(n, rel)
        assert classify.is_modern(p) == oracle_is_modern(n, rel)
        assert classify.is_new_ip(p) == oracle_is_new_ip(n, rel)
        s = classify.stat(p)
        assert (s.ir, s.dr) == oracle_stat(n, rel)
        assert classify.is_infinitely_modern(p) == (s.dr <= s.ir)
        assert avoids_long_crossing(p) == oracle_avoids_long_crossing(rel)


@pytest.mark.parametrize("n", SIZES)
def test_to_interval_matches(n):
    for p, rel in zip(enumerate_interval_posets(n), oracle_posets(n)):
        assert to_interval(p) == oracle_to_interval(n, rel)


@pytest.mark.parametrize("n", SIZES)
def test_iterated_rise_matches(n):
    for p, rel in zip(enumerate_interval_posets(n), oracle_posets(n)):
        for k_max in (None, 0, 1, 2, 3):
            want = oracle_iterated_rise_valid(n, rel, k_max)
            assert iterated_rise_valid(p, k_max) == want, (sorted(rel), k_max)


@pytest.mark.parametrize("n", SIZES)
def test_rise_fall_and_rise_k_match(n):
    for p, rel in zip(enumerate_interval_posets(n), oracle_posets(n)):
        for k in range(4):
            got = rise_k(p, k)
            assert type(got) is RangeRelation
            assert (got.n, got.pairs) == oracle_rise_k(n, rel, k), (sorted(rel), k)
        risen = rise(p)
        assert type(risen) is RangeRelation
        assert (risen.n, risen.pairs) == oracle_rise(n, rel)
        for q, (m, q_rel) in ((p, (n, rel)), (risen, oracle_rise(n, rel))):
            want = outcome(oracle_fall, m, q_rel)
            got = outcome(fall, q)
            if want[0] == "ok":
                assert got[0] == "ok" and type(got[1]) is RangeRelation
                assert (got[1].n, got[1].pairs) == want[1], sorted(q_rel)
            else:
                assert got == want, sorted(q_rel)


@pytest.mark.parametrize("n", SIZES)
def test_insert_and_remove_match(n):
    inserted = 0
    for p, rel in zip(enumerate_interval_posets(n), oracle_posets(n)):
        for i in range(n + 3):
            for k in range(n + 3):
                want = outcome(oracle_insert_fik, n, rel, i, k)
                got = outcome(insert_fik, p, i, k)
                if want[0] == "ok":
                    assert got[0] == "ok" and got[1].relations == want[1]
                    inserted += 1
                else:
                    assert got == want, (sorted(rel), i, k)
        want = outcome(oracle_remove_rho, n, rel)
        got = outcome(remove_rho, p)
        if want[0] == "ok":
            assert got[0] == "ok" and got[1].relations == want[1], sorted(rel)
        else:
            assert got == want, sorted(rel)
    assert inserted > 0


@pytest.mark.parametrize("n", SIZES)
def test_mirror_matches(n):
    for p, rel in zip(enumerate_interval_posets(n), oracle_posets(n)):
        got = mirror_poset(p)
        assert type(got) is IntervalPoset
        assert got.relations == oracle_mirror(n, rel)


@pytest.mark.parametrize("n", SIZES)
def test_poset_is_not_its_relation_and_repr_is_unchanged(n):
    for p, rel in zip(enumerate_interval_posets(n), oracle_posets(n)):
        assert p != p.as_relation() and p.as_relation() != p
        assert p.as_relation() == RangeRelation(n, rel)
        assert repr(p) == f"IntervalPoset({n}, {sorted(rel)})"


# -- random relations up to size 8 --------------------------------------------

@st.composite
def relations(draw):
    n = draw(st.integers(1, 8))
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    return n, frozenset(draw(st.lists(pair, max_size=12)))


def assert_same_outcome(build, oracle_build, n, pairs, checked):
    """``build`` and ``oracle_build`` raise the same exception with the same
    witness, or both succeed with equal relations.  A cycle witness is
    (a, b, a) for a 2-cycle of the ``checked`` relation: the oracle takes
    the first in set-iteration order, the mask code the smallest, so the
    test asks for the smallest 2-cycle of ``checked``."""
    try:
        want = oracle_build(pairs)
    except InvalidIntervalPoset as exc:
        with pytest.raises(type(exc)) as got:
            build(n, pairs)
        if isinstance(exc, IntervalConditionViolated):
            assert got.value.witness == exc.witness
            assert got.value.condition == exc.condition
        elif isinstance(exc, NotAPoset):
            two_cycles = sorted((a, b) for (a, b) in checked if (b, a) in checked)
            a, b, c = got.value.cycle
            assert a == c and (a, b) == two_cycles[0]
        else:
            assert str(got.value) == str(exc)
        return
    assert build(n, pairs).relations == want


@given(relations())
def test_validate_matches_oracle(case):
    n, pairs = case
    assert_same_outcome(
        lambda n, pairs: validate(RangeRelation(n, pairs)),
        oracle_validate, n, pairs, oracle_closure(pairs),
    )


@given(relations())
def test_constructor_matches_oracle(case):
    n, pairs = case
    # the constructor checks the pairs it is given, before any closure
    assert_same_outcome(IntervalPoset, oracle_construct, n, pairs, pairs)


@given(relations())
def test_transitive_closure_matches_oracle(case):
    _, pairs = case
    assert transitive_closure(pairs) == oracle_closure(pairs)


@st.composite
def pair_sets(draw):
    """Pairs on {0..n+1}, so some are out of range or reflexive."""
    n = draw(st.integers(1, 8))
    pair = st.tuples(st.integers(0, n + 1), st.integers(0, n + 1))
    return n, frozenset(draw(st.lists(pair, max_size=12)))


@given(pair_sets())
def test_range_relation_matches_pair_set(case):
    n, pairs = case
    want = outcome(oracle_range_check, n, pairs)
    got = outcome(RangeRelation, n, pairs)
    if want[0] != "ok":
        assert got == want
        return
    rel = got[1]
    assert rel.n == n and rel.pairs == pairs
    assert rel.inc == frozenset((x, y) for (x, y) in pairs if x < y)
    assert rel.dec == frozenset((x, y) for (x, y) in pairs if x > y)
    again = RangeRelation(n, sorted(pairs, reverse=True))
    assert again == rel and hash(again) == hash(rel)
    assert repr(rel) == f"RangeRelation({n}, {sorted(pairs)})"
