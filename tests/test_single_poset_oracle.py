"""Differential tests of the single-poset path of ``posets`` against the
routines it replaced, which live on in ``oracles``.

Each stage is compared with its oracle: the sweep closure ``_close`` with
Warshall's, the per-vertex test ``_is_interval_poset`` with the decision
of the transpose-first check, ``validate`` and the ``IntervalPoset``
constructor with the old validation path (equal exception types and
witnesses), ``relation_from_obj`` with the frozenset reading,
``poset_to_json`` with ``json.dumps`` and ``to_interval`` with the
order-checked interval.  The inputs are every interval-poset up to size
7 (8 under ``-m slow``), every tree pair Dec(S) | Inc(T) up to size 6
(valid or not), seeded large intervals built from random search trees
and near-chains, covers-only chains, a zigzag path, and Hypothesis
relations up to size 40, cycles included.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    checked_to_interval,
    covers,
    dumped_json,
    left_comb,
    pairset_relation_from_obj,
    right_comb,
    runs_hold,
    transpose_check_axioms,
    warshall_close,
    warshall_validate,
)
from tamari import classify, trees
from tamari.posets import (
    IntervalConditionViolated,
    IntervalPoset,
    InvalidIntervalPoset,
    NotAPoset,
    RangeRelation,
    _build,
    _close,
    _is_interval_poset,
    enumerate_interval_posets,
    from_interval,
    poset_from_json,
    poset_to_json,
    relation_from_obj,
    to_interval,
    validate,
)
from tamari.trees import (
    BinaryTree,
    TamariInterval,
    dec_masks,
    enumerate_trees,
    inc_masks,
    relation_masks,
)


def outcome(fn, *args):
    """``("ok", value)``, or the type and message of the exception, whose
    message names the witness."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def oracle_construct(rel: RangeRelation) -> tuple[int, ...]:
    """The old ``IntervalPoset`` constructor: the transpose-first check on
    the pairs given, then closedness."""
    transpose_check_axioms(rel.up)
    if tuple(warshall_close(list(rel.up))) != rel.up:
        raise InvalidIntervalPoset("relation is not transitively closed")
    return rel.up


def assert_relation_matches(up) -> None:
    """Closure, per-vertex test, validation and construction of the
    relation with masks ``up`` agree with the oracles."""
    closed = _close(list(up))
    old = warshall_close(list(up))
    assert [row & ~(1 << i) for i, row in enumerate(closed)] == old
    assert _is_interval_poset(closed) == runs_hold(old)
    rel = _build(RangeRelation, tuple(up))
    assert outcome(lambda r: validate(r).up, rel) == outcome(warshall_validate, rel)
    assert outcome(lambda r: IntervalPoset(r.n, r.pairs).up, rel) == outcome(
        oracle_construct, rel
    )


def assert_poset_matches(p: IntervalPoset) -> None:
    """JSON text, JSON reading and ``to_interval`` of ``p`` agree with the
    oracles, and so does validation from its covers alone."""
    text = poset_to_json(p)
    assert text == dumped_json(p)
    obj = json.loads(text)
    assert relation_from_obj(obj) == pairset_relation_from_obj(obj) == p.as_relation()
    assert poset_from_json(text) == p
    interval = to_interval(p)
    want = checked_to_interval(p)
    assert interval == want and interval.masks == want.masks
    assert_relation_matches(tuple(classify._cover_masks(p)))


def dec_inc(lower, upper) -> tuple[int, ...]:
    """Dec(lower) | Inc(upper), a valid interval-poset iff lower <= upper."""
    low, high = relation_masks(lower), relation_masks(upper)
    return tuple(a | b for a, b in zip(dec_masks(low), inc_masks(high)))


# -- every object of a small size ---------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_every_poset(n):
    for p in enumerate_interval_posets(n):
        assert_poset_matches(p)


@pytest.mark.slow
def test_every_poset_of_size_eight():
    for p in enumerate_interval_posets(8):
        assert_poset_matches(p)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_every_tree_pair(n):
    rejected = 0
    for lower in enumerate_trees(n):
        for upper in enumerate_trees(n):
            up = dec_inc(lower, upper)
            assert_relation_matches(up)
            rejected += not runs_hold(warshall_close(list(up)))
    # Dec(S) | Inc(T) is an interval-poset iff S <= T (Chatel-Pons)
    assert rejected == len(enumerate_trees(n)) ** 2 - len(enumerate_interval_posets(n))


# -- large seeded shapes ------------------------------------------------------

def random_search_tree(n: int, rng: random.Random) -> BinaryTree:
    """The search tree of a random permutation of 1..n: depth O(log n)."""
    keys = list(range(1, n + 1))
    rng.shuffle(keys)
    root = [keys[0], None, None]
    for k in keys[1:]:
        node = root
        while node[1 if k < node[0] else 2] is not None:
            node = node[1 if k < node[0] else 2]
        node[1 if k < node[0] else 2] = [k, None, None]

    def build(node):
        return None if node is None else BinaryTree(build(node[1]), build(node[2]))

    return build(root)


def near_chain(n: int, rng: random.Random) -> BinaryTree:
    """One child per node but at two points, where a side tree of at most
    four nodes hangs off: about n^2/2 relations."""
    split_at = set(rng.sample(range(max(3, n // 4), 3 * n // 4), 2))
    t = None
    for m in range(1, n + 1):  # t has size m - 1
        if m in split_at:
            k = rng.randrange(1, min(5, m - 1))
            side = enumerate_trees(k)[rng.randrange(len(enumerate_trees(k)))]
            t = BinaryTree(side, t) if rng.random() < 0.5 else BinaryTree(t, side)
        else:
            t = BinaryTree(t, None) if rng.random() < 0.5 else BinaryTree(None, t)
    return t


def raised(t: BinaryTree, steps: int, rng: random.Random) -> BinaryTree:
    """``t`` after ``steps`` random left rotations, each a step up in the
    Tamari order."""
    for _ in range(steps):
        up = covers(t)
        if up:
            t = up[rng.randrange(len(up))]
    return t


def large_intervals(seed: int) -> list[TamariInterval]:
    rng = random.Random(seed)
    out = []
    for n in (16, 43, 70, 97, 123, 150):
        lower = random_search_tree(n, rng)
        out.append(TamariInterval(lower, raised(lower, n // 4, rng)))
        lower = near_chain(n, rng)
        out.append(TamariInterval(lower, raised(lower, n // 16, rng)))
    return out


def broken(up: tuple[int, ...], rng: random.Random) -> list[tuple[int, ...]]:
    """Relations near ``up``: one pair dropped, one pair added, one pair
    reversed, so most are invalid and some are not closed."""
    n = len(up)
    pairs = [(x, y) for x in range(n) for y in range(n) if up[x] >> y & 1]
    out = []
    for _ in range(3):
        rows = list(up)
        x, y = rng.choice(pairs)
        rows[x] &= ~(1 << y)
        out.append(tuple(rows))
        rows = list(up)
        a, b = rng.sample(range(n), 2)
        rows[a] |= 1 << b
        out.append(tuple(rows))
        rows = list(up)
        rows[x] &= ~(1 << y)
        rows[y] |= 1 << x
        out.append(tuple(rows))
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_large_seeded_intervals(seed):
    rng = random.Random(seed)
    seen = set()
    for interval in large_intervals(seed):
        p = from_interval(interval)
        assert p.up == dec_inc(interval.lower, interval.upper)
        assert_poset_matches(p)
        assert to_interval(p) == interval
        for up in broken(p.up, rng):
            assert_relation_matches(up)
            seen.add(outcome(validate, _build(RangeRelation, up))[0])
    assert seen == {"ok", NotAPoset, IntervalConditionViolated}


# -- shapes that favour Warshall's closure ------------------------------------

def chain_covers(n: int, step: int) -> tuple[int, ...]:
    """x <| x + step for every x, step = 1 or -1: the covers of a chain."""
    up = [0] * n
    for x in range(n):
        if 0 <= x + step < n:
            up[x] = 1 << (x + step)
    return tuple(up)


def zigzag(n: int) -> tuple[int, ...]:
    """The path 1 <| n <| 2 <| n - 1 <| ..., whose steps alternate in
    direction."""
    path = [v for k in range(n // 2) for v in (k, n - 1 - k)][:n]
    up = [0] * n
    for x, y in zip(path, path[1:]):
        up[x] |= 1 << y
    return tuple(up)


@pytest.mark.parametrize("n", [2, 3, 10, 150])
def test_covers_only_chains_and_zigzag(n):
    for step in (1, -1):
        up = chain_covers(n, step)
        assert_relation_matches(up)
        p = validate(_build(RangeRelation, up))
        assert len(p.relations) == n * (n - 1) // 2
        assert_poset_matches(p)
    assert_relation_matches(zigzag(n))


# -- random relations ---------------------------------------------------------

@st.composite
def relations(draw, max_n=40):
    """Masks of a random relation of size at most ``max_n``; a few cycles
    are planted so that not every failure is an interval condition."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    up = [0] * n
    for x, y in draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)):
        if x != y:
            up[x] |= 1 << y
    if n > 1 and draw(st.booleans()):
        cycle = draw(st.lists(vertex, min_size=2, max_size=min(n, 6), unique=True))
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            up[x] |= 1 << y
    return tuple(up)


@settings(max_examples=300, deadline=None)
@given(relations())
def test_random_relations(up):
    assert_relation_matches(up)


@settings(max_examples=200, deadline=None)
@given(relations())
def test_random_relations_in_json(up):
    """JSON text of a relation, and its reading, agree with the oracles;
    a closed and valid one also reads back through ``poset_from_json``."""
    rel = _build(RangeRelation, up)
    text = poset_to_json(rel)
    assert text == dumped_json(rel)
    obj = json.loads(text)
    assert relation_from_obj(obj) == pairset_relation_from_obj(obj) == rel
    assert outcome(lambda t: poset_from_json(t).up, text) == outcome(warshall_validate, rel)


@st.composite
def pair_objects(draw):
    """Poset JSON objects whose pairs may be reflexive or out of range."""
    n = draw(st.integers(0, 40))
    pair = st.lists(st.integers(-1, n + 2), min_size=2, max_size=2)
    return {"size": n, "inc": draw(st.lists(pair, max_size=8)),
            "dec": draw(st.lists(pair, max_size=8))}


@settings(max_examples=200, deadline=None)
@given(pair_objects())
def test_reading_rejects_what_the_pair_set_rejects(obj):
    """Both readings fail together, with the same message when one pair
    alone is bad (they look at the pairs in different orders)."""
    got, want = outcome(relation_from_obj, obj), outcome(pairset_relation_from_obj, obj)
    assert got[0] == want[0]
    n = obj["size"]
    bad = {(x, y) for x, y in obj["inc"] + obj["dec"]
           if not (1 <= x <= n and 1 <= y <= n) or x == y}
    if len(bad) <= 1:
        assert got == want


# -- non-integer input ----------------------------------------------------------

@pytest.mark.parametrize("text", [
    '{"size": 2, "inc": [[true, 2]], "dec": []}',
    '{"size": 2, "inc": [[1, 2.0]], "dec": []}',
    '{"size": 2.5, "inc": [], "dec": []}',
])
def test_non_integers_are_refused(text):
    with pytest.raises(ValueError):
        poset_from_json(text)


@pytest.mark.parametrize("n, pairs", [
    (2, [(True, 2)]), (2, [(1, 2.0)]), (2.0, [(1, 2)]), (True, []), (2, [("1", 2)]),
])
def test_the_constructor_refuses_non_integers(n, pairs):
    with pytest.raises(ValueError):
        RangeRelation(n, pairs)


def test_a_huge_vertex_is_refused_before_its_bit_is_built():
    with pytest.raises(ValueError, match="out of range"):
        relation_from_obj({"size": 3, "inc": [[1, 10**12]], "dec": []})


# -- to_interval builds no order check -------------------------------------------

def test_to_interval_walks_the_masks_only_when_read(monkeypatch):
    p = enumerate_interval_posets(5)[17]
    calls = []
    compared = trees._compared
    monkeypatch.setattr(trees, "_compared", lambda *args: calls.append(1) or compared(*args))
    interval = to_interval(p)
    assert calls == []
    for _ in range(2):
        assert interval.masks == (relation_masks(interval.lower), relation_masks(interval.upper))
    assert calls == [1]
    TamariInterval(interval.lower, interval.upper)  # a user-built one is checked
    assert calls == [1, 1]
    with pytest.raises(ValueError):
        TamariInterval(right_comb(5), left_comb(5))
