"""Inputs and expected values, computed without the code under test.

Trees use the nested-array form of the CLI's interval JSON: ``None`` is a
leaf and ``[left, right]`` an internal node, labelled 1..n in order.
"""

from __future__ import annotations

import random
from math import comb, factorial

# classify-large: every batch holds LARGE_COUNTS[kind] objects of each
# kind, at sizes spread evenly from LARGE_MIN to LARGE_MAX; the seed only
# moves their structure. So each run has many samples of every size, and
# its high percentiles fall inside one size class instead of jumping
# between classes. The order of the objects is the same for every batch.
LARGE_MIN, LARGE_MAX = 16, 150
LARGE_COUNTS = {"sparse": 25, "dense": 5}


def interval_count(n: int) -> int:
    """2(4n+1)! / ((n+1)!(3n+2)!), the number of Tamari intervals."""
    return 2 * factorial(4 * n + 1) // (factorial(n + 1) * factorial(3 * n + 2))


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _spans(t, lo: int, out: list) -> int:
    """Append (label, first, last) for every node of ``t``, whose in-order
    labels start at ``lo``; return the next unused label."""
    if t is None:
        return lo
    mid = _spans(t[0], lo, out)
    hi = _spans(t[1], mid + 1, out)
    out.append((mid, lo, hi - 1))
    return hi


def tree_relations(t) -> set[tuple[int, int]]:
    """Pairs (i, j), i != j, with vertex i in the subtree rooted at j."""
    spans: list = []
    _spans(t, 1, spans)
    return {(i, j) for (j, lo, hi) in spans for i in range(lo, hi + 1) if i != j}


def interval_relations(lower, upper) -> set[tuple[int, int]]:
    """Dec(lower) | Inc(upper): the interval-poset of [lower, upper]."""
    dec = {(i, j) for (i, j) in tree_relations(lower) if i > j}
    inc = {(i, j) for (i, j) in tree_relations(upper) if i < j}
    return dec | inc


def poset_obj(n: int, relations) -> dict:
    """The CLI's poset JSON: every pair [a, b] means a is below b."""
    return {
        "size": n,
        "inc": sorted([a, b] for (a, b) in relations if a < b),
        "dec": sorted([a, b] for (a, b) in relations if a > b),
    }


def _random_bst(n: int, rng: random.Random):
    # insertion of a random permutation: depth O(log n), few relations
    keys = list(range(1, n + 1))
    rng.shuffle(keys)
    root = [keys[0], None, None]
    for k in keys[1:]:
        node = root
        while True:
            side = 1 if k < node[0] else 2
            if node[side] is None:
                node[side] = [k, None, None]
                break
            node = node[side]

    def strip(node):
        return None if node is None else [strip(node[1]), strip(node[2])]

    return strip(root)


def _near_chain(n: int, rng: random.Random, branches: int = 2):
    # one child per node except at ``branches`` points, where a side tree
    # of at most four nodes hangs off: about n^2/2 relations whatever the
    # seed, which is what makes the closure and Hasse scans costly
    split_at = set(rng.sample(range(max(3, n // 4), 3 * n // 4), branches))

    def build(m: int):
        if m == 0:
            return None
        if m in split_at:
            k = rng.randrange(1, min(5, m - 1))
            return [build(k), build(m - 1 - k)]
        if rng.random() < 0.5:
            return [build(m - 1), None]
        return [None, build(m - 1)]

    return build(n)


def _rotate_up(t, rng: random.Random):
    """One left rotation ((A B) C) -> (A (B C)) at a random node: a step up
    in the Tamari order."""
    paths = []
    stack = [(t, ())]
    while stack:
        node, path = stack.pop()
        if node is None:
            continue
        if node[0] is not None:
            paths.append(path)
        stack.append((node[0], path + (0,)))
        stack.append((node[1], path + (1,)))
    if not paths:
        return t

    def rebuild(node, path):
        if not path:
            (a, b), c = node
            return [a, [b, c]]
        copy = list(node)
        copy[path[0]] = rebuild(node[path[0]], path[1:])
        return copy

    return rebuild(t, rng.choice(paths))


def large_batch(seed, counts=LARGE_COUNTS, lo=LARGE_MIN, hi=LARGE_MAX) -> list[dict]:
    """The classify-large input stream for ``seed``.

    Each item holds the interval [lower, upper] and its poset JSON object.
    Sparse items are random search trees raised by n/4 rotations; dense
    items are near-chains raised by n/16 rotations.
    """
    slots = [
        (kind, round(lo + (hi - lo) * i / max(count - 1, 1)))
        for kind, count in counts.items() for i in range(count)
    ]
    random.Random(0).shuffle(slots)
    rng = random.Random(seed)
    items = []
    for kind, n in slots:
        if kind == "sparse":
            lower, steps = _random_bst(n, rng), n // 4
        else:
            lower, steps = _near_chain(n, rng), n // 16
        upper = lower
        for _ in range(steps):
            upper = _rotate_up(upper, rng)
        items.append({
            "kind": kind,
            "lower": lower,
            "upper": upper,
            "poset": poset_obj(n, interval_relations(lower, upper)),
        })
    return items
