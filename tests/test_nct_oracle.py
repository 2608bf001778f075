"""Differential tests of the structural noncrossing-tree generator against
the edge-subset scan it replaced.

The oracle below is the earlier ``enumerate_nct``: it tests every set of n
chords of the based (n+1)-gon for crossings and for being a spanning tree,
with its own copies of both checks.  Its cost grows with C(C(n+1, 2), n),
so the list comparison at n = 7 (about 6 s) is marked ``slow`` and left
out of the default run; ``pytest -m slow`` runs it.
"""

from __future__ import annotations

import itertools

import pytest

from tamari.noncrossing import NoncrossingTree, enumerate_nct


# -- the subset-scan oracle ---------------------------------------------------

def oracle_crossing(e1, e2):
    (a, b), (c, d) = sorted((e1, e2))
    return a < c < b < d


def oracle_is_tree(n, edges):
    if len(edges) != n:
        return False
    seen = {0}
    stack = [0]
    adj = {v: [] for v in range(n + 1)}
    for (a, b) in edges:
        adj[a].append(b)
        adj[b].append(a)
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n + 1  # n edges + connected => acyclic


def oracle_enumerate_nct(n):
    chords = [(a, b) for a in range(n + 1) for b in range(a + 1, n + 1)]
    out = []
    for combo in itertools.combinations(chords, n):
        edges = frozenset(combo)
        if any(oracle_crossing(e1, e2) for e1, e2 in itertools.combinations(combo, 2)):
            continue
        if oracle_is_tree(n, edges):
            out.append(NoncrossingTree(n, edges))
    out.sort(key=NoncrossingTree.sort_key)
    return out


# -- the tests ----------------------------------------------------------------

@pytest.mark.parametrize("n", [
    1, 2, 3, 4, 5, 6,
    pytest.param(7, marks=pytest.mark.slow),
])
def test_same_list_as_the_scan(n):
    assert enumerate_nct(n) == oracle_enumerate_nct(n)
