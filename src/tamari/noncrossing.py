"""Noncrossing trees and noncrossing partitions.

Polygon convention: a based (n+1)-gon has vertices 0..n; boundary edge k
joins vertices k-1 and k (k = 1..n) and the base joins 0 and n.  Every
edge of a noncrossing tree gets a canonical label: a boundary edge keeps
its index, a chord gets the unique boundary index it separates from the
base and that no nested edge has already consumed.
"""

from __future__ import annotations

import json
from itertools import accumulate
from operator import attrgetter, or_
from typing import NamedTuple

from . import classify
from .posets import (
    IntervalPoset,
    _brackets_inc,
    _check_limit,
    _upper_tree,
    _validated,
    from_interval,
)
from .trees import TamariInterval, Tree, _Frozen, _set, enumerate_trees, subtree_spans

Chord = tuple[int, int]


def _is_tree(n: int, edges: frozenset[Chord]) -> bool:
    if len(edges) != n:
        return False
    seen = {0}
    stack = [0]
    adj: dict[int, list[int]] = {v: [] for v in range(n + 1)}
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


class NoncrossingTree(_Frozen):
    """A noncrossing spanning tree of the vertices of a based (n+1)-gon."""

    __slots__ = _fields = ("n", "edges")

    def __init__(self, n: int, edges: frozenset[Chord]) -> None:
        _set(self, "n", n)
        _set(self, "edges", edges)
        self.__post_init__()

    def __post_init__(self) -> None:
        for (a, b) in self.edges:
            if not 0 <= a < b <= self.n:
                raise ValueError(f"chord ({a},{b}) out of range for a {self.n + 1}-gon")
        if not _is_tree(self.n, self.edges):
            raise ValueError("edge set is not a spanning tree")
        # sweep by start, longer first; the open chords nest, so a chord
        # crosses one iff the innermost ends strictly inside it
        nested: list[Chord] = []
        for a, b in sorted(self.edges, key=lambda e: (e[0], -e[1])):
            while nested and nested[-1][1] <= a:
                nested.pop()
            if nested and nested[-1][1] < b:
                raise ValueError(f"edges {nested[-1]} and {(a, b)} cross")
            nested.append((a, b))

    def sort_key(self) -> tuple:
        return (self.n, sorted(self.edges))


def enumerate_nct(n: int) -> list[NoncrossingTree]:
    """All noncrossing trees in the based (n+1)-gon, canonically ordered by
    sorted edge list; there are Fuss-Catalan(n) of them.

    Structural generation over convex vertex ranges lo..hi (Noy 1998;
    Flajolet-Noy 1999), in time proportional to the output:

    - ``with_edge[lo, hi]`` holds the trees on lo..hi that contain the
      edge (lo, hi).  Removing that edge leaves a tree on lo..k and one on
      k+1..hi, for some lo <= k < hi.
    - ``every[lo, hi]`` holds all trees on lo..hi.  A tree without the edge
      (lo, hi) has a smallest vertex m, lo < m < hi, that no edge passes
      over; it is a tree on lo..m that contains (lo, m) joined at m to any
      tree on m..hi.

    Each tree arises exactly once.  Both tables live only for this call.
    The trees are built with no constructor check: each is a noncrossing
    spanning tree by construction.
    """
    if n < 1:
        raise ValueError("size must be at least 1")
    Trees = list[tuple[Chord, ...]]  # each tree as a tuple of its edges
    every: dict[Chord, Trees] = {(v, v): [()] for v in range(n + 1)}
    with_edge: dict[Chord, Trees] = {}
    for span in range(1, n + 1):
        for lo in range(n + 1 - span):
            hi = lo + span
            edge = ((lo, hi),)
            with_edge[lo, hi] = [
                edge + left + right
                for k in range(lo, hi)
                for left in every[lo, k]
                for right in every[k + 1, hi]
            ]
            every[lo, hi] = with_edge[lo, hi] + [
                left + right
                for m in range(lo + 1, hi)
                for left in with_edge[lo, m]
                for right in every[m, hi]
            ]
    # sorted edge tuples compare as NoncrossingTree.sort_key does
    ordered = sorted(tuple(sorted(edges)) for edges in every[0, n])
    return [_trusted_nct(n, frozenset(edges)) for edges in ordered]


def count_nct(n: int) -> int:
    """The number of noncrossing trees in the based (n+1)-gon, by the
    recursion of :func:`enumerate_nct` on the number s of polygon sides
    that a vertex range spans, with no tree built:

    - with_edge(s) = sum over k of every(k) every(s - 1 - k);
    - every(s) = with_edge(s) + sum over 0 < m < s of
      with_edge(m) every(s - m).
    """
    if n < 1:
        raise ValueError("size must be at least 1")
    every, with_edge = [1], [0]
    for s in range(1, n + 1):
        with_edge.append(sum(every[k] * every[s - 1 - k] for k in range(s)))
        every.append(with_edge[s] + sum(with_edge[m] * every[s - m] for m in range(1, s)))
    return every[n]


def _trusted_nct(n: int, edges: frozenset[Chord]) -> NoncrossingTree:
    """A :class:`NoncrossingTree` on edges known to form one, with no check."""
    t = object.__new__(NoncrossingTree)
    _set(t, "n", n)
    _set(t, "edges", edges)
    return t


def edge_labels(t: NoncrossingTree) -> dict[Chord, int]:
    """The canonical bijection edges -> {1..n}.

    Edges are processed by increasing span; each takes the single boundary
    index inside its span not consumed by a nested edge.  Uniqueness is
    asserted: a failure means a broken invariant, not bad input.
    """
    labels: dict[Chord, int] = {}
    used: set[int] = set()
    for (a, b) in sorted(t.edges, key=lambda e: (e[1] - e[0], e)):
        free = [k for k in range(a + 1, b + 1) if k not in used]
        assert len(free) == 1, f"chord ({a},{b}) has candidate labels {free}"
        labels[(a, b)] = free[0]
        used.add(free[0])
    return labels


def _chord_masks(t: NoncrossingTree) -> list[int]:
    """The up-set masks of :func:`nct_to_poset`: the chords nesting (c, d)
    start at or before c and end at or after d.  Nesting is transitive, so
    there is nothing to close."""
    n, labels = t.n, edge_labels(t)
    starts, ends = [0] * (n + 1), [0] * (n + 1)
    for (a, b), label in labels.items():
        starts[a] |= 1 << (label - 1)
        ends[b] |= 1 << (label - 1)
    by_start = list(accumulate(starts, or_))
    by_end = list(accumulate(reversed(ends), or_))[::-1]
    up = [0] * n
    for (c, d), label in labels.items():
        up[label - 1] = (by_start[c] & by_end[d]) ^ 1 << (label - 1)  # all but (c, d)
    return up


def nct_to_poset(t: NoncrossingTree) -> IntervalPoset:
    """i <| j iff the edge labelled j separates the edge labelled i from the
    base (closed nesting: shared endpoints count as separated).  The result
    is always an exceptional interval-poset."""
    return _validated(_chord_masks(t))


def poset_to_nct(p: IntervalPoset) -> NoncrossingTree:
    """Inverse of :func:`nct_to_poset` on exceptional posets: each element v
    becomes the chord (min-1, max) of its down-set."""
    if not classify.is_exceptional(p):
        raise ValueError("poset is not exceptional")
    edges = set()
    for v, below in enumerate(p.down, 1):
        run = below | 1 << (v - 1)  # v and its down-set
        edges.add(((run & -run).bit_length() - 1, run.bit_length()))
    return NoncrossingTree(p.n, frozenset(edges))


class PlantOutcome(NamedTuple):
    """Signals that a composition leaves the noncrossing-tree family (the
    result would be a noncrossing plant, which is out of scope)."""

    f: NoncrossingTree
    i: int
    g: NoncrossingTree


def nct_compose(
    f: NoncrossingTree, i: int, g: NoncrossingTree
) -> NoncrossingTree | PlantOutcome:
    """Graft g's polygon on boundary side i of f's polygon.

    The grafting diagonal is kept iff it is an edge of both trees (f's
    boundary edge i and g's base), dropped if it is in exactly one, and a
    :class:`PlantOutcome` is returned if it is in neither.
    """
    if not 1 <= i <= f.n:
        raise ValueError(f"side index {i} out of range 1..{f.n}")
    k = g.n
    in_f = (i - 1, i) in f.edges
    in_g = (0, k) in g.edges
    if not in_f and not in_g:
        return PlantOutcome(f, i, g)

    def map_f(v: int) -> int:
        return v if v <= i - 1 else v + k - 1

    def map_g(v: int) -> int:
        return i - 1 + v

    diagonal = (i - 1, i - 1 + k)
    edges = {(map_f(a), map_f(b)) for (a, b) in f.edges if (a, b) != (i - 1, i)}
    edges |= {(map_g(a), map_g(b)) for (a, b) in g.edges if (a, b) != (0, k)}
    if in_f and in_g:
        edges.add(diagonal)
    return NoncrossingTree(f.n + k - 1, frozenset(edges))


def boundary_tree(n: int) -> NoncrossingTree:
    """The tree of all n boundary edges (base excluded for n >= 2)."""
    return NoncrossingTree(n, frozenset((k - 1, k) for k in range(1, n + 1)))


# -- noncrossing partitions --------------------------------------------------

class NoncrossingPartition(_Frozen):
    """Blocks sorted by minimum, elements sorted inside each block.

    ``n`` is the number of elements, stored once; it takes no part in
    equality, hashing or repr.
    """

    _fields = ("blocks",)
    __slots__ = (*_fields, "n")

    def __init__(self, blocks: tuple[tuple[int, ...], ...]) -> None:
        elements = [x for b in blocks for x in b]
        n = len(elements)
        if sorted(elements) != list(range(1, n + 1)) or not all(blocks):
            raise ValueError("blocks must partition {1..n} into nonempty sets")
        if list(blocks) != sorted(tuple(sorted(b)) for b in blocks):
            raise ValueError("blocks must be sorted by minimum, elements sorted")
        # one pass over 1..n with a stack of the blocks begun and not yet
        # ended: a later element of a block must find that block on top,
        # else the block on top began after it and ends after this element
        block_at: list[tuple[int, ...]] = [()] * (n + 1)
        for b in blocks:
            for x in b:
                block_at[x] = b
        begun: list[tuple[int, ...]] = []
        for x in range(1, n + 1):
            b = block_at[x]
            if x == b[0]:
                if len(b) > 1:
                    begun.append(b)
            elif begun[-1] is not b:
                raise ValueError(f"blocks {b} and {begun[-1]} cross")
            elif x == b[-1]:
                begun.pop()
        _set(self, "blocks", blocks)
        _set(self, "n", n)

    def block_of(self, x: int) -> tuple[int, ...]:
        for b in self.blocks:
            if x in b:
                return b
        raise KeyError(x)


def make_partition(blocks) -> NoncrossingPartition:
    return NoncrossingPartition(tuple(sorted(tuple(sorted(b)) for b in blocks)))


def enumerate_ncp(n: int) -> list[NoncrossingPartition]:
    """All noncrossing partitions of {1..n}, sorted by blocks; there are
    Catalan(n) of them, one per binary tree through :func:`partition_of_tree`."""
    if n < 1:
        raise ValueError("size must be at least 1")
    return sorted(map(partition_of_tree, enumerate_trees(n)), key=attrgetter("blocks"))


def partition_of_tree(t: Tree) -> NoncrossingPartition:
    """Finest partition joining each vertex (by in-order label) with its
    right child: a right chain shares the last label of its vertices'
    subtrees, v + r_v, the block key that ``census`` reads."""
    if t is None:
        raise ValueError("tree must be nonempty")
    blocks: dict[int, list[int]] = {}
    for v, _, last in subtree_spans(t):
        blocks.setdefault(last, []).append(v)
    return make_partition(blocks.values())


def tree_of_partition(pi: NoncrossingPartition) -> Tree:
    """Inverse of :func:`partition_of_tree`: each block is a right chain,
    so its vertex v has the bracket r_v = max(block) - v."""
    r = [0] * pi.n
    for block in pi.blocks:
        for v in block:
            r[v - 1] = block[-1] - v
    return _upper_tree(_brackets_inc(r))


def ncp_leq(pi1: NoncrossingPartition, pi2: NoncrossingPartition) -> bool:
    """Refinement order: every block of pi1 sits inside a block of pi2."""
    if pi1.n != pi2.n:
        raise ValueError("partitions must have equal size")
    return all(set(b) <= set(pi2.block_of(b[0])) for b in pi1.blocks)


def ncp_interval_to_ip(
    pi1: NoncrossingPartition, pi2: NoncrossingPartition
) -> IntervalPoset:
    """The interval-poset of [tree(pi1), tree(pi2)]; always exceptional, and
    a bijection from NC-partition intervals onto exceptional posets."""
    if not ncp_leq(pi1, pi2):
        raise ValueError("partitions do not form an interval")
    return from_interval(
        TamariInterval(tree_of_partition(pi1), tree_of_partition(pi2))
    )


# -- serialization ----------------------------------------------------------

def nct_to_json(t: NoncrossingTree) -> str:
    return json.dumps({"n": t.n, "edges": sorted([a, b] for (a, b) in t.edges)})


def nct_from_json(text: str) -> NoncrossingTree:
    obj = json.loads(text)
    _check_limit(obj["n"], "noncrossing tree")
    edges = [(a, b) for a, b in obj["edges"]]
    if len(set(edges)) < len(edges):
        raise ValueError("an edge is listed twice")
    return NoncrossingTree(obj["n"], frozenset(edges))


def ncp_to_json(p: NoncrossingPartition) -> str:
    return json.dumps({"n": p.n, "blocks": [list(b) for b in p.blocks]})


def partition_from_obj(obj: dict) -> NoncrossingPartition:
    """The partition of an ncp JSON object's ``blocks``."""
    _check_limit(sum(map(len, obj["blocks"])), "partition")
    return make_partition(obj["blocks"])


def ncp_from_json(text: str) -> NoncrossingPartition:
    return partition_from_obj(json.loads(text))
