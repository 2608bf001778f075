"""Noncrossing trees and noncrossing partitions.

Polygon convention: a based (n+1)-gon has vertices 0..n; boundary edge k
joins vertices k-1 and k (k = 1..n) and the base joins 0 and n.  Every
edge of a noncrossing tree gets a canonical label: a boundary edge keeps
its index, a chord gets the unique boundary index it separates from the
base and that no nested edge has already consumed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from . import classify
from .posets import IntervalPoset, RangeRelation, from_interval, validate
from .trees import BinaryTree, TamariInterval, Tree, size

Chord = tuple[int, int]


def _crossing(e1: Chord, e2: Chord) -> bool:
    (a, b), (c, d) = sorted((e1, e2))
    return a < c < b < d


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


@dataclass(frozen=True)
class NoncrossingTree:
    """A noncrossing spanning tree of the vertices of a based (n+1)-gon."""

    n: int
    edges: frozenset[Chord]

    def __post_init__(self) -> None:
        for (a, b) in self.edges:
            if not 0 <= a < b <= self.n:
                raise ValueError(f"chord ({a},{b}) out of range for a {self.n + 1}-gon")
        if not _is_tree(self.n, self.edges):
            raise ValueError("edge set is not a spanning tree")
        for e1, e2 in itertools.combinations(self.edges, 2):
            if _crossing(e1, e2):
                raise ValueError(f"edges {e1} and {e2} cross")

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
    return [NoncrossingTree(n, frozenset(edges)) for edges in ordered]


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


def nct_to_poset(t: NoncrossingTree) -> IntervalPoset:
    """i <| j iff the edge labelled j separates the edge labelled i from the
    base (closed nesting: shared endpoints count as separated).  The result
    is always an exceptional interval-poset."""
    chord_of = {label: chord for chord, label in edge_labels(t).items()}
    pairs = set()
    for i, (c, d) in chord_of.items():
        for j, (a, b) in chord_of.items():
            if i != j and a <= c <= d <= b:
                pairs.add((i, j))
    return validate(RangeRelation(t.n, frozenset(pairs)))


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


@dataclass(frozen=True)
class PlantOutcome:
    """Signals that a composition leaves the noncrossing-tree family (the
    result would be a noncrossing plant, which is out of scope)."""

    f: "NoncrossingTree"
    i: int
    g: "NoncrossingTree"


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

@dataclass(frozen=True)
class NoncrossingPartition:
    """Blocks sorted by minimum, elements sorted inside each block."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        elements = [x for b in self.blocks for x in b]
        n = len(elements)
        if sorted(elements) != list(range(1, n + 1)) or not all(self.blocks):
            raise ValueError("blocks must partition {1..n} into nonempty sets")
        if list(self.blocks) != sorted(tuple(sorted(b)) for b in self.blocks):
            raise ValueError("blocks must be sorted by minimum, elements sorted")
        for b1, b2 in itertools.combinations(self.blocks, 2):
            for i, k in itertools.combinations(b1, 2):
                if any(i < j < k < l for j in b2 for l in b2):
                    raise ValueError(f"blocks {b1} and {b2} cross")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    def block_of(self, x: int) -> tuple[int, ...]:
        for b in self.blocks:
            if x in b:
                return b
        raise KeyError(x)


def make_partition(blocks) -> NoncrossingPartition:
    return NoncrossingPartition(tuple(sorted(tuple(sorted(b)) for b in blocks)))


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for idx in range(len(part)):
            yield part[:idx] + [[first] + part[idx]] + part[idx + 1:]


def enumerate_ncp(n: int) -> list[NoncrossingPartition]:
    """All noncrossing partitions of {1..n}; there are Catalan(n) of them."""
    if n < 1:
        raise ValueError("size must be at least 1")
    out = []
    for part in _set_partitions(list(range(1, n + 1))):
        try:
            out.append(make_partition(part))
        except ValueError:
            continue
    out.sort(key=lambda p: p.blocks)
    return out


def partition_of_tree(t: Tree) -> NoncrossingPartition:
    """Finest partition joining each vertex (by in-order label) with its
    right child."""
    if t is None:
        raise ValueError("tree must be nonempty")
    parent = list(range(size(t) + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def go(node: Tree, lo: int) -> int:
        if node is None:
            return lo
        mid = go(node.left, lo)  # this node's label
        hi = go(node.right, mid + 1)
        if node.right is not None:
            right_label = mid + 1 + size(node.right.left)
            parent[find(right_label)] = find(mid)
        return hi

    go(t, 1)
    groups: dict[int, list[int]] = {}
    for x in range(1, len(parent)):
        groups.setdefault(find(x), []).append(x)
    return make_partition(groups.values())


def tree_of_partition(pi: NoncrossingPartition) -> Tree:
    """Inverse of :func:`partition_of_tree`: each block becomes a right
    chain rooted at its minimum, then each chain is grafted as the left son
    of the vertex labelled max(block)+1."""
    n = pi.n
    left: dict[int, int | None] = {x: None for x in range(1, n + 1)}
    right: dict[int, int | None] = {x: None for x in range(1, n + 1)}
    root_label = None
    for block in pi.blocks:
        for x, y in zip(block, block[1:]):
            right[x] = y
        m = block[-1]
        if m == n:
            root_label = block[0]
        else:
            left[m + 1] = block[0]
    assert root_label is not None

    def build(label: int | None) -> Tree:
        if label is None:
            return None
        return BinaryTree(build(left[label]), build(right[label]))

    t = build(root_label)
    assert size(t) == n, "grafting did not reassemble the whole tree"
    return t


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
    return NoncrossingTree(obj["n"], frozenset((a, b) for a, b in obj["edges"]))


def ncp_to_json(p: NoncrossingPartition) -> str:
    return json.dumps({"n": p.n, "blocks": [list(b) for b in p.blocks]})


def ncp_from_json(text: str) -> NoncrossingPartition:
    return make_partition(json.loads(text)["blocks"])
