"""Oracles and fixtures that only the tests need, kept out of ``tamari``
because nothing there calls them.

The pair views and the closure are thin wrappers over the package
(``relation_masks`` and ``posets._close``), so the tests that use them
still exercise it.  The others are independent implementations to check
the package against: rotations for the Tamari order, grafting for the
shape of a rise, the tree mirror for ``mirror_poset``, the span-OR loop for
``relation_masks``, the recursive text and repr of a tree, the
Bell-number scan for ``enumerate_ncp``, the ``ncp_leq`` pair scan for
the census's NC-partition interval count, the packed tree-pair scan
for the bracket-vector generator of ``posets._interval_pairs``, and the
per-pair (ir, dr) loop for the triangle's bitsets.  Several
recurse, which is fine on the small trees the tests give them.
"""

from __future__ import annotations

from tamari import classify
from tamari.census import TriangleB
from tamari.noncrossing import (
    NoncrossingPartition,
    enumerate_ncp,
    make_partition,
    ncp_leq,
)
from tamari.posets import (
    InvalidIntervalPoset,
    IntervalPoset,
    Pair,
    RangeRelation,
    _close,
    _masks,
    universe,
    validate,
)
from tamari.trees import (
    BinaryTree,
    Tree,
    dec_masks,
    inc_masks,
    mask_pairs,
    relation_masks,
    size,
    subtree_spans,
)

# -- pair views ---------------------------------------------------------------


def tree_relations(t: Tree) -> frozenset[Pair]:
    """The induced relation of ``t``: (i, j) present iff vertex i lies in the
    subtree rooted at j.  Reflexive pairs are omitted."""
    return mask_pairs(relation_masks(t))


def dec_relations(t: Tree) -> frozenset[Pair]:
    """Decreasing relations of ``t``: pairs (b, a) with a < b and b <| a."""
    return mask_pairs(dec_masks(relation_masks(t)))


def inc_relations(t: Tree) -> frozenset[Pair]:
    """Increasing relations of ``t``: pairs (a, b) with a < b and a <| b."""
    return mask_pairs(inc_masks(relation_masks(t)))


def transitive_closure(pairs: frozenset[Pair]) -> frozenset[Pair]:
    """Transitive closure of a relation on positive labels, reflexive pairs
    omitted (a cycle yields both directions of each of its pairs)."""
    n = max((max(pair) for pair in pairs), default=0)
    return mask_pairs(_close(_masks(n, pairs)))


def is_valid(rel: RangeRelation) -> bool:
    try:
        validate(rel)
    except InvalidIntervalPoset:
        return False
    return True


# -- trees ----------------------------------------------------------------------


def span_or_relation_masks(t: Tree) -> tuple[int, ...]:
    """:func:`tamari.trees.relation_masks` as each subtree span ORing its
    root's bit into every label it covers: quadratic on deep trees."""
    if t is None:
        raise ValueError("the empty tree induces no labelled poset")
    spans = subtree_spans(t)
    up = [0] * len(spans)
    for (j, lo, hi) in spans:
        bit = 1 << (j - 1)
        for i in range(lo - 1, hi):
            up[i] |= bit
        up[j - 1] ^= bit
    return tuple(up)


def covers(t: Tree) -> list[Tree]:
    """All trees obtained from ``t`` by one left rotation ((A B) C) -> (A (B C))."""
    if t is None:
        return []
    out: list[Tree] = []
    if t.left is not None:
        out.append(BinaryTree(t.left.left, BinaryTree(t.left.right, t.right)))
    out.extend(BinaryTree(s, t.right) for s in covers(t.left))
    out.extend(BinaryTree(t.left, s) for s in covers(t.right))
    return out


def graft(t: Tree, i: int, s: Tree) -> Tree:
    """Graft the root of ``s`` on the i-th leaf of ``t`` (leaves are numbered
    1..size(t)+1 from left to right)."""
    n = size(t)
    if not 1 <= i <= n + 1:
        raise ValueError(f"leaf index {i} out of range 1..{n + 1}")

    def go(node: Tree, lo: int) -> Tree:
        # leaves of this subtree are numbered lo..lo+size(node)
        if node is None:
            return s
        k = size(node.left)
        if i <= lo + k:
            return BinaryTree(go(node.left, lo), node.right)
        return BinaryTree(node.left, go(node.right, lo + k + 1))

    return go(t, 1)


def mirror(t: Tree) -> Tree:
    """Left/right reflection."""
    if t is None:
        return None
    return BinaryTree(mirror(t.right), mirror(t.left))


def recursive_tree_to_text(t: Tree) -> str:
    """:func:`tamari.trees.tree_to_text` as it was: `L` for a leaf,
    `(left right)` for a node, by recursion."""
    if t is None:
        return "L"
    return f"({recursive_tree_to_text(t.left)} {recursive_tree_to_text(t.right)})"


def recursive_tree_repr(t: Tree) -> str:
    """The repr that ``dataclass`` generates for ``BinaryTree``, by recursion."""
    if t is None:
        return "None"
    return (f"BinaryTree(left={recursive_tree_repr(t.left)}, "
            f"right={recursive_tree_repr(t.right)})")


def tree_from_text(text: str) -> Tree:
    """Inverse of :func:`tamari.trees.tree_to_text`."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse() -> Tree:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of tree expression")
        tok = tokens[pos]
        pos += 1
        if tok == "L":
            return None
        if tok != "(":
            raise ValueError(f"unexpected token {tok!r}")
        left = parse()
        right = parse()
        if pos >= len(tokens) or tokens[pos] != ")":
            raise ValueError("missing closing parenthesis")
        pos += 1
        return BinaryTree(left, right)

    t = parse()
    if pos != len(tokens):
        raise ValueError("trailing tokens in tree expression")
    return t


def interval_pair_scan(tables) -> list[tuple[int, int]]:
    """(lower, upper) tree indices of every Tamari interval, in the order
    of ``posets._interval_pairs``, as Dec inclusion on packed masks over
    every ordered pair of trees: the scan that the bracket-vector
    generator replaced."""
    lowers = [(i, tables.packed[i]) for i in tables.by_dec]
    return [
        (lower, upper)
        for upper in tables.by_inc
        for lower, low in lowers
        if not low & ~tables.packed[upper]
    ]


# -- classifiers and partitions -------------------------------------------------


def avoids_long_crossing(p: IntervalPoset) -> bool:
    """No w <| x and z <| y with w < x < y < z, as literally stated.

    Not authoritative: the literal strict pattern misses posets like
    {1 <| 2, 3 <| 2} whose first rise already fails, so infinite
    modernity is decided by ``classify.is_infinitely_modern`` instead.
    """
    down = p.down
    incs = [x for x, below in enumerate(down) if below & ((1 << x) - 1)]
    decs = [y for y, below in enumerate(down) if below >> (y + 1)]
    return not (incs and decs and incs[0] < decs[-1])


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for idx in range(len(part)):
            yield part[:idx] + [[first] + part[idx]] + part[idx + 1:]


def bell_scan_ncp(n: int) -> list[NoncrossingPartition]:
    """:func:`tamari.noncrossing.enumerate_ncp` as a filter over all Bell(n)
    set partitions of {1..n}, sorted by blocks."""
    out = []
    for part in _set_partitions(list(range(1, n + 1))):
        try:
            out.append(make_partition(part))
        except ValueError:
            continue
    out.sort(key=lambda p: p.blocks)
    return out


def ncp_interval_scan(n: int) -> int:
    """The number of NC-partition intervals of size n, as ``ncp_leq`` on
    every ordered pair of partitions: the scan that the Kreweras product
    in :func:`tamari.census.census` replaced."""
    ncps = enumerate_ncp(n)
    return sum(ncp_leq(p1, p2) for p1 in ncps for p2 in ncps)


def triangle_pair_scan(n: int) -> TriangleB:
    """:func:`tamari.census.triangle_by_statistic` as one pass over the
    universe's tree pairs, dr of each lower tree and ir of each upper tree:
    the loop that the per-upper bitsets replaced."""
    u = universe(n)
    data = classify._tree_data(n)
    table: dict[tuple[int, int], int] = {}
    for lower, upper in zip(u.lowers, u.uppers):
        dr, ir = data.dr[lower], data.ir[upper]
        if dr <= ir:
            key = (dr - 1, n - ir)
            table[key] = table.get(key, 0) + 1
    return TriangleB(n, table)
