"""Pattern-avoidance classifiers on interval-posets and intervals.

Four families are detected here:

* exceptional: the Hasse diagram has no element covering both a smaller
  and a larger element (in bijection with noncrossing trees);
* modern: the full relation has no two relations pointing into the same
  middle element from both sides (exactly the posets whose rise is again
  an interval-poset);
* new: the image of the rise of a modern poset, equivalently the posets
  of intervals with no grafting decomposition;
* infinitely modern: every iterated rise stays an interval-poset,
  detected through the (ir, dr) statistic.

Each classifier reads one poset.  :func:`pair_families` decides all four
for the interval [S, T] from data cached per tree of its size; the
classifiers are its oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .posets import IntervalPoset, Pair, _tree_tables
from .trees import (
    TamariInterval,
    Tree,
    dec_masks,
    enumerate_trees,
    mask_pairs,
    subtree_spans,
)


def _cover_masks(p: IntervalPoset) -> list[int]:
    """Up-covers of each vertex: its up-set minus the up-sets above it."""
    up = p.up
    covers = []
    for mask in up:
        implied = 0
        rest = mask
        while rest:
            low = rest & -rest
            implied |= up[low.bit_length() - 1]
            rest ^= low
        covers.append(mask & ~implied)
    return covers


def hasse(p: IntervalPoset) -> frozenset[Pair]:
    """Cover pairs: the relation minus all transitively implied pairs."""
    return mask_pairs(_cover_masks(p))


def _splits(masks) -> bool:
    """Whether some vertex y has bits both below and above y in its mask."""
    return any(
        mask & ((1 << y) - 1) and mask >> (y + 1) for y, mask in enumerate(masks)
    )


def is_exceptional(p: IntervalPoset) -> bool:
    """No y covers both some x < y and some z > y in the Hasse diagram."""
    return not _splits(_cover_masks(p))


def is_modern(p: IntervalPoset) -> bool:
    """No x <| y and z <| y with x < y < z, over all relations (not just
    covers, unlike :func:`is_exceptional`)."""
    return not _splits(p.down)


def is_new_ip(p: IntervalPoset) -> bool:
    """No increasing relation from 1, no decreasing relation from n, and no
    pair i+1 <| j+1 (increasing) with j <| i (decreasing), i < j."""
    up = p.up
    if up and (up[0] or up[-1]):
        return False
    down = p.down
    # the i < j with j <| i, shifted to i + 1, must miss the down-set of j + 1
    return not any(
        (dec << 1) & below for dec, below in zip(dec_masks(up), down[1:])
    )


@dataclass(frozen=True)
class StatPair:
    """Positions of the first length-1 increasing relation (ir) and the
    last length-1 decreasing relation (dr), with conventions ir = n and
    dr = 1 when the respective relations are absent."""

    ir: int
    dr: int


def stat(p: IntervalPoset) -> StatPair:
    up, n = p.up, p.n
    ir = next((k for k in range(1, n) if up[k - 1] >> k & 1), n)
    dr = next((i for i in range(n, 1, -1) if up[i - 1] >> (i - 2) & 1), 1)
    return StatPair(ir=ir, dr=dr)


def is_infinitely_modern(p: IntervalPoset) -> bool:
    s = stat(p)
    return s.dr <= s.ir


def leaf_spans(t: Tree) -> set[tuple[int, int]]:
    """Leaf intervals [i, j] of all nonempty subtrees, leaves numbered
    1..size+1 left to right: the subtree covering labels lo..hi has leaves
    lo..hi+1."""
    return {(lo, hi + 1) for (_, lo, hi) in subtree_spans(t)}


def is_new_interval(interval: TamariInterval) -> bool:
    """Grafting-decomposition search: the interval is new iff no pair of
    subtrees of lower and upper covers the same leaf interval other than
    the full one.  Independent of :func:`is_new_ip`."""
    n = interval.size
    shared = leaf_spans(interval.lower) & leaf_spans(interval.upper)
    shared.discard((1, n + 1))
    return not shared


class _TreeData(NamedTuple):
    """Per-tree data of one size, indexed like ``enumerate_trees(n)``, for
    the tree-pair tests of :func:`pair_families` on Dec(S) | Inc(T)."""

    left_kids: tuple[int, ...]  # bit v - 1: vertex v has a left child
    right_kids: tuple[int, ...]  # bit v - 1: vertex v has a right child
    ir: tuple[int, ...]  # stat's ir, read from the Inc masks
    dr: tuple[int, ...]  # stat's dr, read from the Dec masks
    exc_lower: tuple[int, ...]  # exceptional witness bits, as S
    exc_upper: tuple[int, ...]  # exceptional witness bits, as T
    spans: tuple[frozenset[tuple[int, int]], ...]  # leaf_spans, frozen


@lru_cache(maxsize=None)
def _tree_data(n: int) -> _TreeData:
    """The :class:`_TreeData` of size ``n``, built once per process.

    Exceptional bits are indexed by a triple (y, b, l) of labels, bit
    ((y - 1) n + b - 1) n + l - 1.  For each y, a is its nearest ancestor
    in T that has y in its left subtree and b its nearest ancestor in S
    that has y in its right subtree.  S sets (y, b, last_S(b)); T sets
    every (y, b', l') with b' < first_T(a) and l' < a.
    """
    tables = _tree_tables(n)
    rows = []
    for t, dec, inc in zip(enumerate_trees(n), tables.decs, tables.incs):
        first, last = [0] * (n + 1), [0] * (n + 1)
        left = right = 0
        for v, lo, hi in subtree_spans(t):
            first[v], last[v] = lo, hi
            left |= (lo < v) << (v - 1)
            right |= (hi > v) << (v - 1)
        ir = next((k for k in range(1, n) if inc[k - 1] >> k & 1), n)
        dr = next((i for i in range(n, 1, -1) if dec[i - 1] >> (i - 2) & 1), 1)
        exc_lower = exc_upper = 0
        for y in range(1, n + 1):
            base = (y - 1) * n * n
            below, above = dec[y - 1], inc[y - 1]
            if below:
                b = below.bit_length()  # the largest j < y with y <| j
                exc_lower |= 1 << (base + (b - 1) * n + last[b] - 1)
            if above:
                a = (above & -above).bit_length()  # the smallest j > y with y <| j
                below_a = (1 << (a - 1)) - 1
                for b in range(1, first[a]):
                    exc_upper |= below_a << (base + (b - 1) * n)
        spans = frozenset(leaf_spans(t))
        rows.append((left, right, ir, dr, exc_lower, exc_upper, spans))
    return _TreeData(*map(tuple, zip(*rows)))


class Families(NamedTuple):
    """The family flags of one interval, in the order of the census."""

    exceptional: bool
    modern: bool
    new: bool
    infinitely_modern: bool


def pair_families(n: int, lower: int, upper: int) -> Families:
    """The families of Dec(S) | Inc(T), for S and T the trees of
    ``enumerate_trees(n)`` at indices ``lower`` and ``upper``, S <= T, from
    per-tree data alone:

    - exceptional iff no y has a and b (see :func:`_tree_data`) with
      b < first_T(a) and last_S(b) < a: then neither of y's up-covers a
      and b lies below the other;
    - modern iff no vertex has a left child in T and a right child in S;
    - new iff the leaf spans of S and T share only the full one
      (:func:`is_new_interval`);
    - infinitely modern iff dr(S) <= ir(T), as in :func:`stat`.
    """
    data = _tree_data(n)
    return Families(
        exceptional=not data.exc_upper[upper] & data.exc_lower[lower],
        modern=not data.left_kids[upper] & data.right_kids[lower],
        new=data.spans[lower] & data.spans[upper] <= {(1, n + 1)},
        infinitely_modern=data.dr[lower] <= data.ir[upper],
    )


def is_new_pair(n: int, lower: int, upper: int) -> bool:
    """:func:`is_new_interval` of the interval between the trees of
    ``enumerate_trees(n)`` at indices ``lower`` and ``upper``."""
    return pair_families(n, lower, upper).new


def nice_shape(interval: TamariInterval) -> tuple[Tree, Tree] | None:
    """Witness (S1, T1) with lower = Y o_1 S1 and upper = Y o_2 T1, when the
    bounds have that shape; the interval is new iff additionally
    tamari_leq(S1, T1)."""
    low, up = interval.lower, interval.upper
    if low is None or up is None:
        return None
    if low.right is not None or up.left is not None:
        return None
    return (low.left, up.right)
