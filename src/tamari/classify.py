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
"""

from __future__ import annotations

from dataclasses import dataclass

from .posets import IntervalPoset, Pair
from .trees import TamariInterval, Tree, dec_masks, mask_pairs, subtree_spans


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
