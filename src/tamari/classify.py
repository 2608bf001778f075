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

Each classifier reads one poset.  :func:`family_bits` decides all four
for every lower tree of an upper tree at once, from the per-tree columns
of :func:`posets.universe`; the classifiers are its oracles.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, getitem, or_
from typing import Iterable, Iterator, NamedTuple

from .posets import IntervalPoset, Pair, _or_rows, universe
from .trees import TamariInterval, Tree, dec_masks, mask_pairs, subtree_spans


def _cover_masks(p: IntervalPoset) -> list[int]:
    """Up-covers of each vertex: its up-set minus the up-sets above it."""
    up = p.up
    return [mask & ~_or_rows(up, mask) for mask in up]


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


class StatPair(NamedTuple):
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


class FamilyBits(NamedTuple):
    """The lower trees of one upper tree, all and per family, as bitsets
    over ``enumerate_trees(n)``: bit s stands for the s-th tree."""

    upper: int
    lowers: int
    exceptional: int
    modern: int
    new: int
    infinitely_modern: int


def family_bits(n: int, uppers: Iterable[int] | None = None) -> Iterator[FamilyBits]:
    """The :class:`FamilyBits` of the trees of size ``n`` at the indices
    ``uppers``, in that order, or of every tree in the order of
    ``enumerate_trees(n)``.  Each lower S of T stays its own bit, so every
    count is still exact, and each family is a test on per-tree data,
    read for all lowers at once:

    - S <= T iff r_i(S) <= r_i(T) for every i (Huang-Tamari 1972), so
      the lowers are the AND over i of ``at_most[i][r_i(T)]``;
    - [S, T] is modern iff no vertex has a left child in T and a right
      child in S, and S has one at v iff r_v(S) > 0, so the modern lowers
      keep ``at_most[v][0]`` for every v with a left child in T;
    - [S, T] is new iff S and T share no leaf span but the full one
      (:func:`is_new_interval`), so the new lowers miss
      ``span_bits[span]`` for each of T's other leaf spans;
    - [S, T] is exceptional iff no y has b < first_T(a) and
      last_S(b) < a, for a and b of y in T and in S as in
      :class:`posets.Universe` (such a y has up-covers a and b, neither
      below the other), so the exceptional lowers miss, for each y,
      ``witness[y - 1][f, a]``, the trees with b_y < f and
      last_S(b_y) < a, at T's (f, a) = (first_T(a), a);
    - [S, T] is infinitely modern iff dr(S) <= ir(T), as in :func:`stat`.

    The per-tree bitsets are columns of the universe, built once per
    size; the per-upper ones are built here and not kept.
    """
    u = universe(n)
    at_most, dr_at_most, span_bits, witness = u.at_most, u.dr_at_most, u.span_bits, u.witness
    full = (1, n + 1)
    for upper in range(len(u.brackets)) if uppers is None else uppers:
        r, left = u.brackets[upper], u.lefts[upper]
        lowers = reduce(and_, map(getitem, at_most, r))
        modern = reduce(and_, (at_most[v][0] for v, l in enumerate(left) if l), lowers)
        shared = reduce(or_, (span_bits[s] for s in u.spans[upper] if s != full), 0)
        crossed = reduce(or_, map(getitem, witness, u.exc_upper[upper]))
        # x ^ (x & y) is x & ~y, without the negative int: about 4x faster
        yield FamilyBits(
            upper=upper,
            lowers=lowers,
            exceptional=lowers ^ (lowers & crossed),
            modern=modern,
            new=lowers ^ (lowers & shared),
            infinitely_modern=lowers & dr_at_most[u.ir[upper]],
        )


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
