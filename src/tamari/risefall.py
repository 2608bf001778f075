"""Rise and fall operations, and the insertion/removal bijection between
statistic classes of infinitely modern posets.

Rise shifts every increasing relation one step right and grows the carrier
by one; fall is the inverse.  Both return a :class:`RangeRelation` because
the result need not be a poset; validity is a separate, testable step.
"""

from __future__ import annotations

from .classify import stat
from .posets import (
    IntervalPoset,
    InvalidIntervalPoset,
    Pair,
    RangeRelation,
    _validated,
    validate,
)
from .trees import dec_masks, inc_masks


def _as_relation(p: IntervalPoset | RangeRelation) -> RangeRelation:
    if isinstance(p, IntervalPoset):
        return p.as_relation()
    return p


def rise(p: IntervalPoset | RangeRelation) -> RangeRelation:
    """Size n+1; decreasing pairs kept, each increasing (x, y) -> (x+1, y+1).

    The result validates as an interval-poset iff ``p`` is modern.
    """
    rel = _as_relation(p)
    pairs = rel.dec | frozenset((x + 1, y + 1) for (x, y) in rel.inc)
    return RangeRelation(rel.n + 1, pairs)


def fall(p: IntervalPoset | RangeRelation) -> RangeRelation:
    """Size n-1; decreasing pairs kept, each increasing (x, y) -> (x-1, y-1).

    Requires no increasing relation from 1 and no decreasing relation
    from n.  The result validates iff ``p`` is new.
    """
    rel = _as_relation(p)
    if any(x == 1 for (x, y) in rel.inc):
        raise ValueError("fall undefined: increasing relation starting at 1")
    if any(x == rel.n for (x, y) in rel.dec):
        raise ValueError(f"fall undefined: decreasing relation starting at {rel.n}")
    pairs = rel.dec | frozenset((x - 1, y - 1) for (x, y) in rel.inc)
    return RangeRelation(rel.n - 1, pairs)


def rise_k(p: IntervalPoset | RangeRelation, k: int) -> RangeRelation:
    """k-fold iterated rise; k = 0 is the identity."""
    if k < 0:
        raise ValueError("k must be non-negative")
    rel = _as_relation(p)
    for _ in range(k):
        rel = rise(rel)
    return rel


def iterated_rise_valid(p: IntervalPoset, k_max: int | None = None) -> bool:
    """Oracle for infinite modernity: every rise up to ``k_max`` (default
    n+1) validates.  n+1 rises suffice to expose any dr > ir conflict since
    decreasing relations stay put while length-1 increasing relations shift
    right one step per rise."""
    if k_max is None:
        k_max = p.n + 1
    # the risen relation stays unclosed between rises, as ``rise_k`` keeps it
    dec, inc = list(dec_masks(p.up)), list(inc_masks(p.up))
    for _ in range(k_max):
        dec.append(0)
        inc = [0] + [mask << 1 for mask in inc]
        try:
            _validated([d | i for d, i in zip(dec, inc)])
        except InvalidIntervalPoset:
            return False
    return True


def insert_fik(p: IntervalPoset, i: int, k: int) -> IntervalPoset:
    """Insert a vertex at position k on the increasing side and i on the
    decreasing side, adding relations k <| k+1 and i <| i-1.

    Requires 1 <= i <= k <= n+1 and ``p`` infinitely modern with
    dr(p) <= i and k-1 <= ir(p).  The result has statistic (ir, dr) = (k, i)
    and is again infinitely modern.
    """
    n = p.n
    if not 1 <= i <= k <= n + 1:
        raise ValueError(f"need 1 <= i <= k <= {n + 1}, got i={i}, k={k}")
    s = stat(p)
    if not (s.dr <= i and k - 1 <= s.ir):
        raise ValueError(
            f"poset with stat (ir={s.ir}, dr={s.dr}) not insertable at (i={i}, k={k})"
        )
    pairs: set[Pair] = set()
    if k <= n:  # no increasing relation is added when k = n+1
        pairs.add((k, k + 1))
    if i >= 2:  # no decreasing relation is added when i = 1
        pairs.add((i, i - 1))
    for (x, y) in p.relations:
        if x < y:  # increasing, shifted around position k
            if y < k:
                pairs.add((x, y))
            elif x < k:
                pairs.add((x, y + 1))
            else:
                pairs.add((x + 1, y + 1))
        else:  # decreasing (x, y) = y' <| x' with x' < y', shifted around i
            hi, lo = x, y
            if i <= lo:
                pairs.add((hi + 1, lo + 1))
            elif i <= hi:
                pairs.add((hi + 1, lo))
            else:
                pairs.add((hi, lo))
    result = validate(RangeRelation(n + 1, frozenset(pairs)))
    out = stat(result)
    assert (out.ir, out.dr) == (k, i), "insertion left the wrong statistic"
    return result


def remove_rho(p: IntervalPoset) -> IntervalPoset:
    """Inverse of :func:`insert_fik`: drop the vertex at position ir(p) on
    the increasing side and dr(p) on the decreasing side.

    Requires ``p`` infinitely modern of size >= 2.
    """
    s = stat(p)
    if s.dr > s.ir:
        raise ValueError("removal requires an infinitely modern poset")
    if p.n < 2:
        raise ValueError("removal requires size at least 2")
    i, k = s.dr, s.ir
    pairs: set[Pair] = set()
    for (a, b) in p.relations:
        if a < b:  # increasing
            if a < k < b:
                pairs.add((a, b - 1))
            elif k < a:
                pairs.add((a - 1, b - 1))
        else:  # decreasing b <| a stored as (a, b), b < a
            hi, lo = a, b
            if hi < i:
                pairs.add((hi, lo))
            elif lo < i < hi:
                pairs.add((hi - 1, lo))
    result = validate(RangeRelation(p.n - 1, frozenset(pairs)))
    out = stat(result)
    assert out.dr <= i and k - 1 <= out.ir, "removal left the statistic out of range"
    return result
